"""Independent oracles for the benchmark's output checks.

Nothing in this module calls semireg.  Expected values come from the
closed-form spectra of the zoo generators, scipy's ``expm``, numpy's
SVD, ``eigh`` and inverse, and sign patterns enumerated here.  Every
check raises ``CheckFailure`` naming the first value that disagrees,
together with the tolerance it was held to.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np

# Tolerances, one per kind of comparison.  Each sits about two orders of
# magnitude above the largest disagreement seen on correct code.
RTOL_SPECTRAL = 1e-8        # profile / resolvent value vs closed-form spectrum
RTOL_DENSE = 1e-7           # profile value vs scipy expm + numpy norm
RTOL_WITNESS = 1e-9         # reported R-estimate vs own sign enumeration
RTOL_COSINE = 1e-8          # C(t) vs eigh-based cosh(t sqrt(lambda))
RTOL_FATTORINI = 1e-5       # final partial sum vs eigh-based cosine of A - omega
DALEMBERT_TOL = 1e-8        # relative to 1 + ||C(t)|| ||C(s)||
MC_SE_FACTOR = 8.0          # Monte Carlo vs exact, in reported standard errors
DISC_SAMPLES = 2 ** 16      # circle samples for the disc-norm bracket
ZERO_TWO_HIGH = 1.95
ZERO_TWO_LOW = 0.05
ZOO_ATOL = 1e-12


class CheckFailure(Exception):
    """An output of the program disagrees with the benchmark's oracle."""


def require(cond, message: str) -> None:
    if not cond:
        raise CheckFailure(message)


def assert_close(what: str, got, want, rtol: float, atol: float = 0.0) -> None:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    require(got.shape == want.shape,
            f"{what}: shape {got.shape} != expected {want.shape}")
    limit = atol + rtol * np.abs(want)
    bad = ~(np.abs(got - want) <= limit)      # NaN counts as bad
    if np.any(bad):
        i = int(np.argmax(bad.ravel()))
        raise CheckFailure(
            f"{what}[{i}]: got {got.ravel()[i]!r}, expected "
            f"{want.ravel()[i]!r} within {limit.ravel()[i]:.3g}")


# ------------------------------------------------------------ zoo closed forms

DIAGONAL_GENERATORS = ("diag_ray", "skew_diag")


def fourier_modes(dim: int) -> np.ndarray:
    """Integer Fourier modes in FFT order: 0, 1, ..., -2, -1."""
    m = np.arange(dim)
    m[m >= (dim + 1) // 2] -= dim
    return m


def spectrum(name: str, dim: int):
    """Eigenvalues of a normal zoo generator at its default parameters
    (phi = pi/4, h = 1, period = 2 pi); None for the Jordan block."""
    k = np.arange(1, dim + 1, dtype=float)
    if name == "diag_ray":
        return -np.exp(1j * math.pi / 4.0) * k
    if name == "skew_diag":
        return 1j * k
    if name == "tridiag_laplacian":
        return (-4.0 * np.sin(k * math.pi / (2.0 * (dim + 1))) ** 2).astype(complex)
    if name in ("heat_conv", "shift_periodic"):
        omega = fourier_modes(dim).astype(float)
        return (-(omega ** 2) + 0j) if name == "heat_conv" else 1j * omega
    return None


def closed_form_matrix(name: str, dim: int) -> np.ndarray:
    """The zoo generator at its default parameters, entry by entry."""
    if name == "jordan":
        return np.diag(np.full(dim, -1.0 + 0j)) + np.diag(np.ones(dim - 1), 1)
    if name == "tridiag_laplacian":
        A = (np.diag(np.full(dim, -2.0)) + np.diag(np.ones(dim - 1), 1)
             + np.diag(np.ones(dim - 1), -1))
        return A.astype(complex)
    lam = spectrum(name, dim)
    if name in DIAGONAL_GENERATORS:
        return np.diag(lam)
    # Circulant: A[j, k] = (1/n) sum_m s_m exp(2 pi i m (j - k) / n).
    j = np.arange(dim)
    diff = j[:, None] - j[None, :]
    phases = np.exp(2j * math.pi * np.multiply.outer(diff, fourier_modes(dim)) / dim)
    return phases @ lam / dim


# ------------------------------------------------------------- matrix helpers

def poly_eval(coeffs, z):
    """Horner on scalars or arrays; coefficients lowest degree first."""
    coeffs = np.asarray(coeffs, dtype=complex)
    out = np.full_like(np.asarray(z, dtype=complex), coeffs[-1])
    for a in coeffs[-2::-1]:
        out = out * z + a
    return out


def poly_matrix(coeffs, M: np.ndarray) -> np.ndarray:
    coeffs = np.asarray(coeffs, dtype=complex)
    ident = np.eye(M.shape[0], dtype=complex)
    out = coeffs[-1] * ident
    for a in coeffs[-2::-1]:
        out = out @ M + a * ident
    return out


def log_grid(t_max: float, decades: float, per_decade: int) -> np.ndarray:
    """t_max * 10^(-k / per_decade), k = 0 .. decades * per_decade."""
    k = np.arange(int(round(decades * per_decade)) + 1)
    return t_max * 10.0 ** (-k / per_decade)


def expm(M: np.ndarray) -> np.ndarray:
    # scipy loads on first use, after the set-up that setup_s times.
    import scipy.linalg
    return scipy.linalg.expm(M)


def poly_of_expm(coeffs, A: np.ndarray, t: float) -> np.ndarray:
    return poly_matrix(coeffs, expm(t * A))


def dense_norm(M: np.ndarray, p: float) -> float:
    if p == 2.0:
        return float(np.linalg.norm(M, 2))
    if math.isinf(p):
        return float(np.max(np.sum(np.abs(M), axis=1)))
    if p == 1.0:
        return float(np.max(np.sum(np.abs(M), axis=0)))
    raise ValueError(f"no closed-form norm at p = {p}")


def spectral_profile(coeffs, lam: np.ndarray, t: np.ndarray, N: int = 1,
                     K: float = 0.0) -> np.ndarray:
    """max_k |f(e^{t lam_k})|^N |e^{K t lam_k}| for each t."""
    tl = np.multiply.outer(np.asarray(t, dtype=float), lam)
    vals = np.abs(poly_eval(coeffs, np.exp(tl))) ** N * np.exp(K * tl.real)
    return np.max(vals, axis=1)


def dense_profile_value(A: np.ndarray, coeffs, t: float, p: float,
                        N: int = 1, K: float = 0.0) -> float:
    """||f(e^{tA})^N e^{K t A}||_p through scipy's expm."""
    F = np.linalg.matrix_power(poly_of_expm(coeffs, A, t), N)
    if K > 0.0:
        F = F @ expm(K * t * A)
    return dense_norm(F, p)


def check_disc_value(disc_value: float, coeffs) -> None:
    """disc_value lies in [sampled max, sampled max + Lipschitz slack]."""
    coeffs = np.asarray(coeffs, dtype=complex)
    theta = np.linspace(0.0, 2.0 * math.pi, DISC_SAMPLES, endpoint=False)
    sampled = float(np.max(np.abs(poly_eval(coeffs, np.exp(1j * theta)))))
    lipschitz = float(np.sum(np.arange(coeffs.size) * np.abs(coeffs)))
    slack = math.pi / DISC_SAMPLES * lipschitz + 1e-12
    require(sampled * (1.0 - 1e-12) <= disc_value <= sampled + slack,
            f"disc_value {disc_value!r} outside [{sampled!r}, {sampled + slack!r}]")


def check_profile(values, t_grid, disc_value, *, coeffs, name, dim, p, N=1,
                  K=0.0, matrix=None, subsample=()) -> None:
    """Profile values against the spectrum (normal generators at p = 2, or
    diagonal ones at any p) or scipy expm on the given grid indices."""
    values = np.asarray(values, dtype=float)
    t_grid = np.asarray(t_grid, dtype=float)
    require(values.shape == t_grid.shape, "profile length differs from grid")
    lam = spectrum(name, dim)
    if lam is not None and (p == 2.0 or name in DIAGONAL_GENERATORS):
        want = spectral_profile(coeffs, lam, t_grid, N, K)
        assert_close(f"{name} profile", values, want, RTOL_SPECTRAL, 1e-12)
    else:
        for i in subsample:
            want = dense_profile_value(matrix, coeffs, float(t_grid[i]), p, N, K)
            assert_close(f"{name} profile at t={t_grid[i]:.4g}", values[i], want,
                         RTOL_DENSE, 1e-10)
    # The converse profile reports ||f||_D^N.
    check_disc_value(disc_value ** (1.0 / N), coeffs)


def sector_admissible(alpha: np.ndarray, zeta: complex, t0: float) -> np.ndarray:
    theta = math.atan2(zeta.imag, zeta.real)
    theta_pos = theta if theta > 0.0 else theta + 2.0 * math.pi
    th = np.where(alpha > 0.0, theta_pos, theta_pos - 2.0 * math.pi)
    return np.abs(alpha) >= np.abs(th) / t0


def check_sector(alpha, sups, admissible, *, zeta, t0, name, dim, p, matrix,
                 subsample=()) -> None:
    """|alpha| ||(i alpha - A)^{-1}|| on admissible alphas: closed form
    |alpha| / min_k |i alpha - lam_k| for normal generators at p = 2,
    numpy's inverse on the given indices otherwise."""
    alpha = np.asarray(alpha, dtype=float)
    sups = np.asarray(sups, dtype=float)
    mask = np.asarray(admissible, dtype=bool)
    require(np.array_equal(mask, sector_admissible(alpha, zeta, t0)),
            "sector admissibility mask differs from |alpha| >= |theta| / t0")
    require(np.any(mask), "sector report has no admissible alpha")
    lam = spectrum(name, dim)
    if lam is not None and p == 2.0:
        want = np.abs(alpha[mask]) / np.min(
            np.abs(1j * alpha[mask][:, None] - lam[None, :]), axis=1)
        assert_close(f"{name} resolvent sups", sups[mask], want, RTOL_SPECTRAL)
        return
    idx = np.flatnonzero(mask)
    ident = np.eye(dim, dtype=complex)
    for j in subsample:
        i = int(idx[j % idx.size])
        R = np.linalg.inv(1j * alpha[i] * ident - matrix)
        assert_close(f"{name} resolvent sup at alpha={alpha[i]:.4g}", sups[i],
                     abs(alpha[i]) * dense_norm(R, p), RTOL_DENSE)


# ------------------------------------------------------- randomized bounds

def sign_patterns(n: int) -> np.ndarray:
    return np.array(list(itertools.product((-1.0, 1.0), repeat=n)))


def grid_norms(rows: np.ndarray, p: float, weights: np.ndarray) -> np.ndarray:
    a = np.abs(rows)
    if math.isinf(p):
        return np.max(a, axis=-1)
    return np.sum(weights * a ** p, axis=-1) ** (1.0 / p)


def rademacher_exact(X: np.ndarray, p: float, weights: np.ndarray,
                     rad_p: float) -> float:
    norms = grid_norms(sign_patterns(X.shape[0]) @ X, p, weights)
    return float(np.mean(norms ** rad_p) ** (1.0 / rad_p))


def witness_ratio(family, indices, X, p, weights, rad_p) -> float:
    TX = np.stack([family[j] @ X[k] for k, j in enumerate(indices)])
    return rademacher_exact(TX, p, weights, rad_p) / rademacher_exact(X, p, weights, rad_p)


def check_rbound(value, indices, vectors, trials, *, family, p, weights,
                 rad_p, budget) -> None:
    """Witness re-evaluation, the Hilbert-space identity at p = 2 and the
    uniform lower bound at p = 1."""
    require(trials == len(family) + budget + 1,
            f"trials {trials} != singletons {len(family)} + budget {budget} + ascent")
    ratio = witness_ratio(family, indices, np.asarray(vectors), p, weights, rad_p)
    assert_close("R-estimate vs witness enumeration", value, ratio, RTOL_WITNESS)
    if p == 2.0 and rad_p == 2.0 and np.all(weights == 1.0):
        top = max(float(np.linalg.norm(T, 2)) for T in family)
        assert_close("R-estimate vs max ||T_j||_2", value, top, RTOL_WITNESS)
    elif p == 1.0:
        top = max(float(np.max((weights @ np.abs(T)) / weights)) for T in family)
        require(value >= top * (1.0 - RTOL_WITNESS),
                f"R-estimate {value!r} below the largest weighted column sum {top!r}")


def check_r_profile(epsilons, values, *, t_grid, mats) -> None:
    """Nested windows give non-increasing values as epsilon shrinks, and
    at p = 2 each equals the largest ||f(T(t))||_2 in its window."""
    values = np.asarray(values, dtype=float)
    require(np.all(np.diff(values) <= 0.0),
            f"R-profile decreases as epsilon grows: {values.tolist()}")
    t_grid = np.asarray(t_grid, dtype=float)
    norms = np.array([np.linalg.norm(M, 2) for M in mats])
    want = [float(np.max(norms[t_grid <= e * (1.0 + 1e-12)])) for e in epsilons]
    assert_close("R-profile vs window maxima", values, want, RTOL_WITNESS)


def check_monte_carlo(value, se, *, vectors, p, weights, rad_p) -> None:
    exact = rademacher_exact(np.asarray(vectors), p, weights, rad_p)
    require(se > 0.0, f"Monte Carlo standard error {se!r} is not positive")
    require(abs(value - exact) <= MC_SE_FACTOR * se + 1e-12 * exact,
            f"Monte Carlo {value!r} is {abs(value - exact) / se:.2f} standard "
            f"errors from exact {exact!r} (limit {MC_SE_FACTOR})")


# --------------------------------------------------------------- cosine

def cosine_reference(A: np.ndarray, t: float) -> np.ndarray:
    """cosh(t sqrt(A)) for a diagonal or Hermitian matrix."""
    d = np.diag(A)
    if not np.any(A - np.diag(d)):
        return np.diag(np.cosh(t * np.sqrt(d.astype(complex))))
    require(np.allclose(A, A.conj().T, atol=1e-12), "reference needs a Hermitian generator")
    w, V = np.linalg.eigh(A)
    return (V * np.cosh(t * np.sqrt(w.astype(complex)))) @ V.conj().T


def block_cosine(A: np.ndarray, t: float) -> np.ndarray:
    """C(t) as the leading block of scipy's expm of [[0, I], [A, 0]]."""
    n = A.shape[0]
    block = np.zeros((2 * n, 2 * n), dtype=complex)
    block[:n, n:] = np.eye(n)
    block[n:, :n] = A
    return expm(t * block)[:n, :n]


def check_cosine_samples(samples, times, *, generator) -> None:
    for C, t in zip(samples, times):
        ref = cosine_reference(generator, t)
        scale = max(1.0, float(np.linalg.norm(ref, 2)))
        err = float(np.linalg.norm(np.asarray(C) - ref, 2))
        require(err <= RTOL_COSINE * scale,
                f"C({t:.4g}) off the eigh reference by {err:.3e} (limit {RTOL_COSINE * scale:.3e})")


def check_dalembert(residual, t, s, *, generator) -> None:
    limit = DALEMBERT_TOL * (1.0 + np.linalg.norm(cosine_reference(generator, t), 2)
                             * np.linalg.norm(cosine_reference(generator, s), 2))
    require(residual <= limit,
            f"d'Alembert residual {residual:.3e} at (t, s) = ({t:.4g}, {s:.4g}) "
            f"exceeds {limit:.3e}")


def check_zero_two(verdict, plateaus, values, t_grid, *, generators, bounded,
                   subsample=()) -> None:
    """Group families plateau at 2, bounded generators at 0; the profile of
    ||C(t) - I||_2 matches eigh (Hermitian) or scipy expm (otherwise)."""
    if bounded:
        require(verdict == "plateau_zero" and plateaus[-1] <= ZERO_TWO_LOW,
                f"bounded generator gave {verdict} with plateaus {plateaus}")
    else:
        require(verdict == "plateau_two" and plateaus[-1] >= ZERO_TWO_HIGH,
                f"group family gave {verdict} with plateaus {plateaus}")
    t_grid = np.asarray(t_grid, dtype=float)
    for A, vals in zip(generators, values):
        ident = np.eye(A.shape[0])
        hermitian = np.allclose(A, A.conj().T, atol=1e-12)
        for i in (range(t_grid.size) if hermitian else subsample):
            C = (cosine_reference(A, t_grid[i]) if hermitian
                 else block_cosine(A, t_grid[i]))
            assert_close(f"||C(t) - I|| at dim {A.shape[0]}, t={t_grid[i]:.4g}",
                         vals[i], np.linalg.norm(C - ident, 2), RTOL_DENSE, 1e-12)


def check_fattorini(final, *, generator, omega, t) -> None:
    ref = cosine_reference(generator - omega * np.eye(generator.shape[0]), t)
    scale = max(1.0, float(np.linalg.norm(ref, 2)))
    err = float(np.linalg.norm(np.asarray(final) - ref, 2))
    require(err <= RTOL_FATTORINI * scale,
            f"Fattorini final partial sum off the eigh cosine of A - omega by "
            f"{err:.3e} (limit {RTOL_FATTORINI * scale:.3e})")


# ------------------------------------------------------------------ CLI

def read_report(path: str, fmt: str, rows_expected: int | None = None):
    """Parse a JSON or CSV report; CSV must hold a header and rows_expected rows."""
    with open(path) as fh:
        text = fh.read()
    if fmt == "json":
        return json.loads(text)
    lines = text.splitlines()
    require(len(lines) >= 1 and "," in lines[0], f"CSV report {path} has no header")
    width = len(lines[0].split(","))
    rows = [line.split(",") for line in lines[1:]]
    require(all(len(r) == width for r in rows), f"CSV report {path} has ragged rows")
    if rows_expected is not None:
        require(len(rows) == rows_expected,
                f"CSV report {path} has {len(rows)} rows, expected {rows_expected}")
    return {"header": lines[0].split(","), "rows": rows}


def read_matrix_numpy(path: str) -> np.ndarray:
    """Matrix file via numpy's own parser: a dimension line, then re/im pairs."""
    with open(path) as fh:
        dim = int(fh.readline())
        data = np.loadtxt(fh, ndmin=2)
    require(data.shape == (dim, 2 * dim), f"matrix file shape {data.shape}")
    return data[:, 0::2] + 1j * data[:, 1::2]
