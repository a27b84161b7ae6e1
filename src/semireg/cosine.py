"""Cosine operator families and the zero-two dichotomy.

A family with a normal matrix is sampled from its eigenpair
(``linalg.spectral``, once per family) as C(t) = V cosh(t w) V^H and
S(t) = V t sinhc(t w) V^H, w = sqrt(lam) for a generator (even in w, so
no branch cut) and w = mu for a group.  A non-normal generator takes the
block exponential exp(t [[0, I], [A, 0]]) = [[C(t), S(t)], [A S(t), C(t)]],
a non-normal group B the exponentials e^{+-tB} and phi1(+-tB).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .discpoly import Polynomial, eval_matrix, power_expand
from .errors import (BadParams, NumericalError, QuadratureDivergence,
                     SeriesNotConverged, TailTooFat)
from .linalg import (_norm1, _from_eig, mat_exp, op_norm,
                     quad_strong_integral, resolvent, spectral)
from .semigroup import (GrowthBound, _check_grid, _inverse_dim_limit,
                        _smallest_decade_max)
from .spaces import GridSpace

__all__ = [
    "CosineFamily",
    "FattoriniReport",
    "ZeroTwoReport",
    "cosine_from_generator",
    "cosine_from_group",
    "dalembert_residual",
    "fattorini_series",
    "generator_residual",
    "laplace_transform_check",
    "zero_two_polynomial_witness",
    "zero_two_profile",
]

_GEN_CHECK_TOL = 1e-6
_PLATEAU_HIGH = 2.0 - 0.05
_PLATEAU_LOW = 0.05
_FATTORINI_REFINE = 1e-6     # grid doubling stops once the final sum moves less
_FATTORINI_TAIL = 1e-4       # largest relative move of the last partial sum
_WITNESS_POLY = Polynomial([0.5, -1.0, 0.5])   # (z - 1)^2 / 2


def _sinhc(z: np.ndarray) -> np.ndarray:
    """sinh(z)/z, entire, stable near 0."""
    z = np.asarray(z, dtype=complex)
    small = np.abs(z) < 1e-4
    safe = np.where(small, 1.0, z)
    out = np.sinh(safe) / safe
    series = 1.0 + z * z / 6.0 * (1.0 + z * z / 20.0)
    return np.where(small, series, out)


class CosineFamily:
    """Sampled cosine family t -> (C(t), S(t)) for a generator matrix."""

    def __init__(self, generator: np.ndarray, group: Optional[np.ndarray] = None,
                 label: str = "", growth: Optional[GrowthBound] = None,
                 verify: bool = True):
        A = np.asarray(generator, dtype=complex)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise BadParams(f"generator must be square, got shape {A.shape}")
        self.generator = A
        self.group = None if group is None else np.asarray(group, dtype=complex)
        self.label = label
        self.growth = growth
        self.eig = spectral(A if self.group is None else self.group)
        if verify:
            res = generator_residual(self, 0.7, _generator_step(A))
            if res > _GEN_CHECK_TOL:
                raise NumericalError(
                    f"cosine family failed the generator check: "
                    f"relative residual {res:.3e} at t = 0.7")

    @property
    def dim(self) -> int:
        return self.generator.shape[0]

    def sample(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """(C(t), S(t)); C is even and S is odd in t."""
        t = float(t)
        if self.eig is not None:
            V, lam = self.eig
            w = lam if self.group is not None else np.sqrt(lam)
            with np.errstate(over="ignore", invalid="ignore"):
                C, S = _from_eig(V, np.cosh(t * w)), _from_eig(V, t * _sinhc(t * w))
            if not (np.all(np.isfinite(C)) and np.all(np.isfinite(S))):
                raise NumericalError(f"C(t) or S(t) overflows at t = {t}")
            return C, S
        if self.group is not None:
            return self._sample_group(t)
        n = self.dim
        block = np.zeros((2 * n, 2 * n), dtype=complex)
        block[:n, n:] = np.eye(n)
        block[n:, :n] = self.generator
        E = mat_exp(block, t)
        return E[:n, :n], E[:n, n:]

    def _sample_group(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        B = self.group
        C = 0.5 * (mat_exp(B, t) + mat_exp(B, -t))
        # int_0^t e^{sB} ds = t * phi1(tB), phi1 read off a block exponential.
        S = 0.5 * t * (_phi1(t * B) + _phi1(-t * B))
        return C, S

    def group_op(self, t: float) -> np.ndarray:
        if self.group is None:
            raise BadParams("family was not built from a group")
        return mat_exp(self.group, t, self.eig)


def _phi1(M: np.ndarray) -> np.ndarray:
    n = M.shape[0]
    block = np.zeros((2 * n, 2 * n), dtype=complex)
    block[:n, :n] = M
    block[:n, n:] = np.eye(n)
    return mat_exp(block, 1.0)[:n, n:]


def cosine_from_generator(A, label: str = "",
                          growth: Optional[GrowthBound] = None,
                          verify: bool = True) -> CosineFamily:
    """Cosine family of a generator matrix."""
    return CosineFamily(A, None, label, growth, verify)


def cosine_from_group(B, label: str = "",
                      growth: Optional[GrowthBound] = None,
                      verify: bool = True) -> CosineFamily:
    """C(t) = (e^{tB} + e^{-tB})/2; its generator is B^2.

    Sampled from the group itself, a distinct path from the family of
    the generator B^2, which cross-checks it.
    """
    B = np.asarray(B, dtype=complex)
    return CosineFamily(B @ B, B, label, growth, verify)


def _generator_step(A: np.ndarray) -> float:
    return 3.2e-4 / math.sqrt(max(1.0, _norm1(A)))


def generator_residual(fam: CosineFamily, t: float, h: float = 1e-4) -> float:
    """Relative residual of C''(t) = A C(t) by central differences."""
    Cm, _ = fam.sample(t - h)
    C0, _ = fam.sample(t)
    Cp, _ = fam.sample(t + h)
    second = (Cp - 2.0 * C0 + Cm) / h ** 2
    target = fam.generator @ C0
    scale = 1.0 + float(np.linalg.norm(target, 2))
    return float(np.linalg.norm(second - target, 2)) / scale


def dalembert_residual(fam: CosineFamily, t: float, s: float) -> float:
    """|| 2 C(t) C(s) - C(t+s) - C(t-s) ||_2."""
    Ct, _ = fam.sample(t)
    Cs, _ = fam.sample(s)
    Cp, _ = fam.sample(t + s)
    Cm, _ = fam.sample(t - s)
    return float(np.linalg.norm(2.0 * (Ct @ Cs) - Cp - Cm, 2))


def laplace_transform_check(fam: CosineFamily, lam: float,
                            horizon_cap: float = 256.0) -> dict:
    """lam * (lam^2 - A)^{-1} = int_0^inf e^{-lam t} C(t) dt, truncated.

    The horizon doubles until the estimated tail drops below 1e-12;
    a tail that cannot be truncated raises ``TailTooFat``.
    """
    if lam <= 0.0:
        raise BadParams(f"need lam > 0, got {lam}")
    h = 2.0
    while True:
        n_half = float(np.linalg.norm(fam.sample(h / 2.0)[0], 2))
        n_full = float(np.linalg.norm(fam.sample(h)[0], 2))
        omega_hat = 2.0 * math.log(max(n_full, 1e-300) /
                                   max(n_half, 1e-300)) / h
        omega_hat = max(omega_hat, 0.0)
        if lam <= omega_hat:
            if h >= horizon_cap:
                raise TailTooFat(
                    f"growth estimate {omega_hat:.3g} >= lam = {lam}")
            h *= 2.0
            continue
        tail = math.exp(-lam * h) * n_full / (lam - omega_hat)
        if tail < 1e-12:
            break
        if h >= horizon_cap:
            raise TailTooFat(
                f"tail estimate {tail:.3e} at horizon cap {horizon_cap}")
        h *= 2.0

    def integrand(t: float) -> np.ndarray:
        return math.exp(-lam * t) * fam.sample(t)[0]

    integral = quad_strong_integral(integrand, 0.0, h).value
    lhs = lam * resolvent(fam.generator, lam ** 2)
    residual = float(np.linalg.norm(lhs - integral, 2)
                     / np.linalg.norm(lhs, 2))
    return {"residual": residual, "horizon": h, "tail_estimate": tail,
            "ok": residual <= 1e-6}


@dataclass(frozen=True)
class ZeroTwoReport:
    dims: list
    t_grid: np.ndarray
    values: list                    # one value array per truncation
    plateaus: list
    extrapolated: float
    verdict: str


def zero_two_profile(families: Sequence[CosineFamily], t_grid,
                     p: float = 2.0) -> ZeroTwoReport:
    """Profile of ||C(t) - I|| across truncations and the 0-2 verdict.

    Plateaus (smallest-decade maxima) near 2 flag the discontinuous
    branch of the dichotomy, plateaus near 0 the uniformly continuous
    one; the largest dimension decides, with thresholds 2 - 0.05 and
    0.05, and a 1/dim fit reports the extrapolated limit.
    """
    t = _check_grid(t_grid)
    dims, values, plateaus = [], [], []
    for fam in families:
        space = GridSpace.unit(fam.dim, p)
        ident = np.eye(fam.dim, dtype=complex)
        vals = np.array([op_norm(fam.sample(float(ti))[0] - ident, space).value
                         for ti in t])
        dims.append(fam.dim)
        values.append(vals)
        plateaus.append(_smallest_decade_max(t, vals))
    order = int(np.argmax(dims))
    largest = plateaus[order]
    if largest >= _PLATEAU_HIGH:
        verdict = "plateau_two"
    elif largest <= _PLATEAU_LOW:
        verdict = "plateau_zero"
    else:
        verdict = "intermediate"
    extrapolated = _inverse_dim_limit(np.asarray(dims, dtype=float),
                                      np.asarray(plateaus))
    return ZeroTwoReport(dims, t, values, plateaus, extrapolated, verdict)


def zero_two_polynomial_witness(fam: CosineFamily, t_grid, N: int,
                                p: float = 2.0) -> dict:
    """Witness f(z) = (z - 1)^2 / 2 on the group behind a cosine family.

    f(U(t)) = U(t)(C(t) - I), so ||f^N(U(t))|| is computed both as a
    polynomial in U(t) (Horner) and as U(N t)(C(t) - I)^N; the two must
    agree to 1e-8 relative, and both obey M e^{omega N t} ||C(t)-I||^N.
    """
    if fam.group is None or fam.growth is None:
        raise BadParams("witness needs a group-built family with growth data")
    if N < 1:
        raise BadParams(f"N must be >= 1, got {N}")
    t = np.asarray(t_grid, dtype=float).reshape(-1)
    space = GridSpace.unit(fam.dim, p)
    fN = power_expand(_WITNESS_POLY, N)
    g = fam.growth
    ident = np.eye(fam.dim, dtype=complex)
    rows = []
    for ti in t:
        U = fam.group_op(float(ti))
        direct = eval_matrix(fN, U)
        C = fam.sample(float(ti))[0]
        factored = fam.group_op(float(N * ti)) @ np.linalg.matrix_power(
            C - ident, N)
        agree = float(np.linalg.norm(direct - factored, 2)
                      / max(np.linalg.norm(direct, 2), 1e-300))
        value = op_norm(direct, space).value
        cminus = op_norm(C - ident, space).value
        bound = g.M * math.exp(g.omega * N * ti) * cminus ** N
        rows.append({"t": float(ti), "value": value, "bound": bound,
                     "agreement": agree,
                     "ok": bool(agree <= 1e-8 and value <= bound * (1 + 1e-9) + 1e-12)})
    return {"N": N, "disc_value": 2.0 ** N, "rows": rows,
            "ok": all(r["ok"] for r in rows)}


@dataclass(frozen=True)
class FattoriniReport:
    omega: float
    t: float
    n_max: int
    nodes: int
    refinements: int
    partial_sums: list              # P_m = sum_{n <= m} (-omega)^n C_n(t)
    partial_errors: np.ndarray      # ||P_n - reference||_2 per n
    term_norms: np.ndarray
    term_bounds: np.ndarray
    bound_ok: bool
    final_error: float


def _convolve_level(S_mem: np.ndarray, prev: np.ndarray, h: float) -> np.ndarray:
    """C_n(s_i) = int_0^{s_i} S(s_i - s) C_{n-1}(s) ds by trapezoid on the
    shared uniform grid.  Row i is one product of [S(s_i) .. S(s_0)] side by
    side with [C_{n-1}(s_0); ..; C_{n-1}(s_i)] stacked, less half of each
    endpoint term; the S(0) endpoint is kept although S(0) = 0."""
    m, n, _ = prev.shape
    S_row = S_mem[::-1].transpose(1, 0, 2).reshape(n, m * n)
    P_col = prev.reshape(m * n, n)
    out = np.zeros_like(prev)
    for i in range(1, m):
        out[i] = S_row[:, (m - 1 - i) * n:] @ P_col[:(i + 1) * n]
    out[1:] -= 0.5 * (S_mem[1:] @ prev[0] + S_mem[0] @ prev[1:])
    return h * out


def fattorini_series(fam: CosineFamily, omega: float, n_max: int, t: float,
                     quad_nodes: int = 128,
                     refine_tol: float = _FATTORINI_REFINE,
                     tail_tol: float = _FATTORINI_TAIL,
                     max_refinements: int = 5) -> FattoriniReport:
    """Perturbation series for the cosine family of A - omega I:

        C_0 = C,  C_n(t) = int_0^t S(t - s) C_{n-1}(s) ds,
        sum_n (-omega)^n C_n(t) -> cosine of A - omega at t.

    Built on a shared uniform s-grid with memoized (C, S) samples; the
    grid doubles until the final partial sum moves less than 1e-6, and
    the term bound ||C_n(t)|| <= M e^{omega t} t^{2n} / (2n)! is checked
    with M fitted as the sampled sup of ||C|| on [0, t].
    """
    if omega < 0.0:
        raise BadParams(f"shift omega must be >= 0, got {omega}")
    if t < 0.0 or n_max < 1:
        raise BadParams("need t >= 0 and n_max >= 1")
    if t == 0.0:
        # C(0) = I and C_n(0) = 0 for n >= 1; no quadrature involved.
        ident = np.eye(fam.dim, dtype=complex)
        zeros = np.zeros(n_max + 1)
        norms = zeros.copy()
        norms[0] = 1.0
        bounds = zeros.copy()
        bounds[0] = 1.0 + 1e-6
        return FattoriniReport(omega, 0.0, n_max, 0, 0,
                               [ident.copy() for _ in range(n_max + 1)],
                               zeros.copy(), norms, bounds, True, 0.0)
    m = int(quad_nodes)
    C_samples = S_samples = None
    prev_final = None
    refinements = 0
    while True:
        h = t / m
        if C_samples is None:
            pts = [fam.sample(i * h) for i in range(m + 1)]
        else:
            pts = [None] * (m + 1)
            for i in range(0, m + 1, 2):
                pts[i] = (C_samples[i // 2], S_samples[i // 2])
            for i in range(1, m + 1, 2):
                pts[i] = fam.sample(i * h)
        C_samples = np.stack([pq[0] for pq in pts])
        S_samples = np.stack([pq[1] for pq in pts])

        terms_at_t = [C_samples[-1]]
        level = C_samples
        for _ in range(n_max):
            level = _convolve_level(S_samples, level, h)
            terms_at_t.append(level[-1])
        partials = []
        acc = np.zeros_like(C_samples[-1])
        for n, term in enumerate(terms_at_t):
            acc = acc + (-omega) ** n * term
            partials.append(acc.copy())
        final = partials[-1]
        if prev_final is not None and float(
                np.linalg.norm(final - prev_final, 2)) < refine_tol:
            break
        if refinements >= max_refinements:
            raise QuadratureDivergence(
                f"Fattorini grid still moving after {refinements} doublings "
                f"({m} nodes)")
        prev_final = final
        refinements += 1
        m *= 2

    last_move = float(np.linalg.norm(partials[-1] - partials[-2], 2)
                      / max(np.linalg.norm(partials[-1], 2), 1e-300))
    if last_move > tail_tol:
        raise SeriesNotConverged(
            f"partial sums still moving {last_move:.3e} (> {tail_tol}) at "
            f"n_max = {n_max}, t = {t}, omega = {omega}")
    reference = cosine_from_generator(
        fam.generator - omega * np.eye(fam.dim), verify=False).sample(t)[0]
    errors = np.linalg.norm(np.stack(partials) - reference, 2, axis=(1, 2))
    M_fit = (1.0 + 1e-6) * float(np.max(
        np.linalg.norm(C_samples, 2, axis=(1, 2))))
    term_norms = np.linalg.norm(np.stack(terms_at_t), 2, axis=(1, 2))
    term_bounds = np.array([M_fit * math.exp(omega * t) * t ** (2 * n)
                            / math.factorial(2 * n)
                            for n in range(n_max + 1)])
    bound_ok = bool(np.all(term_norms <= term_bounds + 1e-8))
    return FattoriniReport(omega, t, n_max, m, refinements, partials, errors,
                           term_norms, term_bounds, bound_ok, errors[-1])
