"""Semigroup orbits, small-time profiles, and rotation identity checks.

A generator is a square matrix A; its semigroup is T(t) = e^{tA}.  The
central object is the small-time profile of ||f(T(t))|| against the
disc norm of f: the criterion margin is positive when the empirical
limsup stays below ||f||_D, and families that lose the margin as the
truncation dimension grows are flagged by the dichotomy fit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .discpoly import Polynomial, disc_norm, eval_matrix, in_C1, power_expand
from .errors import BadParams, PhaseMismatch, QuadratureDivergence
from .linalg import (_GL_NODES, _GL_WEIGHTS, mat_exp, op_norm,
                     quad_strong_integral, resolvent, spectral)
from .spaces import GridSpace, pnorms

__all__ = [
    "BeurlingProfile",
    "KatoIdentityResult",
    "GeneratorSpec",
    "GrowthBound",
    "SectorReport",
    "beurling_profile",
    "check_growth",
    "converse_profile",
    "dichotomy_fit",
    "kato_resolvent_identity_check",
    "log_time_grid",
    "mild_solution",
    "poly_of_semigroup",
    "sector_report",
]

_PHASE_TOL = 1e-10
_SECTOR_SAMPLES = 64
_SECTOR_DECADES = 4.0
_K_UNBOUNDED = 1e10
_DICHOTOMY_MARGIN = 0.05


@dataclass(frozen=True)
class GrowthBound:
    """Certified ||T(t)|| <= M e^{omega t} on [0, horizon] (p = 2)."""
    M: float
    omega: float
    horizon: float = 1.0


@dataclass(frozen=True)
class GeneratorSpec:
    matrix: np.ndarray
    label: str = ""
    family_index: Optional[int] = None
    growth: Optional[GrowthBound] = None

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @functools.cached_property
    def eig(self):
        """``spectral(matrix)``, once: the pair every T(t) is formed from."""
        return spectral(self.matrix)

    def semigroup(self, t: float) -> np.ndarray:
        return mat_exp(self.matrix, t, self.eig)


def log_time_grid(t_max: float, decades: float, per_decade: int = 16) -> np.ndarray:
    """Decreasing logarithmic time grid spanning the given decades below t_max."""
    if t_max <= 0.0 or decades <= 0.0 or per_decade < 1:
        raise BadParams("log_time_grid needs t_max > 0, decades > 0, per_decade >= 1")
    n = int(round(decades * per_decade))
    return t_max * 10.0 ** (-np.arange(n + 1) / per_decade)


def _check_grid(t_grid: np.ndarray) -> np.ndarray:
    t = np.asarray(t_grid, dtype=float).reshape(-1)
    if t.size < 2 or np.any(t <= 0.0) or np.any(np.diff(t) >= 0.0):
        raise BadParams("t_grid must be positive and strictly decreasing")
    if t[0] / t[-1] < 100.0 * (1.0 - 1e-9):
        raise BadParams("t_grid must span at least two decades")
    return t


def _smallest_decade(t: np.ndarray) -> np.ndarray:
    """Mask of the grid times within a factor 10 of the smallest."""
    return t <= 10.0 * float(t[-1]) * (1.0 + 1e-12)


def _smallest_decade_max(t: np.ndarray, values: np.ndarray) -> float:
    return float(np.max(values[_smallest_decade(t)]))


@dataclass(frozen=True)
class BeurlingProfile:
    t_grid: np.ndarray
    values: np.ndarray
    disc_value: float
    empirical_limsup: float
    margin: float
    estimate: bool


def poly_of_semigroup(f: Polynomial, gen: GeneratorSpec, t: float,
                      s: float = 0.0, method: str = "horner") -> np.ndarray:
    """f(T(t)) T(s), either by Horner in T(t) or as sum a_k T(s + k t).

    The two evaluation orders agree to 1e-9 relative and serve as
    mutual self-tests.
    """
    if t <= 0.0 or s < 0.0:
        raise BadParams(f"need t > 0 and s >= 0, got t={t}, s={s}")
    if method == "horner":
        out = eval_matrix(f, gen.semigroup(t))
        if s > 0.0:
            out = out @ gen.semigroup(s)
        return out
    if method == "direct":
        n = gen.dim
        out = np.zeros((n, n), dtype=complex)
        for k, a in enumerate(f.coeffs):
            if a != 0.0:
                out += a * gen.semigroup(s + k * t)
        return out
    raise BadParams(f"unknown evaluation method {method!r}")


def beurling_profile(gen: GeneratorSpec, f: Polynomial, t_grid,
                     space: GridSpace, seed: int = 0) -> BeurlingProfile:
    """Profile of ||f(T(t))|| on a decreasing log grid.

    The empirical limsup is the maximum over the smallest sampled
    decade; the margin is disc norm minus that value.
    """
    return _profile(gen, f, 0.0, _check_grid(t_grid), space, seed,
                    disc_norm(f).value)


def _profile(gen: GeneratorSpec, g: Polynomial, K: float, t: np.ndarray,
             space: GridSpace, seed: int, disc: float) -> BeurlingProfile:
    """||g(T(t)) T(K t)|| on the checked grid t, against the bound disc."""
    values = np.empty(t.size)
    estimate = False
    for i, ti in enumerate(t):
        mat = eval_matrix(g, gen.semigroup(float(ti)))
        if K > 0.0:
            mat = mat @ gen.semigroup(float(K * ti))
        r = op_norm(mat, space, seed=seed)
        values[i] = r.value
        estimate = estimate or r.estimate
    limsup = _smallest_decade_max(t, values)
    return BeurlingProfile(t, values, disc, limsup, disc - limsup, estimate)


@dataclass(frozen=True)
class KatoIdentityResult:
    lhs: np.ndarray
    rhs: np.ndarray
    residual: float

    def __float__(self) -> float:
        return self.residual


def kato_resolvent_identity_check(gen: GeneratorSpec, zeta: complex, t: float,
                                  alpha: float) -> KatoIdentityResult:
    """Both sides and the relative residual of the rotation identity

        (A - i alpha)^{-1} =
            -e^{i t alpha} (zeta - T(t))^{-1} int_0^t e^{-i s alpha} T(s) ds,

    valid when t * alpha equals the phase of zeta (principal value, or
    shifted by -2 pi for negative alpha).
    """
    if t <= 0.0:
        raise BadParams(f"need t > 0, got {t}")
    if abs(abs(zeta) - 1.0) > 1e-9:
        raise BadParams(f"zeta must have modulus 1, got |zeta| = {abs(zeta)}")
    theta = math.atan2(zeta.imag, zeta.real)
    if not (abs(t * alpha - theta) <= _PHASE_TOL
            or abs(t * alpha - (theta - 2.0 * math.pi)) <= _PHASE_TOL):
        raise PhaseMismatch(
            f"t*alpha = {t * alpha:.12g} matches neither phase {theta:.12g} "
            f"nor {theta - 2.0 * math.pi:.12g} of zeta = {zeta}")
    # (A - i alpha)^{-1} is the negated resolvent (i alpha - A)^{-1}.
    lhs = -resolvent(gen.matrix, 1j * alpha)

    def integrand(s: float) -> np.ndarray:
        return np.exp(-1j * s * alpha) * gen.semigroup(s)

    integral = quad_strong_integral(integrand, 0.0, t).value
    factor = resolvent(gen.semigroup(t), zeta)
    rhs = -np.exp(1j * t * alpha) * (factor @ integral)
    residual = float(np.linalg.norm(lhs - rhs, 2) / np.linalg.norm(lhs, 2))
    return KatoIdentityResult(lhs, rhs, residual)


@dataclass(frozen=True)
class SectorReport:
    zeta: complex
    t0: float
    K: float
    M: float
    alpha_grid: np.ndarray
    resolvent_sups: np.ndarray      # measured ||alpha (A - i alpha)^{-1}||
    bounds: np.ndarray              # K * M * |theta| + tol per admissible alpha
    admissible: np.ndarray          # bool mask on alpha_grid
    C: float
    alpha0_pos: float
    alpha0_neg: float
    k_bounded: bool
    bound_ok: bool
    estimate: bool


def sector_report(gen: GeneratorSpec, zeta: complex, t0: float,
                  space: GridSpace, alpha_grid, seed: int = 0,
                  tol: float = 1e-6) -> SectorReport:
    """Resolvent bound K = sup ||(zeta - T(t))^{-1}|| and the chain check
    ||alpha (A - i alpha)^{-1}|| <= K * M * theta for |alpha| beyond theta/t0.

    Both phase orientations are used: positive alpha against the
    positive phase of zeta, negative alpha against phase - 2 pi.
    """
    if t0 <= 0.0:
        raise BadParams(f"need t0 > 0, got {t0}")
    if abs(abs(zeta) - 1.0) > 1e-9:
        raise BadParams(f"zeta must have modulus 1, got |zeta| = {abs(zeta)}")
    theta = math.atan2(zeta.imag, zeta.real)
    theta_pos = theta if theta > 0.0 else theta + 2.0 * math.pi
    theta_neg = theta_pos - 2.0 * math.pi
    ts = t0 * 10.0 ** (-_SECTOR_DECADES * np.arange(_SECTOR_SAMPLES) /
                       (_SECTOR_SAMPLES - 1))
    K = 0.0
    M = 1.0
    estimate = False
    for ti in ts:
        Tt = gen.semigroup(float(ti))
        rn = op_norm(resolvent(Tt, zeta), space, seed=seed)
        tn = op_norm(Tt, space, seed=seed)
        K = max(K, rn.value)
        M = max(M, tn.value)
        estimate = estimate or rn.estimate or tn.estimate
    alpha = np.asarray(alpha_grid, dtype=float).reshape(-1)
    if np.any(alpha == 0.0):
        raise BadParams("alpha_grid must not contain 0")
    sups = np.full(alpha.size, np.nan)
    bounds = np.full(alpha.size, np.nan)
    admissible = np.zeros(alpha.size, dtype=bool)
    for i, a in enumerate(alpha):
        th = theta_pos if a > 0.0 else theta_neg
        if abs(a) < abs(th) / t0:
            continue
        admissible[i] = True
        r = op_norm(resolvent(gen.matrix, 1j * a), space, seed=seed)
        estimate = estimate or r.estimate
        sups[i] = abs(a) * r.value
        bounds[i] = K * M * abs(th) + tol
    k_bounded = K < _K_UNBOUNDED
    mask = admissible
    bound_ok = bool(k_bounded and np.all(sups[mask] <= bounds[mask]))
    C = float(np.max(sups[mask])) if np.any(mask) else float("nan")
    return SectorReport(zeta, t0, K, M, alpha, sups, bounds, admissible, C,
                        theta_pos / t0, theta_neg / t0, k_bounded, bound_ok,
                        estimate)


def converse_profile(gen: GeneratorSpec, f: Polynomial, N: int, K: float,
                     t_grid, space: GridSpace, seed: int = 0) -> BeurlingProfile:
    """Profile of ||f^N(T(t)) T(K t)|| against ||f||_D^N.

    Requires strict criterion membership |f(1)| < ||f||_D and a real
    delay factor K >= 0 (realized as the extra orbit time K t).
    """
    if not in_C1(f):
        raise BadParams("converse profile needs |f(1)| < ||f||_D (strict)")
    if N < 1 or int(N) != N:
        raise BadParams(f"N must be a positive integer, got {N}")
    if K < 0.0:
        raise BadParams(f"K must be nonnegative, got {K}")
    t = _check_grid(t_grid)
    return _profile(gen, power_expand(f, int(N)), K, t, space, seed,
                    disc_norm(f).value ** int(N))


def _march(gen: GeneratorSpec, forcing: Callable[[float], np.ndarray],
           tau: float, n_time: int) -> np.ndarray:
    """Trajectory of x(t) = int_0^t T(t - s) f(s) ds on a uniform grid.

    One-step recursion x_{k+1} = T(dt) x_k + local integral; the local
    Gauss-Legendre propagators are precomputed once per step size.
    """
    dt = tau / n_time
    n = gen.dim
    Tdt = gen.semigroup(dt)
    u = 0.5 * dt * (_GL_NODES + 1.0)
    w = 0.5 * dt * _GL_WEIGHTS
    props = [gen.semigroup(float(dt - uq)) for uq in u]
    traj = np.zeros((n_time + 1, n), dtype=complex)
    for k in range(n_time):
        tk = k * dt
        x = Tdt @ traj[k]
        for uq, wq, P in zip(u, w, props):
            x = x + wq * (P @ np.asarray(forcing(float(tk + uq)), dtype=complex))
        traj[k + 1] = x
    return traj


def mild_solution(gen: GeneratorSpec, forcing: Callable[[float], np.ndarray],
                  tau: float, p: float, n_time: int = 64,
                  max_doublings: int = 6) -> tuple[np.ndarray, float]:
    """Mild solution trajectory and the maximal-regularity ratio

        ||A x||_{L^p([0,tau])} / ||forcing||_{L^p([0,tau])},

    with Euclidean space norms.  The time grid doubles until the ratio
    moves by less than 1% between refinements.
    """
    if tau <= 0.0 or n_time < 2:
        raise BadParams("mild_solution needs tau > 0 and n_time >= 2")
    if p < 1.0:
        raise BadParams(f"time exponent p must be >= 1, got {p}")
    A = gen.matrix

    def ratio_at(m: int) -> tuple[np.ndarray, float]:
        traj = _march(gen, forcing, tau, m)
        dt = tau / m
        ts = np.arange(m + 1) * dt
        w = np.full(m + 1, dt)          # trapezoid weights, both endpoints
        w[[0, -1]] = 0.5 * dt
        ax = np.linalg.norm(traj @ A.T, axis=1)
        fv = np.linalg.norm(
            np.stack([np.asarray(forcing(float(t)), dtype=complex) for t in ts]),
            axis=1)
        denom = float(pnorms(fv, w, p))
        if denom == 0.0:
            raise BadParams("forcing is identically zero on the grid")
        return traj, float(pnorms(ax, w, p)) / denom

    traj, ratio = ratio_at(n_time)
    m = n_time
    for _ in range(max_doublings):
        m *= 2
        traj2, ratio2 = ratio_at(m)
        if abs(ratio2 - ratio) <= 0.01 * max(abs(ratio2), 1e-300):
            return traj2, ratio2
        traj, ratio = traj2, ratio2
    raise QuadratureDivergence(
        f"maxreg ratio did not stabilize below 1% by n_time={m}")


def check_growth(gen: GeneratorSpec, samples: int = 64, tol: float = 1e-6,
                 p: float = 2.0) -> bool:
    """Verify the certified growth bound on its horizon (log-spaced t)."""
    if gen.growth is None:
        raise BadParams("generator carries no growth data")
    g = gen.growth
    space = GridSpace.unit(gen.dim, p)
    ts = g.horizon * 10.0 ** (-3.0 * np.arange(samples) / (samples - 1))
    for t in ts:
        val = op_norm(gen.semigroup(float(t)), space).value
        if val > g.M * math.exp(g.omega * t) + tol:
            return False
    return True


def _inverse_dim_limit(d: np.ndarray, v: np.ndarray) -> float:
    """The constant a of the least-squares fit v ~ a + b/d (v itself for one d)."""
    if d.size < 2:
        return float(v[0])
    X = np.stack([np.ones_like(d), 1.0 / d], axis=1)
    coef, *_ = np.linalg.lstsq(X, v, rcond=None)
    return float(coef[0])


def dichotomy_fit(dims: Sequence[int], plateaus: Sequence[float],
                  disc_value: float,
                  margin: float = _DICHOTOMY_MARGIN) -> dict:
    """Fit plateau ~ a + b/dim across truncations and classify the family.

    Verdict is "fails_in_limit" when the largest-dimension plateau
    exceeds disc_value - margin, "holds_at_truncations" otherwise; the
    extrapolated limit (the fitted a) is reported alongside.
    """
    d = np.asarray(dims, dtype=float)
    v = np.asarray(plateaus, dtype=float)
    if d.size != v.size or d.size < 1:
        raise BadParams("dims and plateaus must be equal-length, nonempty")
    extrapolated = _inverse_dim_limit(d, v)
    largest = float(v[np.argmax(d)])
    verdict = ("fails_in_limit" if largest > disc_value - margin
               else "holds_at_truncations")
    return {"extrapolated": extrapolated, "largest_dim_plateau": largest,
            "disc_value": disc_value, "verdict": verdict}
