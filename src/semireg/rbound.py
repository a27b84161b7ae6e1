"""Rademacher averages and randomized boundedness estimates.

The central quantity is the Rademacher p-average of a vector tuple,

    rad_p(x_1..x_n) = ( E || sum_k eps_k x_k ||^p )^(1/p),

with independent uniform signs eps and the space norm inside.  Exact
mode enumerates all 2^n sign patterns (capped); Monte Carlo mode
samples patterns with a seeded generator and reports a batch-means
standard error.  Randomized-boundedness estimates search selections
(with repetition) from an operator family for the largest ratio
rad(T_{j_k} x_k) / rad(x_k); every reported value is certified by a
witness and is a true lower bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .discpoly import BoundCheck, Polynomial, disc_norm, eval_matrix
from .errors import (BadParams, ContourTooClose, EnumerationTooLarge,
                     ParameterOutOfRange)
from .linalg import ContourSpec, contour_integral, mat_exp, op_norm, resolvent
from .semigroup import GeneratorSpec, _check_grid
from .spaces import GridSpace, pnorms

__all__ = [
    "RBoundEstimate",
    "RGridProfile",
    "RademacherConfig",
    "RadNorm",
    "bt_contour_check",
    "kahane_contraction_check",
    "r_beurling_profile",
    "r_converse_bound_eval",
    "r_sector_report",
    "rademacher_norm",
    "rbound_calculus_check",
    "rbound_estimate",
    "sector_family_estimate",
    "square_function_norm",
]

_MC_BATCHES = 32
_SE_REL_CAP = 0.02           # SE/value above this flags non-convergence
_ASCENT_STEPS = 100
_FD_STEP = 1e-6              # relative finite-difference step
_CHUNK_ELEMS = 1 << 14       # sign-sum entries per batched ratio chunk
_BT_RESIDUAL_TOL = 1e-4
_BT_MIN_POLE_DIST = 1e-3


@dataclass(frozen=True)
class RademacherConfig:
    p: float = 2.0
    mode: str = "exact"
    mc_samples: int = 4096
    seed: int = 0
    exact_cap: int = 14

    def __post_init__(self):
        if not (np.isfinite(self.p) and self.p >= 1.0):
            raise BadParams(f"Rademacher exponent must be finite >= 1, got {self.p}")
        if self.mode not in ("exact", "monte_carlo"):
            raise BadParams(f"mode must be 'exact' or 'monte_carlo', got {self.mode!r}")
        if self.mc_samples < _MC_BATCHES:
            raise BadParams(f"mc_samples must be >= {_MC_BATCHES}")
        if self.exact_cap < 1:
            raise BadParams("exact_cap must be >= 1")


@dataclass(frozen=True)
class RadNorm:
    value: float
    se: float = 0.0

    def __float__(self) -> float:
        return self.value


def _stack_vectors(vectors, dim: int) -> np.ndarray:
    X = np.ascontiguousarray(vectors, dtype=complex)
    if X.ndim == 1:
        X = X[None, :]
    if X.ndim != 2 or X.shape[1] != dim or X.shape[0] < 1:
        raise BadParams(f"expected (n, {dim}) vector stack, got shape {X.shape}")
    return X


def _all_signs(n: int) -> np.ndarray:
    idx = np.arange(2 ** n, dtype=np.int64)
    return ((idx[:, None] >> np.arange(n)[None, :]) & 1).astype(float) * 2.0 - 1.0


def _sign_sums(signs: np.ndarray, X: np.ndarray) -> np.ndarray:
    """sum_k eps_k x_k for each sign pattern, of shape (..., patterns, dim).
    Real signs act on real and imaginary parts alike: one real product."""
    return (signs @ X.view(float)).view(complex)


def _rad_rows(sums: np.ndarray, space: GridSpace, p: float) -> np.ndarray:
    """Rademacher p-averages from sign sums of shape (..., patterns, dim)."""
    return np.mean(space.norm_rows(sums) ** p, axis=-1) ** (1.0 / p)


def rademacher_norm(vectors, space: GridSpace,
                    cfg: RademacherConfig) -> RadNorm:
    """Rademacher p-average of a tuple of vectors in the grid space.

    Exact mode averages over all 2^n sign patterns and requires
    n <= cfg.exact_cap; Monte Carlo mode reports the batch-means
    standard error over 32 batches.
    """
    X = _stack_vectors(vectors, space.dim)
    signs = _selection_signs(X.shape[0], cfg, cfg.seed)
    norms = space.norm_rows(_sign_sums(signs, X)) ** cfg.p
    value = float(np.mean(norms) ** (1.0 / cfg.p))
    if cfg.mode == "exact":
        return RadNorm(value)
    ests = np.array([np.mean(b) ** (1.0 / cfg.p)
                     for b in np.array_split(norms, _MC_BATCHES)])
    return RadNorm(value, float(np.std(ests, ddof=1) / math.sqrt(_MC_BATCHES)))


def kahane_contraction_check(vectors, scalars, space: GridSpace,
                             cfg: RademacherConfig,
                             tol: float = 1e-9) -> BoundCheck:
    """rad(a_k x_k) <= c * max|a_k| * rad(x_k), c = 1 real / 2 complex.

    Exact enumeration only: the inequality is asserted, so sampling
    noise is not acceptable on the left side.
    """
    if cfg.mode != "exact":
        raise BadParams("kahane_contraction_check requires exact mode")
    X = _stack_vectors(vectors, space.dim)
    a = np.asarray(scalars, dtype=complex).reshape(-1)
    if a.size != X.shape[0]:
        raise BadParams(f"{a.size} scalars for {X.shape[0]} vectors")
    c = 1.0 if np.all(a.imag == 0.0) else 2.0
    lhs = rademacher_norm(a[:, None] * X, space, cfg).value
    rhs = c * float(np.max(np.abs(a))) * rademacher_norm(X, space, cfg).value
    return BoundCheck(lhs <= rhs + tol, lhs, rhs)


@dataclass(frozen=True)
class RBoundEstimate:
    value: float
    witness_indices: tuple
    witness_vectors: np.ndarray = field(repr=False)
    converged: bool
    trials: int
    se: float = 0.0


def _ratios(ops: Sequence[np.ndarray], idx, Xs: np.ndarray, space: GridSpace,
            p: float, signs: np.ndarray) -> np.ndarray:
    """Rademacher ratios rad(T_{idx_k} x_k) / rad(x_k) of a (B, n, dim) stack
    of vector tuples, one selection and sign table for all; 0 where the
    denominator vanishes.  The B denominators and B numerators are averaged
    in chunks whose sign sums hold at most ``_CHUNK_ELEMS`` entries."""
    T = np.stack([ops[j] for j in idx])
    Y = np.concatenate([Xs, np.matmul(T, Xs[..., None])[..., 0]], dtype=complex)
    step = max(1, _CHUNK_ELEMS // (signs.shape[0] * space.dim))
    rad = np.concatenate([_rad_rows(_sign_sums(signs, Y[lo:lo + step]), space, p)
                          for lo in range(0, Y.shape[0], step)])
    den, num = rad[:Xs.shape[0]], rad[Xs.shape[0]:]
    zero = den == 0.0
    return np.where(zero, 0.0, num / np.where(zero, 1.0, den))


def _ratio(ops: Sequence[np.ndarray], idx, X: np.ndarray, space: GridSpace,
           cfg: RademacherConfig, signs: np.ndarray) -> float:
    return float(_ratios(ops, idx, X[None], space, cfg.p, signs)[0])


def _selection_signs(n: int, cfg: RademacherConfig, seed: int) -> np.ndarray:
    if cfg.mode == "exact":
        if n > cfg.exact_cap:
            raise EnumerationTooLarge(
                f"selection size {n} exceeds exact cap {cfg.exact_cap}")
        return _all_signs(n)
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2, size=(cfg.mc_samples, n)).astype(float) * 2.0 - 1.0


def _ascend(ops, idx, X0, space, cfg, signs,
            steps: int = _ASCENT_STEPS) -> tuple[float, np.ndarray]:
    """Projected finite-difference ascent of the Rademacher ratio in the
    vectors, selection held fixed.  Every iterate is a certified ratio."""
    X = X0.copy()
    scale = max(float(np.max(np.abs(X))), 1.0)
    X = X / scale
    best = _ratio(ops, idx, X, space, cfg, signs)
    best_X = X.copy()
    theta = np.concatenate([X.real.ravel(), X.imag.ravel()])
    m = theta.size
    half = m // 2

    def unpack(th):
        return (th[:half] + 1j * th[half:]).reshape(X.shape)

    def f(th):
        return _ratio(ops, idx, unpack(th), space, cfg, signs)

    rows = np.arange(m)
    val = best
    for step in range(steps):
        h = _FD_STEP * np.maximum(1.0, np.abs(theta))
        # Row i bumps real coordinate i of theta: a real part for i < m/2,
        # an imaginary part above.
        Xs = np.tile(unpack(theta).ravel(), (m, 1))
        Xs[rows[:half], rows[:half]] += h[:half]
        Xs[rows[half:], rows[:half]] += 1j * h[half:]
        grad = (_ratios(ops, idx, Xs.reshape((m,) + X.shape), space, cfg.p,
                        signs) - val) / h
        gn = float(np.linalg.norm(grad))
        if gn == 0.0:
            break
        lr = 0.1 / (1.0 + step / 25.0)
        theta = theta + lr * grad / gn
        nrm = float(np.linalg.norm(theta))
        if nrm > 0.0:
            theta = theta / nrm * math.sqrt(m)
        val = f(theta)
        if val > best:
            best, best_X = val, unpack(theta)
    return best, best_X


def rbound_estimate(family: Sequence[np.ndarray], space: GridSpace,
                    cfg: RademacherConfig, budget: int = 32,
                    ascent: bool = True) -> RBoundEstimate:
    """Certified lower bound on the randomized bound of an operator family.

    Search: (i) every singleton with its operator-norm maximizer;
    (ii) ``budget`` random selections with repetition; (iii) projected
    finite-difference ascent from the best random selection.  The
    returned value is re-evaluated from the witness.
    """
    ops = [np.asarray(T, dtype=complex) for T in family]
    if not ops:
        raise BadParams("family must be nonempty")
    dim = space.dim
    for T in ops:
        if T.shape != (dim, dim):
            raise BadParams(f"family member shape {T.shape} != ({dim}, {dim})")
    rng = np.random.default_rng(cfg.seed)
    trials = 0
    best_val, best_idx, best_X = -1.0, (0,), None

    signs = _selection_signs(1, cfg, cfg.seed)
    for j, T in enumerate(ops):
        r = op_norm(T, space, seed=cfg.seed, maximizer=True)
        x = r.maximizer[None, :]
        val = _ratio(ops, (j,), x, space, cfg, signs)
        trials += 1
        if val > best_val:
            best_val, best_idx, best_X = val, (j,), x

    n_max = min(cfg.exact_cap, 8)
    best_random = None
    for trial in range(budget):
        n = int(rng.integers(2, n_max + 1)) if n_max >= 2 else 1
        idx = tuple(int(i) for i in rng.integers(0, len(ops), size=n))
        X = rng.standard_normal((n, dim)) + 1j * rng.standard_normal((n, dim))
        signs = _selection_signs(n, cfg, cfg.seed + trial + 1)
        val = _ratio(ops, idx, X, space, cfg, signs)
        trials += 1
        if val > best_val:
            best_val, best_idx, best_X = val, idx, X
        if best_random is None or val > best_random[0]:
            best_random = (val, idx, X, signs)

    if ascent and best_random is not None:
        _, idx, X, signs = best_random
        val, X_up = _ascend(ops, idx, X, space, cfg, signs)
        trials += 1
        if val > best_val:
            best_val, best_idx, best_X = val, idx, X_up

    num = rademacher_norm(np.stack([ops[j] @ best_X[k]
                                    for k, j in enumerate(best_idx)]),
                          space, cfg)
    den = rademacher_norm(best_X, space, cfg)
    value = num.value / den.value
    se, converged = 0.0, True
    if cfg.mode == "monte_carlo":
        se = (num.se / den.value
              + den.se * num.value / den.value ** 2)
        converged = se <= _SE_REL_CAP * max(value, 1e-300)
    return RBoundEstimate(value, best_idx, best_X, converged, trials, se)


def rbound_calculus_check(famT: Sequence[np.ndarray], famS: Sequence[np.ndarray],
                          space: GridSpace, cfg: RademacherConfig,
                          budget: int = 16, tol: float = 1e-9) -> dict:
    """Estimate-level subadditivity and submultiplicativity.

    Witnesses found for {T_k + S_k} (resp. {T_k S_k}) are re-evaluated
    exactly on the same selection against the split right sides; lower
    bounds never contradict the calculus rules, so any violation is
    reported as a failure.
    """
    if len(famT) != len(famS):
        raise BadParams("families must be index-paired (equal length)")
    T = [np.asarray(M, dtype=complex) for M in famT]
    S = [np.asarray(M, dtype=complex) for M in famS]
    fam_sum = [a + b for a, b in zip(T, S)]
    fam_prod = [a @ b for a, b in zip(T, S)]

    est_sum = rbound_estimate(fam_sum, space, cfg, budget)
    idx, X = est_sum.witness_indices, est_sum.witness_vectors
    signs = _selection_signs(len(idx), cfg, cfg.seed)
    lhs_sum = _ratio(fam_sum, idx, X, space, cfg, signs)
    rhs_sum = (_ratio(T, idx, X, space, cfg, signs)
               + _ratio(S, idx, X, space, cfg, signs))
    sub_ok = lhs_sum <= rhs_sum + tol

    est_prod = rbound_estimate(fam_prod, space, cfg, budget)
    idx, X = est_prod.witness_indices, est_prod.witness_vectors
    signs = _selection_signs(len(idx), cfg, cfg.seed)
    lhs_prod = _ratio(fam_prod, idx, X, space, cfg, signs)
    SX = np.stack([S[j] @ X[k] for k, j in enumerate(idx)])
    ratio_T_on_SX = _ratio(T, idx, SX, space, cfg, signs)
    ratio_S = _ratio(S, idx, X, space, cfg, signs)
    rhs_prod = ratio_T_on_SX * ratio_S
    mult_ok = lhs_prod <= rhs_prod + tol

    return {
        "subadditive": BoundCheck(sub_ok, lhs_sum, rhs_sum),
        "submultiplicative": BoundCheck(mult_ok, lhs_prod, rhs_prod),
        "ok": bool(sub_ok and mult_ok),
    }


def square_function_norm(functions, space: GridSpace) -> float:
    """|| (sum_k |f_k|^2)^(1/2) || in the grid space's own norm."""
    X = _stack_vectors(functions, space.dim)
    return space.norm(pnorms(np.abs(X.T), np.ones(X.shape[0]), 2.0))


@dataclass(frozen=True)
class RSectorReport:
    zeta: complex
    t0: float
    theta: float
    r_semigroup: RBoundEstimate
    r_resolvent_zeta: RBoundEstimate
    r_resolvent_imag: RBoundEstimate
    chain_value: float
    chain_ok: bool


def r_sector_report(gen: GeneratorSpec, zeta: complex, t0: float,
                    space: GridSpace, cfg: RademacherConfig,
                    budget: int = 16, n_times: int = 16,
                    tol: float = 1e-4) -> RSectorReport:
    """Randomized-boundedness version of the sector report.

    Estimates for {T(t)}, {(zeta - T(t))^{-1}} and {alpha (A - i alpha)^{-1}}
    on log grids, and the forward chain
    R{alpha res} <= R{(zeta - T)^{-1}} * theta * R{T} + tol.
    """
    if t0 <= 0.0:
        raise BadParams(f"need t0 > 0, got {t0}")
    if abs(abs(zeta) - 1.0) > 1e-9:
        raise BadParams(f"zeta must have modulus 1, got |zeta| = {abs(zeta)}")
    theta = math.atan2(zeta.imag, zeta.real)
    theta_pos = theta if theta > 0.0 else theta + 2.0 * math.pi
    theta_neg = theta_pos - 2.0 * math.pi
    ts = t0 * 10.0 ** (-4.0 * np.arange(n_times) / (n_times - 1))
    sg = [gen.semigroup(float(t)) for t in ts]
    res_zeta = [resolvent(Tt, zeta) for Tt in sg]
    alphas = np.concatenate([theta_pos / ts, theta_neg / ts])
    res_imag = [abs(a) * resolvent(gen.matrix, 1j * float(a)) for a in alphas]

    r_sg = rbound_estimate(sg, space, cfg, budget)
    r_rz = rbound_estimate(res_zeta, space, cfg, budget)
    r_ri = rbound_estimate(res_imag, space, cfg, budget)
    theta_used = max(theta_pos, -theta_neg)
    chain = r_rz.value * theta_used * r_sg.value
    return RSectorReport(zeta, t0, theta_used, r_sg, r_rz, r_ri,
                         chain, r_ri.value <= chain + tol)


@dataclass(frozen=True)
class BTCheck:
    residual: float
    pole_distance: float
    quad_converged: bool
    nodes: int

    @property
    def ok(self) -> bool:
        return self.residual <= _BT_RESIDUAL_TOL


def bt_contour_check(gen: GeneratorSpec, zeta: complex, t: float,
                     contour: ContourSpec) -> BTCheck:
    """Contour representation of the semigroup resolvent.

    B(t) = (1/2 pi i) oint e^z / (e^z - zeta) * (z - tA)^{-1} dz over a
    contour enclosing spectrum(tA) and avoiding e^z = zeta; then
    (zeta - T(t))^{-1} must equal zeta^{-1} (I - B(t)).
    """
    if t <= 0.0:
        raise BadParams(f"need t > 0, got {t}")
    if abs(zeta) < 1.0 - 1e-12 or abs(zeta - 1.0) <= 1e-12:
        raise BadParams(f"zeta must satisfy |zeta| >= 1 and zeta != 1, got {zeta}")
    samples = contour.sample(256)
    d = float(np.min(np.abs(np.exp(samples) - zeta)))
    if d < _BT_MIN_POLE_DIST:
        raise ContourTooClose(
            f"contour approaches a pole of e^z/(e^z - zeta): distance {d:.3e}")

    def winding_around(w: complex) -> int:
        # Total turn of the sampled closed loop around w.
        rel = samples - w
        turns = np.angle(np.roll(rel, -1) / rel)
        return int(round(float(np.sum(turns)) / (2.0 * np.pi)))

    tA = t * gen.matrix
    for ev in np.linalg.eigvals(tA):
        winding = winding_around(ev)
        if winding != 1:
            raise BadParams(f"contour winds {winding} times around eigenvalue "
                            f"{ev:.6g} of tA; must enclose once counterclockwise")
    # Poles of e^z/(e^z - zeta) sit at log|zeta| + i(arg zeta + 2 pi k); any
    # pole inside the contour breaks the representation.
    im_span = float(np.max(np.abs(samples.imag))) + abs(zeta)
    base = complex(math.log(abs(zeta)), math.atan2(zeta.imag, zeta.real))
    k_max = int(im_span / (2.0 * math.pi)) + 2
    for k in range(-k_max, k_max + 1):
        pole = base + 2.0j * math.pi * k
        if winding_around(pole) != 0:
            raise BadParams(
                f"contour encloses the pole {pole:.6g} of e^z/(e^z - zeta)")

    def F(z: complex) -> np.ndarray:
        ez = np.exp(z)
        return (ez / (ez - zeta)) * resolvent(tA, z)

    quad = contour_integral(F, contour)
    lhs = resolvent(gen.semigroup(t), zeta)
    rhs = (np.eye(gen.dim, dtype=complex) - quad.value) / zeta
    residual = float(np.linalg.norm(lhs - rhs, 2) / np.linalg.norm(lhs, 2))
    return BTCheck(residual, d, quad.converged, quad.nodes)


@dataclass(frozen=True)
class RGridProfile:
    epsilons: np.ndarray
    values: np.ndarray
    disc_value: float
    converged: bool


def r_beurling_profile(gen: GeneratorSpec, f: Polynomial, t_grid,
                       space: GridSpace, cfg: RademacherConfig,
                       budget: int = 16) -> RGridProfile:
    """Randomized-boundedness ladder of {f(T(t)) : t < eps}.

    Epsilons walk down the decades of the grid; windows are nested and
    share the seed, and the reported values are made monotone by taking
    the running maximum upward (every smaller-window witness is valid
    for the larger window).
    """
    t = _check_grid(t_grid)
    mats = [eval_matrix(f, gen.semigroup(float(ti))) for ti in t]
    n_decades = int(math.floor(math.log10(t[0] / t[-1]) + 1e-9))
    eps = t[0] * 10.0 ** (-np.arange(n_decades + 1, dtype=float))
    values = np.empty(eps.size)
    converged = True
    for j in range(eps.size - 1, -1, -1):
        window = [m for m, ti in zip(mats, t) if ti <= eps[j] * (1.0 + 1e-12)]
        est = rbound_estimate(window, space, cfg, budget)
        converged = converged and est.converged
        values[j] = est.value
        if j < eps.size - 1:
            values[j] = max(values[j], values[j + 1])
    return RGridProfile(eps, values, disc_norm(f).value, converged)


def sector_family_estimate(gen: GeneratorSpec, delta: float, space: GridSpace,
                           cfg: RademacherConfig, budget: int = 16,
                           radius_decades: float = 4.0, n_radii: int = 8,
                           n_angles: int = 9) -> RBoundEstimate:
    """R-estimate of {T(z) : z in the closed sector of half-angle delta, |z| <= 1},
    sampled on log-spaced radii and uniform angles."""
    if not (0.0 < delta < math.pi / 2.0):
        raise BadParams(f"sector half-angle must lie in (0, pi/2), got {delta}")
    radii = 10.0 ** (-radius_decades * np.arange(n_radii) / (n_radii - 1))
    angles = np.linspace(-delta, delta, n_angles)
    fam = [mat_exp(gen.matrix, complex(r * np.exp(1j * a)))
           for r in radii for a in angles]
    return rbound_estimate(fam, space, cfg, budget)


def r_converse_bound_eval(f: Polynomial, N: int, K: float, delta: float,
                          R: float) -> float:
    """Closed-form upper bound for R{f^N(T(t)) T(K t) : t <= 1/K} on an
    analytic family with sector half-angle delta and sector estimate R:

        R * ( |f(1)|^N sum_{l=0}^{N} C1^l  +  C2^{N+1} / (1 - C2) ),

    with C1 = N n / (|f(1)| K sin delta), C2 = N n / (K sin delta); the
    first term is dropped when f(1) = 0.  Requires C2 < 1.
    """
    if N < 1 or int(N) != N:
        raise BadParams(f"N must be a positive integer, got {N}")
    if not (0.0 < delta <= math.pi / 2.0):
        raise BadParams(f"delta must lie in (0, pi/2], got {delta}")
    if K <= 0.0 or R <= 0.0:
        raise BadParams("K and R must be positive")
    if abs(disc_norm(f).value - 1.0) > 1e-9:
        raise BadParams("f must be normalized to ||f||_D = 1")
    n = f.degree
    if n < 1:
        raise BadParams("f must be nonconstant")
    sin_d = math.sin(delta)
    c2 = N * n / (K * sin_d)
    if c2 >= 1.0:
        raise ParameterOutOfRange(
            f"need K > N n / sin(delta): C2 = {c2:.6g} >= 1")
    a = abs(f(1.0))
    term1 = 0.0
    if a > 1e-14:
        c1 = N * n / (a * K * sin_d)
        term1 = a ** N * float(sum(c1 ** l for l in range(N + 1)))
    term2 = c2 ** (N + 1) / (1.0 - c2)
    return R * (term1 + term2)
