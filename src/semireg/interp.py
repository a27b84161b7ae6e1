"""Interpolation of operator norms and Gaussian kernel comparisons.

The interpolation triple stores theta so that 1/p = (1-theta)/p1 +
theta/p2 (theta weights the second endpoint).  The opposite convention,
theta weighting the first endpoint, is common in the literature; every
report carries both numbers so the orientation is never guessed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .discpoly import BoundCheck, Polynomial, eval_matrix, normalize_peak, power_expand
from .errors import BadParams, DominationFailure, PeriodizationError
from .linalg import op_norm
from .rbound import square_function_norm
from .semigroup import GeneratorSpec, _check_grid, _smallest_decade
from .spaces import GridSpace

__all__ = [
    "ExtrapolationReport",
    "InterpolationTriple",
    "KernelSpec",
    "extrapolation_bench",
    "gaussian_apply",
    "gaussian_estimate_check",
    "gaussian_kernel",
    "gaussian_matrix",
    "gaussian_square_function_bench",
    "kernel_mass_defect",
    "lp_logconvexity_check",
    "maximal_domination_check",
    "maximal_function",
    "riesz_thorin_check",
]

_PERIODIZATION_TOL = 1e-10


def _inv(p: float) -> float:
    return 0.0 if p == math.inf else 1.0 / p


@dataclass(frozen=True)
class InterpolationTriple:
    """Exponents p1, p2 and the weight theta of p2 in 1/p."""

    p1: float
    p2: float
    theta: float

    def __post_init__(self):
        if self.p1 < 1.0 or self.p2 < 1.0:
            raise BadParams("exponents must lie in [1, inf]")
        if not 0.0 <= self.theta <= 1.0:
            raise BadParams(f"theta must lie in [0, 1], got {self.theta}")

    @property
    def p(self) -> float:
        r = (1.0 - self.theta) * _inv(self.p1) + self.theta * _inv(self.p2)
        return math.inf if r == 0.0 else 1.0 / r

    @property
    def theta_first(self) -> float:
        """The same triple in the convention where theta weights p1."""
        return 1.0 - self.theta

    @classmethod
    def from_target(cls, p1: float, p2: float, p: float) -> "InterpolationTriple":
        """Solve for theta placing p between p1 and p2."""
        a, b, c = _inv(p1), _inv(p2), _inv(p)
        if a == b:
            raise BadParams("endpoints coincide, theta is undetermined")
        theta = (c - a) / (b - a)
        if not -1e-12 <= theta <= 1.0 + 1e-12:
            raise BadParams(f"p = {p} is not between {p1} and {p2}")
        return cls(p1, p2, min(max(theta, 0.0), 1.0))


def lp_logconvexity_check(x, triple: InterpolationTriple,
                          weights=None) -> BoundCheck:
    """||x||_p <= ||x||_{p1}^{1-theta} ||x||_{p2}^{theta}."""
    x = np.asarray(x).reshape(-1)
    w = np.ones(x.size) if weights is None else np.asarray(weights, dtype=float)
    lhs = GridSpace(x.size, w, triple.p).norm(x)
    n1 = GridSpace(x.size, w, triple.p1).norm(x)
    n2 = GridSpace(x.size, w, triple.p2).norm(x)
    rhs = n1 ** (1.0 - triple.theta) * n2 ** triple.theta
    return BoundCheck(bool(lhs <= rhs * (1.0 + 1e-12) + 1e-300), lhs, rhs)


def riesz_thorin_check(A, triple: InterpolationTriple, weights=None,
                       seed: int = 0) -> dict:
    """Interpolated operator-norm bound for a fixed matrix.

    The interior norm at p is a certified lower bound when p is not in
    {1, 2, inf}, so the comparison is sound either way: lower bound at
    p against the exact product of endpoint norms.
    """
    A = np.asarray(A, dtype=complex)
    dim = A.shape[0]
    w = np.ones(dim) if weights is None else np.asarray(weights, dtype=float)
    r1 = op_norm(A, GridSpace(dim, w, triple.p1))
    r2 = op_norm(A, GridSpace(dim, w, triple.p2))
    rp = op_norm(A, GridSpace(dim, w, triple.p), seed=seed)
    rhs = r1.value ** (1.0 - triple.theta) * r2.value ** triple.theta
    return {
        "norm_p": rp.value,
        "norm_p_is_estimate": rp.estimate,
        "endpoint_norms": (r1.value, r2.value),
        "rhs": rhs,
        "theta": triple.theta,
        "theta_first": triple.theta_first,
        "ok": bool(rp.value <= rhs * (1.0 + 1e-9) + 1e-300),
    }


@dataclass(frozen=True)
class ExtrapolationReport:
    rho: float
    sup_norm_p2: float
    theta: float
    theta_first: float
    n_values: list
    chain_values: list
    measured_sup: list              # max of ||f^N(T(t))||_p over rho's window
    ok_grid: list
    smallest_passing_n: Optional[int]
    status: str                     # "ok" or "chain_inapplicable"


def extrapolation_bench(gen: GeneratorSpec, f: Polynomial,
                        triple: InterpolationTriple, t_grid,
                        n_values: Sequence[int], weights=None) -> ExtrapolationReport:
    """Carry a small-time power profile from p1 to the interior exponent.

    With f peak-normalized, rho is the smallest-decade plateau of
    ||f(T(t))||_{p1} and M the sampled sup of ||T(t)||_{p2} on [0, 1];
    Riesz-Thorin gives, at every t of that smallest decade,

        ||f^N(T(t))||_p <= (M (N deg f + 1))^{theta} rho^{(1-theta) N},

    theta weighting p2.  The measured value compared with the chain is
    therefore the largest ||f^N(T(t))||_p over the same window, the
    smallest decade of the grid; at larger t the bound is no theorem.
    rho >= 1 makes the chain useless; that is reported as a status, not
    raised.
    """
    fn = normalize_peak(f)
    t = _check_grid(t_grid)
    dim = gen.dim
    w = np.ones(dim) if weights is None else np.asarray(weights, dtype=float)
    s1 = GridSpace(dim, w, triple.p1)
    s2 = GridSpace(dim, w, triple.p2)
    sp = GridSpace(dim, w, triple.p)

    # rho and the measured values share one window: the smallest decade.
    semis = [gen.semigroup(float(ti)) for ti in t[_smallest_decade(t)]]
    rho = max(op_norm(eval_matrix(fn, T), s1).value for T in semis)
    sup_t = np.concatenate([t[t <= 1.0], [1.0]])
    M = max(op_norm(gen.semigroup(float(ti)), s2).value for ti in sup_t)

    deg = fn.degree
    th = triple.theta
    n_values = [int(n) for n in n_values]
    chain_values, measured, ok_grid = [], [], []
    status = "ok" if rho < 1.0 else "chain_inapplicable"
    for N in n_values:
        chain = (M * (N * deg + 1.0)) ** th * rho ** ((1.0 - th) * N)
        fN = power_expand(fn, N)
        sup_val = max(op_norm(eval_matrix(fN, T), sp).value for T in semis)
        chain_values.append(float(chain))
        measured.append(sup_val)
        ok_grid.append(bool(sup_val <= chain + 1e-6))
    passing = [N for N, c in zip(n_values, chain_values) if c < 1.0]
    smallest = min(passing) if (passing and status == "ok") else None
    return ExtrapolationReport(float(rho), float(M), th, 1.0 - th,
                               n_values, chain_values, measured, ok_grid,
                               smallest, status)


@dataclass(frozen=True)
class KernelSpec:
    """Periodic sampling grid for kernel comparisons.

    ``ambient_dim`` coordinate axes, each with ``points`` samples over a
    cell of length ``period`` centered at 0; ``a`` and ``c`` are the
    time-dilation and prefactor of the comparison kernel c * k_{a t}.
    """

    ambient_dim: int = 1
    points: int = 64
    period: float = 20.0
    a: float = 1.0
    c: float = 1.0

    def __post_init__(self):
        if self.ambient_dim < 1 or self.points < 4:
            raise BadParams("need ambient_dim >= 1 and points >= 4")
        if self.period <= 0.0 or self.a <= 0.0 or self.c <= 0.0:
            raise BadParams("period, a and c must be positive")

    @property
    def h(self) -> float:
        return self.period / self.points

    @property
    def size(self) -> int:
        return self.points ** self.ambient_dim

    @property
    def shape(self) -> tuple:
        return (self.points,) * self.ambient_dim

    def axis(self) -> np.ndarray:
        """Signed coordinates along one axis, fft-ordered."""
        idx = np.fft.fftfreq(self.points, d=1.0 / self.points)
        return idx * self.h

    def space(self, p: float) -> GridSpace:
        return GridSpace(self.size, np.full(self.size, self.h ** self.ambient_dim), p)

    def refine(self) -> "KernelSpec":
        return KernelSpec(self.ambient_dim, 2 * self.points, self.period,
                          self.a, self.c)

    def distance_sq(self) -> np.ndarray:
        """Squared periodic distance from the origin, on the full grid."""
        ax = self.axis()
        grids = np.meshgrid(*([ax] * self.ambient_dim), indexing="ij")
        return sum(g ** 2 for g in grids)


def gaussian_kernel(t: float, x, ambient_dim: Optional[int] = None) -> np.ndarray:
    """k_t(x) = (4 pi t)^{-N/2} exp(-|x|^2 / (4 t))."""
    if t <= 0.0:
        raise BadParams(f"need t > 0, got {t}")
    x = np.asarray(x, dtype=float)
    if ambient_dim is None:
        ambient_dim = 1 if x.ndim <= 1 else x.shape[-1]
    sq = x ** 2 if x.ndim <= 1 and ambient_dim == 1 else np.sum(x ** 2, axis=-1)
    return (4.0 * math.pi * t) ** (-ambient_dim / 2.0) * np.exp(-sq / (4.0 * t))


def _periodized_factor(spec: KernelSpec, t: float) -> np.ndarray:
    """Periodized 1-d factor of k_t, before mass normalization.

    The product structure of the Gaussian keeps the N-d periodization a
    tensor product of these.  Raises ``PeriodizationError`` when k_t
    leaves more than the tolerance of its mass outside one cell.
    """
    N = spec.ambient_dim
    L = spec.period
    coverage = math.erf(L / (4.0 * math.sqrt(t))) ** N
    if 1.0 - coverage > _PERIODIZATION_TOL:
        raise PeriodizationError(
            f"kernel mass outside the cell: 1 - erf(L/(4 sqrt(t)))^N = "
            f"{1.0 - coverage:.3e} at t = {t}, period = {L}")
    images = spec.axis()[None, :] + (np.arange(-3, 4) * L)[:, None]
    factor = np.sum(np.exp(-images ** 2 / (4.0 * t)), axis=0)
    factor /= (4.0 * math.pi * t) ** 0.5
    return factor


def _periodized_kernel(spec: KernelSpec, t: float) -> np.ndarray:
    """Unit-mass periodization of k_t on the grid, flat."""
    N = spec.ambient_dim
    factor = _periodized_factor(spec, t)
    kern = factor
    for _ in range(N - 1):
        kern = np.multiply.outer(kern, factor)
    kern = kern.reshape(spec.shape)
    mass = float(np.sum(kern)) * spec.h ** N
    return (kern / mass).reshape(-1)


def kernel_mass_defect(spec: KernelSpec, t: float) -> float:
    """Discrete mass of the raw periodized kernel minus 1.

    ``gaussian_apply`` renormalizes this defect away; it is reported so
    grids too coarse for the kernel scale are visible.
    """
    mass_1d = float(np.sum(_periodized_factor(spec, t))) * spec.h
    return mass_1d ** spec.ambient_dim - 1.0


def gaussian_apply(spec: KernelSpec, t: float, f) -> np.ndarray:
    """Circular convolution with the periodized unit-mass kernel."""
    f = np.asarray(f).reshape(spec.shape)
    kern = _periodized_kernel(spec, t).reshape(spec.shape)
    out = np.fft.ifftn(np.fft.fftn(f) * np.fft.fftn(kern)) * spec.h ** spec.ambient_dim
    if np.isrealobj(f):
        out = out.real
    return out.reshape(-1)


def gaussian_matrix(spec: KernelSpec, t: float) -> np.ndarray:
    """Dense matrix of ``gaussian_apply`` (circulant in each axis)."""
    n = spec.size
    out = np.empty((n, n))
    basis = np.zeros(n)
    for j in range(n):
        basis[j] = 1.0
        out[:, j] = gaussian_apply(spec, t, basis)
        basis[j] = 0.0
    return out


def gaussian_estimate_check(apply_family: Callable[[float, np.ndarray], np.ndarray],
                            spec: KernelSpec, t_grid,
                            probes: Sequence[np.ndarray]) -> dict:
    """Fit the smallest c with |T(t) f| <= c (k_{a t} * |f|) pointwise.

    Ratios 0/0 count as 1; a strictly positive numerator over a zero
    denominator raises ``DominationFailure``.
    """
    t = np.asarray(t_grid, dtype=float).reshape(-1)
    rows = []
    fitted = 1.0
    for ti in t:
        for k, f in enumerate(probes):
            f = np.asarray(f).reshape(-1)
            num = np.abs(np.asarray(apply_family(float(ti), f)).reshape(-1))
            den = gaussian_apply(spec, spec.a * float(ti), np.abs(f))
            scale = float(np.max(num))
            ratio = np.ones_like(num)
            pos = den > 0.0
            ratio[pos] = num[pos] / den[pos]
            bad = ~pos & (num > 1e-12 * max(scale, 1.0))
            if np.any(bad):
                raise DominationFailure(
                    f"positive output over vanishing kernel mass at "
                    f"t = {ti}, probe {k}")
            ratio[~pos] = 1.0
            worst = float(np.max(ratio))
            rows.append({"t": float(ti), "probe": k, "max_ratio": worst})
            fitted = max(fitted, worst)
    return {"fitted_c": fitted, "declared_c": spec.c, "a": spec.a,
            "rows": rows, "ok": bool(fitted <= spec.c * (1.0 + 1e-9))}


def maximal_function(f, spec: KernelSpec) -> np.ndarray:
    """Centered maximal function on the periodic grid.

    Ball radii run over the grid-aligned values 0, h, 2h, ... up to half
    the period; radius 0 is the single cell, i.e. |f| itself.
    """
    f = np.abs(np.asarray(f, dtype=float)).reshape(spec.shape)
    dist = np.sqrt(spec.distance_sq())
    fhat = np.fft.fftn(f)
    out = f.copy()
    kmax = spec.points // 2
    for k in range(1, kmax + 1):
        mask = (dist <= k * spec.h + 1e-12 * spec.h).astype(float)
        count = float(np.sum(mask))
        avg = np.fft.ifftn(fhat * np.fft.fftn(mask)).real / count
        out = np.maximum(out, avg)
    return out.reshape(-1)


def maximal_domination_check(spec: KernelSpec, f, t_grid) -> dict:
    """Fit the smallest c with sup_t |(k_t * f)(x)| <= c (Mf)(x)."""
    f = np.asarray(f, dtype=float).reshape(-1)
    t = np.asarray(t_grid, dtype=float).reshape(-1)
    sup_num = np.zeros(spec.size)
    for ti in t:
        sup_num = np.maximum(sup_num, np.abs(gaussian_apply(spec, float(ti), f)))
    mf = maximal_function(f, spec)
    ratio = np.ones(spec.size)
    pos = mf > 0.0
    ratio[pos] = sup_num[pos] / mf[pos]
    if np.any(~pos & (sup_num > 1e-12 * max(float(np.max(sup_num)), 1.0))):
        raise DominationFailure("positive smoothed values where Mf vanishes")
    fitted = float(np.max(ratio))
    return {"fitted_c": fitted, "t_grid": t, "ok": bool(np.isfinite(fitted))}


def _trig_probe(spec: KernelSpec, rng: np.random.Generator,
                max_mode: int = 8) -> np.ndarray:
    """Band-limited random probe, evaluable at any grid resolution."""
    ax = spec.axis()
    grids = np.meshgrid(*([ax] * spec.ambient_dim), indexing="ij")
    out = np.zeros(spec.shape)
    n_modes = int(rng.integers(1, max_mode + 1))
    for _ in range(n_modes):
        amp = float(rng.normal())
        phase = float(rng.uniform(0.0, 2.0 * math.pi))
        wave = np.zeros(spec.shape)
        for g in grids:
            m = int(rng.integers(0, max_mode + 1))
            wave = wave + 2.0 * math.pi * m * g / spec.period
        out = out + amp * np.cos(wave + phase)
    return out.reshape(-1)


def gaussian_square_function_bench(spec: KernelSpec, p: float = 2.0,
                                   trials: int = 16, seed: int = 0,
                                   max_tuple: int = 8) -> dict:
    """Square-function contraction of the kernel family on random data.

    Each trial draws a tuple of band-limited probes and times in (0, 1)
    and measures the ratio of square-function norms after and before
    smoothing.  The whole study reruns at double resolution; a constant
    moving less than 10 percent marks the report stable.
    """

    # Largest time the periodization tolerance admits, with slack.
    t_hi = min(0.95, 0.9 * (spec.period / 19.6) ** 2)
    t_lo = min(0.05, t_hi / 3.0)

    def study(sp: KernelSpec) -> list:
        rng = np.random.default_rng(seed)
        space = sp.space(p)
        ratios = []
        for _ in range(trials):
            n = int(rng.integers(1, max_tuple + 1))
            times = rng.uniform(t_lo, t_hi, size=n)
            probes = [_trig_probe(sp, rng) for _ in range(n)]
            before = square_function_norm(probes, space)
            if before == 0.0:
                ratios.append(0.0)
                continue
            after = square_function_norm(
                [gaussian_apply(sp, float(tk), fk)
                 for tk, fk in zip(times, probes)], space)
            ratios.append(float(after / before))
        return ratios

    coarse = study(spec)
    fine = study(spec.refine())
    c_coarse = float(max(coarse))
    c_fine = float(max(fine))
    move = abs(c_fine - c_coarse) / max(c_coarse, 1e-300)
    return {"constant": c_coarse, "constant_refined": c_fine,
            "relative_change": move, "stable": bool(move < 0.10),
            "ratios": coarse, "p": p, "trials": trials, "seed": seed}
