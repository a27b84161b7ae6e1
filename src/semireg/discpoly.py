"""Polynomials on the closed unit disc.

Coefficients are stored lowest degree first.  The disc norm is the
maximum modulus on |z| = 1 (maximum principle), located by dense circle
sampling plus golden-section refinement of the best bracket.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (BadParams, CoefficientOverflow, ConstantPolynomial,
                     NotARoot)

__all__ = [
    "BoundCheck",
    "DiscNormResult",
    "Polynomial",
    "bernstein_check",
    "coeff_sum_bound_check",
    "disc_norm",
    "eval_matrix",
    "factor_out_root",
    "in_C1",
    "normalize_peak",
    "power_expand",
]

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_BRACKET_TOL = 1e-12          # radians; final peak bracket width
_ROOT_TOL = 1e-6              # synthetic-division residual that disqualifies
_MEMBERSHIP_MARGIN = 1e-9     # strict margin for |f(1)| < ||f||_D


@dataclass(frozen=True)
class Polynomial:
    """Complex polynomial sum_k a_k z^k, coefficients lowest first."""
    coeffs: np.ndarray

    def __init__(self, coeffs):
        c = np.atleast_1d(np.asarray(coeffs, dtype=complex))
        if c.ndim != 1 or c.size == 0:
            raise BadParams("coefficients must be a nonempty 1-d sequence")
        nz = np.nonzero(c)[0]
        c = c[: nz[-1] + 1] if nz.size else c[:1]
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        return self.coeffs.size - 1

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        out = np.full_like(z, self.coeffs[-1])
        for a in self.coeffs[-2::-1]:
            out = out * z + a
        return out if out.ndim else complex(out)

    def derivative(self) -> "Polynomial":
        if self.degree == 0:
            return Polynomial([0.0])
        k = np.arange(1, self.coeffs.size)
        return Polynomial(self.coeffs[1:] * k)

    def scaled(self, c: complex) -> "Polynomial":
        return Polynomial(self.coeffs * c)


@dataclass(frozen=True)
class DiscNormResult:
    value: float
    peak: complex
    resolution: int


@dataclass(frozen=True)
class BoundCheck:
    ok: bool
    lhs: float
    rhs: float


def disc_norm(f: Polynomial) -> DiscNormResult:
    """Max of |f| on the unit circle with the attaining point.

    Samples 4096 * (1 + deg//64) equispaced angles, then golden-section
    refines the bracket around the best sample to below 1e-12 radians.
    """
    m = 4096 * (1 + f.degree // 64)
    if f.degree == 0:
        return DiscNormResult(abs(f.coeffs[0]), 1.0 + 0.0j, m)
    theta = np.linspace(0.0, 2.0 * np.pi, m, endpoint=False)
    vals = np.abs(f(np.exp(1j * theta)))
    j = int(np.argmax(vals))
    step = 2.0 * np.pi / m

    def g(th: float) -> float:
        return abs(f(complex(np.exp(1j * th))))

    lo, hi = theta[j] - step, theta[j] + step
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    g1, g2 = g(x1), g(x2)
    while hi - lo > _BRACKET_TOL:
        if g1 < g2:
            lo, x1, g1 = x1, x2, g2
            x2 = lo + _GOLDEN * (hi - lo)
            g2 = g(x2)
        else:
            hi, x2, g2 = x2, x1, g1
            x1 = hi - _GOLDEN * (hi - lo)
            g1 = g(x1)
    best_theta = 0.5 * (lo + hi)
    # Golden section localizes a smooth maximum only to ~sqrt(eps) in the
    # angle (the value is flat there), which is too coarse for the peak
    # phase consumed by normalize_peak.  Polish with Newton on the
    # derivative of |f(e^{i theta})|^2, an exact trigonometric polynomial
    # of the coefficients: |f|^2 = sum_{j,k} a_j conj(a_k) e^{i(j-k)theta}.
    a = f.coeffs
    ks = np.arange(a.size)
    diffs = (ks[:, None] - ks[None, :]).ravel()
    prods = (a[:, None] * np.conj(a)[None, :]).ravel()
    for _ in range(6):
        ph = np.exp(1j * diffs * best_theta)
        d1 = float(np.real(np.sum(1j * diffs * prods * ph)))
        d2 = float(np.real(np.sum(-(diffs ** 2) * prods * ph)))
        if d2 >= 0.0 or not math.isfinite(d1 / d2):
            break
        step_n = d1 / d2
        if abs(step_n) > step:
            break
        best_theta -= step_n
        if abs(step_n) < 1e-15:
            break
    peak = complex(np.exp(1j * best_theta))
    value = max(float(vals[j]), g(best_theta))
    return DiscNormResult(value, peak, m)


def normalize_peak(f: Polynomial) -> Polynomial:
    """Rotate and rescale so the disc norm is 1 and the peak value is +1."""
    if f.degree == 0:
        raise ConstantPolynomial("cannot peak-normalize a constant polynomial")
    res = disc_norm(f)
    phase = np.exp(-1j * np.angle(f(res.peak)))
    return f.scaled(phase / res.value)


def power_expand(f: Polynomial, N: int) -> Polynomial:
    """Coefficients of f^N by repeated convolution."""
    if N < 1 or N != int(N):
        raise BadParams(f"power must be a positive integer, got {N}")
    out = f.coeffs.copy()
    for _ in range(int(N) - 1):
        out = np.convolve(out, f.coeffs)
    if not np.all(np.isfinite(out)):
        raise CoefficientOverflow(f"f^{N} produced non-finite coefficients")
    return Polynomial(out)


def coeff_sum_bound_check(f: Polynomial, N: int, tol: float = 1e-9) -> BoundCheck:
    """sum_k |a_{k,N}| <= (N deg(f) + 1) ||f||_D^N for the power f^N."""
    fN = power_expand(f, N)
    lhs = float(np.sum(np.abs(fN.coeffs)))
    rhs = (N * f.degree + 1) * disc_norm(f).value ** N
    return BoundCheck(lhs <= rhs + tol, lhs, rhs)


def in_C1(f: Polynomial) -> bool:
    """Strict membership |f(1)| < ||f||_D, with a 1e-9 margin."""
    return abs(f(1.0)) < disc_norm(f).value - _MEMBERSHIP_MARGIN


def factor_out_root(g: Polynomial, zeta: complex) -> tuple[Polynomial, float]:
    """Divide g by (zeta - z), assuming g(zeta) = 0.

    Synthetic division; returns the quotient q with (zeta - z) q(z) = g(z)
    and the absolute residual |g(zeta)| that was discarded.  Residuals
    above 1e-6 raise ``NotARoot``.
    """
    c = g.coeffs
    if c.size < 2:
        raise BadParams("cannot factor a root out of a constant polynomial")
    # Horner division by (z - zeta): g(z) = (z - zeta) h(z) + g(zeta).
    h = np.empty(c.size - 1, dtype=complex)
    acc = c[-1]
    for k in range(c.size - 2, -1, -1):
        h[k] = acc
        acc = c[k] + zeta * acc
    residual = abs(acc)
    if residual > _ROOT_TOL:
        raise NotARoot(f"residual |g({zeta})| = {residual:.3e} exceeds {_ROOT_TOL}")
    return Polynomial(-h), residual


def bernstein_check(f: Polynomial, N: int, l: int, x: float,
                    tol: float = 1e-7) -> BoundCheck:
    """Derivative bound for trigonometric polynomials f(e^{ix})^N.

    lhs = |(d/dx)^l f(e^{ix})^N| from exact coefficient differentiation
    (each mode k picks up (ik)^l); rhs = (N n)^l |f(e^{ix})|^{N-l} when
    l <= N, and (N n)^l otherwise.  Requires ||f||_D <= 1 + 1e-9.
    """
    if l < 0 or N < 1:
        raise BadParams(f"need N >= 1 and l >= 0, got N={N}, l={l}")
    if disc_norm(f).value > 1.0 + 1e-9:
        raise BadParams("bernstein_check expects f normalized to ||f||_D <= 1")
    n = f.degree
    fN = power_expand(f, N)
    k = np.arange(fN.coeffs.size)
    modes = fN.coeffs * (1j * k) ** l
    lhs = float(np.abs(np.sum(modes * np.exp(1j * k * x))))
    if l <= N:
        base = abs(f(complex(np.exp(1j * x))))
        rhs = float((N * n) ** l) * (base ** (N - l) if N > l else 1.0)
    else:
        rhs = float((N * n) ** l)
    return BoundCheck(lhs <= rhs + tol, lhs, rhs)


def eval_matrix(f: Polynomial, M: np.ndarray) -> np.ndarray:
    """f(M) by Horner's scheme."""
    M = np.asarray(M, dtype=complex)
    ident = np.eye(M.shape[0], dtype=complex)
    out = f.coeffs[-1] * ident
    for a in f.coeffs[-2::-1]:
        out = out @ M + a * ident
    return out
