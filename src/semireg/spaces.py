"""Weighted discrete Lebesgue spaces on a finite grid.

A ``GridSpace`` is C^dim equipped with the norm

    ||x|| = (sum_i w_i |x_i|^p)^(1/p)      for finite p >= 1,
    ||x|| = max_i |x_i|                     for p = inf,

with strictly positive weights w (atom masses of the discrete measure;
they drop out of the sup norm).

Every vector p-norm in the package (``GridSpace.norm`` and ``norm_rows``,
the p-norm power iteration, the time norm of ``mild_solution``, the
square function) comes from one kernel, ``pnorms``.  When |x_i|^p could
leave 2^(+-64) it scales the array exactly by the power of two of its
peak; rows whose sum then falls below 1e-290 are redone with their own peak.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BadParams

__all__ = ["GridSpace", "pnorms"]

_SAFE_EXP = 64       # unscaled |x|^p stays within 2^(+-64)
_TINY_SUM = 1e-290   # rows whose scaled sum falls below: redone with their own peak


def pnorms(a: np.ndarray, w: np.ndarray, p: float) -> np.ndarray:
    """Weighted p-norms (sum_i w_i a_i^p)^(1/p) of moduli a >= 0 along the
    last axis, the max at p = inf; the module docstring gives the scaling."""
    if math.isinf(p):
        return a.max(axis=-1)
    e = math.frexp(a.max())[1]
    e = e if abs(e) * p > _SAFE_EXP else 0
    s = (np.ldexp(a, -e) if e else a) ** p @ w
    out = np.ldexp(s ** (1.0 / p), e) if e else s ** (1.0 / p)
    if s.min() < _TINY_SUM:
        out, low = np.array(out), s < _TINY_SUM
        r = a[low]
        peak = r.max(axis=-1, keepdims=True)
        out[low] = peak[:, 0] * ((r / np.where(peak > 0.0, peak, 1.0)) ** p @ w) ** (1.0 / p)
    return out


@dataclass(frozen=True)
class GridSpace:
    dim: int
    weights: np.ndarray = field(repr=False)
    p: float

    def __init__(self, dim: int, weights=None, p: float = 2.0):
        if dim < 1:
            raise BadParams(f"space dimension must be >= 1, got {dim}")
        p = float(p)
        if not (p >= 1.0):
            raise BadParams(f"exponent p must satisfy p >= 1, got {p}")
        if weights is None:
            w = np.ones(dim)
        else:
            w = np.asarray(weights, dtype=float).reshape(-1)
        if w.shape != (dim,):
            raise BadParams(f"weights shape {w.shape} does not match dim {dim}")
        if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
            raise BadParams("weights must be finite and strictly positive")
        object.__setattr__(self, "dim", int(dim))
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "p", p)

    @classmethod
    def unit(cls, dim: int, p: float = 2.0) -> "GridSpace":
        return cls(dim, None, p)

    @property
    def is_sup(self) -> bool:
        return np.isinf(self.p)

    def norm(self, x) -> float:
        x = np.asarray(x).reshape(-1)
        if x.shape != (self.dim,):
            raise BadParams(f"vector length {x.size} does not match dim {self.dim}")
        return float(pnorms(np.abs(x), self.weights, self.p))

    def norm_rows(self, rows: np.ndarray) -> np.ndarray:
        """Norm of each row of a (..., dim) array, vectorized."""
        return pnorms(np.abs(rows), self.weights, self.p)

    def with_p(self, p: float) -> "GridSpace":
        return GridSpace(self.dim, self.weights, p)
