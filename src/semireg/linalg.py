"""Dense complex linear algebra kernels.

Everything downstream (semigroup profiles, R-bound searches, cosine
families) reduces to the five operations here: matrix exponential,
induced operator norms on weighted grid spaces, resolvents, contour
integrals, and strong integrals of matrix-valued functions.

Conventions
-----------
* Matrices are square ``numpy`` arrays, complex128.
* Norm results carry an ``estimate`` flag: False means the value is
  exact up to rounding (p in {1, 2, inf}, or a diagonal matrix at any
  p); True means a certified lower bound from the nonlinear power
  iteration.  A maximizing vector is returned only when the caller asks
  for it (``maximizer=True``); the value-only path takes the p = 2
  norm from the singular values alone.
* Quadrature results carry a ``converged`` flag; node-doubling that
  hits the node cap while still moving more than ``_DIVERGENCE_REL``
  relative raises ``QuadratureDivergence``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import BadParams, NumericalError, QuadratureDivergence, SpectrumHit
from .spaces import GridSpace, pnorms

__all__ = [
    "ContourSpec",
    "OpNormResult",
    "QuadResult",
    "Segment",
    "contour_integral",
    "mat_exp",
    "op_norm",
    "quad_strong_integral",
    "resolvent",
]

_NODE_CAP = 2 ** 14          # max function evaluations per integral
_QUAD_TOL = 1e-8             # Frobenius stop for node-doubling
_DIVERGENCE_REL = 1e-4       # relative motion at the cap that means divergence
_COND_CAP = 1e12             # resolvent condition cap
_POWER_RESTARTS = 8          # random restarts for the p-norm iteration
_POWER_ITERS = 200
_TINY = np.finfo(float).tiny

# Pade order-13 numerator coefficients for the scaling-and-squaring
# exponential (denominator uses the alternating-sign counterpart).
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
_PADE13_THETA = 5.371920351148152


def _as_matrix(A) -> np.ndarray:
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] == 0:
        raise BadParams(f"expected a square matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise BadParams("matrix has non-finite entries")
    return A


def _norm1(M: np.ndarray) -> float:
    """Induced 1-norm, the largest absolute column sum (0 when empty)."""
    return float(np.max(np.sum(np.abs(M), axis=0), initial=0.0))


def _is_diagonal(A: np.ndarray) -> bool:
    # Row r of the (n-1, n+1) view of the flat array after its first entry
    # holds the n entries between diagonal r and diagonal r + 1; dropping
    # its last column (diagonal r + 1) leaves exactly the off-diagonal.
    n = A.shape[0]
    return n == 1 or not np.any(A.reshape(-1)[1:].reshape(n - 1, n + 1)[:, :n])


def mat_exp(A, t: float = 1.0) -> np.ndarray:
    """e^{tA} by order-13 Pade with power-of-two scaling from ||tA||_1.

    Diagonal matrices short-circuit to the entrywise exponential (the
    same value, exact); dense matrices always take the Pade path.  A
    result that overflows, or a dense tA that does, raises
    ``NumericalError``.
    """
    A = _as_matrix(A)
    # Overflow leaves non-finite entries, which are checked, not warned.
    with np.errstate(over="ignore", invalid="ignore"):
        E = (np.diag(np.exp(t * np.diag(A))) if _is_diagonal(A)
             else _pade_exp(t * A))
    if E is None or not np.all(np.isfinite(E)):
        raise NumericalError(f"e^(tA) overflows at t = {t}")
    return E


def _pade_exp(M: np.ndarray) -> np.ndarray | None:
    """e^M, or None when ||M||_1 overflows and no scaling applies."""
    n = M.shape[0]
    ident = np.eye(n, dtype=complex)
    norm1 = _norm1(M)
    if not math.isfinite(norm1):
        return None
    s = max(0, int(math.ceil(math.log2(norm1 / _PADE13_THETA))) if norm1 > _PADE13_THETA else 0)
    M = M / (2.0 ** s)
    b = _PADE13
    M2 = M @ M
    M4 = M2 @ M2
    M6 = M4 @ M2
    U = M @ (M6 @ (b[13] * M6 + b[11] * M4 + b[9] * M2)
             + b[7] * M6 + b[5] * M4 + b[3] * M2 + b[1] * ident)
    V = (M6 @ (b[12] * M6 + b[10] * M4 + b[8] * M2)
         + b[6] * M6 + b[4] * M4 + b[2] * M2 + b[0] * ident)
    E = np.linalg.solve(V - U, V + U)
    for _ in range(s):
        E = E @ E
    return E


@dataclass(frozen=True)
class OpNormResult:
    value: float
    estimate: bool
    maximizer: np.ndarray | None     # only when op_norm is asked for it

    def __float__(self) -> float:
        return self.value


def _dual_map(y: np.ndarray, a: np.ndarray, s: float,
              c: np.ndarray | None = None) -> np.ndarray:
    """sign(y) |y|^(s-1) (0 where y = 0), the duality map of l^s, up to a
    positive factor per row, from the moduli a = |y|.  Above s = 2 it is
    y (a / c)^(s-2) for row bounds c >= max a (the row maxima by default):
    no signs, no power above 1."""
    if s > 2.0:
        c = a.max(axis=-1) if c is None else c
        return y * (a / np.maximum(c, _TINY)[:, None]) ** (s - 2.0)
    # Signs by real divisions: complex division by a subnormal modulus
    # overflows (it forms 1/|y|).
    safe = np.where(a == 0.0, 1.0, a)
    sign = np.empty_like(y)
    sign.real = y.real / safe
    sign.imag = y.imag / safe
    return sign * a ** (s - 1.0)


def _pnorm_lower(B: np.ndarray, p: float, X0: np.ndarray,
                 iters: int = _POWER_ITERS) -> tuple[float, np.ndarray]:
    """Nonlinear power iteration on the unweighted p-norm of B.

    Each row of X0 is one start; the starts iterate together as one
    matrix, and a start leaves the batch once it converges.  Alternates
    between the primal map x -> Bx and the duality map of the gradient;
    every iterate certifies ||Bx||_p / ||x||_p, so the running best is a
    true lower bound.  Returns the best value over all starts (the first
    start on ties) and its iterate.
    """
    q = p / (p - 1.0)
    BT, BC = B.T, B.conj()
    ones = np.ones(B.shape[0])
    X = X0 / pnorms(np.abs(X0), ones, p)[:, None]
    m = X.shape[0]
    best, best_x = np.zeros(m), X.copy()
    prev, active = np.full(m, -1.0), np.arange(m)
    for _ in range(iters):
        Xa = X[active]
        Y = Xa @ BT
        aY = np.abs(Y)
        g = pnorms(aY, ones, p)
        up = g > best[active]
        best[active[up]] = g[up]
        best_x[active[up]] = Xa[up]
        pa = prev[active]
        done = (pa >= 0.0) & (np.abs(g - pa) <= 1e-14 * np.maximum(g, 1.0))
        prev[active] = g
        Z = _dual_map(Y, aY, p, g) @ BC
        Xn = _dual_map(Z, np.abs(Z), q)
        nx = pnorms(np.abs(Xn), ones, p)
        done |= nx == 0.0
        keep = ~done
        X[active[keep]] = Xn[keep] / nx[keep, None]
        active = active[keep]
        if active.size == 0:
            break
    k = int(np.argmax(best))
    return float(best[k]), best_x[k]


def _unit_vector(n: int, k: int) -> np.ndarray:
    x = np.zeros(n, dtype=complex)
    x[k] = 1.0
    return x


def op_norm(A, space: GridSpace, seed: int = 0, *,
            maximizer: bool = False) -> OpNormResult:
    """Induced operator norm of A on the weighted grid space.

    Exact closed forms for p in {1, 2, inf} (weighted column sums,
    largest singular value of the weight-conjugated matrix, row sums)
    and for diagonal matrices at any p (max |diagonal|).  Other p run
    the power iteration from 8 seeded random starts plus the p = 2
    maximizer and return a certified lower bound (``estimate=True``).

    ``maximizer=True`` also returns a vector x attaining the value,
    ``space.norm(A @ x) / space.norm(x) == value`` (the best iterate for
    an estimate); at p = 2 that costs the singular vectors.  Otherwise
    ``maximizer`` is None.
    """
    A = _as_matrix(A)
    n = A.shape[0]
    if n != space.dim:
        raise BadParams(f"matrix dim {n} does not match space dim {space.dim}")
    p, w = space.p, space.weights

    if _is_diagonal(A):
        d = np.abs(np.diagonal(A))
        k = int(np.argmax(d))
        return OpNormResult(float(d[k]), False,
                            _unit_vector(n, k) if maximizer else None)

    if p == 1.0:
        col = (w @ np.abs(A)) / w
        j = int(np.argmax(col))
        return OpNormResult(float(col[j]), False,
                            _unit_vector(n, j) if maximizer else None)

    if np.isinf(p):
        absA = np.abs(A)
        row = np.sum(absA, axis=1)
        i = int(np.argmax(row))
        x = None
        if maximizer:
            x = _dual_map(A[i].conj(), absA[i], 1.0)
            x[absA[i] == 0.0] = 1.0
        return OpNormResult(float(row[i]), False, x)

    scale = w ** (1.0 / p)
    B = A if np.all(w == 1.0) else (scale[:, None] * A) / scale[None, :]

    if p == 2.0 and not maximizer:
        return OpNormResult(float(np.linalg.svd(B, compute_uv=False)[0]), False, None)

    _, s, Vh = np.linalg.svd(B)
    if p == 2.0:
        return OpNormResult(float(s[0]), False, Vh[0].conj() / scale)

    rng = np.random.default_rng(seed)
    starts = [Vh[0].conj()] + [rng.standard_normal(n) + 1j * rng.standard_normal(n)
                               for _ in range(_POWER_RESTARTS)]
    best, best_x = _pnorm_lower(B, p, np.stack(starts))
    return OpNormResult(best, True, best_x / scale if maximizer else None)


def resolvent(A, lam: complex) -> np.ndarray:
    """(lam - A)^{-1} by LU solve with a condition cap.

    A 1-norm condition estimate above 1e12 (or a singular factorization)
    means lam is numerically in the spectrum: ``SpectrumHit``.
    """
    A = _as_matrix(A)
    n = A.shape[0]
    ident = np.eye(n, dtype=complex)
    M = lam * ident - A
    try:
        X = np.linalg.solve(M, ident)
    except np.linalg.LinAlgError:
        raise SpectrumHit(f"resolvent at lam={lam}: factorization singular") from None
    cond = _norm1(M) * _norm1(X)
    if not np.isfinite(cond) or cond > _COND_CAP:
        raise SpectrumHit(f"resolvent at lam={lam}: condition estimate {cond:.3e} exceeds cap")
    R = M @ X - ident
    # The Frobenius norm bounds the 2-norm from above without an SVD.
    if float(np.linalg.norm(R, "fro")) > 1e-12:
        X = X + np.linalg.solve(M, -R)
    return X


@dataclass(frozen=True)
class Segment:
    """One smooth arc of a contour: s in [0, 1] -> curve(s), with derivative."""
    curve: Callable[[np.ndarray], np.ndarray]
    dcurve: Callable[[np.ndarray], np.ndarray]
    nodes: int = 32


@dataclass(frozen=True)
class ContourSpec:
    segments: Sequence[Segment]
    counterclockwise: bool = True

    @classmethod
    def circle(cls, center: complex, radius: float, nodes: int = 64) -> "ContourSpec":
        if radius <= 0.0:
            raise BadParams(f"circle radius must be positive, got {radius}")
        tau = 2.0j * np.pi

        def curve(s, c=center, r=radius):
            return c + r * np.exp(tau * s)

        def dcurve(s, r=radius):
            return tau * r * np.exp(tau * s)

        return cls((Segment(curve, dcurve, nodes),))

    @classmethod
    def rectangle(cls, re_min: float, re_max: float, im_min: float,
                  im_max: float, nodes: int = 32) -> "ContourSpec":
        if re_min >= re_max or im_min >= im_max:
            raise BadParams("rectangle needs re_min < re_max and im_min < im_max")
        corners = [re_min + 1j * im_min, re_max + 1j * im_min,
                   re_max + 1j * im_max, re_min + 1j * im_max]
        segs = []
        for a, b in zip(corners, corners[1:] + corners[:1]):
            def curve(s, a=a, b=b):
                return a + (b - a) * s

            def dcurve(s, a=a, b=b):
                return (b - a) * np.ones_like(np.asarray(s, dtype=complex))

            segs.append(Segment(curve, dcurve, nodes))
        return cls(tuple(segs))

    def sample(self, per_segment: int = 64) -> np.ndarray:
        """Contour points for spectrum-enclosure and pole-distance checks."""
        s = np.linspace(0.0, 1.0, per_segment, endpoint=False)
        return np.concatenate([seg.curve(s) for seg in self.segments])


@dataclass(frozen=True)
class QuadResult:
    value: np.ndarray
    converged: bool
    nodes: int


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def _gl_panels(F: Callable[[complex], np.ndarray], zs: np.ndarray,
               dz: np.ndarray, weights: np.ndarray) -> np.ndarray:
    total = None
    for z, d, w in zip(zs, dz, weights):
        term = F(complex(z)) * (w * d)
        total = term if total is None else total + term
    return total


def _segment_nodes(seg: Segment, panels: int):
    edges = np.linspace(0.0, 1.0, panels + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    s = (mids[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    w = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
    return s, w


def contour_integral(F: Callable[[complex], np.ndarray],
                     contour: ContourSpec) -> QuadResult:
    """(1/2 pi i) * closed contour integral of a matrix-valued function.

    Composite 16-node Gauss-Legendre panels per segment; the panel count
    doubles until successive values differ by less than 1e-8 in
    Frobenius norm, capped at 2^14 nodes.
    """
    panels = [max(1, -(-seg.nodes // 16)) for seg in contour.segments]
    prev = None
    while True:
        total = None
        nodes_used = 0
        for seg, P in zip(contour.segments, panels):
            s, w = _segment_nodes(seg, P)
            zs = seg.curve(s)
            dz = seg.dcurve(s)
            nodes_used += s.size
            part = _gl_panels(F, zs, dz, w)
            total = part if total is None else total + part
        total = total / (2.0j * np.pi)
        if not contour.counterclockwise:
            total = -total
        if prev is not None:
            change = float(np.linalg.norm(total - prev, "fro"))
            scale = max(float(np.linalg.norm(total, "fro")), 1.0)
            if change < _QUAD_TOL:
                return QuadResult(total, True, nodes_used)
            if 2 * nodes_used > _NODE_CAP:
                if change / scale > _DIVERGENCE_REL:
                    raise QuadratureDivergence(
                        f"contour integral still moving {change:.3e} at {nodes_used} nodes")
                return QuadResult(total, False, nodes_used)
        elif 2 * nodes_used > _NODE_CAP:
            return QuadResult(total, False, nodes_used)
        prev = total
        panels = [2 * P for P in panels]


def quad_strong_integral(G: Callable[[float], np.ndarray], a: float, b: float,
                         tol: float = 1e-9) -> QuadResult:
    """Adaptive integral of a matrix-valued function on [a, b].

    Bisects panels until the 16- vs 32-node discrepancy is below the
    per-entry tolerance (scaled by panel length), within the node cap.
    """
    if not (b > a):
        raise BadParams(f"integration interval needs b > a, got [{a}, {b}]")

    def gl(lo: float, hi: float, panels: int) -> np.ndarray:
        half = 0.5 * (hi - lo) / panels
        total = None
        for k in range(panels):
            c = lo + (2 * k + 1) * half
            for x, w in zip(_GL_NODES, _GL_WEIGHTS):
                term = G(float(c + half * x)) * (w * half)
                total = term if total is None else total + term
        return total

    budget = _NODE_CAP
    nodes_used = 0
    stack = [(a, b)]
    total = None
    worst_rel = 0.0
    converged = True
    while stack:
        lo, hi = stack.pop()
        coarse = gl(lo, hi, 1)
        fine = gl(lo, hi, 2)
        nodes_used += 48
        err = float(np.max(np.abs(fine - coarse)))
        local_tol = tol * max((hi - lo) / (b - a), 1e-3)
        if err <= local_tol or nodes_used + 96 > budget:
            if err > local_tol:
                converged = False
                scale = max(float(np.max(np.abs(fine))), 1.0)
                worst_rel = max(worst_rel, err / scale)
            total = fine if total is None else total + fine
        else:
            mid = 0.5 * (lo + hi)
            stack.append((lo, mid))
            stack.append((mid, hi))
    if not converged and worst_rel > _DIVERGENCE_REL:
        raise QuadratureDivergence(
            f"strong integral on [{a}, {b}] unresolved at node cap "
            f"(relative error {worst_rel:.3e})")
    return QuadResult(total, converged, nodes_used)
