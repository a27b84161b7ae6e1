"""Tests for weighted grid spaces, matrix exponentials, induced norms,
resolvents and the two quadrature primitives."""

import math
import warnings

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from semireg import linalg
from semireg.errors import BadParams, NumericalError, SpectrumHit
from semireg.linalg import (
    ContourSpec,
    _is_diagonal,
    contour_integral,
    eig_norms,
    mat_exp,
    op_norm,
    quad_strong_integral,
    resolvent,
    spectral,
)
from semireg.spaces import GridSpace, pnorms
from semireg.zoo import build


# ---------------------------------------------------------------------------
# GridSpace


def test_unit_space_norms():
    sp = GridSpace.unit(3, 2.0)
    x = np.array([3.0, 4.0, 0.0])
    assert sp.norm(x) == pytest.approx(5.0)
    assert GridSpace.unit(3, 1.0).norm(x) == pytest.approx(7.0)
    assert GridSpace.unit(3, math.inf).norm(x) == pytest.approx(4.0)


def test_weighted_norm_matches_direct_sum():
    rng = np.random.default_rng(0)
    w = rng.uniform(0.5, 2.0, size=5)
    sp = GridSpace(5, w, 3.0)
    x = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    direct = float(np.sum(w * np.abs(x) ** 3.0)) ** (1.0 / 3.0)
    assert sp.norm(x) == pytest.approx(direct, rel=1e-12)


def _pnorm_oracle(row, w, p):
    """(sum_i w_i row_i^p)^(1/p) with the peak factored out and an exact sum."""
    peak = max(row)
    if p == math.inf or peak == 0.0:
        return peak
    total = math.fsum(wi * (ai / peak) ** p for ai, wi in zip(row, w))
    return peak * total ** (1.0 / p)


_MODULI = st.one_of(st.just(0.0),
                    st.floats(-200.0, 200.0).map(lambda e: 10.0 ** e))


@st.composite
def _pnorm_cases(draw):
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 12))
    a = draw(hnp.arrays(float, (m, n), elements=_MODULI))
    a[draw(hnp.arrays(bool, m))] = 0.0
    w = draw(hnp.arrays(float, n, elements=st.floats(1e-3, 1e3)))
    p = draw(st.sampled_from([1.0, 1.5, 2.0, 3.0, 4.0, 50.0, 400.0, math.inf]))
    return a, w, p


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_pnorm_cases())
def test_pnorms_matches_exact_sum(case):
    a, w, p = case
    n = a.shape[1]

    def check(got, row, peak):
        want = _pnorm_oracle(row, w, p)
        if want == 0.0:
            assert got == 0.0
            return
        # Rounding 1/p moves s^(1/p) by |ln s| / p units of rounding, and
        # ln(s) / p is ln(want / scale) for a scale within 2^64 of the peak.
        rel = 2.3e-16 * (n + 48.0 + abs(math.log(want) - math.log(peak)))
        assert got == pytest.approx(want, rel=rel)

    rows = pnorms(a, w, p)
    assert rows.shape == (a.shape[0],)
    for row, got in zip(a, rows):
        check(got, row, a.max())
        check(float(pnorms(row, w, p)), row, row.max())


def test_space_validation():
    with pytest.raises(BadParams):
        GridSpace(3, np.ones(3), 0.5)
    with pytest.raises(BadParams):
        GridSpace(3, -np.ones(3), 2.0)
    with pytest.raises(BadParams):
        GridSpace(3, np.ones(4), 2.0)


def test_with_p_and_is_sup():
    sp = GridSpace.unit(4, 2.0)
    assert not sp.is_sup
    sp_inf = sp.with_p(math.inf)
    assert sp_inf.is_sup
    assert sp_inf.dim == 4


# ---------------------------------------------------------------------------
# mat_exp


def test_mat_exp_identity_at_zero():
    rng = np.random.default_rng(1)
    A = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    np.testing.assert_allclose(mat_exp(A, 0.0), np.eye(4), atol=1e-14)


def test_mat_exp_diagonal():
    lam = np.array([-1.0, 0.5 + 2.0j, 3.0j])
    E = mat_exp(np.diag(lam), 0.7)
    np.testing.assert_allclose(E, np.diag(np.exp(0.7 * lam)), rtol=1e-13)


def test_mat_exp_nilpotent():
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    for t in (0.3, -2.0, 11.0):
        np.testing.assert_allclose(mat_exp(A, t),
                                   np.array([[1.0, t], [0.0, 1.0]]),
                                   atol=1e-13)


def test_mat_exp_rotation_block():
    # exp of t[[0,-1],[1,0]] is the rotation by angle t.
    A = np.array([[0.0, -1.0], [1.0, 0.0]])
    t = 1.234
    R = np.array([[math.cos(t), -math.sin(t)],
                  [math.sin(t), math.cos(t)]])
    np.testing.assert_allclose(mat_exp(A, t), R, atol=1e-13)


def test_mat_exp_series_oracle():
    rng = np.random.default_rng(2)
    A = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    t = 0.3
    term = np.eye(5, dtype=complex)
    series = np.eye(5, dtype=complex)
    for k in range(1, 61):
        term = term @ (t * A) / k
        series = series + term
    E = mat_exp(A, t)
    assert np.linalg.norm(E - series, 2) <= 1e-10 * np.linalg.norm(E, 2)


def test_mat_exp_semigroup_law_batch():
    rng = np.random.default_rng(3)
    for _ in range(10):
        A = rng.uniform(-2.0, 2.0, size=(4, 4))
        s, t = rng.uniform(0.0, 2.0, size=2)
        lhs = mat_exp(A, s + t)
        rhs = mat_exp(A, s) @ mat_exp(A, t)
        scale = 1.0 + (np.linalg.norm(mat_exp(A, s), 2)
                       * np.linalg.norm(mat_exp(A, t), 2))
        assert np.linalg.norm(lhs - rhs, 2) <= 1e-9 * scale


def test_mat_exp_rejects_bad_input():
    with pytest.raises(BadParams):
        mat_exp(np.array([[np.inf, 0.0], [0.0, 1.0]]), 1.0)
    with pytest.raises(BadParams):
        mat_exp(np.zeros((0, 0)), 1.0)
    with pytest.raises(BadParams):
        mat_exp(np.zeros((2, 3)), 1.0)


@pytest.mark.parametrize("A", [
    np.diag([1.0, 800.0]),
    np.array([[50.0, 1.0], [0.0, 50.0]]),
], ids=["diagonal", "jordan"])
def test_mat_exp_overflow_is_numerical_failure(A):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NumericalError):
            mat_exp(A, 100.0)
    assert not caught


def _unitary(rng, n):
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return np.linalg.qr(G)[0]


def _near_normal(eps):
    """Q (D + eps N) Q^H: distinct eigenvalues, nilpotent N of unit entries."""
    rng = np.random.default_rng(11)
    Q = _unitary(rng, 8)
    D = np.diag(rng.standard_normal(8) + 1j * rng.standard_normal(8))
    N = np.triu(rng.standard_normal((8, 8)), 1)
    return Q @ (D + eps * N) @ Q.conj().T


@pytest.mark.parametrize("A", [
    build("jordan", 8).matrix,
    np.random.default_rng(12).standard_normal((8, 8)),
    _near_normal(1e-6),
    _near_normal(1e-10),
], ids=["jordan", "random", "near_normal_1e-6", "near_normal_1e-10"])
def test_spectral_rejects_non_normal(A):
    assert spectral(A) is None


def test_spectral_rejects_eigenvalues_that_meet_under_both_weights():
    # 0 and i - w1 share Re + w1 Im = 0, and 0 and 2i - 2 w2 share
    # Re + w2 Im = 0, so under either weight eigh returns any basis of a
    # joint eigenspace; the residual check must refuse both, and the
    # exponential then comes from Pade.
    w1, w2 = linalg._SKEW_WEIGHTS
    Q = _unitary(np.random.default_rng(15), 3)
    lam = np.array([0.0, 1j - w1, 2j - 2.0 * w2])
    A = (Q * lam) @ Q.conj().T
    assert spectral(A) is None
    ref = (Q * np.exp(0.7 * lam)) @ Q.conj().T
    assert np.linalg.norm(mat_exp(A, 0.7) - ref, 2) <= 1e-14


def test_spectral_separates_eigenvalues_that_meet_under_one_weight():
    # 0 and i - w1 meet under the first weight only; the second splits them.
    w1 = linalg._SKEW_WEIGHTS[0]
    Q = _unitary(np.random.default_rng(15), 2)
    lam = np.array([0.0, 1j - w1])
    A = (Q * lam) @ Q.conj().T
    eig = spectral(A)
    assert eig is not None
    ref = (Q * np.exp(0.7 * lam)) @ Q.conj().T
    assert np.linalg.norm(mat_exp(A, 0.7, eig) - ref, 2) <= 1e-14


# ---------------------------------------------------------------------------
# op_norm


def test_op_norm_identity_all_p():
    for p in (1.0, 2.0, 3.0, 4.0, math.inf):
        res = op_norm(np.eye(5, dtype=complex), GridSpace.unit(5, p))
        assert res.value == pytest.approx(1.0, abs=1e-9)


def test_op_norm_diagonal_all_p():
    lam = np.array([0.3, -2.5, 1.0 + 1.0j])
    for p in (1.0, 2.0, 4.0, math.inf):
        res = op_norm(np.diag(lam), GridSpace.unit(3, p))
        assert res.value == pytest.approx(2.5, abs=1e-7)


def test_eig_norms_closed_form_where_exact():
    rng = np.random.default_rng(21)
    Q = np.linalg.qr(rng.standard_normal((5, 5))
                     + 1j * rng.standard_normal((5, 5)))[0]
    lam = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    F = rng.standard_normal((4, 5)) + 1j * rng.standard_normal((4, 5))
    got = eig_norms((Q, lam), F, GridSpace.unit(5, 2.0))
    want = [np.linalg.norm((Q * f) @ Q.conj().T, 2) for f in F]
    np.testing.assert_allclose(got, want, rtol=1e-13)
    # A diagonal operator at any p and weights: weighted column sums at
    # p = 1, row sums at p = inf.
    w = rng.uniform(0.5, 2.0, 5)
    absF = np.abs(F)
    for p in (1.0, 3.0, math.inf):
        got = eig_norms((None, lam), F, GridSpace(5, w, p))
        np.testing.assert_array_equal(got, absF.max(axis=1))
    np.testing.assert_array_equal(
        eig_norms((None, lam), F, GridSpace(5, w, 1.0)),
        [np.max((w @ np.diag(a)) / w) for a in absF])
    # No closed form: a dense eigenbasis off the unit p = 2 space, or no pair.
    assert eig_norms((Q, lam), F, GridSpace.unit(5, 4.0)) is None
    assert eig_norms((Q, lam), F, GridSpace(5, w, 2.0)) is None
    assert eig_norms(None, F, GridSpace.unit(5, 2.0)) is None
    with pytest.raises(BadParams):
        eig_norms((Q, lam), F, GridSpace.unit(4, 2.0))


def test_op_norm_column_sum():
    A = np.array([[1.0, 1.0], [0.0, 1.0]])
    res = op_norm(A, GridSpace.unit(2, 1.0))
    assert res.value == pytest.approx(2.0)
    assert not res.estimate


def test_op_norm_p2_is_weighted_svd():
    rng = np.random.default_rng(4)
    A = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    w = rng.uniform(0.5, 2.0, size=6)
    sp = GridSpace(6, w, 2.0)
    d = np.sqrt(w)
    conj = (A * d[:, None]) / d[None, :]
    expected = float(np.linalg.norm(conj, 2))
    assert op_norm(A, sp).value == pytest.approx(expected, rel=1e-10)


def test_op_norm_general_p_beats_random_vectors():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((6, 6))
    sp = GridSpace.unit(6, 3.0)
    res = op_norm(A, sp)
    assert res.estimate
    best = 0.0
    X = rng.standard_normal((10000, 6))
    for x in X:
        best = max(best, sp.norm(A @ x) / sp.norm(x))
    assert res.value >= best - 1e-9


def test_op_norm_interlacing():
    rng = np.random.default_rng(6)
    for _ in range(10):
        A = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        n1 = op_norm(A, GridSpace.unit(5, 1.0)).value
        n2 = op_norm(A, GridSpace.unit(5, 2.0)).value
        ninf = op_norm(A, GridSpace.unit(5, math.inf)).value
        assert n2 <= math.sqrt(n1 * ninf) + 1e-10


def test_op_norm_dimension_mismatch():
    with pytest.raises(BadParams):
        op_norm(np.eye(3), GridSpace.unit(4, 2.0))


_FINITE = st.floats(-1e3, 1e3, allow_subnormal=False)


@st.composite
def _norm_cases(draw):
    """A complex matrix of dimension 1-12 (diagonal or not) on a weighted space."""
    n = draw(st.integers(1, 12))
    parts = draw(hnp.arrays(float, (2, n, n), elements=_FINITE))
    A = parts[0] + 1j * parts[1]
    if draw(st.booleans()):
        A = np.diag(np.diag(A))
    w = draw(hnp.arrays(float, n, elements=st.floats(1e-3, 1e3)))
    p = draw(st.sampled_from([1.0, 2.0, 3.0, 50.0, 400.0, math.inf]))
    return A, GridSpace(n, w, p)


def _norm_oracle(A, space):
    """The closed-form norm, or None where there is none (dense, p not in
    {1, 2, inf})."""
    n, w, p = A.shape[0], space.weights, space.p
    if not np.any(A - np.diag(np.diag(A))):
        return float(np.max(np.abs(np.diag(A))))
    if p == 1.0:
        return max(sum(w[i] * abs(A[i, j]) for i in range(n)) / w[j]
                   for j in range(n))
    if p == math.inf:
        return max(sum(abs(A[i, j]) for j in range(n)) for i in range(n))
    if p == 2.0:
        d = np.sqrt(w)
        return float(np.linalg.svd((d[:, None] * A) / d[None, :],
                                   compute_uv=False)[0])
    return None


_PROPERTY = settings(max_examples=150, deadline=None, derandomize=True)


@_PROPERTY
@given(_norm_cases())
def test_op_norm_value_matches_oracle(case):
    A, space = case
    res = op_norm(A, space)
    assert res.maximizer is None
    want = _norm_oracle(A, space)
    if want is not None:
        assert not res.estimate
        assert res.value == pytest.approx(want, rel=1e-12, abs=1e-300)
        return
    # p in {3, 50, 400} on a dense matrix: a certified lower bound, below
    # the Riesz-Thorin product of the exact p = 2 and p = inf norms.
    assert res.estimate
    two = _norm_oracle(A, space.with_p(2.0))
    sup = _norm_oracle(A, space.with_p(math.inf))
    theta = 1.0 - 2.0 / space.p
    assert res.value <= two ** (1.0 - theta) * sup ** theta * (1.0 + 1e-12)


@_PROPERTY
@given(_norm_cases())
def test_op_norm_maximizer_attains_value(case):
    A, space = case
    res = op_norm(A, space, maximizer=True)
    assert res.value == pytest.approx(op_norm(A, space).value, rel=1e-12,
                                      abs=1e-300)
    x = res.maximizer
    assert x.shape == (space.dim,) and np.all(np.isfinite(x))
    ratio = space.norm(A @ x) / space.norm(x)
    assert ratio == pytest.approx(res.value, rel=1e-10, abs=1e-300)


def _nonnegative_norm_search(A, p):
    """max ||Ax||_p / ||x||_p over x = (cos t, sin t), t in [0, pi/2]:
    a grid, then golden-section search around its best point."""
    def ratio(t):
        x = np.array([math.cos(t), math.sin(t)])
        return (np.sum((A @ x) ** p) / np.sum(x ** p)) ** (1.0 / p)

    grid = np.linspace(0.0, math.pi / 2.0, 4001)
    k = int(np.argmax([ratio(t) for t in grid]))
    lo, hi = grid[max(k - 1, 0)], grid[min(k + 1, grid.size - 1)]
    g = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(80):
        a, b = hi - g * (hi - lo), lo + g * (hi - lo)
        lo, hi = (a, hi) if ratio(a) < ratio(b) else (lo, b)
    return ratio(0.5 * (lo + hi))


@pytest.mark.parametrize("p", [1.5, 3.0, 4.0, 50.0, 400.0])
def test_op_norm_nonnegative_matches_search(p):
    # A nonnegative matrix N attains its p-norm at a nonnegative vector
    # (|Nx| <= N|x| entrywise), where the power iteration finds the maximum;
    # diagonal phases on either side are isometries and keep the norm.
    rng = np.random.default_rng(7)
    for _ in range(10):
        N = rng.uniform(0.0, 1.0, (2, 2))
        left, right = np.exp(2j * np.pi * rng.uniform(size=(2, 2)))
        res = op_norm(left[:, None] * N * right[None, :], GridSpace.unit(2, p))
        assert res.estimate
        assert res.value == pytest.approx(_nonnegative_norm_search(N, p), rel=1e-12)


def _copy_is_diagonal(A):
    return not np.any(A - np.diag(np.diag(A)))


def test_is_diagonal_dimension_one():
    for a in (0.0, 2.5 - 1j):
        assert _is_diagonal(np.array([[a]], dtype=complex))


@pytest.mark.parametrize("n", [2, 3, 5, 8])
@pytest.mark.parametrize("where", ["first-row-last", "last-row-first",
                                   "first-superdiag", "last-subdiag"])
def test_is_diagonal_single_off_entry(n, where):
    i, j = {"first-row-last": (0, n - 1), "last-row-first": (n - 1, 0),
            "first-superdiag": (0, 1), "last-subdiag": (n - 1, n - 2)}[where]
    A = np.diag(np.arange(1.0, n + 1.0)).astype(complex)
    assert _is_diagonal(A) and _copy_is_diagonal(A)
    A[i, j] = 1e-300j
    assert not _is_diagonal(A) and not _copy_is_diagonal(A)
    # A transposed (Fortran-ordered) view gives the same answer.
    assert not _is_diagonal(A.T) and not _copy_is_diagonal(A.T)


# ---------------------------------------------------------------------------
# resolvent


def test_resolvent_scalar_cases():
    np.testing.assert_allclose(resolvent(np.zeros((2, 2)), 2.0),
                               0.5 * np.eye(2), atol=1e-12)
    R = resolvent(np.diag([1.0, 3.0]), 2.0)
    np.testing.assert_allclose(R, np.diag([1.0, -1.0]), atol=1e-10)


def test_resolvent_residual():
    rng = np.random.default_rng(7)
    A = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    lam = 4.0 + 1.0j
    R = resolvent(A, lam)
    res = np.linalg.norm((lam * np.eye(6) - A) @ R - np.eye(6), 2)
    assert res <= 1e-10


def test_resolvent_spectrum_hit():
    with pytest.raises(SpectrumHit):
        resolvent(np.diag([1.0]), 1.0)
    with pytest.raises(SpectrumHit):
        resolvent(np.diag([1.0, 2.0, 3.0]), 2.0)


# ---------------------------------------------------------------------------
# contour_integral


def test_cauchy_integral_of_inverse():
    gamma = ContourSpec.circle(0.0, 1.0)
    out = contour_integral(lambda z: np.eye(2, dtype=complex) / z, gamma)
    np.testing.assert_allclose(out.value, np.eye(2), atol=1e-9)
    assert out.converged


def test_no_residue_integral_vanishes():
    gamma = ContourSpec.circle(0.0, 1.0)
    out = contour_integral(lambda z: np.eye(2, dtype=complex) / z ** 2, gamma)
    np.testing.assert_allclose(out.value, np.zeros((2, 2)), atol=1e-9)


def test_spectral_projection():
    A = np.diag([1.0, 2.0])
    gamma = ContourSpec.circle(1.0, 0.5)
    P = contour_integral(lambda z: resolvent(A, z), gamma).value
    np.testing.assert_allclose(P, np.diag([1.0, 0.0]), atol=1e-8)
    # projector property on a non-normal example
    B = np.array([[1.0, 5.0], [0.0, 4.0]])
    gamma = ContourSpec.circle(1.0, 1.0)
    P = contour_integral(lambda z: resolvent(B, z), gamma).value
    assert np.linalg.norm(P @ P - P, 2) <= 1e-8


def test_rectangle_contour_projection():
    A = np.diag([-1.0, -3.0])
    gamma = ContourSpec.rectangle(-1.5, -0.5, -1.0, 1.0)
    P = contour_integral(lambda z: resolvent(A, z), gamma).value
    np.testing.assert_allclose(P, np.diag([1.0, 0.0]), atol=1e-8)


# ---------------------------------------------------------------------------
# quad_strong_integral


def test_quad_constant():
    out = quad_strong_integral(lambda s: np.eye(3, dtype=complex), 0.0, 1.0)
    np.testing.assert_allclose(out.value, np.eye(3), atol=1e-9)
    assert out.converged


def test_quad_scalar_exponential():
    A = np.diag([-1.0])
    out = quad_strong_integral(lambda s: mat_exp(A, s), 0.0, 1.0)
    np.testing.assert_allclose(out.value, np.diag([1.0 - math.exp(-1.0)]),
                               atol=1e-9)


def test_quad_oscillatory_matches_resolvent_form():
    # int_0^t e^{-is a} e^{sA} ds = (A - ia)^{-1} (e^{-ita} e^{tA} - I)
    rng = np.random.default_rng(8)
    A = rng.standard_normal((3, 3)) - 2.0 * np.eye(3)
    alpha, t = 3.0, 0.8
    out = quad_strong_integral(
        lambda s: np.exp(-1j * s * alpha) * mat_exp(A, s), 0.0, t).value
    lhs = np.linalg.solve(A - 1j * alpha * np.eye(3),
                          np.exp(-1j * t * alpha) * mat_exp(A, t) - np.eye(3))
    assert np.linalg.norm(out - lhs, 2) <= 1e-7
