"""Tests for cosine families: block-exponential and group constructions,
the d'Alembert and Laplace-transform identities, zero-two profiles, the
polynomial witness on groups, and the shifted-generator series."""

import copy
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semireg import zoo
from semireg.cosine import (
    CosineFamily,
    _convolve_level,
    cosine_from_generator,
    cosine_from_group,
    dalembert_residual,
    fattorini_series,
    generator_residual,
    laplace_transform_check,
    zero_two_polynomial_witness,
    zero_two_profile,
)
from semireg.errors import (
    BadParams,
    NumericalError,
    SeriesNotConverged,
    TailTooFat,
)
from semireg.linalg import mat_exp, quad_strong_integral, spectral
from semireg.semigroup import GrowthBound, log_time_grid


def rand_matrix(rng, dim, scale=1.0):
    return scale * (rng.standard_normal((dim, dim))
                    + 1j * rng.standard_normal((dim, dim)))


def skew_hermitian(rng, dim):
    M = rand_matrix(rng, dim)
    return 0.5 * (M - M.conj().T)


# ---------------------------------------------------------------------------
# construction and closed forms


@st.composite
def _normal_cases(draw):
    """A = Q diag(lam) Q^H from a seeded unitary Q; lam is drawn with
    repetition from a pool, as heat_conv's +-m modes repeat."""
    n = draw(st.integers(1, 10))
    pool = draw(st.lists(st.builds(complex, st.floats(-4096.0, 0.0),
                                   st.floats(-64.0, 64.0)),
                         min_size=1, max_size=n))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n))
    lam = np.array([pool[k] for k in picks])
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    Q = np.linalg.qr(rng.standard_normal((n, n))
                     + 1j * rng.standard_normal((n, n)))[0]
    return Q, lam, draw(st.floats(1e-4, 1.0))


def _sinhc_oracle(z):
    safe = np.where(z == 0.0, 1.0, z)
    return np.where(z == 0.0, 1.0, np.sinh(safe) / safe)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_normal_cases())
def test_spectral_path_matches_unitary_oracle(case):
    Q, lam, t = case
    QH = Q.conj().T
    n = lam.size
    A = (Q * lam) @ QH
    eig = spectral(A)
    assert eig is not None
    # Forming A rounds it by about n eps ||A||; the exponentials carry
    # that error times t and the growth of cosh.
    tol = 64.0 * n * np.finfo(float).eps * (1.0 + t * np.max(np.abs(lam)))
    E = mat_exp(A, t, eig)
    assert np.linalg.norm(E - (Q * np.exp(t * lam)) @ QH, 2) <= tol
    w = np.sqrt(lam)
    growth = max(1.0, float(np.max(np.abs(np.cosh(t * w)))))
    C_ref = (Q * np.cosh(t * w)) @ QH
    S_ref = (Q * (t * _sinhc_oracle(t * w))) @ QH
    for fam in (cosine_from_generator(A, verify=False),
                cosine_from_group((Q * w) @ QH, verify=False)):
        assert fam.eig is not None
        C, S = fam.sample(t)
        assert np.linalg.norm(C - C_ref, 2) <= tol * growth
        assert np.linalg.norm(S - S_ref, 2) <= tol * growth * t


def test_normal_cosine_overflow_is_numerical_failure():
    rng = np.random.default_rng(14)
    Q = np.linalg.qr(rng.standard_normal((4, 4))
                     + 1j * rng.standard_normal((4, 4)))[0]
    A = (Q * np.array([800.0 ** 2, -1.0, 4.0, 0.0])) @ Q.conj().T
    fam = cosine_from_generator(A, verify=False)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NumericalError):
            fam.sample(1.0)
    assert not caught


def test_cosine_at_zero():
    rng = np.random.default_rng(0)
    fam = cosine_from_generator(rand_matrix(rng, 4, 0.8))
    C0, S0 = fam.sample(0.0)
    np.testing.assert_allclose(C0, np.eye(4), atol=1e-12)
    np.testing.assert_allclose(S0, np.zeros((4, 4)), atol=1e-12)


def test_cosine_positive_diagonal_is_cosh():
    a = np.array([1.0, 4.0, 9.0])
    fam = cosine_from_generator(np.diag(a).astype(complex))
    for t in (0.3, 1.1):
        C, S = fam.sample(t)
        np.testing.assert_allclose(np.diag(C), np.cosh(t * np.sqrt(a)),
                                   rtol=1e-12)
        np.testing.assert_allclose(np.diag(S),
                                   np.sinh(t * np.sqrt(a)) / np.sqrt(a),
                                   rtol=1e-12)


def test_cosine_negative_diagonal_is_cos():
    lam = np.array([1.0, 2.0, 5.0])
    fam = cosine_from_generator(np.diag(-lam ** 2).astype(complex))
    for t in (0.4, 2.0):
        C, _ = fam.sample(t)
        np.testing.assert_allclose(np.diag(C), np.cos(t * lam), atol=1e-12)


def test_cosine_zero_generator():
    fam = cosine_from_generator(np.zeros((3, 3), dtype=complex))
    C, S = fam.sample(0.9)
    np.testing.assert_allclose(C, np.eye(3), atol=1e-12)
    np.testing.assert_allclose(S, 0.9 * np.eye(3), atol=1e-12)


def test_cosine_is_even():
    rng = np.random.default_rng(1)
    fam = cosine_from_generator(rand_matrix(rng, 4, 0.8))
    Cp, _ = fam.sample(1.3)
    Cm, _ = fam.sample(-1.3)
    assert np.linalg.norm(Cp - Cm, 2) <= 1e-10


def test_sine_is_integral_of_cosine():
    rng = np.random.default_rng(2)
    for fam in (cosine_from_generator(rand_matrix(rng, 3, 0.7)),
                cosine_from_group(skew_hermitian(rng, 3))):
        t = 1.2
        quad = quad_strong_integral(lambda s: fam.sample(s)[0], 0.0, t).value
        S = fam.sample(t)[1]
        assert np.linalg.norm(S - quad, 2) <= 1e-8


def test_sine_derivative_is_cosine():
    rng = np.random.default_rng(3)
    fam = cosine_from_generator(rand_matrix(rng, 3, 0.7))
    t, h = 0.8, 1e-4
    dS = (fam.sample(t + h)[1] - fam.sample(t - h)[1]) / (2.0 * h)
    assert np.linalg.norm(dS - fam.sample(t)[0], 2) <= 1e-6


def test_group_diag_rotation_is_cos():
    lam = np.array([1.0, 3.0])
    fam = cosine_from_group(np.diag(1j * lam))
    np.testing.assert_allclose(fam.generator, np.diag(-lam ** 2), atol=1e-12)
    C, _ = fam.sample(0.7)
    np.testing.assert_allclose(np.diag(C), np.cos(0.7 * lam), atol=1e-12)


def test_group_zero_is_identity():
    fam = cosine_from_group(np.zeros((2, 2), dtype=complex))
    C, _ = fam.sample(1.5)
    np.testing.assert_allclose(C, np.eye(2), atol=1e-12)


def test_group_vs_generator_cross_construction():
    rng = np.random.default_rng(4)
    B = rand_matrix(rng, 4, 0.8)
    from_group = cosine_from_group(B)
    from_gen = cosine_from_generator(B @ B)
    for t in (0.3, 0.9, 1.7):
        Cg, Sg = from_group.sample(t)
        Ca, Sa = from_gen.sample(t)
        assert np.linalg.norm(Cg - Ca, 2) <= 1e-8 * np.linalg.norm(Ca, 2)
        assert np.linalg.norm(Sg - Sa, 2) <= 1e-8 * (1 + np.linalg.norm(Sa, 2))


def test_generator_residual_small():
    rng = np.random.default_rng(5)
    fam = cosine_from_generator(rand_matrix(rng, 3, 0.8))
    assert generator_residual(fam, 0.7) <= 1e-6


def test_inconsistent_group_rejected():
    # Generator says decay, group says growth: the construction check
    # must catch the mismatch.
    with pytest.raises(NumericalError):
        CosineFamily(np.array([[-1.0 + 0.0j]]),
                     group=np.array([[1.0 + 0.0j]]))


def test_generator_must_be_square():
    with pytest.raises(BadParams):
        cosine_from_generator(np.zeros((2, 3)))


# ---------------------------------------------------------------------------
# d'Alembert functional equation


def test_dalembert_at_s_zero():
    rng = np.random.default_rng(6)
    fam = cosine_from_generator(rand_matrix(rng, 4, 0.8))
    assert dalembert_residual(fam, 1.1, 0.0) <= 1e-12


def test_dalembert_scalar_trig():
    fam = cosine_from_generator(np.array([[-1.0 + 0.0j]]))
    assert dalembert_residual(fam, 0.7, 0.3) <= 1e-12


def test_dalembert_random_batch():
    rng = np.random.default_rng(7)
    fam = cosine_from_generator(rand_matrix(rng, 6, 0.6))
    for _ in range(100):
        t, s = 2.0 * rng.random(2)
        scale = 1.0 + (np.linalg.norm(fam.sample(t)[0], 2)
                       * np.linalg.norm(fam.sample(s)[0], 2))
        assert dalembert_residual(fam, t, s) <= 1e-8 * scale


# ---------------------------------------------------------------------------
# Laplace transform


def test_laplace_scalar_decay():
    # lam * (lam^2 + 1)^{-1} = 1/2 = int e^{-t} cos t dt at lam = 1.
    fam = cosine_from_generator(np.array([[-1.0 + 0.0j]]))
    rep = laplace_transform_check(fam, 1.0)
    assert rep["ok"]
    assert rep["residual"] <= 1e-6


def test_laplace_zero_generator():
    fam = cosine_from_generator(np.zeros((2, 2), dtype=complex))
    rep = laplace_transform_check(fam, 2.0)
    assert rep["ok"]


def test_laplace_random_stable():
    rng = np.random.default_rng(8)
    R = rand_matrix(rng, 4, 0.5)
    A = -(R @ R.conj().T) - np.eye(4)
    rep = laplace_transform_check(cosine_from_generator(A), 1.0)
    assert rep["ok"]
    assert rep["residual"] <= 1e-6


def test_laplace_tail_too_fat():
    # cosh t grows like e^t / 2; lam below the growth rate never wins.
    fam = cosine_from_generator(np.array([[1.0 + 0.0j]]))
    with pytest.raises(TailTooFat):
        laplace_transform_check(fam, 0.5)


def test_laplace_lambda_validation():
    fam = cosine_from_generator(np.zeros((2, 2), dtype=complex))
    with pytest.raises(BadParams):
        laplace_transform_check(fam, 0.0)


# ---------------------------------------------------------------------------
# zero-two profile


def test_zero_two_unbounded_truncations_plateau_two():
    # C(t) = diag(cos(t k)): as the truncation grows, some mode reaches
    # cos(t k) = -1 inside the smallest sampled decade.
    dims = [32, 64, 128]
    fams = [cosine_from_generator(
        np.diag(-np.arange(1.0, d + 1.0) ** 2).astype(complex))
        for d in dims]
    rep = zero_two_profile(fams, log_time_grid(1.0, 2.1, 8))
    for d, plateau in zip(dims, rep.plateaus):
        assert plateau >= 2.0 - 20.0 / d
    assert rep.verdict == "plateau_two"
    assert rep.extrapolated >= 1.7


def test_zero_two_bounded_generator_plateau_zero():
    fams = [cosine_from_generator(-np.eye(4, dtype=complex))]
    rep = zero_two_profile(fams, log_time_grid(1.0, 3.0, 6))
    # |cos t - 1| <= t^2/2 <= ||A|| t_max on the lowest decade [1e-3, 1e-2]
    assert rep.plateaus[0] <= 0.01
    assert rep.verdict == "plateau_zero"
    assert rep.extrapolated == pytest.approx(rep.plateaus[0])


@pytest.mark.parametrize("name", ["tridiag_laplacian", "heat_conv",
                                  "shift_periodic", "skew_diag"])
def test_zero_two_paths_agree(name):
    make = (cosine_from_group if name in ("skew_diag", "shift_periodic")
            else cosine_from_generator)
    fams = [make(zoo.build(name, d).matrix, verify=False) for d in (8, 16, 32)]
    forced = [copy.copy(f) for f in fams]
    for f in forced:
        f.eig = None
    # On t >= 0.02 every ||C(t) - I|| is above 1e-4.  The matrix path forms
    # C(t) - I with an absolute error of order eps, which at 1e-5 would
    # already be 1e-11 relative.
    grid = log_time_grid(2.0, 2.0, 8)
    a = zero_two_profile(fams, grid)
    b = zero_two_profile(forced, grid)
    assert a.paths == ["spectral"] * 3 and b.paths == ["matrix"] * 3
    for u, v in zip(a.values, b.values):
        assert np.min(v) > 1e-4
        np.testing.assert_allclose(u, v, rtol=1e-12, atol=0.0)
    assert a.verdict == b.verdict


def test_zero_two_paths_follow_the_norm():
    # A dense normal family keeps the matrix path at p = 4; a diagonal one
    # and the non-normal jordan block are on their one path at any p.
    fams = [cosine_from_group(zoo.build("shift_periodic", 8).matrix,
                              verify=False),
            cosine_from_group(zoo.build("skew_diag", 8).matrix, verify=False),
            cosine_from_generator(zoo.build("jordan", 8).matrix, verify=False)]
    grid = log_time_grid(1.0, 2.0, 4)
    assert zero_two_profile(fams, grid, 2.0).paths == ["spectral", "spectral",
                                                       "matrix"]
    assert zero_two_profile(fams, grid, 4.0).paths == ["matrix", "spectral",
                                                       "matrix"]


# ---------------------------------------------------------------------------
# polynomial witness on groups


def test_witness_zero_group():
    fam = cosine_from_group(np.zeros((2, 2), dtype=complex),
                            growth=GrowthBound(1.0, 0.0))
    rep = zero_two_polynomial_witness(fam, np.array([0.2, 0.5, 1.0]), 2)
    assert rep["ok"]
    assert rep["disc_value"] == 4.0
    for row in rep["rows"]:
        assert row["value"] <= 1e-12


def test_witness_scalar_rotation():
    # |f(e^{it})|^N with f = (z-1)^2/2 is (2 sin^2(t/2))^N.
    fam = cosine_from_group(np.array([[1.0j]]), growth=GrowthBound(1.0, 0.0))
    N = 2
    ts = np.array([0.3, 0.8, 1.4])
    rep = zero_two_polynomial_witness(fam, ts, N)
    assert rep["ok"]
    for row in rep["rows"]:
        ref = (2.0 * math.sin(row["t"] / 2.0) ** 2) ** N
        assert row["value"] == pytest.approx(ref, rel=1e-10)
        assert row["bound"] == pytest.approx(ref, rel=1e-10)


def test_witness_random_skew_group():
    rng = np.random.default_rng(9)
    B = skew_hermitian(rng, 4)
    fam = cosine_from_group(B, growth=GrowthBound(1.0, 0.0))
    rep = zero_two_polynomial_witness(fam, np.linspace(0.1, 1.0, 7), 3)
    assert rep["ok"]
    for row in rep["rows"]:
        assert row["agreement"] <= 1e-8
        assert row["value"] <= row["bound"] * (1 + 1e-9) + 1e-12


def test_witness_preconditions():
    fam_no_group = cosine_from_generator(np.zeros((2, 2), dtype=complex))
    with pytest.raises(BadParams):
        zero_two_polynomial_witness(fam_no_group, np.array([0.5]), 2)
    fam_no_growth = cosine_from_group(np.zeros((2, 2), dtype=complex))
    with pytest.raises(BadParams):
        zero_two_polynomial_witness(fam_no_growth, np.array([0.5]), 2)
    fam = cosine_from_group(np.zeros((2, 2), dtype=complex),
                            growth=GrowthBound(1.0, 0.0))
    with pytest.raises(BadParams):
        zero_two_polynomial_witness(fam, np.array([0.5]), 0)


# ---------------------------------------------------------------------------
# shifted-generator series


def test_series_at_time_zero():
    fam = cosine_from_generator(np.diag([1.0 + 0.0j]))
    rep = fattorini_series(fam, 1.0, 4, 0.0)
    assert rep.nodes == 0
    assert rep.final_error == 0.0
    assert rep.bound_ok
    np.testing.assert_allclose(rep.partial_sums[-1], np.eye(1), atol=1e-15)


def test_series_zero_shift_is_cosine():
    rng = np.random.default_rng(10)
    A = rand_matrix(rng, 3, 0.6)
    fam = cosine_from_generator(A)
    rep = fattorini_series(fam, 0.0, 3, 0.9, quad_nodes=32)
    assert rep.final_error <= 1e-10
    ref = fam.sample(0.9)[0]
    np.testing.assert_allclose(rep.partial_sums[0], ref, atol=1e-10)


def test_series_scalar_shift_to_zero():
    # A = 1 shifted by omega = 1 gives the cosine family of 0, i.e. the
    # constant 1.
    fam = cosine_from_generator(np.diag([1.0 + 0.0j]))
    rep = fattorini_series(fam, 1.0, 12, 1.0)
    assert abs(rep.partial_sums[-1][0, 0] - 1.0) <= 1e-4
    assert rep.final_error <= 1e-4
    assert rep.bound_ok


def test_series_random_cross_construction():
    rng = np.random.default_rng(11)
    A = rand_matrix(rng, 3, 0.7)
    rep = fattorini_series(cosine_from_generator(A), 0.5, 8, 0.8,
                           quad_nodes=64)
    assert rep.final_error <= 1e-4
    assert rep.bound_ok
    # errors of the partial sums shrink towards the reference
    assert rep.partial_errors[-1] <= rep.partial_errors[0]


def test_series_term_bounds():
    fam = cosine_from_generator(np.array([[-4.0 + 0.0j]]))
    rep = fattorini_series(fam, 2.0, 6, 1.0)
    assert rep.bound_ok
    assert np.all(rep.term_norms <= rep.term_bounds + 1e-8)


def test_series_not_converged():
    fam = cosine_from_generator(np.diag([1.0 + 0.0j]))
    with pytest.raises(SeriesNotConverged):
        fattorini_series(fam, 6.0, 2, 1.0)


def per_row_level(S, prev, h):
    """Trapezoid rule for int_0^{s_i} S(s_i - s) prev(s) ds, row by row."""
    out = np.zeros_like(prev)
    for i in range(1, prev.shape[0]):
        w = np.ones(i + 1)
        w[0] = w[-1] = 0.5
        out[i] = h * np.einsum("k,kab,kbc->ac", w, S[i::-1], prev[:i + 1])
    return out


def spectral_family(lams, seed):
    # A = Q diag(lams) Q^H with a random unitary Q.
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rand_matrix(rng, len(lams)))
    return cosine_from_generator(Q @ np.diag(lams) @ Q.conj().T, verify=False)


@pytest.mark.parametrize("case", [
    ("tridiag_laplacian", 8, 0.5, 128, 4),
    ("tridiag_laplacian", 16, 0.4, 64, 4),
    ("heat_conv", 16, 0.4, 64, 4),
    ("diag_ray", 16, 0.4, 64, 4),
    ("growing", 6, 1.0, 128, 6),
    ("oscillating", 6, 1.0, 128, 6),
], ids=lambda c: f"{c[0]}-{c[1]}")
def test_convolve_level_matches_per_row_reference(case):
    # The growing family reaches cosh(20) ~ 2.4e8: a transform over the
    # time grid would carry an error of the largest term into every entry.
    name, dim, t, m, levels = case
    if name == "growing":
        fam = spectral_family(np.linspace(0.0, 400.0, dim), 5)
    elif name == "oscillating":
        fam = spectral_family(np.linspace(-400.0, 0.0, dim), 6)
    else:
        fam = cosine_from_generator(zoo.build(name, dim).matrix, verify=False)
    h = t / m
    pts = [fam.sample(i * h) for i in range(m + 1)]
    S = np.stack([pq[1] for pq in pts])
    level = ref = np.stack([pq[0] for pq in pts])
    for _ in range(levels):
        level = _convolve_level(S, level, h)
        ref = per_row_level(S, ref, h)
        assert not np.any(level[0])
        assert (np.linalg.norm(level[-1] - ref[-1], 2)
                <= 1e-12 * np.linalg.norm(ref[-1], 2))


def matrix_twin(fam):
    """The same family with its eigenpair dropped: it samples matrices."""
    twin = copy.copy(fam)
    twin.eig = None
    return twin


@pytest.mark.parametrize("case", [
    ("growing", 0.5, 0.3),
    ("oscillating", 1.0, 0.5),
    ("group", 1.0, 0.5),
], ids=lambda c: c[0])
def test_spectral_series_matches_per_row_reference(case):
    name, omega, t = case
    if name == "growing":
        fam = spectral_family(np.linspace(0.0, 400.0, 6), 5)
    elif name == "oscillating":
        fam = spectral_family(np.linspace(-400.0, 0.0, 6), 6)
    else:
        B = skew_hermitian(np.random.default_rng(12), 5)
        fam = cosine_from_group(B, verify=False)
    n_max = 6
    rep = fattorini_series(fam, omega, n_max, t, quad_nodes=32)
    assert rep.path == "spectral"
    twin = fattorini_series(matrix_twin(fam), omega, n_max, t, quad_nodes=32)
    assert twin.path == "matrix"
    assert (rep.nodes, rep.refinements) == (twin.nodes, twin.refinements)
    # Matrix samples on the final grid, convolved row by row.
    m = rep.nodes
    pts = [fam.sample(i * t / m) for i in range(m + 1)]
    S = np.stack([pq[1] for pq in pts])
    level = np.stack([pq[0] for pq in pts])
    ref = level[-1].copy()
    assert np.linalg.norm(rep.partial_sums[0] - ref, 2) <= 1e-12 * np.linalg.norm(ref, 2)
    for n in range(1, n_max + 1):
        level = per_row_level(S, level, t / m)
        ref = ref + (-omega) ** n * level[-1]
        assert (np.linalg.norm(rep.partial_sums[n] - ref, 2)
                <= 1e-12 * np.linalg.norm(ref, 2))


def test_spectral_series_overflow_is_numerical_failure():
    rng = np.random.default_rng(14)
    Q = np.linalg.qr(rand_matrix(rng, 4))[0]
    A = (Q * np.array([800.0 ** 2, -1.0, 4.0, 0.0])) @ Q.conj().T
    fam = cosine_from_generator(A, verify=False)
    assert fam.eig is not None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NumericalError):
            fattorini_series(fam, 0.5, 4, 1.0, quad_nodes=16)
    assert not caught


def test_series_samples_matrices_only_without_an_eigenpair(monkeypatch):
    calls = []
    sample = CosineFamily.sample

    def counting(self, t):
        calls.append(t)
        return sample(self, t)

    monkeypatch.setattr(CosineFamily, "sample", counting)
    normal = cosine_from_generator(zoo.build("tridiag_laplacian", 8).matrix,
                                   verify=False)
    rep = fattorini_series(normal, 0.5, 4, 0.8, quad_nodes=16)
    assert rep.path == "spectral"
    assert calls == [0.8]           # the reference C(t) of A - omega only
    calls.clear()
    rng = np.random.default_rng(10)
    rep = fattorini_series(cosine_from_generator(rand_matrix(rng, 3, 0.6),
                                                 verify=False),
                           0.5, 4, 0.8, quad_nodes=16)
    assert rep.path == "matrix"
    assert len(calls) == rep.nodes + 2     # every grid node, then the reference


def test_series_validation():
    fam = cosine_from_generator(np.diag([1.0 + 0.0j]))
    with pytest.raises(BadParams):
        fattorini_series(fam, -1.0, 4, 1.0)
    with pytest.raises(BadParams):
        fattorini_series(fam, 1.0, 0, 1.0)
    with pytest.raises(BadParams):
        fattorini_series(fam, 1.0, 4, -0.5)
    for omega, t, nodes in ((math.nan, 1.0, 8), (math.inf, 1.0, 8),
                            (1.0, math.nan, 8), (1.0, math.inf, 8),
                            (1.0, 1.0, 0), (1.0, 1.0, -4)):
        with pytest.raises(BadParams):
            fattorini_series(fam, omega, 4, t, quad_nodes=nodes)
