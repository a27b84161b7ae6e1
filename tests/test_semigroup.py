"""Tests for semigroup profiles, the resolvent identity behind sector
reports, the converse profile and maximal-regularity ratios."""

import math
import warnings

import numpy as np
import pytest

from semireg.discpoly import Polynomial, disc_norm
from semireg.errors import BadParams, NumericalError, PhaseMismatch, SpectrumHit
from semireg.linalg import mat_exp
from semireg.semigroup import (
    GeneratorSpec,
    GrowthBound,
    beurling_profile,
    converse_profile,
    dichotomy_fit,
    kato_resolvent_identity_check,
    log_time_grid,
    mild_solution,
    poly_of_semigroup,
    sector_report,
)
from semireg.spaces import GridSpace
from semireg.zoo import build

F = Polynomial([-1.0, 1.0])  # z - 1


def unit(dim, p=2.0):
    return GridSpace.unit(dim, p)


# ---------------------------------------------------------------------------
# grids


def test_log_time_grid_shape():
    g = log_time_grid(1.0, 3.0, 8)
    assert g[0] == pytest.approx(1.0)
    assert g[-1] == pytest.approx(1e-3)
    assert np.all(np.diff(g) < 0.0)
    assert g.size == 25


def test_grid_must_span_two_decades():
    with pytest.raises(BadParams):
        beurling_profile(build("jordan", 8), F,
                         np.geomspace(1.0, 0.5, 8), unit(8))


def test_normal_semigroup_overflow_is_numerical_failure():
    rng = np.random.default_rng(13)
    Q = np.linalg.qr(rng.standard_normal((6, 6))
                     + 1j * rng.standard_normal((6, 6)))[0]
    lam = np.array([800.0, -1.0, -2.0, 3j, -3j, 0.0])
    gen = GeneratorSpec((Q * lam) @ Q.conj().T)
    assert gen.eig is not None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NumericalError):
            gen.semigroup(1.0)
    assert not caught


# ---------------------------------------------------------------------------
# poly_of_semigroup


def test_poly_identity_semigroup():
    g0 = GeneratorSpec(np.zeros((3, 3), dtype=complex))
    out = poly_of_semigroup(F, g0, 0.4)
    np.testing.assert_allclose(out, np.zeros((3, 3)), atol=1e-12)


def test_poly_square_is_semigroup_law():
    spec = build("jordan", 8)
    out = poly_of_semigroup(Polynomial([0.0, 0.0, 1.0]), spec, 0.3)
    np.testing.assert_allclose(out, mat_exp(spec.matrix, 0.6), atol=1e-11)


def test_poly_diagonal_closed_form():
    lam = np.array([1.0, 2.0, 5.0])
    spec = GeneratorSpec(np.diag(1j * lam))
    t = 0.7
    out = poly_of_semigroup(F, spec, t)
    np.testing.assert_allclose(out, np.diag(np.exp(1j * t * lam) - 1.0),
                               atol=1e-12)


def test_poly_evaluation_orders_agree():
    rng = np.random.default_rng(20)
    for _ in range(10):
        A = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        spec = GeneratorSpec(A)
        f = Polynomial(list(rng.standard_normal(4)))
        t, s = rng.uniform(0.05, 1.0, size=2)
        h = poly_of_semigroup(f, spec, float(t), float(s), method="horner")
        d = poly_of_semigroup(f, spec, float(t), float(s), method="direct")
        assert (np.linalg.norm(h - d, 2)
                <= 1e-9 * max(1.0, np.linalg.norm(h, 2)))


# ---------------------------------------------------------------------------
# beurling_profile


def test_profile_identity_semigroup():
    g0 = GeneratorSpec(np.zeros((4, 4), dtype=complex))
    prof = beurling_profile(g0, F, log_time_grid(1.0, 2.0, 8), unit(4))
    np.testing.assert_allclose(prof.values, np.zeros_like(prof.values),
                               atol=1e-12)
    assert prof.margin == pytest.approx(2.0)


def test_profile_decay_family_has_margin():
    for dim in (8, 32):
        spec = GeneratorSpec(np.diag(-np.arange(1.0, dim + 1.0) + 0.0j))
        prof = beurling_profile(spec, F, log_time_grid(1.0, 2.0, 8),
                                unit(dim))
        # max_k (1 - e^{-t k}) < 1 pointwise
        assert np.all(prof.values < 1.0 + 1e-12)
        assert prof.margin >= 1.0 - 1e-9


def test_profile_skew_family_plateau():
    # max_k |e^{i t k} - 1| comes within O(1/dim) of 2 for t near pi/dim,
    # which sits inside the smallest sampled decade [0.01, 0.1].
    dim = 64
    spec = GeneratorSpec(np.diag(1j * np.arange(1.0, dim + 1.0)))
    grid = log_time_grid(1.0, 2.0, 16)
    prof = beurling_profile(spec, F, grid, unit(dim))
    assert prof.empirical_limsup >= 2.0 - 10.0 / dim


def test_profile_scalar_oracle():
    # values are max_k |e^{i t k} - 1| = 2 max_k |sin(t k / 2)|; recompute
    # directly from the grid.
    dim = 16
    spec = GeneratorSpec(np.diag(1j * np.arange(1.0, dim + 1.0)))
    grid = log_time_grid(1.0, 2.0, 6)
    prof = beurling_profile(spec, F, grid, unit(dim))
    k = np.arange(1.0, dim + 1.0)
    for t, v in zip(prof.t_grid, prof.values):
        oracle = float(np.max(2.0 * np.abs(np.sin(0.5 * t * k))))
        assert v == pytest.approx(oracle, abs=1e-10)


def test_profile_limit_value_bound():
    spec = build("jordan", 8)
    grid = log_time_grid(1.0, 2.0, 8)
    prof = beurling_profile(spec, F, grid, unit(8))
    t_last = float(prof.t_grid[-1])
    a2 = float(np.linalg.norm(spec.matrix, 2))
    fprime_disc = disc_norm(Polynomial([1.0])).value
    bound = fprime_disc * a2 * t_last * math.exp(a2 * t_last * F.degree)
    assert abs(prof.values[-1] - abs(F(1.0))) <= bound


def test_profile_renorming_band():
    rng = np.random.default_rng(21)
    spec = build("jordan", 8)
    grid = log_time_grid(1.0, 2.0, 8)
    space = unit(8)
    prof = beurling_profile(spec, F, grid, space)
    # similarity with controlled condition number
    Q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    S = Q @ np.diag(np.linspace(1.0, 3.0, 8)) @ Q.T
    cond = float(np.linalg.cond(S))
    assert cond <= 10.0
    conj = GeneratorSpec(np.linalg.solve(S, spec.matrix @ S))
    prof_c = beurling_profile(conj, F, grid, space)
    for v, vc in zip(prof.values, prof_c.values):
        assert vc <= cond * v + 1e-9
        assert vc >= v / cond - 1e-9
    if prof.margin > (1.0 - 1.0 / cond) * prof.disc_value:
        assert prof_c.margin > 0.0


# ---------------------------------------------------------------------------
# kato_resolvent_identity_check


def test_kato_identity_scalar():
    spec = GeneratorSpec(np.diag([-1.0 + 0.0j]))
    t = 0.1
    chk = kato_resolvent_identity_check(spec, -1.0 + 0.0j, t, math.pi / t)
    assert chk.residual <= 1e-7


def test_kato_identity_jordan():
    A = np.array([[-1.0, 1.0], [0.0, -1.0]], dtype=complex)
    spec = GeneratorSpec(A)
    t = 0.2
    theta = math.pi / 2.0  # zeta = i
    chk = kato_resolvent_identity_check(spec, 1j, t, theta / t)
    assert chk.residual <= 1e-6


def test_kato_identity_negative_alpha():
    # negative alpha runs through the shifted phase branch
    spec = GeneratorSpec(np.diag([-2.0 + 0.0j, -1.0 + 0.0j]))
    t = 0.3
    theta = math.pi / 2.0
    alpha = (theta - 2.0 * math.pi) / t
    chk = kato_resolvent_identity_check(spec, 1j, t, alpha)
    assert chk.residual <= 1e-6


def test_kato_identity_batch_zoo():
    rng = np.random.default_rng(22)
    names = ["diag_ray", "jordan", "tridiag_laplacian", "heat_conv"]
    for name in names:
        spec = build(name, 8)
        for _ in range(3):
            theta = float(rng.uniform(0.5, math.pi))
            t = float(rng.uniform(0.05, 0.5))
            chk = kato_resolvent_identity_check(
                spec, complex(np.exp(1j * theta)), t, theta / t)
            assert chk.residual <= 1e-6


def test_kato_identity_preconditions():
    spec = GeneratorSpec(np.diag([-1.0 + 0.0j]))
    with pytest.raises(PhaseMismatch):
        kato_resolvent_identity_check(spec, -1.0 + 0.0j, 0.1, 1.0)
    with pytest.raises(BadParams):
        kato_resolvent_identity_check(spec, 2.0 + 0.0j, 0.1, math.pi / 0.1)
    skew = GeneratorSpec(np.diag([2.0j]))
    t = 0.25
    with pytest.raises(SpectrumHit):
        # i alpha equals the eigenvalue 2i: alpha = 2 = theta / t
        kato_resolvent_identity_check(skew, complex(np.exp(0.5j)), t, 2.0)


# ---------------------------------------------------------------------------
# sector_report


def two_sided_alphas(t0, n=12, decades=3.0):
    # Frequencies alpha with t * alpha congruent to pi mod 2 pi for times
    # shrinking from t0 over the requested number of decades; both the
    # positive branch (phase pi) and the negative one (phase -pi) appear.
    ts = t0 * 10.0 ** (-decades * np.arange(n) / (n - 1))
    return np.concatenate([np.pi / ts, -np.pi / ts])


def test_sector_report_decay_family():
    dim = 8
    spec = GeneratorSpec(np.diag(-np.arange(1.0, dim + 1.0) + 0.0j))
    rep = sector_report(spec, -1.0 + 0.0j, 1.0, unit(dim), two_sided_alphas(1.0))
    assert rep.K <= 1.0 + 1e-9
    assert rep.bound_ok


def test_sector_report_identity_generator():
    spec = GeneratorSpec(np.zeros((3, 3), dtype=complex))
    rep = sector_report(spec, -1.0 + 0.0j, 1.0, unit(3), two_sided_alphas(1.0))
    assert rep.K == pytest.approx(0.5, abs=1e-9)
    # alpha (A - i alpha)^{-1} has norm exactly 1; K M theta = pi/2 covers it
    assert np.all(rep.resolvent_sups[rep.admissible]
                  <= rep.bounds[rep.admissible])
    assert rep.bound_ok


def test_sector_report_skew_family_degrades():
    # For the skew family zeta = -1 is approached by e^{itk} on the grid:
    # either a spectrum hit or a large K must be observed.
    dim = 32
    spec = GeneratorSpec(np.diag(1j * np.arange(1.0, dim + 1.0)))
    try:
        rep = sector_report(spec, -1.0 + 0.0j, 1.0, unit(dim),
                            two_sided_alphas(1.0))
        assert rep.K >= 1e2
    except SpectrumHit:
        pass


# ---------------------------------------------------------------------------
# converse_profile


def test_converse_identity_semigroup():
    g0 = GeneratorSpec(np.zeros((4, 4), dtype=complex))
    prof = converse_profile(g0, F, 4, 20.0, log_time_grid(1.0, 2.0, 8),
                            unit(4))
    np.testing.assert_allclose(prof.values, np.zeros_like(prof.values),
                               atol=1e-12)
    assert prof.disc_value == pytest.approx(16.0, rel=1e-7)
    assert prof.margin > 0.0


def test_converse_decay_family_margin():
    for dim in (8, 64):
        spec = GeneratorSpec(np.diag(-np.arange(1.0, dim + 1.0) + 0.0j))
        prof = converse_profile(spec, F, 4, 20.0,
                                log_time_grid(1.0, 2.0, 8), unit(dim))
        assert prof.margin > 0.0


def test_converse_margins_nondecreasing_in_k():
    spec = build("tridiag_laplacian", 32)
    grid = log_time_grid(1.0, 2.0, 8)
    space = unit(32)
    margins = []
    for K in (0.0, 10.0, 40.0):
        margins.append(converse_profile(spec, F, 4, K, grid, space).margin)
    assert margins[0] <= margins[1] + 1e-12
    assert margins[1] <= margins[2] + 1e-12


def test_converse_requires_c1():
    with pytest.raises(BadParams):
        converse_profile(build("jordan", 8), Polynomial([0.0, 1.0]), 2, 10.0,
                         log_time_grid(1.0, 2.0, 8), unit(8))


# ---------------------------------------------------------------------------
# mild_solution


def test_mild_solution_zero_generator():
    g0 = GeneratorSpec(np.zeros((3, 3), dtype=complex))
    v = np.array([1.0, -2.0, 0.5])
    x, ratio = mild_solution(g0, lambda t: v, 1.0, 2.0)
    assert ratio == 0.0
    np.testing.assert_allclose(x[-1], v, atol=1e-10)


def test_mild_solution_scalar_closed_form():
    spec = GeneratorSpec(np.diag([-1.0 + 0.0j]))
    x, ratio = mild_solution(spec, lambda t: np.array([1.0]), 1.0, 2.0)
    # ||e^{-t} - 1||_{L^2(0,1)} in closed form
    closed = math.sqrt(1.0 - 2.0 * (1.0 - math.exp(-1.0))
                       + 0.5 * (1.0 - math.exp(-2.0)))
    assert ratio == pytest.approx(closed, abs=1e-4)


def test_mild_solution_laplacian_maxreg_ratio():
    spec = build("tridiag_laplacian", 64)
    rng = np.random.default_rng(23)
    knots = np.linspace(0.0, 1.0, 257)
    samples = rng.standard_normal((64, 257))

    def forcing(t):
        idx = np.searchsorted(knots, t, side="right") - 1
        idx = min(max(idx, 0), 255)
        w = (t - knots[idx]) / (knots[idx + 1] - knots[idx])
        return (1.0 - w) * samples[:, idx] + w * samples[:, idx + 1]

    _, ratio = mild_solution(spec, forcing, 1.0, 2.0)
    assert ratio <= 1.05


# ---------------------------------------------------------------------------
# dichotomy_fit


def test_dichotomy_fit_verdicts():
    fit = dichotomy_fit([16, 32, 64], [1.99, 1.995, 1.999], 2.0)
    assert fit["verdict"] == "fails_in_limit"
    fit = dichotomy_fit([16, 32, 64], [0.3, 0.31, 0.305], 2.0)
    assert fit["verdict"] == "holds_at_truncations"
