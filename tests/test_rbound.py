"""Tests for Rademacher averages, randomized bound estimation, the
contraction and calculus checks, sectorial randomized reports, the
contour representation of the semigroup resolvent, and the closed-form
converse bound."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from semireg import rbound, zoo
from semireg.discpoly import Polynomial, eval_matrix, normalize_peak, power_expand
from semireg.errors import (
    BadParams,
    ContourTooClose,
    EnumerationTooLarge,
    ParameterOutOfRange,
)
from semireg.linalg import ContourSpec, mat_exp, op_norm
from semireg.rbound import (
    RademacherConfig,
    bt_contour_check,
    kahane_contraction_check,
    r_beurling_profile,
    r_converse_bound_eval,
    r_sector_report,
    rademacher_norm,
    rbound_calculus_check,
    rbound_estimate,
    sector_family_estimate,
    square_function_norm,
)
from semireg.semigroup import GeneratorSpec, beurling_profile, log_time_grid
from semireg.spaces import GridSpace

EXACT2 = RademacherConfig(p=2.0, mode="exact")


def unit(dim, p=2.0):
    return GridSpace.unit(dim, p)


def rand_vecs(rng, n, dim):
    return rng.standard_normal((n, dim)) + 1j * rng.standard_normal((n, dim))


def decay(dim):
    return GeneratorSpec(np.diag(-np.arange(1.0, dim + 1.0) + 0.0j))


# ---------------------------------------------------------------------------
# rademacher_norm


def test_rad_single_vector_is_norm():
    space = GridSpace(5, np.linspace(0.5, 2.0, 5), 3.0)
    rng = np.random.default_rng(0)
    x = rand_vecs(rng, 1, 5)
    cfg = RademacherConfig(p=3.0, mode="exact")
    assert rademacher_norm(x, space, cfg).value == pytest.approx(
        space.norm(x[0]), rel=1e-12)


def test_rad_p2_hilbert_identity():
    # With unit weights and p = 2 the sign average telescopes to the sum
    # of squared norms, with no tolerance needed beyond roundoff.
    rng = np.random.default_rng(1)
    space = unit(6)
    X = rand_vecs(rng, 5, 6)
    val = rademacher_norm(X, space, EXACT2).value
    ref = math.sqrt(sum(space.norm(x) ** 2 for x in X))
    assert val == pytest.approx(ref, rel=1e-12)


def test_rad_monte_carlo_matches_enumeration():
    rng = np.random.default_rng(2)
    space = unit(5, 4.0)
    X = rand_vecs(rng, 3, 5)
    exact = rademacher_norm(X, space, RademacherConfig(p=4.0, mode="exact"))
    mc = rademacher_norm(
        X, space, RademacherConfig(p=4.0, mode="monte_carlo",
                                   mc_samples=8192, seed=7))
    assert mc.se > 0.0
    assert abs(mc.value - exact.value) <= 3.0 * mc.se


def test_rad_homogeneity_and_triangle_batch():
    rng = np.random.default_rng(3)
    for trial in range(50):
        p = [1.0, 2.0, 4.0][trial % 3]
        n = int(rng.integers(2, 7))
        space = unit(5, p)
        cfg = RademacherConfig(p=p, mode="exact")
        X = rand_vecs(rng, n, 5)
        Y = rand_vecs(rng, n, 5)
        c = complex(rng.standard_normal(), rng.standard_normal())
        rx = rademacher_norm(X, space, cfg).value
        ry = rademacher_norm(Y, space, cfg).value
        assert rademacher_norm(c * X, space, cfg).value == pytest.approx(
            abs(c) * rx, rel=1e-12)
        assert rademacher_norm(X + Y, space, cfg).value <= rx + ry + 1e-9


@pytest.mark.parametrize("mode", ["exact", "monte_carlo"])
@pytest.mark.parametrize("p", [1.0, 3.0])
def test_rad_matches_complex_sign_product(p, mode):
    # Sign sums formed as a complex product, norms and batch means by hand;
    # Fortran order checks that the real view sees a contiguous copy.
    rng = np.random.default_rng(11)
    n, dim, samples = 5, 7, 256
    X = np.asfortranarray(rand_vecs(rng, n, dim))
    space = GridSpace(dim, np.linspace(0.5, 2.0, dim), p)
    cfg = RademacherConfig(p=p, mode=mode, mc_samples=samples, seed=3)
    if mode == "exact":
        signs = np.array(list(itertools.product([-1.0, 1.0], repeat=n)))
    else:
        signs = (np.random.default_rng(3).integers(0, 2, size=(samples, n))
                 .astype(float) * 2.0 - 1.0)
    sums = signs.astype(complex) @ X
    powers = np.abs(sums) ** p @ space.weights
    got = rademacher_norm(X, space, cfg)
    assert got.value == pytest.approx(np.mean(powers) ** (1.0 / p), rel=1e-12)
    if mode == "monte_carlo":
        ests = [np.mean(b) ** (1.0 / p) for b in np.array_split(powers, 32)]
        se = np.std(ests, ddof=1) / math.sqrt(32)
        assert got.se == pytest.approx(se, rel=1e-9)


def test_rad_enumeration_cap():
    rng = np.random.default_rng(4)
    cfg = RademacherConfig(p=2.0, mode="exact", exact_cap=3)
    with pytest.raises(EnumerationTooLarge):
        rademacher_norm(rand_vecs(rng, 4, 4), unit(4), cfg)


def test_rad_config_validation():
    with pytest.raises(BadParams):
        RademacherConfig(p=0.5)
    with pytest.raises(BadParams):
        RademacherConfig(mode="quasi")
    with pytest.raises(BadParams):
        RademacherConfig(mode="monte_carlo", mc_samples=8)
    with pytest.raises(BadParams):
        RademacherConfig(exact_cap=0)


def test_rad_rejects_dimension_mismatch():
    with pytest.raises(BadParams):
        rademacher_norm(np.ones((2, 3)), unit(4), EXACT2)


# ---------------------------------------------------------------------------
# kahane_contraction_check


def test_kahane_unit_scalars_equality():
    rng = np.random.default_rng(5)
    X = rand_vecs(rng, 4, 5)
    chk = kahane_contraction_check(X, np.ones(4), unit(5), EXACT2)
    assert chk.ok
    assert chk.lhs == pytest.approx(chk.rhs, rel=1e-12)


def test_kahane_real_signs_exact():
    # Flipping signs of the vectors permutes the enumerated patterns, so
    # the two sides agree exactly and the real constant c = 1 applies.
    rng = np.random.default_rng(6)
    X = rand_vecs(rng, 5, 4)
    a = np.array([1.0, -1.0, 1.0, -1.0, 1.0])
    chk = kahane_contraction_check(X, a, unit(4), EXACT2)
    assert chk.ok
    assert chk.lhs == pytest.approx(chk.rhs, rel=1e-12)


def test_kahane_random_complex_batch():
    rng = np.random.default_rng(7)
    for trial in range(200):
        p = [1.0, 2.0, 4.0][trial % 3]
        n = int(rng.integers(2, 7))
        X = rand_vecs(rng, n, 4)
        phases = np.exp(2j * np.pi * rng.random(n))
        a = rng.random(n) * phases
        chk = kahane_contraction_check(
            X, a, unit(4, p), RademacherConfig(p=p, mode="exact"))
        assert chk.ok, f"trial {trial}: lhs {chk.lhs} > rhs {chk.rhs}"


def test_kahane_requires_exact_mode():
    cfg = RademacherConfig(mode="monte_carlo")
    with pytest.raises(BadParams):
        kahane_contraction_check(np.ones((2, 3)), np.ones(2), unit(3), cfg)


def test_kahane_scalar_count_mismatch():
    with pytest.raises(BadParams):
        kahane_contraction_check(np.ones((2, 3)), np.ones(3), unit(3), EXACT2)


# ---------------------------------------------------------------------------
# rbound_estimate


def test_rbound_singleton_equals_operator_norm():
    rng = np.random.default_rng(8)
    space = GridSpace(5, np.linspace(1.0, 2.0, 5), 3.0)
    T = rand_vecs(rng, 5, 5)
    ref = op_norm(T, space).value
    est = rbound_estimate([T], space, RademacherConfig(p=3.0, mode="exact"),
                          budget=8)
    assert est.value == pytest.approx(ref, abs=1e-6)
    assert est.value >= ref - 1e-9


def test_rbound_hilbert_p2_collapses_to_max_norm():
    # On an unweighted p = 2 space the sign average splits termwise, so
    # no selection beats the best single operator.
    rng = np.random.default_rng(9)
    space = unit(6)
    fam = [rand_vecs(rng, 6, 6) for _ in range(4)]
    ref = max(op_norm(T, space).value for T in fam)
    est = rbound_estimate(fam, space, EXACT2, budget=16)
    assert est.value == pytest.approx(ref, abs=1e-6)
    assert est.value <= ref + 1e-9


def test_rbound_scaled_identities_within_kahane_window():
    a = np.array([0.3, 0.9j, -0.5 + 0.5j])
    eye = np.eye(4, dtype=complex)
    fam = [ak * eye for ak in a]
    est = rbound_estimate(fam, unit(4, 4.0),
                          RademacherConfig(p=4.0, mode="exact"), budget=16)
    lo, hi = np.max(np.abs(a)), 2.0 * np.max(np.abs(a))
    assert lo - 1e-6 <= est.value <= hi + 1e-6


def test_rbound_witness_reproduces_value():
    rng = np.random.default_rng(10)
    space = unit(5, 4.0)
    cfg = RademacherConfig(p=4.0, mode="exact")
    fam = [rand_vecs(rng, 5, 5) for _ in range(3)]
    est = rbound_estimate(fam, space, cfg, budget=8)
    X = est.witness_vectors
    num = rademacher_norm(
        np.stack([fam[j] @ X[k] for k, j in enumerate(est.witness_indices)]),
        space, cfg).value
    den = rademacher_norm(X, space, cfg).value
    assert num / den == pytest.approx(est.value, abs=1e-9)


def test_rbound_at_large_rad_p_matches_peak_factored_enumeration():
    # At rad_p = 400 the p-th powers of these sign-sum norms (about 10^2)
    # overflow; the oracle divides by the peak norm before raising.
    rng = np.random.default_rng(30)
    space = unit(4)
    fam = [50.0 * rand_vecs(rng, 4, 4) for _ in range(3)]
    est = rbound_estimate(fam, space, RademacherConfig(p=400.0, mode="exact"),
                          budget=4)

    def rad(V):
        norms = [math.sqrt(math.fsum(abs(z) ** 2 for z in sum(
                     e * v for e, v in zip(eps, V))))
                 for eps in itertools.product((1.0, -1.0), repeat=len(V))]
        peak = max(norms)
        return peak * (math.fsum((a / peak) ** 400 for a in norms)
                       / len(norms)) ** (1.0 / 400)

    X = est.witness_vectors
    num = rad([fam[j] @ X[k] for k, j in enumerate(est.witness_indices)])
    assert est.value == pytest.approx(num / rad(X), rel=1e-12)


def test_rbound_monte_carlo_singleton_is_exact():
    # A singleton ratio is invariant under the sign, so sampling has
    # zero variance and the estimate must match enumeration.
    rng = np.random.default_rng(11)
    T = rand_vecs(rng, 4, 4)
    exact = rbound_estimate([T], unit(4), EXACT2, budget=4)
    mc = rbound_estimate([T], unit(4),
                         RademacherConfig(mode="monte_carlo", mc_samples=256),
                         budget=4)
    assert mc.value == pytest.approx(exact.value, abs=1e-9)
    assert mc.converged
    assert mc.se <= 1e-12


@pytest.mark.parametrize("budget", [0, 2])
def test_rbound_singleton_with_subnormal_entries(budget):
    # exp(0.3 A) of the 256-point Laplacian has rows whose far entries are
    # subnormal; the p = inf maximizer is their sign vector, which must
    # stay finite so the singleton certifies the operator norm.
    E = mat_exp(zoo.build("tridiag_laplacian", 256).matrix, 0.3)
    sp = unit(256, math.inf)
    norm = op_norm(E, sp, maximizer=True)
    assert np.all(np.isfinite(norm.maximizer))
    est = rbound_estimate([E], sp, EXACT2, budget=budget, ascent=False)
    assert est.value >= norm.value - 1e-12


def test_rbound_validation():
    with pytest.raises(BadParams):
        rbound_estimate([], unit(3), EXACT2)
    with pytest.raises(BadParams):
        rbound_estimate([np.eye(2)], unit(3), EXACT2)


# ---------------------------------------------------------------------------
# batched ratios and the finite-difference ascent


def loop_ratio(ops, idx, X, weights, p, rad_p, signs):
    """rad(T_{idx_k} x_k) / rad(x_k) one sign pattern at a time."""
    def rad(V):
        norms = []
        for s in signs:
            a = np.abs(s @ V)
            norms.append(np.max(a) if math.isinf(p)
                         else np.sum(weights * a ** p) ** (1.0 / p))
        return np.mean(np.array(norms) ** rad_p) ** (1.0 / rad_p)

    den = rad(X)
    if den == 0.0:
        return 0.0
    return rad(np.stack([ops[j] @ X[k] for k, j in enumerate(idx)])) / den


@pytest.mark.parametrize("mode", ["exact", "monte_carlo"])
@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, math.inf])
def test_ratios_match_loop_reference(p, mode):
    rng = np.random.default_rng(20)
    dim, idx = 6, (2, 0, 2)
    space = GridSpace(dim, np.linspace(0.5, 2.0, dim), p)
    cfg = RademacherConfig(p=3.0, mode=mode, mc_samples=256)
    signs = rbound._selection_signs(len(idx), cfg, 5)
    ops = [rand_vecs(rng, dim, dim) for _ in range(3)]
    # Enough tuples that numerators and denominators span several chunks.
    B = rbound._CHUNK_ELEMS // (len(signs) * dim) + 3
    Xs = rng.standard_normal((B, len(idx), dim)) * np.exp(
        1j * rng.uniform(0.0, 2.0 * math.pi, (B, len(idx), dim)))
    Xs[1] = 0.0
    got = rbound._ratios(ops, idx, Xs, space, cfg.p, signs)
    ref = [loop_ratio(ops, idx, X, space.weights, p, cfg.p, signs) for X in Xs]
    assert got[1] == 0.0
    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0.0)


def test_ascent_memory_stays_chunked():
    # Monte Carlo sign sums of all 2 n dim bumps at once would take
    # 256 x 4096 x 16 complex entries (256 MB) per step.
    rng = np.random.default_rng(21)
    dim, idx = 16, (0, 1, 1, 0, 1, 0, 0, 1)
    gen = decay(dim)
    ops = [gen.semigroup(0.1), gen.semigroup(1.0)]
    cfg = RademacherConfig(p=2.0, mode="monte_carlo", mc_samples=4096)
    signs = rbound._selection_signs(len(idx), cfg, 3)
    X0 = rand_vecs(rng, len(idx), dim)
    tracemalloc.start()
    try:
        rbound._ascend(ops, idx, X0, unit(dim), cfg, signs, steps=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


@pytest.mark.parametrize("p", [1.0, 4.0])
def test_ascent_value_is_certified_by_its_witness(p):
    rng = np.random.default_rng(22)
    dim, idx = 5, (1, 0, 1)
    space = GridSpace(dim, np.linspace(1.0, 2.0, dim), p)
    cfg = RademacherConfig(p=2.0, mode="exact")
    ops = [rand_vecs(rng, dim, dim) for _ in range(2)]
    signs = rbound._selection_signs(len(idx), cfg, 0)
    # Entries of modulus at most one: the ascent starts from X0 unscaled.
    X0 = rand_vecs(rng, len(idx), dim) / 8.0
    assert np.max(np.abs(X0)) <= 1.0
    start = rbound._ratio(ops, idx, X0, space, cfg, signs)
    value, X = rbound._ascend(ops, idx, X0, space, cfg, signs, steps=20)
    assert value == pytest.approx(
        rbound._ratio(ops, idx, X, space, cfg, signs), rel=1e-12)
    assert value >= start
    budget = 5
    est = rbound_estimate(ops, space, cfg, budget=budget)
    assert est.trials == len(ops) + budget + 1


# ---------------------------------------------------------------------------
# rbound_calculus_check


def test_calculus_zero_summand_family():
    rng = np.random.default_rng(12)
    famT = [rand_vecs(rng, 4, 4) for _ in range(2)]
    famS = [np.zeros((4, 4), dtype=complex) for _ in range(2)]
    rep = rbound_calculus_check(famT, famS, unit(4), EXACT2, budget=8)
    assert rep["ok"]
    assert rep["subadditive"].ok and rep["submultiplicative"].ok


def test_calculus_identity_product():
    eye = [np.eye(3, dtype=complex)]
    rep = rbound_calculus_check(eye, eye, unit(3), EXACT2, budget=4)
    assert rep["ok"]
    assert rep["submultiplicative"].lhs <= rep["submultiplicative"].rhs + 1e-9


def test_calculus_random_batch():
    rng = np.random.default_rng(13)
    for seed in range(6):
        famT = [rand_vecs(rng, 4, 4) for _ in range(3)]
        famS = [rand_vecs(rng, 4, 4) for _ in range(3)]
        cfg = RademacherConfig(p=2.0, mode="exact", seed=seed)
        rep = rbound_calculus_check(famT, famS, unit(4), cfg, budget=8)
        assert rep["ok"], f"seed {seed}: {rep}"


def test_calculus_requires_equal_lengths():
    eye = np.eye(3, dtype=complex)
    with pytest.raises(BadParams):
        rbound_calculus_check([eye, eye], [eye], unit(3), EXACT2)


# ---------------------------------------------------------------------------
# square_function_norm


def test_square_single_function_is_norm():
    rng = np.random.default_rng(14)
    space = GridSpace(6, np.linspace(0.2, 1.0, 6), 3.0)
    f = rand_vecs(rng, 1, 6)
    assert square_function_norm(f, space) == pytest.approx(
        space.norm(f[0]), rel=1e-12)


def test_square_equals_rademacher_at_p2():
    rng = np.random.default_rng(15)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        w = rng.random(5) + 0.5
        space = GridSpace(5, w, 2.0)
        X = rand_vecs(rng, n, 5)
        sq = square_function_norm(X, space)
        rad = rademacher_norm(X, space, EXACT2).value
        assert sq == pytest.approx(rad, rel=1e-10)


def test_square_standard_basis_p1():
    n, dim = 4, 6
    fs = np.eye(n, dim, dtype=complex)
    assert square_function_norm(fs, unit(dim, 1.0)) == pytest.approx(float(n))


# ---------------------------------------------------------------------------
# r_sector_report


def test_r_sector_identity_generator():
    spec = GeneratorSpec(np.zeros((3, 3), dtype=complex))
    rep = r_sector_report(spec, -1.0 + 0.0j, 0.5, unit(3), EXACT2, budget=8)
    assert rep.r_semigroup.value == pytest.approx(1.0, abs=1e-9)
    assert rep.r_resolvent_zeta.value == pytest.approx(0.5, abs=1e-9)
    assert rep.r_resolvent_imag.value == pytest.approx(1.0, abs=1e-9)
    assert rep.chain_ok


def test_r_sector_hilbert_collapse():
    # At p = 2 with unit weights each randomized estimate equals the sup
    # of operator norms over the same sampled family.
    dim, t0, n_times = 6, 1.0, 16
    spec = decay(dim)
    space = unit(dim)
    rep = r_sector_report(spec, -1.0 + 0.0j, t0, space, EXACT2,
                          budget=8, n_times=n_times)
    ts = t0 * 10.0 ** (-4.0 * np.arange(n_times) / (n_times - 1))
    sg = [mat_exp(spec.matrix, t) for t in ts]
    sup_sg = max(op_norm(T, space).value for T in sg)
    sup_rz = max(op_norm(np.linalg.inv(-1.0 * np.eye(dim) - T), space).value
                 for T in sg)
    alphas = np.concatenate([np.pi / ts, -np.pi / ts])
    sup_ri = max(op_norm(abs(a) * np.linalg.inv(spec.matrix - 1j * a * np.eye(dim)),
                         space).value for a in alphas)
    assert rep.r_semigroup.value == pytest.approx(sup_sg, abs=1e-6)
    assert rep.r_resolvent_zeta.value == pytest.approx(sup_rz, abs=1e-6)
    assert rep.r_resolvent_imag.value == pytest.approx(sup_ri, abs=1e-6)


def test_r_sector_forward_chain_weighted():
    dim = 6
    space = GridSpace(dim, np.linspace(1.0, 2.0, dim), 4.0)
    rep = r_sector_report(decay(dim), -1.0 + 0.0j, 1.0, space,
                          RademacherConfig(p=4.0, mode="exact"), budget=8)
    assert rep.chain_ok
    assert rep.r_resolvent_imag.value <= rep.chain_value + 1e-4


def test_r_sector_validation():
    spec = decay(3)
    with pytest.raises(BadParams):
        r_sector_report(spec, -1.0 + 0.0j, 0.0, unit(3), EXACT2)
    with pytest.raises(BadParams):
        r_sector_report(spec, 2.0 + 0.0j, 1.0, unit(3), EXACT2)


# ---------------------------------------------------------------------------
# bt_contour_check


def test_bt_scalar_decay():
    gen = GeneratorSpec(np.array([[-1.0 + 0.0j]]))
    gamma = ContourSpec.rectangle(-0.5, 0.3, -1.0, 1.0)
    chk = bt_contour_check(gen, -1.0 + 0.0j, 0.1, gamma)
    assert chk.residual <= 1e-5
    assert chk.ok
    assert chk.pole_distance > 1e-3
    assert chk.quad_converged


def test_bt_jordan_block():
    gen = GeneratorSpec(np.array([[-2.0, 1.0], [0.0, -2.0]], dtype=complex))
    gamma = ContourSpec.rectangle(-1.0, 0.2, -1.0, 1.0)
    chk = bt_contour_check(gen, 2.0j, 0.2, gamma)
    assert chk.residual <= 1e-4
    assert chk.ok


def test_bt_rejects_zeta_one_and_interior():
    gen = GeneratorSpec(np.array([[-1.0 + 0.0j]]))
    gamma = ContourSpec.rectangle(-0.5, 0.3, -1.0, 1.0)
    with pytest.raises(BadParams):
        bt_contour_check(gen, 1.0 + 0.0j, 0.1, gamma)
    with pytest.raises(BadParams):
        bt_contour_check(gen, 0.5 + 0.0j, 0.1, gamma)


def test_bt_contour_too_close_to_pole():
    # A tiny rectangle hugging the singularity at i pi of e^z/(e^z + 1).
    gen = GeneratorSpec(np.array([[-1.0 + 0.0j]]))
    gamma = ContourSpec.rectangle(-5e-4, 5e-4, math.pi - 5e-4, math.pi + 5e-4)
    with pytest.raises(ContourTooClose):
        bt_contour_check(gen, -1.0 + 0.0j, 0.1, gamma)


def test_bt_requires_spectrum_enclosed():
    gen = GeneratorSpec(np.array([[-1.0 + 0.0j]]))
    gamma = ContourSpec.rectangle(1.0, 2.0, -0.5, 0.5)
    with pytest.raises(BadParams):
        bt_contour_check(gen, -1.0 + 0.0j, 0.1, gamma)


def test_bt_rejects_enclosed_pole():
    gen = GeneratorSpec(np.array([[-1.0 + 0.0j]]))
    gamma = ContourSpec.rectangle(-0.5, 0.5, -0.5, 4.0)
    with pytest.raises(BadParams):
        bt_contour_check(gen, -1.0 + 0.0j, 0.1, gamma)


def test_bt_time_validation():
    gen = GeneratorSpec(np.array([[-1.0 + 0.0j]]))
    gamma = ContourSpec.rectangle(-0.5, 0.3, -1.0, 1.0)
    with pytest.raises(BadParams):
        bt_contour_check(gen, -1.0 + 0.0j, 0.0, gamma)


# ---------------------------------------------------------------------------
# r_beurling_profile


def test_r_ladder_monotone_and_hilbert_collapse():
    dim = 6
    f = Polynomial([-1.0, 1.0])
    grid = log_time_grid(1.0, 2.0, 6)
    spec = decay(dim)
    prof = r_beurling_profile(spec, f, grid, unit(dim), EXACT2, budget=8)
    assert np.all(np.diff(prof.values) <= 1e-12)
    assert prof.converged
    # Window sup of plain operator norms is the p = 2 oracle.
    ref = beurling_profile(spec, f, grid, unit(dim))
    for eps, val in zip(prof.epsilons, prof.values):
        window = ref.values[grid <= eps * (1.0 + 1e-12)]
        assert val == pytest.approx(float(np.max(window)), abs=1e-6)


def test_r_ladder_identity_generator():
    f = Polynomial([1.0, 1.0])  # z + 1, so f(I) = 2 I
    spec = GeneratorSpec(np.zeros((4, 4), dtype=complex))
    prof = r_beurling_profile(spec, f, log_time_grid(1.0, 2.0, 4),
                              unit(4), EXACT2, budget=4)
    np.testing.assert_allclose(prof.values, 2.0, atol=1e-9)


def test_r_ladder_decay_regression():
    dim = 16
    f = Polynomial([-1.0, 1.0])
    space = GridSpace(dim, np.linspace(1.0, 2.0, dim), 4.0)
    prof = r_beurling_profile(decay(dim), f, log_time_grid(1.0, 3.0, 6),
                              space, RademacherConfig(p=4.0, mode="exact"),
                              budget=8)
    assert prof.values[-1] < 1.5


# ---------------------------------------------------------------------------
# sector_family_estimate


def test_sector_family_identity_generator():
    spec = GeneratorSpec(np.zeros((3, 3), dtype=complex))
    est = sector_family_estimate(spec, math.pi / 4.0, unit(3), EXACT2,
                                 budget=8)
    assert est.value == pytest.approx(1.0, abs=1e-9)


def test_sector_family_hilbert_oracle():
    dim, delta = 5, math.pi / 4.0
    spec = decay(dim)
    space = unit(dim)
    est = sector_family_estimate(spec, delta, space, EXACT2, budget=8,
                                 n_radii=6, n_angles=5)
    radii = 10.0 ** (-4.0 * np.arange(6) / 5.0)
    angles = np.linspace(-delta, delta, 5)
    sup = max(op_norm(mat_exp(spec.matrix, complex(r * np.exp(1j * a))),
                      space).value
              for r in radii for a in angles)
    assert est.value == pytest.approx(sup, abs=1e-6)


def test_sector_family_delta_validation():
    spec = decay(3)
    with pytest.raises(BadParams):
        sector_family_estimate(spec, 0.0, unit(3), EXACT2)
    with pytest.raises(BadParams):
        sector_family_estimate(spec, math.pi / 2.0, unit(3), EXACT2)


# ---------------------------------------------------------------------------
# r_converse_bound_eval


def test_converse_plug_in_eighth():
    # f(1) = 0 drops the first term; N n/(K sin delta) = 1/2 gives
    # (1/2)^4 / (1/2) = 1/8.
    f = normalize_peak(Polynomial([-1.0, 1.0]))
    val = r_converse_bound_eval(f, 3, 12.0, math.pi / 6.0, 1.0)
    assert val == pytest.approx(0.125, abs=1e-12)


def test_converse_arithmetic_oracle():
    # f = 0.75 z - 0.25: peak 1 at z = -1, f(1) = 1/2, degree 1.  With
    # N = 2 and K sin delta = 8: C1 = 1/2, C2 = 1/4, and the bound is
    # (1/4)(1 - 1/8)/(1/2) + (1/64)/(3/4) = 22/48.
    f = Polynomial([-0.25, 0.75])
    val = r_converse_bound_eval(f, 2, 16.0, math.pi / 6.0, 1.0)
    assert val == pytest.approx(22.0 / 48.0, abs=1e-9)


def test_converse_large_K_limit():
    f = Polynomial([-0.25, 0.75])
    val = r_converse_bound_eval(f, 2, 1e9, math.pi / 6.0, 2.0)
    assert val == pytest.approx(2.0 * 0.5 ** 2, rel=1e-6)


def test_converse_out_of_range():
    f = normalize_peak(Polynomial([-1.0, 1.0]))
    sin_d = math.sin(math.pi / 6.0)
    with pytest.raises(ParameterOutOfRange):
        r_converse_bound_eval(f, 3, 3.0 / sin_d, math.pi / 6.0, 1.0)
    with pytest.raises(ParameterOutOfRange):
        r_converse_bound_eval(f, 3, 1.0, math.pi / 6.0, 1.0)


def test_converse_validation():
    f = normalize_peak(Polynomial([-1.0, 1.0]))
    with pytest.raises(BadParams):
        r_converse_bound_eval(Polynomial([-1.0, 1.0]), 2, 40.0,
                              math.pi / 4.0, 1.0)
    with pytest.raises(BadParams):
        r_converse_bound_eval(Polynomial([1.0]), 2, 40.0, math.pi / 4.0, 1.0)
    with pytest.raises(BadParams):
        r_converse_bound_eval(f, 0, 40.0, math.pi / 4.0, 1.0)
    with pytest.raises(BadParams):
        r_converse_bound_eval(f, 2, 40.0, 2.0, 1.0)
    with pytest.raises(BadParams):
        r_converse_bound_eval(f, 2, 40.0, math.pi / 4.0, -1.0)


def test_converse_chain_dominates_measurement():
    # Measured lower bound on R{f^N(T(t)) T(Kt): t <= 1/K} must stay
    # below the closed form fed with the measured sector estimate.
    dim, N, K, delta = 4, 2, 40.0, math.pi / 4.0
    spec = decay(dim)
    space = unit(dim)
    R = sector_family_estimate(spec, delta, space, EXACT2, budget=8).value
    f = normalize_peak(Polynomial([-1.0, 1.0]))
    fN = power_expand(f, N)
    ts = np.geomspace(1.0 / (100.0 * K), 1.0 / K, 6)
    fam = [eval_matrix(fN, mat_exp(spec.matrix, t))
           @ mat_exp(spec.matrix, K * t) for t in ts]
    measured = rbound_estimate(fam, space, EXACT2, budget=8).value
    bound = r_converse_bound_eval(f, N, K, delta, R)
    assert measured <= bound + 1e-9
