"""The benchmark's checks accept the program's outputs and reject nudged ones.

Run from the repository root:  python3 -m pytest bench/tests -q
"""

import math
import os

import numpy as np
import pytest

import checks
from checks import CheckFailure
from semireg import zoo
from semireg.cosine import (cosine_from_generator, cosine_from_group,
                            dalembert_residual, fattorini_series, zero_two_profile)
from semireg.discpoly import Polynomial
from semireg.rbound import (RademacherConfig, r_beurling_profile,
                            rademacher_norm, rbound_estimate)
from semireg.semigroup import beurling_profile, converse_profile, sector_report
from semireg.spaces import GridSpace

COEFFS = [0.3 - 0.1j, -0.8 + 0.2j, 0.5 - 0.1j]          # f(1) = 0
GRID = checks.log_grid(1.0, 3.0, 3)


def nudged(values, i=0, rel=1e-4):
    out = np.array(values, dtype=float, copy=True)
    out[i] *= 1.0 + rel
    return out


# ------------------------------------------------------------- profiles

@pytest.mark.parametrize("name,p,N,K", [
    ("heat_conv", 2.0, 1, 0.0),          # spectral closed form
    ("diag_ray", math.inf, 2, 0.7),      # diagonal: spectral at any p
    ("jordan", 2.0, 1, 0.0),             # scipy expm subsample
    ("tridiag_laplacian", math.inf, 2, 1.3),
])
def test_profile_check_rejects_nudged_value(name, p, N, K):
    gen = zoo.build(name, 8)
    f = Polynomial(COEFFS)
    space = GridSpace.unit(8, p)
    prof = (beurling_profile(gen, f, GRID, space) if N == 1
            else converse_profile(gen, f, N, K, GRID, space))
    kw = dict(coeffs=COEFFS, name=name, dim=8, p=p, N=N, K=K,
              matrix=gen.matrix, subsample=[0, 4])
    checks.check_profile(prof.values, prof.t_grid, prof.disc_value, **kw)
    with pytest.raises(CheckFailure):
        checks.check_profile(nudged(prof.values, 4), prof.t_grid, prof.disc_value, **kw)
    with pytest.raises(CheckFailure):
        checks.check_profile(prof.values, prof.t_grid, prof.disc_value * 1.001, **kw)


@pytest.mark.parametrize("name", ["heat_conv", "jordan"])
def test_sector_check_rejects_nudged_sup(name):
    gen = zoo.build(name, 8)
    zeta = complex(np.exp(2.0j))
    alpha = np.array([2.0 / 0.8, 2.0 / 0.08, (2.0 - 2 * math.pi) / 0.08, 0.3, -0.3])
    rep = sector_report(gen, zeta, 0.8, GridSpace.unit(8), alpha)
    kw = dict(zeta=zeta, t0=0.8, name=name, dim=8, p=2.0,
              matrix=gen.matrix, subsample=[0, 1, 2])
    checks.check_sector(rep.alpha_grid, rep.resolvent_sups, rep.admissible, **kw)
    with pytest.raises(CheckFailure):
        checks.check_sector(rep.alpha_grid, nudged(rep.resolvent_sups, 1),
                            rep.admissible, **kw)
    flipped = rep.admissible.copy()
    flipped[3] = True
    with pytest.raises(CheckFailure):
        checks.check_sector(rep.alpha_grid, rep.resolvent_sups, flipped, **kw)


# ------------------------------------------------------- randomized bounds

def _family(name="heat_conv"):
    gen = zoo.build(name, 8)
    return [gen.semigroup(t) for t in (1.0, 0.3, 0.1)]


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_rbound_check_rejects_nudged_estimate(p):
    fam = _family()
    w = np.linspace(0.5, 2.0, 8) if p == 1.0 else np.ones(8)
    cfg = RademacherConfig(seed=3, exact_cap=2)
    est = rbound_estimate(fam, GridSpace(8, w, p), cfg, budget=2)
    kw = dict(family=fam, p=p, weights=w, rad_p=2.0, budget=2)
    checks.check_rbound(est.value, est.witness_indices, est.witness_vectors, est.trials, **kw)
    with pytest.raises(CheckFailure):
        checks.check_rbound(est.value * (1 + 1e-6), est.witness_indices,
                            est.witness_vectors, est.trials, **kw)
    with pytest.raises(CheckFailure):
        checks.check_rbound(est.value, est.witness_indices,
                            est.witness_vectors + 0.1 * np.arange(8),
                            est.trials, **kw)


def test_rbound_uniform_bounds_reject_a_low_estimate():
    fam = _family("jordan")
    top = max(np.linalg.norm(T, 2) for T in fam)
    idx, X = (0,), np.eye(8)[:1].astype(complex)
    low = checks.witness_ratio(fam, idx, X, 2.0, np.ones(8), 2.0)
    assert low < top * (1 - 1e-6)
    with pytest.raises(CheckFailure, match="max"):
        checks.check_rbound(low, idx, X, 3 + 2 + 1, family=fam, p=2.0,
                            weights=np.ones(8), rad_p=2.0, budget=2)
    low1 = checks.witness_ratio(fam, idx, X, 1.0, np.ones(8), 2.0)
    with pytest.raises(CheckFailure, match="column sum"):
        checks.check_rbound(low1, idx, X, 3 + 2 + 1, family=fam, p=1.0,
                            weights=np.ones(8), rad_p=2.0, budget=2)


def test_r_profile_check_rejects_nudged_or_rising_values():
    gen = zoo.build("heat_conv", 8)
    grid = checks.log_grid(1.0, 2.0, 2)
    prof = r_beurling_profile(gen, Polynomial(COEFFS), grid, GridSpace.unit(8),
                              RademacherConfig(exact_cap=2), budget=2)
    mats = [checks.poly_of_expm(COEFFS, gen.matrix, t) for t in grid]
    checks.check_r_profile(prof.epsilons, prof.values, t_grid=grid, mats=mats)
    with pytest.raises(CheckFailure):
        checks.check_r_profile(prof.epsilons, nudged(prof.values, 2, -1e-5),
                               t_grid=grid, mats=mats)
    with pytest.raises(CheckFailure, match="decreases"):
        checks.check_r_profile(prof.epsilons, prof.values[::-1], t_grid=grid, mats=mats)


def test_monte_carlo_check_rejects_a_value_far_from_exact():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((8, 16)) + 1j * rng.standard_normal((8, 16))
    r = rademacher_norm(X, GridSpace.unit(16, 1.0),
                        RademacherConfig(mode="monte_carlo", seed=5))
    kw = dict(vectors=X, p=1.0, weights=np.ones(16), rad_p=2.0)
    checks.check_monte_carlo(r.value, r.se, **kw)
    exact = checks.rademacher_exact(X, 1.0, np.ones(16), 2.0)
    with pytest.raises(CheckFailure, match="standard errors"):
        checks.check_monte_carlo(exact + 9 * r.se, r.se, **kw)


# ---------------------------------------------------------------- cosine

def test_cosine_sample_check_rejects_nudged_sample():
    B = zoo.build("shift_periodic", 8).matrix
    fam = cosine_from_group(B)
    C = fam.sample(0.7)[0]
    checks.check_cosine_samples([C], [0.7], generator=B @ B)
    bad = C.copy()
    bad[2, 3] += 1e-6
    with pytest.raises(CheckFailure):
        checks.check_cosine_samples([bad], [0.7], generator=B @ B)


def test_dalembert_check_rejects_large_residual():
    fam = cosine_from_generator(zoo.build("tridiag_laplacian", 8).matrix)
    r = dalembert_residual(fam, 0.4, 0.3)
    checks.check_dalembert(r, 0.4, 0.3, generator=fam.generator)
    with pytest.raises(CheckFailure):
        checks.check_dalembert(r + 1e-7, 0.4, 0.3, generator=fam.generator)


@pytest.mark.parametrize("name,group", [("skew_diag", True), ("jordan", False)])
def test_zero_two_check_rejects_wrong_verdict_or_value(name, group):
    mats = [zoo.build(name, d).matrix for d in (8, 16)]
    make = cosine_from_group if group else cosine_from_generator
    grid = checks.log_grid(2.0 if group else 0.4, 2.0, 8)
    rep = zero_two_profile([make(M, verify=False) for M in mats], grid, 2.0)
    gens = [M @ M if group else M for M in mats]
    kw = dict(generators=gens, bounded=not group, subsample=[3, 10])
    checks.check_zero_two(rep.verdict, rep.plateaus, rep.values, rep.t_grid, **kw)
    with pytest.raises(CheckFailure):
        checks.check_zero_two("intermediate", rep.plateaus, rep.values, rep.t_grid, **kw)
    values = [v.copy() for v in rep.values]
    values[-1][10] *= 1.001
    with pytest.raises(CheckFailure):
        checks.check_zero_two(rep.verdict, rep.plateaus, values, rep.t_grid, **kw)


def test_fattorini_check_rejects_nudged_partial_sum():
    fam = cosine_from_generator(zoo.build("heat_conv", 8).matrix, verify=False)
    rep = fattorini_series(fam, 0.5, 4, 0.5, quad_nodes=64)
    final = rep.partial_sums[-1]
    checks.check_fattorini(final, generator=fam.generator, omega=0.5, t=0.5)
    with pytest.raises(CheckFailure):
        checks.check_fattorini(final * (1 + 1e-4), generator=fam.generator, omega=0.5, t=0.5)


# ------------------------------------------------------------------- CLI

def test_zoo_closed_forms_match_the_catalog():
    for name in ("jordan", "tridiag_laplacian", "heat_conv", "shift_periodic",
                 "diag_ray", "skew_diag"):
        np.testing.assert_allclose(checks.closed_form_matrix(name, 16),
                                   zoo.build(name, 16).matrix, atol=1e-12)


def test_report_readers_reject_short_csv_and_altered_matrix(tmp_path):
    from semireg.cli import main
    mat = tmp_path / "m.mat"
    assert main(["zoo", "build", "--zoo", "heat_conv", "--dim", "8", "--out", str(mat)]) == 0
    A = checks.read_matrix_numpy(str(mat))
    np.testing.assert_allclose(A, checks.closed_form_matrix("heat_conv", 8), atol=1e-12)
    lines = mat.read_text().splitlines()
    lines[1] = lines[1].replace(lines[1].split()[0], "9.0", 1)
    mat.write_text("\n".join(lines) + "\n")
    assert not np.allclose(checks.read_matrix_numpy(str(mat)),
                           checks.closed_form_matrix("heat_conv", 8), atol=1e-12)

    csv = tmp_path / "b.csv"
    assert main(["beurling", "--zoo", "diag_ray", "--dim", "8", "--decades", "2",
                 "--points-per-decade", "2", "--out", str(csv)]) == 0
    checks.read_report(str(csv), "csv", 5)
    with pytest.raises(CheckFailure, match="rows"):
        checks.read_report(str(csv), "csv", 6)
    os.remove(csv)
