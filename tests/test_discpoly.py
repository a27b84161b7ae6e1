"""Tests for disc polynomials: norms, powers, boundary factorization and
the derivative inequality used by the converse direction."""

import math

import numpy as np
import pytest

from semireg.discpoly import (
    Polynomial,
    bernstein_check,
    coeff_sum_bound_check,
    disc_norm,
    eval_matrix,
    factor_out_root,
    in_C1,
    normalize_peak,
    power_expand,
)
from semireg.errors import ConstantPolynomial, NotARoot


def test_polynomial_basics():
    f = Polynomial([1.0, 0.0, -2.0])
    assert f.degree == 2
    assert f(2.0) == pytest.approx(1.0 - 8.0)
    # trailing zeros are trimmed
    g = Polynomial([1.0, 1.0, 0.0, 0.0])
    assert g.degree == 1


def test_disc_norm_z_minus_one():
    res = disc_norm(Polynomial([-1.0, 1.0]))
    assert res.value == pytest.approx(2.0, abs=1e-9)
    assert res.peak == pytest.approx(-1.0, abs=1e-4)


def test_disc_norm_witness_powers():
    # ((z-1)^2 / 2)^N peaks at -1 with value 2^N.
    f = Polynomial([0.5, -1.0, 0.5])
    for N in (1, 2, 3, 5):
        fN = power_expand(f, N)
        res = disc_norm(fN)
        assert res.value == pytest.approx(2.0 ** N, rel=1e-8)
        assert res.peak == pytest.approx(-1.0, abs=1e-4)


def test_disc_norm_constant_and_monomial_shift():
    assert disc_norm(Polynomial([3.0 - 4.0j])).value == pytest.approx(5.0)
    rng = np.random.default_rng(10)
    for _ in range(20):
        deg = int(rng.integers(1, 5))
        g = Polynomial(list(rng.standard_normal(deg + 1)
                            + 1j * rng.standard_normal(deg + 1)))
        m = int(rng.integers(1, 9))
        shifted = Polynomial([0.0] * m + list(g.coeffs))
        assert disc_norm(shifted).value == pytest.approx(
            disc_norm(g).value, abs=1e-8)


def test_disc_norm_homogeneous_and_power_multiplicative():
    rng = np.random.default_rng(11)
    for _ in range(10):
        deg = int(rng.integers(1, 6))
        f = Polynomial(list(rng.standard_normal(deg + 1)
                            + 1j * rng.standard_normal(deg + 1)))
        c = complex(rng.standard_normal(), rng.standard_normal())
        scaled = Polynomial(list(c * f.coeffs))
        assert disc_norm(scaled).value == pytest.approx(
            abs(c) * disc_norm(f).value, abs=1e-9 * (1 + abs(c)))
        N = int(rng.integers(1, 5))
        assert disc_norm(power_expand(f, N)).value == pytest.approx(
            disc_norm(f).value ** N, rel=1e-7)


def test_normalize_peak():
    f = normalize_peak(Polynomial([-2.0, 2.0]))   # 2(z-1)
    assert disc_norm(f).value == pytest.approx(1.0, abs=1e-8)
    assert f(-1.0) == pytest.approx(1.0, abs=1e-8)
    # f = z rotates so the returned peak maps to 1
    g = normalize_peak(Polynomial([0.0, 1.0]))
    assert disc_norm(g).value == pytest.approx(1.0, abs=1e-8)
    # (z-1)^2/2 has peak value 2 at -1; normalized version peaks at 1/... = 1
    h = normalize_peak(Polynomial([0.5, -1.0, 0.5]))
    assert h(-1.0) == pytest.approx(1.0, abs=1e-8)
    with pytest.raises(ConstantPolynomial):
        normalize_peak(Polynomial([2.0]))


def test_normalize_peak_preserves_c1_status():
    rng = np.random.default_rng(12)
    for _ in range(20):
        deg = int(rng.integers(1, 5))
        f = Polynomial(list(rng.standard_normal(deg + 1)
                            + 1j * rng.standard_normal(deg + 1)))
        assert in_C1(f) == in_C1(normalize_peak(f))


def test_power_expand_binomials():
    sq = power_expand(Polynomial([-1.0, 1.0]), 2)
    np.testing.assert_allclose(sq.coeffs, [1.0, -2.0, 1.0], atol=1e-14)
    cube = power_expand(Polynomial([0.5, -1.0, 0.5]), 3)
    # (1/8)(z-1)^6
    binom = np.array([1.0, -6.0, 15.0, -20.0, 15.0, -6.0, 1.0]) / 8.0
    np.testing.assert_allclose(cube.coeffs, binom, atol=1e-14)


def test_power_expand_evaluation_oracle():
    rng = np.random.default_rng(13)
    f = Polynomial(list(rng.standard_normal(4) + 1j * rng.standard_normal(4)))
    f5 = power_expand(f, 5)
    for _ in range(50):
        z = complex(rng.standard_normal(), rng.standard_normal())
        assert f5(z) == pytest.approx(f(z) ** 5, rel=1e-9, abs=1e-9)


def test_coeff_sum_bound():
    chk = coeff_sum_bound_check(Polynomial([0.0, 1.0]), 3)
    assert chk.lhs == pytest.approx(1.0)
    assert chk.rhs == pytest.approx(4.0)
    assert chk.ok
    chk = coeff_sum_bound_check(Polynomial([0.5, -1.0, 0.5]), 4)
    assert chk.lhs == pytest.approx(2.0 ** 4, rel=1e-9)
    assert chk.rhs == pytest.approx(9.0 * 2.0 ** 4, rel=1e-7)
    assert chk.ok
    rng = np.random.default_rng(14)
    for _ in range(200):
        deg = int(rng.integers(1, 7))
        f = Polynomial(list(rng.standard_normal(deg + 1)
                            + 1j * rng.standard_normal(deg + 1)))
        assert coeff_sum_bound_check(f, int(rng.integers(1, 9))).ok


def test_in_c1_membership():
    assert in_C1(Polynomial([-1.0, 1.0]))
    assert not in_C1(Polynomial([0.0, 1.0]))
    assert in_C1(Polynomial([0.5, -1.0, 0.5]))


def test_factor_out_root_simple():
    # 1 - z = (1 - z) * 1
    q, res = factor_out_root(Polynomial([1.0, -1.0]), 1.0)
    assert q.degree == 0
    assert q.coeffs[0] == pytest.approx(1.0)
    assert res <= 1e-12


def test_factor_out_root_normalized_witness():
    # 1 - g for the peak-normalized g = (z-1)^2/4 vanishes at -1.
    g = normalize_peak(Polynomial([0.5, -1.0, 0.5]))
    one_minus = Polynomial(list(-g.coeffs + np.array([1.0, 0.0, 0.0])))
    q, _ = factor_out_root(one_minus, -1.0)
    rng = np.random.default_rng(15)
    for _ in range(20):
        z = complex(rng.standard_normal(), rng.standard_normal())
        assert (-1.0 - z) * q(z) == pytest.approx(one_minus(z), abs=1e-10)


def test_factor_out_root_remultiply():
    rng = np.random.default_rng(16)
    for _ in range(20):
        deg = int(rng.integers(1, 6))
        q0 = Polynomial(list(rng.standard_normal(deg + 1)
                             + 1j * rng.standard_normal(deg + 1)))
        zeta = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        # g(z) = (zeta - z) q0(z)
        coeffs = np.zeros(deg + 2, dtype=complex)
        coeffs[: deg + 1] += zeta * q0.coeffs
        coeffs[1:] -= q0.coeffs
        q, _ = factor_out_root(Polynomial(list(coeffs)), zeta)
        np.testing.assert_allclose(q.coeffs, q0.coeffs, atol=1e-9)


def test_factor_out_root_rejects_nonroot():
    with pytest.raises(NotARoot):
        factor_out_root(Polynomial([1.0, -1.0]), 1j)


def test_bernstein_pure_frequency():
    chk = bernstein_check(Polynomial([0.0, 1.0]), 1, 1, 0.0)
    assert chk.lhs == pytest.approx(1.0)
    assert chk.rhs == pytest.approx(1.0)
    assert chk.ok


def test_bernstein_half_shift():
    # d/dx ((1+e^{ix})/2)^2 at 0 has modulus 1; bound is 2*1.
    chk = bernstein_check(Polynomial([0.5, 0.5]), 2, 1, 0.0)
    assert chk.lhs == pytest.approx(1.0, abs=1e-12)
    assert chk.rhs == pytest.approx(2.0, rel=1e-9)
    assert chk.ok


def test_bernstein_batch():
    rng = np.random.default_rng(17)
    for _ in range(500):
        deg = int(rng.integers(1, 9))
        f = normalize_peak(Polynomial(list(
            rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1))))
        N = int(rng.integers(1, 7))
        l = int(rng.integers(0, 11))
        x = float(rng.uniform(0.0, 2.0 * math.pi))
        assert bernstein_check(f, N, l, x).ok


def test_eval_matrix_diagonal():
    f = Polynomial([-1.0, 1.0])
    T = np.diag([1.0 + 0.0j, 1j])
    out = eval_matrix(f, T)
    np.testing.assert_allclose(out, np.diag([0.0, 1j - 1.0]), atol=1e-14)


@pytest.mark.parametrize("degree", range(6))
def test_eval_matrix_matches_power_sum(degree):
    rng = np.random.default_rng(40 + degree)
    coeffs = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
    coeffs[-1] += 2.0          # keep the leading coefficient from trimming
    M = 0.5 * (rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
    ref = sum(a * np.linalg.matrix_power(M, k) for k, a in enumerate(coeffs))
    out = eval_matrix(Polynomial(coeffs), M)
    assert out.shape == (5, 5)
    assert np.linalg.norm(out - ref, 2) <= 1e-13 * (1.0 + np.linalg.norm(ref, 2))
