"""Tests for the generator catalog: structure of each family, dimension
policy, and certified growth data."""

import math

import numpy as np
import pytest

from semireg.cosine import cosine_from_group
from semireg.errors import BadParams, UnknownEntry
from semireg.linalg import mat_exp
from semireg.semigroup import check_growth
from semireg.zoo import CATALOG, build, entry_names


def test_entry_names_sorted_and_complete():
    names = entry_names()
    assert names == sorted(names)
    assert set(names) == {"diag_ray", "skew_diag", "jordan",
                          "tridiag_laplacian", "shift_periodic",
                          "heat_conv", "mult_symbol"}


def test_dimension_policy():
    for d in (8, 16, 512):
        assert build("jordan", d).dim == d
    for bad in (4, 48, 1024, 7):
        with pytest.raises(BadParams):
            build("jordan", bad)
    with pytest.raises(UnknownEntry):
        build("nosuch", 8)


def test_diag_ray_structure():
    spec = build("diag_ray", 8, {"phi": 0.3})
    d = np.diag(spec.matrix)
    k = np.arange(1, 9, dtype=float)
    np.testing.assert_allclose(d, -np.exp(0.3j) * k, atol=1e-14)
    # eigenvalues sit strictly in the open left half plane
    assert np.all(d.real < 0.0)
    with pytest.raises(BadParams):
        build("diag_ray", 8, {"phi": math.pi / 2.0})


def test_skew_diag_is_skew_adjoint():
    A = build("skew_diag", 16).matrix
    np.testing.assert_allclose(A + A.conj().T, np.zeros((16, 16)), atol=1e-14)
    U = mat_exp(A, 0.37)
    np.testing.assert_allclose(U @ U.conj().T, np.eye(16), atol=1e-12)


def test_jordan_structure():
    A = build("jordan", 8, {"lam": -2.0}).matrix
    np.testing.assert_allclose(np.diag(A), np.full(8, -2.0), atol=1e-14)
    np.testing.assert_allclose(np.diag(A, k=1), np.ones(7), atol=1e-14)
    assert np.count_nonzero(A) == 15


def test_tridiag_laplacian_spectrum():
    # Dirichlet second difference has eigenvalues -4 sin^2(j pi / (2(n+1))) / h^2.
    n, h = 16, 0.5
    A = build("tridiag_laplacian", n, {"h": h}).matrix
    eig = np.sort(np.linalg.eigvalsh(A.real))
    j = np.arange(1, n + 1)
    expected = np.sort(-4.0 * np.sin(j * math.pi / (2.0 * (n + 1))) ** 2 / h ** 2)
    np.testing.assert_allclose(eig, expected, atol=1e-10)


@pytest.mark.parametrize("n", [64, 128])
def test_tridiag_laplacian_semigroup_matches_sine_basis(n):
    # S_jk = sqrt(2/(n+1)) sin(jk pi/(n+1)) is orthonormal and symmetric and
    # diagonalizes the Dirichlet second difference.
    j = np.arange(1, n + 1)
    S = math.sqrt(2.0 / (n + 1)) * np.sin(np.outer(j, j) * math.pi / (n + 1))
    lam = -4.0 * np.sin(j * math.pi / (2.0 * (n + 1))) ** 2
    gen = build("tridiag_laplacian", n)
    for t in (1e-3, 0.1, 1.0, 10.0):
        ref = (S * np.exp(t * lam)) @ S
        got = gen.semigroup(t)
        assert np.linalg.norm(got - ref, 2) <= 1e-12 * np.linalg.norm(ref, 2)


@pytest.mark.parametrize("dim", [2 ** k for k in range(3, 10)])
def test_normal_entries_take_the_spectral_path(dim):
    # Every normal entry keeps its eigenpair at every dimension, so a
    # tolerance that sent one back to Pade fails here; jordan never has one.
    for name in ("tridiag_laplacian", "heat_conv", "shift_periodic"):
        assert build(name, dim).eig[0] is not None, name
    for name in ("diag_ray", "skew_diag"):
        assert build(name, dim).eig[0] is None, name
    assert build("jordan", dim).eig is None
    assert cosine_from_group(build("shift_periodic", dim).matrix,
                             verify=False).eig is not None


def test_shift_periodic_generates_cyclic_shift():
    # The spectral derivative generates translation: at t = period/dim the
    # grid rotates by exactly one cell.
    dim, period = 16, 2.0 * math.pi
    A = build("shift_periodic", dim, {"period": period}).matrix
    U = mat_exp(A, period / dim)
    e0 = np.zeros(dim)
    e0[0] = 1.0
    moved = U @ e0
    k = int(np.argmax(np.abs(moved)))
    assert abs(abs(moved[k]) - 1.0) <= 1e-10
    assert k in (1, dim - 1)
    # skew-adjoint, so the group is unitary
    np.testing.assert_allclose(A + A.conj().T, np.zeros((dim, dim)),
                               atol=1e-12)


def test_heat_conv_symbol():
    dim, period = 16, 2.0 * math.pi
    A = build("heat_conv", dim, {"period": period}).matrix
    # self-adjoint, nonpositive, with Fourier eigenvalues -omega^2
    np.testing.assert_allclose(A, A.conj().T, atol=1e-12)
    eig = np.sort(np.linalg.eigvalsh(A))
    freq = np.fft.fftfreq(dim, d=1.0 / dim)
    omega = 2.0 * math.pi * freq / period
    np.testing.assert_allclose(eig, np.sort(-(omega ** 2)), atol=1e-10)


def test_mult_symbol_custom_diagonal():
    vals = [1j, -2.0, 0.5 + 0.5j] + [0.0] * 5
    spec = build("mult_symbol", 8, {"values": vals})
    np.testing.assert_allclose(np.diag(spec.matrix), np.asarray(vals),
                               atol=1e-14)
    with pytest.raises(BadParams):
        build("mult_symbol", 8)
    with pytest.raises(BadParams):
        build("mult_symbol", 8, {"values": [1.0, 2.0]})


def test_expected_labels():
    assert CATALOG["diag_ray"].expected == "holomorphic_in_limit"
    assert CATALOG["skew_diag"].expected == "not_holomorphic_in_limit"
    assert CATALOG["shift_periodic"].expected == "not_holomorphic_in_limit"
    assert CATALOG["heat_conv"].expected == "holomorphic_in_limit"
    assert CATALOG["mult_symbol"].expected is None


def test_growth_bounds_certified():
    for name in entry_names():
        params = {"values": list(-np.arange(1.0, 9.0))} \
            if name == "mult_symbol" else None
        spec = build(name, 8, params)
        assert spec.growth is not None
        assert check_growth(spec, samples=32)


def test_builders_are_deterministic():
    a = build("heat_conv", 32).matrix
    b = build("heat_conv", 32).matrix
    np.testing.assert_array_equal(a, b)
