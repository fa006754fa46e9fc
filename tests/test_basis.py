from functools import reduce

import numpy as np
import pytest

from cohfact.basis import (
    gellmann_basis,
    pauli_tensor_basis,
    y_to_x_transform,
)
from cohfact.channel import random_channel, transfer_matrix
from cohfact.errors import InvalidDimensionError

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def test_d2_is_pauli_set():
    b = gellmann_basis(2)
    np.testing.assert_allclose(b[0], SX)
    np.testing.assert_allclose(b[1], SY)
    np.testing.assert_allclose(b[2], SZ)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_transfer_matrix_builds_the_identity_generator(d):
    """Row 0 of T is Tr[E^dag(X_0) X_j]/2 with X_0 = sqrt(2/d) I; a
    trace-preserving E has E^dag(I) = I, so the row is (1, 0, ..., 0) only
    if transfer_matrix scales X_0 to Tr[X_0 X_0] = 2."""
    t = transfer_matrix(random_channel(d, seed=d))
    assert abs(t[0, 0] - 1.0) <= 1e-12
    assert np.max(np.abs(t[0, 1:])) <= 1e-12


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_orthonormality(d):
    b = gellmann_basis(d)
    gens = (np.sqrt(2.0 / d) * np.eye(d), *b)
    for i, x in enumerate(gens):
        assert np.max(np.abs(x - x.conj().T)) < 1e-14
        if i > 0:
            assert abs(np.trace(x)) < 1e-14
        for j, y in enumerate(gens):
            want = 2.0 if i == j else 0.0
            assert abs(np.trace(x @ y) - want) < 1e-12


@pytest.mark.parametrize("basis, d", [(gellmann_basis(3), 3), (pauli_tensor_basis(2), 4)])
def test_cached_basis_is_a_read_only_stack(basis, d):
    assert isinstance(basis, np.ndarray)
    assert basis.shape == (d * d - 1, d, d)
    with pytest.raises(ValueError):
        basis[0, 0, 0] = 5.0


@pytest.mark.parametrize("cached", [gellmann_basis, pauli_tensor_basis, y_to_x_transform])
def test_basis_caches_are_bounded(cached):
    assert cached.cache_info().maxsize is not None


def test_d3_diagonal_generator_textbook_formula():
    # independent oracle: w_l = sqrt(2/(l(l+1))) (sum_{j<=l} |j><j| - l |l+1><l+1|)
    b = gellmann_basis(3)
    w2 = np.diag([1.0, 1.0, -2.0]) / np.sqrt(3.0)
    np.testing.assert_allclose(b[7], w2, atol=1e-15)
    w1 = np.diag([1.0, -1.0, 0.0])
    np.testing.assert_allclose(b[6], w1, atol=1e-15)


def test_ordering_contract():
    """Positions 2r-1, 2r (1-based) hold u_jk and v_jk of the r-th index
    pair (j, k), the pairs in lexicographic order: (1,2), (1,3), (2,3)."""
    b = gellmann_basis(3)
    for r, (j, k) in enumerate([(1, 2), (1, 3), (2, 3)]):
        u, v = np.zeros((3, 3), dtype=complex), np.zeros((3, 3), dtype=complex)
        u[j - 1, k - 1] = u[k - 1, j - 1] = 1
        v[j - 1, k - 1], v[k - 1, j - 1] = -1j, 1j
        np.testing.assert_array_equal(b[2 * r], u)
        np.testing.assert_array_equal(b[2 * r + 1], v)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_completeness_sum(d):
    b = gellmann_basis(d)
    s = sum(x @ x for x in b)
    np.testing.assert_allclose(s, 2.0 * (d * d - 1) / d * np.eye(d), atol=1e-12)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_hermitian_reconstruction(d):
    rng = np.random.default_rng(d)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = g + g.conj().T
    b = gellmann_basis(d)
    rec = np.trace(h) / d * np.eye(d, dtype=complex)
    rec += 0.5 * sum(np.trace(h @ x) * x for x in b)
    np.testing.assert_allclose(rec, h, atol=1e-12)


def test_invalid_dimension():
    with pytest.raises(InvalidDimensionError):
        gellmann_basis(1)
    with pytest.raises(InvalidDimensionError):
        pauli_tensor_basis(0)
    with pytest.raises(InvalidDimensionError):
        pauli_tensor_basis(7)
    with pytest.raises(InvalidDimensionError):
        y_to_x_transform(6)


def test_pauli_basis_n1():
    b = pauli_tensor_basis(1)
    np.testing.assert_allclose(b[0], SX)
    np.testing.assert_allclose(b[1], SY)
    np.testing.assert_allclose(b[2], SZ)


def test_pauli_basis_n2_prefactor_and_order():
    b = pauli_tensor_basis(2)
    assert len(b) == 15
    np.testing.assert_allclose(b[0], np.kron(np.eye(2), SX) / np.sqrt(2))
    np.testing.assert_allclose(b[11], np.kron(SZ, np.eye(2)) / np.sqrt(2))


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_pauli_basis_equals_kron_reference(N):
    """Element j is 2^((1-N)/2) times the Kronecker product of the Paulis
    named by the base-4 digits of j, most significant first, exactly."""
    sigma = [np.eye(2, dtype=complex), SX, SY, SZ]
    digits = (np.base_repr(j, base=4).zfill(N) for j in range(1, 4**N))
    want = np.array([reduce(np.kron, [sigma[int(c)] for c in ds], 2.0 ** ((1 - N) / 2))
                     for ds in digits])
    got = pauli_tensor_basis(N)
    assert got.shape == want.shape
    assert np.array_equal(got, want)


def test_pauli_basis_n2_pairwise_orthogonal():
    b = pauli_tensor_basis(2)
    for i, x in enumerate(b):
        for j, y in enumerate(b):
            want = 2.0 if i == j else 0.0
            assert abs(np.trace(x @ y) - want) < 1e-12


def test_transform_n1_is_identity():
    np.testing.assert_allclose(y_to_x_transform(1), np.eye(3), atol=1e-14)


def test_transform_n2_known_columns():
    a = y_to_x_transform(2)
    # Y_1 = (X_1 + X_11) / sqrt(2)
    col = a[:, 0]
    assert abs(col[0] - 1 / np.sqrt(2)) < 1e-12
    assert abs(col[10] - 1 / np.sqrt(2)) < 1e-12
    assert np.sum(np.abs(col) > 1e-12) == 2
    # Y_12 = (sqrt(6)/3) X_14 + (1/sqrt(3)) X_15
    col = a[:, 11]
    assert abs(col[13] - np.sqrt(6) / 3) < 1e-12
    assert abs(col[14] - 1 / np.sqrt(3)) < 1e-12
    assert np.sum(np.abs(col) > 1e-12) == 2


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_transform_orthogonal(N):
    a = y_to_x_transform(N)
    np.testing.assert_allclose(a @ a.T, np.eye(4**N - 1), atol=1e-12)


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_transform_reproduces_generators(N):
    a = y_to_x_transform(N)
    xb = gellmann_basis(2**N)
    yb = pauli_tensor_basis(N)
    for i, xi in enumerate(xb):
        rec = sum(a[i, j] * yj for j, yj in enumerate(yb))
        np.testing.assert_allclose(rec, xi, atol=1e-12)
