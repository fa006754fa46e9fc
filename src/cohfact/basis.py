"""Generator bases: generalized Gell-Mann matrices, N-qubit Pauli tensors,
and the linear transform between the two.

Ordering contract (shared by every module): the d^2-1 Gell-Mann generators
are arranged as u_12, v_12, u_13, v_13, ..., u_{d-1,d}, v_{d-1,d},
w_1, ..., w_{d-1}, with the (j,k) index pairs in lexicographic order.
Positions 2r-1, 2r (1-based) hold the u/v pair of the r-th index pair,
so the first d^2-d coordinates of a Bloch vector are the coherence part.
"""

from functools import lru_cache
from math import isqrt

import numpy as np

from .errors import DimensionMismatchError, InvalidDimensionError


# Entries kept per basis cache: every d <= 32 and N <= 5 fit, in bounded memory.
CACHE_SIZE = 16
ROW_BLOCK = 32  # rows per product of _by_row_blocks
_EXPECTED = {"transfer": "a d^2 x d^2 transfer matrix", "weights": "4^N weights", "components": "d^2 - 1 components"}


def _read_only(a):
    """Mark an array shared through a cache as immutable and return it."""
    a.flags.writeable = False
    return a


_SIGMA = _read_only(np.array([
    [[1, 0], [0, 1]],
    [[0, 1], [1, 0]],
    [[0, -1j], [1j, 0]],
    [[1, 0], [0, -1]],
], dtype=complex))


def _w_matrix(d, l):
    # Standard diagonal generator, normalized so Tr(w_l^2) = 2.
    diag = np.zeros(d)
    diag[:l] = 1.0
    diag[l] = -l
    return np.diag(diag).astype(complex) * np.sqrt(2.0 / (l * (l + 1)))


@lru_cache(maxsize=CACHE_SIZE)
def gellmann_basis(d):
    """The generalized Gell-Mann basis for dimension d >= 2: a read-only
    (d^2-1, d, d) array whose entry i is X_{i+1} in the 1-based ordering.

    Elements are Hermitian, traceless, and satisfy Tr(X_i X_j) = 2 delta_ij;
    X_0 = sqrt(2/d) I is not stored.
    """
    if not isinstance(d, (int, np.integer)) or d < 2:
        raise InvalidDimensionError(f"dimension must be an integer >= 2, got {d}")
    elements = np.zeros((d * d - 1, d, d), dtype=complex)
    j, k = np.triu_indices(d, 1)  # the 0-based (j, k) pairs, lexicographic
    u, v = np.arange(0, d * d - d, 2), np.arange(1, d * d - d, 2)
    elements[u, j, k] = elements[u, k, j] = 1
    elements[v, j, k], elements[v, k, j] = -1j, 1j
    elements[d * d - d:] = [_w_matrix(d, l) for l in range(1, d)]
    return _read_only(elements)


def _qubits(N):
    """``N`` as an int if it is an integer qubit count in 1..5 (io.MAX_D = 2^5)."""
    if not isinstance(N, (int, np.integer)) or N < 1 or N > 5:
        raise InvalidDimensionError(f"qubit count must be in 1..5, got {N}")
    return int(N)


def _dimension_of(a, kind):
    """The d >= 2 that the last axis of ``a`` fixes, the one place d is read from a shape: d^2 entries of a square
    'transfer' matrix or of the 'weights' of d = 2^N, d^2 - 1 Bloch 'components'; else DimensionMismatchError."""
    shape = np.shape(a)
    n = shape[-1] + (kind == "components") if shape else 0
    d = isqrt(n)
    if d < 2 or d * d != n or (kind == "transfer" and shape != (n, n)) or (kind == "weights" and d & (d - 1)):
        raise DimensionMismatchError(f"expected {_EXPECTED[kind]} for a d >= 2, got shape {shape}")
    return d


def qubit_count(d):
    """Qubit count N of a d = 2^N dimensional system, 1 <= N <= 5."""
    N = int(d).bit_length() - 1
    if d < 1 or 2**N != d:
        raise InvalidDimensionError(f"dimension must be a power of 2, got d={d}")
    return _qubits(N)


@lru_cache(maxsize=CACHE_SIZE)
def pauli_tensor_basis(N):
    """The N-qubit Pauli tensor basis, 1 <= N <= 5, as a read-only
    (4^N-1, 2^N, 2^N) array of the generators Y_j = 2^((1-N)/2) sigma_{j_1}
    x ... x sigma_{j_N}, where j_1 ... j_N are the base-4 digits of j, in
    numeric order (00..1), (00..2), ..., (33..3); Y_0 is not stored."""
    N = _qubits(N)
    # products[j] = scale sigma_{j_1} x ... x sigma_{j_N}: each step appends one
    # qubit, with its digit as the least significant one
    products = np.full((1, 1, 1), 2.0 ** ((1 - N) / 2), dtype=complex)
    for n in range(N):
        products = (products[:, None, :, None, :, None] * _SIGMA[None, :, None, :, None, :]
                    ).reshape(4 ** (n + 1), 2 ** (n + 1), 2 ** (n + 1))
    return _read_only(products[1:])


def _by_row_blocks(x, a):
    """x @ a for real arrays, the rows of ``x`` (a vector or (..., s, k)) in zero-padded blocks of ROW_BLOCK,
    each its own product of one shape, as BLAS picks a kernel by row count: a row's bits depend on neither s nor
    the other rows, at most on its offset in its block (with one OpenBLAS thread, offsets 24-31 at d = 16, 32)."""
    s = x.shape[-2] if x.ndim > 1 else 1
    blocks = np.zeros(x.shape[:-2] + (-(-s // ROW_BLOCK) * ROW_BLOCK, x.shape[-1]))
    blocks[..., :s, :] = x
    out = (blocks.reshape(-1, ROW_BLOCK, x.shape[-1]) @ a).reshape(blocks.shape[:-1] + a.shape[-1:])
    return out[..., :s, :].reshape(x.shape[:-1] + a.shape[-1:])


@lru_cache(maxsize=CACHE_SIZE)
def y_to_x_transform(N):
    """Read-only orthogonal a of N <= 5 qubits: X_i = sum_j a_ij Y_j, so x = a y.
    a_ij = Tr(X_i Y_j)/2 is one real product of the (re, im) pairs of the
    flattened X_i and Y_j, as Y_j is Hermitian."""
    N = _qubits(N)
    x, y = (b.reshape(len(b), -1).view(float) for b in (gellmann_basis(2**N), pauli_tensor_basis(N)))
    return _read_only(x @ y.T / 2.0)
