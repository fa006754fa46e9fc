"""Generator bases, generalized Gell-Mann matrices and N-qubit Pauli tensors,
and their coordinate maps, read from and written to matrix entries by index.

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
_EXPECTED = {"transfer": "a d^2 x d^2 transfer matrix", "weights": "4^N weights", "components": "d^2 - 1 components"}


def _read_only(a):
    """Mark an array shared through a cache as immutable and return it."""
    a.flags.writeable = False
    return a


_SIGMA = _read_only(np.array(
    [[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex))


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
def _layout(d):
    """Read-only tables of the Gell-Mann maps at d >= 2 on the (re, im) slots of a flattened d x d m: ``read``, those
    of m_kj, then m_jk, pair by pair, then of Re m_aa, and ``signs``, (1, -1) per pair; ``write``, the entry of
    z = (x_1..x_{d^2-d}, diagonal, 0) each slot takes, times ``halves``; l = 1..d-1; the w scales sqrt(2/(l(l+1)))."""
    j, k = np.triu_indices(d, 1)  # the 0-based (j, k) pairs, lexicographic
    coh, diagonal, l = d * d - d, 2 * (d + 1) * np.arange(d), np.arange(1.0, d)
    lower, upper = (((2 * (r * d + c))[:, None] + [0, 1]).ravel() for r, c in ((k, j), (j, k)))
    read, write, halves = np.concatenate((lower, upper, diagonal)), np.full(2 * d * d, coh + d), np.full(2 * d * d, 0.5)
    write[read] = np.r_[0:coh, 0:coh, coh : coh + d]
    halves[upper[1::2]] = -0.5
    return tuple(map(_read_only, (read, np.tile([1.0, -1.0], coh // 2), write, halves, l, np.sqrt(2 / (l * (l + 1))))))


def _read_gellmann(m):
    """The real (..., d^2 - 1) Gell-Mann coordinates x_i = Re Tr(m X_i) of a d x d m or a stack, read entry by entry:
    u_jk = Re(m_kj + m_jk), v_jk = Im(m_kj - m_jk) (so those of m's Hermitian part), w_l from a sum of the diagonal."""
    m = np.ascontiguousarray(m, dtype=complex)
    d, coh = m.shape[-1], m.shape[-1] ** 2 - m.shape[-1]
    read, signs, _, _, l, scale = _layout(d)
    t = m.reshape(m.shape[:-2] + (d * d,)).view(float).take(read, axis=-1)  # pair slots, then Re m_aa
    w = scale * (np.add.accumulate(t[..., 2 * coh : -1], axis=-1) - l * t[..., 2 * coh + 1 :])
    return np.concatenate((t[..., :coh] + signs * t[..., coh : 2 * coh], w), axis=-1)


def _write_gellmann(x, d):
    """The complex (..., d, d) (1/2) sum_i x_i X_i of each row of the float array x of d^2 - 1 Gell-Mann coordinates,
    written entry by entry: (u_jk + i v_jk)/2 at (k, j), its conjugate at (j, k), and (sum_{l > a} s_l - a s_a)/2 at
    (a, a), s_l = sqrt(2/(l(l+1))) w_l, summed from l = d - 1 down."""
    coh = d * d - d
    _, _, write, halves, l, scale = _layout(d)
    s = scale * x[..., coh:]
    z = np.zeros(x.shape[:-1] + (coh + d + 1,))
    z[..., :coh] = x[..., :coh]
    np.add.accumulate(s[..., ::-1], axis=-1, out=z[..., coh + d - 2 : coh - 1 : -1])
    z[..., coh + 1 : coh + d] -= l * s
    return (z.take(write, axis=-1) * halves).view(complex).reshape(x.shape[:-1] + (d, d))


@lru_cache(maxsize=CACHE_SIZE)
def gellmann_basis(d):
    """The generalized Gell-Mann basis for dimension d >= 2: a read-only (d^2-1, d, d) array whose entry i is
    X_{i+1} in the 1-based ordering, 2 _write_gellmann of the unit coordinates. Elements are Hermitian, traceless,
    and satisfy Tr(X_i X_j) = 2 delta_ij; X_0 = sqrt(2/d) I is not stored."""
    if not isinstance(d, (int, np.integer)) or d < 2:
        raise InvalidDimensionError(f"dimension must be an integer >= 2, got {d}")
    return _read_only(2.0 * _write_gellmann(np.eye(d * d - 1), d))


def _digitwise(v, table):
    """v @ (table x ... x table), v of 4^N entries on its last axis: each of N passes maps the leading base-4 digit of
    the index by the 4 x 4 ``table`` and moves it last, an entry a sum of 4 of its own row's (arXiv:2310.13421)."""
    shape, N = v.shape, (v.shape[-1].bit_length() - 1) // 2
    for _ in range(N):
        v = v.reshape(-1, 4, 4 ** (N - 1)).swapaxes(1, 2).reshape(-1, 4) @ table
    return v.reshape(shape)


@lru_cache(maxsize=CACHE_SIZE)
def _qubit_order(N):
    """The flat indices of a 2^N x 2^N matrix in per-qubit order, entry p of base-4 digits 2 r_k + c_k for row bits
    r_1..r_N and column bits c_1..c_N (qubit 1 the most significant), and the inverse permutation, both read-only."""
    order = np.arange(4**N).reshape((2,) * (2 * N)).transpose([a for k in range(N) for a in (k, N + k)]).ravel()
    return _read_only(order), _read_only(np.argsort(order))


def _read_pauli(m):
    """The real (..., 4^N - 1) Pauli tensor coordinates y_j = Re Tr(m Y_j) of a d x d matrix, d = 2^N, or of a stack:
    the entries in per-qubit order (_qubit_order), then per qubit the trace table sigma_a[c, r] (_digitwise)."""
    N = qubit_count(m.shape[-1])
    v = np.reshape(m, m.shape[:-2] + (4**N,)).take(_qubit_order(N)[0], axis=-1)
    return 2.0 ** ((1 - N) / 2) * _digitwise(v, _SIGMA.reshape(4, 4).T.conj()).real[..., 1:]


def _write_pauli(y, N):
    """The complex (..., d, d) matrix (1/2) sum_j y_j Y_j, d = 2^N, of each row of 4^N - 1 Pauli tensor coordinates y:
    per qubit the table sigma_a[r, c] (_digitwise), then the entries in row-major order (_qubit_order)."""
    v = np.concatenate((np.zeros(y.shape[:-1] + (1,)), 2.0 ** ((1 - N) / 2) * 0.5 * y), axis=-1)
    return _digitwise(v, _SIGMA.reshape(4, 4)).take(_qubit_order(N)[1], axis=-1).reshape(y.shape[:-1] + (2**N, 2**N))


@lru_cache(maxsize=CACHE_SIZE)
def pauli_tensor_basis(N):
    """The N-qubit Pauli tensor basis, 1 <= N <= 5, as a read-only (4^N-1, 2^N, 2^N) array of the generators
    Y_j = 2^((1-N)/2) sigma_{j_1} x ... x sigma_{j_N}, j_1 ... j_N the base-4 digits of j, in numeric order
    (00..1), (00..2), ..., (33..3), 2 _write_pauli of the unit coordinates; Y_0 is not stored."""
    return _read_only(2.0 * _write_pauli(np.eye(4 ** _qubits(N) - 1), _qubits(N)))


@lru_cache(maxsize=CACHE_SIZE)
def y_to_x_transform(N):
    """Read-only orthogonal a of N <= 5 qubits, X_i = sum_j a_ij Y_j, so x = a y, a reference no coordinate map uses:
    a_ij = Tr(X_i Y_j)/2, row i the Pauli tensor coordinates of X_i over 2."""
    return _read_only(_read_pauli(gellmann_basis(2 ** _qubits(N))) / 2.0)
