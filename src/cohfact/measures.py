"""Coherence and correlation measures: the l1 norm, the purity monotone,
and the two-qubit correlation/discord family."""

import math

import numpy as np

from .basis import _SIGMA, _read_only
from .errors import DimensionMismatchError, UnphysicalStateError
from .state import DensityMatrix


def _mat(rho):
    m = rho.m if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
    if m.ndim < 2 or m.shape[-2] != m.shape[-1]:
        raise DimensionMismatchError(f"expected a square matrix or a stack of them, got shape {m.shape}")
    return m


def _per_matrix(values):
    """A float for one matrix, the array of values for a stack."""
    return float(values) if values.ndim == 0 else values


def l1_from_density(rho) -> float:
    """C_l1: sum of |rho_jk| over j != k (of each matrix of an (s, d, d)
    stack), as the sum over all entries less the diagonal's, clipped at 0,
    below which round-off could take it."""
    a = np.abs(_mat(rho))
    return _per_matrix(np.maximum(a.sum(axis=(-2, -1)) - np.diagonal(a, axis1=-2, axis2=-1).sum(axis=-1), 0.0))


def purity_measure(rho) -> float:
    """P(rho) = Tr(rho^2) - 1/d = |x|^2 / 2, in [0, (d-1)/d] (of each
    matrix of an (s, d, d) stack). Tr(rho^2) is the one contraction
    sum_ab rho_ab rho_ba, so rho^2 is never formed."""
    m = _mat(rho)
    d = m.shape[-1]
    return _per_matrix(np.einsum("...ab,...ba->...", m, m).real - 1.0 / d)


# Row 4(i-1)+j is vec((s_i x s_j)^T), i = 1..3, j = 0..3, with s_0 = I, so
# that Tr(m s_i x s_j) = (P @ m.reshape(16))[4(i-1)+j].
_PAULI_PROJECTION = _read_only(np.array(
    [np.kron(_SIGMA[i], _SIGMA[j]).T.reshape(16) for i in range(1, 4) for j in range(4)]))


def _two_qubit(m):
    """``m`` if it is a finite 4x4 operator."""
    if m.shape != (4, 4):
        raise DimensionMismatchError(f"expected a 4x4 two-qubit state, got {m.shape}")
    if not np.isfinite(m).all():
        raise UnphysicalStateError("two-qubit state has non-finite entries")
    return m


def _bloch_coordinates(m):
    """The 3x4 block [x | T] of a checked Hermitian 4x4 operator m: the local
    Bloch vector x_i = Tr(m s_i x I) and the correlation matrix T_ij = Tr(m s_i x s_j)."""
    return (_PAULI_PROJECTION @ m.reshape(16)).real.reshape(3, 4)


def _k_matrix(m):
    """K = R R^T = x x^T + T T^T of a checked Hermitian 4x4 operator m, R = [x | T].

    The residual ||m - Pi_a(m)||_2^2 of the local measurement along the unit
    vector a is (tr K - a^T K a)/4, so its extremes over a are sums of two
    of K's eigenvalues over 4, and the optimal directions are eigenvectors."""
    r = _bloch_coordinates(m)
    return r @ r.T


def correlation_measures(rho) -> dict:
    """Bell-max, RSP fidelity, and teleportation figures of a two-qubit
    state (tensor ordering A x B) from the descending eigenvalues E1 >= E2
    >= E3, clipped at 0, of T^T T, T_ij = Tr(rho sigma_i x sigma_j) its
    3x3 correlation matrix."""
    t3 = _bloch_coordinates(_two_qubit(_mat(rho)))[:, 1:]
    e3, e2, e1 = np.maximum(np.linalg.eigvalsh(t3.T @ t3), 0.0).tolist()
    n_qt = math.sqrt(e1 + e2 + e3)
    return {
        "bell_max": 2.0 * math.sqrt(e1 + e2),
        "rsp_fidelity": (e2 + e3) / 2.0,
        "teleport_n": n_qt,
        "teleport_fidelity": 0.5 + n_qt / 6.0,
    }


def projective_collapse(rho, direction) -> DensityMatrix:
    """Local measurement map sum_k (Pi_k x I) rho (Pi_k x I) on subsystem A,
    with Pi_+/- = (I +/- a.sigma)/2 for the unit Bloch vector a ``direction``:
    (rho + A rho A)/2 with A = (a.sigma) x I."""
    m = _two_qubit(_mat(rho))
    a = np.kron(np.tensordot(np.asarray(direction, dtype=float), _SIGMA[1:], 1), np.eye(2))
    return DensityMatrix((m + a @ m @ a) / 2)


def _collapse_extremes(m):
    """(value, a) of the minimum, then of the maximum, of ||m - Pi_a(m)||_2^2
    over unit a, for a checked 4x4 operator m: (low + mid)/4 at K's top
    eigenvector and (mid + top)/4 at its bottom one. The values alone come
    from eigvalsh of K; `cohfact coherence` reads values and directions from
    this one eigh."""
    lam, vec = np.linalg.eigh(_k_matrix(m))
    low, mid, top = lam.tolist()
    return ((low + mid) / 4.0, vec[:, 2]), ((mid + top) / 4.0, vec[:, 0])


def geometric_discord2(rho) -> float:
    """Schatten-2 geometric discord D2 = 2 min ||rho - Pi^A(rho)||_2^2
    = (lambda_0 + lambda_1)/2, the two smallest eigenvalues of K."""
    low, mid, _ = np.linalg.eigvalsh(_k_matrix(_two_qubit(_mat(rho)))).tolist()
    return (low + mid) / 2.0


def min2(rho) -> float:
    """Schatten-2 measurement-induced nonlocality N2 = 2 max ||rho - Pi^A(rho)||_2^2
    = (lambda_1 + lambda_2)/2, the two largest eigenvalues of K."""
    _, mid, top = np.linalg.eigvalsh(_k_matrix(_two_qubit(_mat(rho)))).tolist()
    return (mid + top) / 2.0


def hellinger_discord(rho) -> float:
    """Hellinger discord D_H = min ||sqrt(rho) - Pi^A(sqrt(rho))||_2^2
    = (lambda_0 + lambda_1)/4 of the K of sqrt(rho)."""
    w, v = np.linalg.eigh(_two_qubit(_mat(rho)))
    if w[0] < -1e-9:
        raise UnphysicalStateError(
            f"square root undefined: min eigenvalue {w[0]:.3e}", min_eigenvalue=float(w[0])
        )
    root = (v * np.sqrt(np.maximum(w, 0.0))) @ v.conj().T
    low, mid, _ = np.linalg.eigvalsh(_k_matrix(root)).tolist()
    return (low + mid) / 4.0
