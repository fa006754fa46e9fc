"""Coherence and correlation measures: the l1 norm, the purity monotone,
and the two-qubit correlation/discord family."""

from dataclasses import dataclass

import numpy as np

from .basis import _SIGMA
from .errors import DimensionMismatchError, UnphysicalStateError
from .state import DensityMatrix


def _mat(rho):
    return rho.m if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)


@dataclass(frozen=True)
class CorrelationMatrix:
    """Two-qubit correlation matrix T_ij = Tr(rho sigma_i x sigma_j) and the
    descending eigenvalues of T^dag T."""

    t3: np.ndarray
    eigs: np.ndarray


def _per_matrix(values):
    """A float for one matrix, the array of values for a stack."""
    return float(values) if values.ndim == 0 else values


def l1_from_density(rho) -> float:
    """C_l1: sum of absolute values of the off-diagonal elements (of each
    matrix of an (s, d, d) stack)."""
    a = np.abs(_mat(rho))
    return _per_matrix(a.sum(axis=(-2, -1)) - np.diagonal(a, axis1=-2, axis2=-1).sum(axis=-1))


def purity_measure(rho) -> float:
    """P(rho) = Tr(rho^2) - 1/d = |x|^2 / 2, in [0, (d-1)/d] (of each
    matrix of an (s, d, d) stack)."""
    m = _mat(rho)
    d = m.shape[-1]
    return _per_matrix(np.trace(m @ m, axis1=-2, axis2=-1).real - 1.0 / d)


def _bloch_coordinates(m):
    """Local Bloch vector x_i = Tr(m s_i x I) and correlation matrix
    T_ij = Tr(m s_i x s_j) of a Hermitian 4x4 operator m."""
    if m.shape != (4, 4):
        raise DimensionMismatchError(f"expected a 4x4 two-qubit state, got {m.shape}")
    # r[i, j] = Tr(m s_i x s_j) with s_0 = I; the reshape indexes m[2a+b, 2c+d] as [a, b, c, d]
    r = np.einsum("abcd,ica,jdb->ij", m.reshape(2, 2, 2, 2), _SIGMA, _SIGMA).real
    return r[1:, 0], r[1:, 1:]


def correlation_matrix(rho) -> CorrelationMatrix:
    """Correlation matrix of a two-qubit state (tensor ordering A x B)."""
    _, t3 = _bloch_coordinates(_mat(rho))
    eigs = np.linalg.eigvalsh(t3.T @ t3)[::-1]
    return CorrelationMatrix(t3=t3, eigs=np.clip(eigs, 0.0, None))


def correlation_measures(rho) -> dict:
    """Bell-max, RSP fidelity, and teleportation figures from the
    correlation-matrix eigenvalues E1 >= E2 >= E3."""
    e1, e2, e3 = correlation_matrix(rho).eigs
    n_qt = float(np.sqrt(e1 + e2 + e3))
    return {
        "bell_max": float(2.0 * np.sqrt(e1 + e2)),
        "rsp_fidelity": float((e2 + e3) / 2.0),
        "teleport_n": n_qt,
        "teleport_fidelity": 0.5 + n_qt / 6.0,
    }


def projective_collapse(rho, direction) -> DensityMatrix:
    """Local measurement map sum_k (Pi_k x I) rho (Pi_k x I) on subsystem A,
    with Pi_+/- = (I +/- a.sigma)/2 for the unit Bloch vector a ``direction``."""
    m = _mat(rho)
    if m.shape != (4, 4):
        raise DimensionMismatchError(f"expected a 4x4 two-qubit state, got {m.shape}")
    av = np.tensordot(np.asarray(direction, dtype=float), _SIGMA[1:], 1)
    out = np.zeros((4, 4), dtype=complex)
    for p in ((np.eye(2) + av) / 2, (np.eye(2) - av) / 2):
        pk = np.kron(p, np.eye(2))
        out += pk @ m @ pk
    return DensityMatrix(d=4, m=out)


def _collapse_extreme(m, largest=False):
    """Extreme of ||m - Pi_a(m)||_2^2 over unit directions a, as (value, a).

    With x and T the local Bloch vector and correlation matrix of m, the
    residual is (|x|^2 + ||T||^2 - a^T K a)/4 with K = x x^T + T T^T, so the
    minimum sits at K's top eigenvector and the maximum at its bottom one.
    """
    x, t = _bloch_coordinates(m)
    lam, vec = np.linalg.eigh(np.outer(x, x) + t @ t.T)
    k = 0 if largest else -1
    return (x @ x + np.sum(t * t) - lam[k]) / 4.0, vec[:, k]


def geometric_discord2(rho) -> float:
    """Schatten-2 geometric discord D2 = 2 min ||rho - Pi^A(rho)||_2^2."""
    val, _ = _collapse_extreme(_mat(rho))
    return float(2.0 * val)


def min2(rho) -> float:
    """Schatten-2 measurement-induced nonlocality N2 = 2 max ||rho - Pi^A(rho)||_2^2."""
    val, _ = _collapse_extreme(_mat(rho), largest=True)
    return float(2.0 * val)


def hellinger_discord(rho) -> float:
    """Hellinger discord D_H = min ||sqrt(rho) - Pi^A(sqrt(rho))||_2^2."""
    m = _mat(rho)
    w, v = np.linalg.eigh(m)
    if w[0] < -1e-9:
        raise UnphysicalStateError(
            f"square root undefined: min eigenvalue {w[0]:.3e}", min_eigenvalue=float(w[0])
        )
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    val, _ = _collapse_extreme(root)
    return float(val)
