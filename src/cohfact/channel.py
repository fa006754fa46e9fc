"""Kraus channels, their Heisenberg-picture transfer matrices, the named
channel families, the frozen-coherence qubit constructions, and the
N-qubit auxiliary channel."""

from dataclasses import dataclass, field
from functools import reduce
from typing import Callable, NamedTuple

import numpy as np

from .basis import (
    GeneratorBasis,
    PauliTensorBasis,
    _SIGMA,
    _read_only,
    gellmann_basis,
    pauli_tensor_basis,
)
from .errors import (
    DimensionMismatchError,
    InvalidChannelError,
    NotAChannelError,
    NotApplicableError,
    UnreachableTargetError,
)
from .state import DensityMatrix, StateFamily

COMPLETENESS_TOL = 1e-10
CONDITION_TOL = 1e-10
REAL_TOL = 1e-12


@dataclass(frozen=True)
class KrausChannel:
    """CPTP map given by Kraus operators E_mu with sum E^dag E = I.

    ``kraus`` is a read-only (k, d, d) complex array; ``kraus[mu]`` is E_mu.
    """

    d: int
    kraus: np.ndarray
    label: str = ""
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class TransferMatrix:
    """Real d^2 x d^2 Heisenberg-picture matrix, row/col 0 for X_0.

    T_ij = Tr[E^dag(X_i) X_j]/2, so Bloch coordinates evolve as
    x'_i = sum_j T_ij x_j with the fixed coordinate x_0 = sqrt(2/d).
    """

    d: int
    t: np.ndarray

    @property
    def s_block(self):
        """T^S: rows 1..d^2-d, columns 1..d^2-1."""
        return self.t[1 : self.d * self.d - self.d + 1, 1:]

    def block(self, r):
        """2x2 diagonal block T^S_r of the r-th off-diagonal pair (1-based)."""
        i = 2 * r - 1
        return self.t[i : i + 2, i : i + 2]


@dataclass(frozen=True)
class AuxSolve:
    """Solved coefficients of the auxiliary channel: c eps = q."""

    N: int
    c: np.ndarray
    q_vec: np.ndarray
    eps: np.ndarray


def kraus_channel(ops, label="", params=None, tol=COMPLETENESS_TOL) -> KrausChannel:
    """Build a KrausChannel from a (k, d, d) stack or a sequence of d x d
    operators, enforcing the completeness condition. The operators are
    copied once, so the caller's array stays writable."""
    try:
        kraus = np.array(ops, dtype=complex)
    except (TypeError, ValueError) as exc:
        raise InvalidChannelError(f"Kraus operators must be d x d numeric matrices of one size: {exc}") from exc
    if kraus.size == 0:
        raise InvalidChannelError("empty Kraus set")
    if kraus.ndim != 3 or kraus.shape[1] != kraus.shape[2]:
        raise InvalidChannelError(f"Kraus operators must be square d x d matrices, got shape {kraus.shape}")
    if not np.all(np.isfinite(kraus)):
        raise InvalidChannelError("Kraus operators have non-finite entries")
    d = kraus.shape[1]
    v = kraus.reshape(-1, d)  # [E_0; E_1; ...], so V^dag V = sum E^dag E
    err = np.max(np.abs(v.conj().T @ v - np.eye(d)))
    if err > tol:
        raise InvalidChannelError(f"completeness violated: |sum E^dag E - I| = {err:.3e}")
    return KrausChannel(d=d, kraus=_read_only(kraus), label=label, params=dict(params or {}))


def _side_by_side(stack):
    """(k, d, d) stack of B_mu as the d x (k d) matrix [B_0 B_1 ... B_{k-1}]."""
    k, d, _ = stack.shape
    return stack.transpose(1, 0, 2).reshape(d, k * d)


def apply(ch: KrausChannel, rho: DensityMatrix) -> DensityMatrix:
    """Schroedinger-picture action sum_mu E_mu rho E_mu^dag, computed as
    [E_0 rho ... E_{k-1} rho] [E_0^dag; ...; E_{k-1}^dag]."""
    if rho.d != ch.d:
        raise DimensionMismatchError(f"state d={rho.d} vs channel d={ch.d}")
    k, d = len(ch.kraus), ch.d
    e_rho = (ch.kraus.reshape(-1, d) @ rho.m).reshape(k, d, d)
    return DensityMatrix(d=d, m=_side_by_side(e_rho) @ _side_by_side(ch.kraus).conj().T)


def dual_apply(ch: KrausChannel, obs) -> np.ndarray:
    """Heisenberg-picture action E^dag(O) = sum_mu E_mu^dag O E_mu, computed
    as [E_0^dag ... E_{k-1}^dag] [O E_0; ...; O E_{k-1}]."""
    obs = np.asarray(obs, dtype=complex)
    if obs.shape != (ch.d, ch.d):
        raise DimensionMismatchError(f"observable shape {obs.shape} vs channel d={ch.d}")
    k, d = len(ch.kraus), ch.d
    o_e = (obs @ _side_by_side(ch.kraus)).reshape(d, k, d).transpose(1, 0, 2)
    return ch.kraus.reshape(-1, d).conj().T @ o_e.reshape(-1, d)


def a_matrix(ch: KrausChannel) -> np.ndarray:
    """A = sum_mu E_mu E_mu^dag (diagonal iff Corollary-1 condition holds)."""
    e = _side_by_side(ch.kraus)
    return e @ e.conj().T


def transfer_matrix(ch: KrausChannel, basis: GeneratorBasis = None) -> TransferMatrix:
    """Transfer matrix T_ij = Tr[E^dag(X_i) X_j]/2 in the given basis.

    With G the rows vec(X_i) (X_0 first) and the superoperator
    S[(b,c),(a,d)] = sum_mu conj(E_mu[b,a]) E_mu[c,d], T = G S G^dag / 2
    (the X_j are Hermitian, so X_j[d,a] = conj(G[j,(a,d)])).
    """
    if basis is None:
        basis = gellmann_basis(ch.d)
    d = ch.d
    if basis.d != d:
        raise DimensionMismatchError(f"basis d={basis.d} vs channel d={d}")
    n = d * d
    g = np.concatenate(([basis.identity_element], basis.elements)).reshape(n, n)
    e = ch.kraus.reshape(-1, n)  # row mu is vec(E_mu)
    s = (e.conj().T @ e).reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(n, n)
    t = g @ s @ g.conj().T / 2.0
    if np.max(np.abs(t.imag)) > REAL_TOL:
        raise InvalidChannelError(
            f"transfer matrix has imaginary residue {np.max(np.abs(t.imag)):.3e}"
        )
    return TransferMatrix(d=ch.d, t=t.real)


def theorem1_condition(T: TransferMatrix, tol=CONDITION_TOL) -> bool:
    """True iff T_k0 = 0 for every off-diagonal generator row k."""
    k_max = T.d * T.d - T.d
    return bool(np.max(np.abs(T.t[1 : k_max + 1, 0])) <= tol)


def corollary1_check(ch: KrausChannel, tol=CONDITION_TOL) -> bool:
    """True iff A = sum E E^dag is diagonal."""
    a = a_matrix(ch)
    off = a - np.diag(np.diag(a))
    return bool(np.max(np.abs(off)) <= tol)


def is_unital(ch: KrausChannel, tol=CONDITION_TOL) -> bool:
    """True iff the channel fixes the maximally mixed state (A = I)."""
    return bool(np.max(np.abs(a_matrix(ch) - np.eye(ch.d))) <= tol)


def scalar_action_detect(T: TransferMatrix, subset, tol=CONDITION_TOL):
    """Return q if T acts as q * identity on every row in ``subset``.

    ``subset`` holds 1-based off-diagonal generator indices. Returns None
    when the rows are not a common rescaling.
    """
    subset = sorted(set(int(k) for k in subset))
    if not subset:
        return None
    k_max = T.d * T.d - T.d
    if subset[0] < 1 or subset[-1] > k_max:
        raise IndexError(f"subset must lie in 1..{k_max}")
    q = None
    for k in subset:
        row = T.t[k]
        if q is None:
            q = row[k]
        if abs(row[k] - q) > tol:
            return None
        rest = np.delete(row, k)
        if np.max(np.abs(rest)) > tol:
            return None
    return float(q)


def frozen_condition_check(T: TransferMatrix, fam: StateFamily = None, tol=CONDITION_TOL) -> bool:
    """Corollary-4 decision: does this transfer matrix freeze coherence?

    Without a family the full condition is tested: T^S block diagonal with
    orthogonal 2x2 blocks. With a family, blocks whose direction component
    n_{2r-1} (or n_{2r}) vanishes get the relaxed single-column test, and
    only couplings into coordinates the family actually populates count.
    """
    if not theorem1_condition(T, tol=tol):
        raise NotApplicableError(
            "frozen-coherence check requires the factorization precondition T_k0 = 0"
        )
    d = T.d
    d0 = (d * d - d) // 2
    s = T.s_block  # rows 0..d^2-d-1 are generators 1..d^2-d (0-based here)

    if fam is None:
        for r in range(1, d0 + 1):
            rows = slice(2 * r - 2, 2 * r)
            off = s[rows].copy()
            off[:, 2 * r - 2 : 2 * r] = 0.0
            if np.max(np.abs(off)) > tol:
                return False
            b = T.block(r)
            if np.max(np.abs(b.T @ b - np.eye(2))) > tol:
                return False
        return True

    n = np.asarray(fam.n, dtype=float)
    populated = np.abs(n) > tol
    for r in range(1, d0 + 1):
        i, j = 2 * r - 2, 2 * r - 1  # 0-based positions of the pair
        if not populated[i] and not populated[j]:
            continue
        # rows of this pair must not pick up populated coordinates outside it
        off = s[i : j + 1].copy()
        off[:, i : j + 1] = 0.0
        off[:, ~populated] = 0.0
        if np.max(np.abs(off)) > tol:
            return False
        b = T.block(r)
        if populated[i] and populated[j]:
            if np.max(np.abs(b.T @ b - np.eye(2))) > tol:
                return False
        elif populated[i]:  # n_{2r} = 0: only the first column enters
            if abs(b[0, 0] ** 2 + b[1, 0] ** 2 - 1.0) > tol:
                return False
        else:  # n_{2r-1} = 0: only the second column enters
            if abs(b[0, 1] ** 2 + b[1, 1] ** 2 - 1.0) > tol:
                return False
    return True


# ---------------------------------------------------------------------------
# named channels: the factories build unlabelled Kraus channels, and
# make_named attaches the name and the full parameter map.


def _require(cond, msg):
    if not cond:
        raise InvalidChannelError(msg)


def _pauli_flip(name, k):
    """Factory of the qubit channel that preserves sigma_k and shrinks the
    other two Paulis by q."""

    def flip(q):
        _require(0.0 <= q <= 1.0, f"{name} requires 0 <= q <= 1, got q={q}")
        w = np.sqrt([(1 + q) / 2, (1 - q) / 2])
        return kraus_channel(w[:, None, None] * _SIGMA[[0, k]])

    return flip


def phase_damping(q) -> KrausChannel:
    """Qubit phase damping scaling the off-diagonal elements by q."""
    _require(0.0 <= q <= 1.0, f"phase_damping requires 0 <= q <= 1, got q={q}")
    return kraus_channel([[[1.0, 0.0], [0.0, q]], [[0.0, 0.0], [0.0, np.sqrt(1 - q * q)]]])


def pauli(p0, p1, p2, p3) -> KrausChannel:
    """Pauli channel E(rho) = sum_i p_i sigma_i rho sigma_i."""
    p = np.array([p0, p1, p2, p3], dtype=float)
    _require(np.all(p >= 0) and abs(p.sum() - 1.0) <= 1e-12, "pauli probabilities must be a distribution")
    return kraus_channel((np.sqrt(p)[:, None, None] * _SIGMA)[p > 0])


def generalized_amplitude_damping(gamma, pbar) -> KrausChannel:
    """Qubit GAD channel with damping gamma toward a pbar/(1-pbar) mixture."""
    _require(0.0 <= gamma <= 1.0, f"gamma must be in [0,1], got {gamma}")
    _require(0.0 <= pbar <= 1.0, f"pbar must be in [0,1], got {pbar}")
    g = np.sqrt(gamma)
    gq = np.sqrt(1 - gamma)
    w = np.sqrt([pbar, pbar, 1 - pbar, 1 - pbar])
    ops = w[:, None, None] * np.array([
        [[1, 0], [0, gq]], [[0, g], [0, 0]], [[gq, 0], [0, 1]], [[0, 0], [g, 0]],
    ], dtype=complex)
    return kraus_channel(ops[np.abs(ops).max(axis=(1, 2)) > 0])


def gell_mann_G(d, q, q0) -> KrausChannel:
    """Generator-mixing channel whose dual multiplies every off-diagonal
    generator by q and every diagonal one by q0."""
    _require(d >= 2, f"gell_mann_G requires d >= 2, got d={d}")
    c1 = 1.0 - q0
    c2 = 1.0 - d * q + (d - 1) * q0
    c3 = 1.0 + (d * d - d) * q + (d - 1) * q0
    _require(c1 >= -1e-12, f"gell_mann_G requires 1 - q0 >= 0 (got {c1:.3e})")
    _require(c2 >= -1e-12, f"gell_mann_G requires 1 - d q + (d-1) q0 >= 0 (got {c2:.3e})")
    _require(c3 >= -1e-12, f"gell_mann_G requires 1 + (d^2-d) q + (d-1) q0 >= 0 (got {c3:.3e})")
    basis = gellmann_basis(d)
    n_off = basis.num_offdiag
    w = np.concatenate(([np.sqrt(max(c3, 0.0)) / d],
                        np.full(n_off, np.sqrt(max(c1, 0.0) / (2 * d))),
                        np.full(d - 1, np.sqrt(max(c2, 0.0) / (2 * d)))))
    gens = np.concatenate((np.eye(d, dtype=complex)[None], basis.elements))
    return kraus_channel((w[:, None, None] * gens)[w > 0], tol=1e-12)


def depolarizing(d, p) -> KrausChannel:
    """rho -> (1-p) rho + p I/d, realized as gell_mann_G(d, 1-p, 1-p)."""
    _require(d >= 2, f"depolarizing requires d >= 2, got d={d}")
    _require(0.0 <= p <= 1.0 + 1.0 / (d * d - 1), f"depolarizing requires p in range, got {p}")
    return gell_mann_G(d, 1.0 - p, 1.0 - p)


def make_frozen_qubit(variant, q, sign=+1) -> KrausChannel:
    """Single-Kraus qubit channels that freeze the l1 coherence.

    variant 'xy': E_0 = q sigma_x +/- q' sigma_y;
    variant 'z':  E_0 = q I +/- i q' sigma_z; q' = sqrt(1 - q^2).
    """
    _require(0.0 <= q <= 1.0, f"frozen qubit channel requires 0 <= q <= 1, got {q}")
    if sign not in (+1, -1):
        raise InvalidChannelError(f"sign must be +1 or -1, got {sign}")
    qp = np.sqrt(1.0 - q * q)
    if variant == "xy":
        e0 = q * _SIGMA[1] + sign * qp * _SIGMA[2]
    elif variant == "z":
        e0 = q * _SIGMA[0] + sign * 1j * qp * _SIGMA[3]
    else:
        raise InvalidChannelError(f"variant must be 'xy' or 'z', got {variant!r}")
    return kraus_channel(e0[None])


class ChannelEntry(NamedTuple):
    """One row of the named-channel table.

    ``factory`` takes ``d`` when ``takes_d``, then the values of the
    required ``keys`` and of the optional ``defaults`` (key, default value)
    pairs, in that order, and returns an unlabelled channel.
    """

    factory: Callable
    keys: tuple
    takes_d: bool = False
    defaults: tuple = ()


# The lambdas look their factory up by name at call time, so rebinding that
# module name (as a profiler's wrapper does) also reaches calls made here.
_NAMED = {
    "bit_flip": ChannelEntry(_pauli_flip("bit_flip", 1), ("q",)),
    "bit_phase_flip": ChannelEntry(_pauli_flip("bit_phase_flip", 2), ("q",)),
    "phase_flip": ChannelEntry(_pauli_flip("phase_flip", 3), ("q",)),
    "phase_damping": ChannelEntry(phase_damping, ("q",)),
    "pauli": ChannelEntry(pauli, ("p0", "p1", "p2", "p3")),
    "generalized_amplitude_damping": ChannelEntry(generalized_amplitude_damping, ("gamma", "pbar")),
    "amplitude_damping": ChannelEntry(lambda gamma: generalized_amplitude_damping(gamma, 1.0),
                                      ("gamma",)),
    "depolarizing": ChannelEntry(depolarizing, ("p",), takes_d=True),
    "gell_mann_G": ChannelEntry(gell_mann_G, ("q", "q0"), takes_d=True),
    "frozen_xy": ChannelEntry(lambda q, sign: make_frozen_qubit("xy", q, sign), ("q",),
                              defaults=(("sign", +1),)),
    "frozen_z": ChannelEntry(lambda q, sign: make_frozen_qubit("z", q, sign), ("q",),
                             defaults=(("sign", +1),)),
}


def named_channels():
    """Names accepted by make_named."""
    return sorted(_NAMED)


def channel_entry(name) -> ChannelEntry:
    """Table row of a named channel."""
    if name not in _NAMED:
        raise InvalidChannelError(f"unknown channel name {name!r}; known: {named_channels()}")
    return _NAMED[name]


def make_named(name, d=2, params=None) -> KrausChannel:
    """Construct a named channel from its parameter map. The channel is
    labelled ``name`` and carries every parameter, defaults included; a
    channel that does not take ``d`` is a qubit channel and needs d = 2."""
    entry = channel_entry(name)
    p = dict(params or {})
    missing = [k for k in entry.keys if k not in p]
    if missing:
        raise InvalidChannelError(f"channel {name!r} missing parameters {missing}")
    if not entry.takes_d and d != 2:
        raise InvalidChannelError(f"channel {name!r} is a qubit channel, got d={d}")
    args = {k: p[k] for k in entry.keys} | {k: p.get(k, v) for k, v in entry.defaults}
    ch = entry.factory(d, *args.values()) if entry.takes_d else entry.factory(*args.values())
    return KrausChannel(d=ch.d, kraus=ch.kraus, label=name, params=args)


def validate_frozen_coefficients(eps, tol=CONDITION_TOL) -> bool:
    """Frozen-coherence decision for a qubit Kraus set
    E_i = sum_j eps[i, j] sigma_j.

    The set must be a valid channel; returns True iff its transfer matrix
    meets the frozen-coherence condition (frozen_condition_check), and False
    when the factorization precondition fails.
    """
    eps = np.asarray(eps, dtype=complex)
    if eps.shape != (4, 4):
        raise InvalidChannelError(f"expected a 4x4 coefficient table, got {eps.shape}")
    ch = kraus_channel(np.tensordot(eps, _SIGMA, 1))  # raises InvalidChannelError on completeness failure
    try:
        return frozen_condition_check(transfer_matrix(ch), tol=tol)
    except NotApplicableError:
        return False


def pauli_coefficients(ops) -> np.ndarray:
    """Expand up to four qubit Kraus operators as eps[i, j] with
    E_i = sum_j eps[i, j] sigma_j."""
    ops = np.asarray(ops, dtype=complex)
    eps = np.zeros((4, 4), dtype=complex)
    eps[: len(ops)] = np.einsum("iab,jba->ij", ops, _SIGMA) / 2.0
    return eps


# ---------------------------------------------------------------------------
# auxiliary channel (N-qubit family generator)

EPS_TOL = -1e-10  # round-off on the solved Kraus weights
_AUX_SIGNS = _read_only(np.array(
    [[1, 1, 1, 1], [1, 1, -1, -1], [1, -1, 1, -1], [1, -1, -1, 1]], dtype=float))


def aux_coefficient_matrix(N) -> np.ndarray:
    """c_{nu mu} = 2^(1-N) (-1)^(sum_k xi_k), xi_k = 1 iff the base-4 digits
    nu_k, mu_k are nonzero and differ: the N-fold Kronecker power of the
    one-qubit sign table, scaled by 2^(1-N). Since c c = 4 I, c^-1 = c / 4."""
    return reduce(np.kron, [_AUX_SIGNS] * N, 2.0 ** (1 - N))


def aux_solve(rho: DensityMatrix, m, chi, basis: PauliTensorBasis) -> AuxSolve:
    """Solve c eps = q for the auxiliary channel steering rho onto the
    family member chi * m in the Pauli tensor picture."""
    N = basis.N
    if rho.d != 2**N:
        raise DimensionMismatchError(f"state d={rho.d} vs basis d={2**N}")
    m = np.asarray(m, dtype=float)
    if m.shape != (4**N - 1,):
        raise DimensionMismatchError(f"target direction needs {4**N - 1} components")
    y = np.einsum("ab,iba->i", rho.m, basis.elements).real
    live = m != 0  # m_nu = 0: annihilate the coordinate (q_nu = 0)
    dead = live & (np.abs(y) <= 1e-10)
    if dead.any():
        nu = int(np.argmax(dead)) + 1
        raise UnreachableTargetError(
            f"target coordinate {nu} is nonzero but the source coordinate vanishes",
            index=nu,
        )
    q = np.zeros(4**N)
    q[0] = 1.0
    q[1:][live] = chi * m[live] / y[live]
    c = aux_coefficient_matrix(N)
    return AuxSolve(N=N, c=c, q_vec=q, eps=c @ q / 4.0)


def aux_channel(rho: DensityMatrix, m, chi, basis: PauliTensorBasis) -> KrausChannel:
    """Auxiliary channel with Kraus set E_mu = sqrt(eps_mu) Y_mu mapping
    rho onto the family member with direction m and factor chi."""
    sol = aux_solve(rho, m, chi, basis)
    eps = sol.eps
    if np.min(eps) < EPS_TOL:
        raise NotAChannelError(
            f"no Kraus realization: solved weight eps[{int(np.argmin(eps))}] = {np.min(eps):.3e} < 0",
            eps=eps,
        )
    eps = np.clip(eps, 0.0, None)
    gens = np.concatenate(([basis.identity_element], basis.elements))
    ops = np.sqrt(eps)[:, None, None] * gens
    return kraus_channel(ops[eps > 0], label="aux", params={"chi": float(chi), "N": basis.N})


# ---------------------------------------------------------------------------
# random channels


def _haar_unitaries(count, n, rng):
    """(count, n, n) stack of Haar unitaries; each draws its real, then its
    imaginary n x n Gaussian block."""
    z = rng.standard_normal((count, 2, n, n))
    q, r = np.linalg.qr(z[:, 0] + 1j * z[:, 1])
    phases = np.diagonal(r, axis1=1, axis2=2)
    return q * (phases / np.abs(phases))[:, None, :]


def random_channel(d, k=None, seed=None) -> KrausChannel:
    """Random CPTP map from a Haar isometry on d*k dimensions (k Kraus
    operators via the stacked-block construction); default k = d^2."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    k = d * d if k is None else int(k)
    v = _haar_unitaries(1, d * k, rng)[0, :, :d]  # isometry; row block mu is E_mu
    return kraus_channel(v.reshape(k, d, d), label="random", params={"k": k})


def random_unital_channel(d, k=None, seed=None) -> KrausChannel:
    """Random unital CPTP map: a Dirichlet-weighted mixture of Haar
    unitaries (A = I, so the factorization condition holds)."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    k = d * d if k is None else int(k)
    p = rng.dirichlet(np.ones(k))
    ops = np.sqrt(p)[:, None, None] * _haar_unitaries(k, d, rng)
    return kraus_channel(ops, label="random_unital", params={"k": k})
