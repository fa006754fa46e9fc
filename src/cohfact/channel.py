"""Kraus channels, their Heisenberg-picture transfer matrices, the named
channel families, the frozen-coherence qubit constructions, and the
N-qubit auxiliary channel."""

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .basis import (
    _SIGMA,
    _by_row_blocks,
    _dimension_of,
    _read_only,
    gellmann_basis,
    pauli_tensor_basis,
    qubit_count,
    y_to_x_transform,
)
from .errors import (
    CohfactError,
    DimensionMismatchError,
    InvalidChannelError,
    NotAChannelError,
    NotApplicableError,
    UnreachableTargetError,
)
from .measures import l1_from_density
from .state import DensityMatrix, bloch_compose, bloch_decompose, coherence_weight

COMPLETENESS_TOL = 1e-10
CONDITION_TOL = 1e-10
REAL_TOL = 1e-12


@dataclass(frozen=True)
class KrausChannel:
    """CPTP map given by Kraus operators E_mu with sum E^dag E = I.

    ``kraus`` is a read-only (k, d, d) complex array; ``kraus[mu]`` is E_mu.
    make_named over an array of parameter values gives a (..., k, d, d)
    stack of channels instead, one per value; ``apply`` maps a state through
    such a stack, while the other functions take one channel.
    """

    kraus: np.ndarray
    label: str = ""
    params: dict = field(default_factory=dict)
    d = property(lambda self: self.kraus.shape[-1])


def kraus_channel(ops, label="", params=None, tol=COMPLETENESS_TOL) -> KrausChannel:
    """Build a KrausChannel from a (k, d, d) stack or a sequence of d x d
    operators, enforcing the completeness condition. A (..., k, d, d) stack
    holds one channel per leading index, each checked. The operators are
    copied once, so the caller's array stays writable."""
    try:
        kraus = np.array(ops, dtype=complex)
    except (TypeError, ValueError) as exc:
        raise InvalidChannelError(f"Kraus operators must be d x d numeric matrices of one size: {exc}") from exc
    if kraus.size == 0:
        raise InvalidChannelError("empty Kraus set")
    if kraus.ndim < 3 or kraus.shape[-2] != kraus.shape[-1]:
        raise InvalidChannelError(f"Kraus operators must be square d x d matrices, got shape {kraus.shape}")
    d = kraus.shape[-1]
    v = kraus.reshape(kraus.shape[:-3] + (-1, d))  # [E_0; E_1; ...], so V^dag V = sum E^dag E
    with np.errstate(over="ignore", invalid="ignore"):  # huge entries give an inf or NaN error
        err = np.max(np.abs(v.conj().swapaxes(-2, -1) @ v - np.eye(d)))
    if not err <= tol:
        # a NaN or inf entry makes its column's diagonal entry sum |E_ij|^2
        # non-finite, so only a refused set needs the scan
        if not np.all(np.isfinite(kraus)):
            raise InvalidChannelError("Kraus operators have non-finite entries")
        raise InvalidChannelError(f"completeness violated: |sum E^dag E - I| = {err:.3e}")
    return KrausChannel(_read_only(kraus), label=label, params=dict(params or {}))


def _side_by_side(stack):
    """(..., k, d, d) stack of B_mu as the (..., d, k d) matrix
    [B_0 B_1 ... B_{k-1}]."""
    k, d = stack.shape[-3], stack.shape[-1]
    return stack.swapaxes(-3, -2).reshape(stack.shape[:-3] + (d, k * d))


def apply(ch: KrausChannel, rho: DensityMatrix) -> DensityMatrix:
    """Schroedinger-picture action sum_mu E_mu rho E_mu^dag. With the Kraus
    set side by side, S = [E_0 ... E_{k-1}], and A = [E_0 rho ... E_{k-1}
    rho], the image is A S^dag: each entry one dot product over the k d
    columns. Leading axes broadcast: a state holding an (s, d, d) stack maps
    to the stack of the s images, and a (P, k, d, d) stack of channels maps
    one state to its P images, all P k products E_mu rho in one 2-D product.
    Leading shapes that do not broadcast raise DimensionMismatchError."""
    if rho.d != ch.d:
        raise DimensionMismatchError(f"state d={rho.d} vs channel d={ch.d}")
    lead, d = ch.kraus.shape[:-3], ch.d
    try:
        out = lead if rho.m.ndim == 2 else np.broadcast_shapes(lead, rho.m.shape[:-2])
    except ValueError:
        raise DimensionMismatchError(f"channel stack of shape {lead} vs state stack of shape "
                                     f"{rho.m.shape[:-2]}") from None
    s = _side_by_side(ch.kraus)  # the one copy of the set; its rows of d entries are the E_mu[i]
    rows = s.reshape((-1, d) if rho.m.ndim == 2 else lead + (-1, d))
    a = (rows @ rho.m).reshape(out + s.shape[-2:])  # row i of E_mu rho lands beside E_mu[i] in S
    return DensityMatrix(np.vecdot(s[..., None, :, :], a[..., :, None, :]))  # sum conj(S_jc) A_ic


def _one_channel(ch: KrausChannel):
    """The (k, d, d) Kraus set of a channel that is not a stack."""
    if ch.kraus.ndim != 3:
        raise InvalidChannelError(f"expected one channel, got a stack of shape {ch.kraus.shape[:-3]}")
    return ch.kraus


def dual_apply(ch: KrausChannel, obs) -> np.ndarray:
    """Heisenberg-picture action E^dag(O) = sum_mu E_mu^dag O E_mu, computed
    as [E_0^dag ... E_{k-1}^dag] [O E_0; ...; O E_{k-1}]."""
    _one_channel(ch)
    obs = np.asarray(obs, dtype=complex)
    if obs.shape != (ch.d, ch.d):
        raise DimensionMismatchError(f"observable shape {obs.shape} vs channel d={ch.d}")
    k, d = len(ch.kraus), ch.d
    o_e = (obs @ _side_by_side(ch.kraus)).reshape(d, k, d).transpose(1, 0, 2)
    return ch.kraus.reshape(-1, d).conj().T @ o_e.reshape(-1, d)


def transfer_matrix(ch: KrausChannel) -> np.ndarray:
    """Real (d^2, d^2) Heisenberg-picture transfer matrix T_ij =
    Tr[E^dag(X_i) X_j]/2 in the Gell-Mann basis, row and column 0 for X_0,
    so Bloch coordinates evolve as x'_i = sum_j T_ij x_j with the fixed
    coordinate x_0 = sqrt(2/d).

    With G the rows vec(X_i) (X_0 first) and the superoperator
    S[(b,c),(a,d)] = sum_mu conj(E_mu[b,a]) E_mu[c,d], T = G S G^dag / 2
    (the X_j are Hermitian, so X_j[d,a] = conj(G[j,(a,d)])).

    T is returned in column-major (Fortran) order, so that T^T, which the
    row-block products of factorization take, is C-contiguous: one copy per
    transfer matrix rather than one per product.
    """
    d = ch.d
    n = d * d
    g = np.concatenate(([np.sqrt(2.0 / d) * np.eye(d)], gellmann_basis(d))).reshape(n, n)
    e = _one_channel(ch).reshape(-1, n)  # row mu is vec(E_mu)
    s = (e.conj().T @ e).reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(n, n)
    t = g @ s @ g.conj().T / 2.0
    if np.max(np.abs(t.imag)) > REAL_TOL:
        raise InvalidChannelError(
            f"transfer matrix has imaginary residue {np.max(np.abs(t.imag)):.3e}"
        )
    return np.asfortranarray(t.real)


def _maximally_mixed_image(T):
    """Gell-Mann coordinates of E(I/d), and d, read off column 0 of the
    transfer matrix T: I/d has x_0 = sqrt(2/d) alone, so x_i = sqrt(2/d) T_i0."""
    d = _dimension_of(T, "transfer")
    return np.sqrt(2.0 / d) * T[1:, 0], d


def theorem1_condition(T) -> bool:
    """Theorem 1's T_k0 = 0 on the off-diagonal rows of T, read as E(I/d)
    incoherent: c0 = C_l1[E(I/d)] = sqrt(2/d) g(T_coh,0) <= CONDITION_TOL."""
    x, d = _maximally_mixed_image(T)
    return bool(coherence_weight(x) <= CONDITION_TOL)


def _lemma1_condition(T) -> bool:
    """Lemma 1's unitality E(I/d) = I/d, read as sum_jk |E(I/d) - I/d|_jk <=
    CONDITION_TOL; the off-diagonal part of that sum is c0."""
    x, d = _maximally_mixed_image(T)
    return bool(np.sum(np.abs(bloch_compose(x).m - np.eye(d) / d)) <= CONDITION_TOL)


def corollary1_check(ch: KrausChannel) -> bool:
    """Corollary 1's A = sum E E^dag diagonal, read as c0 = C_l1(A)/d <= CONDITION_TOL
    with A/d = E(I/d) from apply on one channel's Kraus set, not through T."""
    d = _one_channel(ch).shape[-1]
    return bool(l1_from_density(apply(ch, DensityMatrix(np.eye(d) / d)).m) <= CONDITION_TOL)


def scalar_actions(T, populated) -> np.ndarray:
    """The scalar q by which T acts on each set of populated off-diagonal
    generator rows, one set per row of the (..., d^2 - d) boolean mask
    ``populated``: every populated row k must be q on its own diagonal
    entry T_kk and 0 elsewhere. NaN where the rows are no common rescaling
    or none is populated; one masked read of T serves every set."""
    k_max = len(T) - _dimension_of(T, "transfer")
    rows = T[1 : k_max + 1]
    diag = np.diagonal(rows, offset=1)  # T_kk of the rows k = 1..k_max
    own = np.arange(len(T)) == np.arange(1, k_max + 1)[:, None]
    clean = np.all(np.abs(np.where(own, 0.0, rows)) <= CONDITION_TOL, axis=1)
    populated = np.asarray(populated, dtype=bool)
    q = diag[np.argmax(populated, axis=-1)]  # T_kk of the first populated row
    scalar = clean & (np.abs(diag - q[..., None]) <= CONDITION_TOL)
    ok = populated.any(axis=-1) & np.all(scalar | ~populated, axis=-1)
    return np.where(ok, q, np.nan)


def frozen_condition_check(T, n=None) -> bool:
    """Corollary-4 decision: does this transfer matrix freeze coherence?
    NotApplicableError unless theorem1_condition holds, c0 = C_l1[E(I/d)] <=
    CONDITION_TOL. T^S must then be block diagonal with orthogonal 2x2 blocks,
    read on the coordinates the family direction ``n`` populates (|n_i| >
    CONDITION_TOL; all without ``n``): a pair with a populated coordinate must
    not couple into populated coordinates outside its block, and its block's
    Gram matrix b^T b must be I on the entries whose two columns are both
    populated. A direction with a NaN or infinite component raises
    CohfactError first: NaN fails every comparison, so reads as unpopulated."""
    d = _dimension_of(T, "transfer")
    k, d0 = d * d - 1, (d * d - d) // 2
    if n is not None:
        n = np.asarray(n, dtype=float)
        if n.shape != (k,):
            raise DimensionMismatchError(f"family direction has shape {n.shape}, "
                                         f"expected ({k},) for the transfer matrix's d={d}")
        bad = ~np.isfinite(n)
        if bad.any():
            i = int(np.argmax(bad))
            raise CohfactError(f"family direction has a non-finite component n[{i}] = {n[i]}")
    if not theorem1_condition(T):
        raise NotApplicableError(
            "frozen-coherence check requires the factorization precondition T_k0 = 0"
        )
    populated = np.full(k, True) if n is None else np.abs(n) > CONDITION_TOL
    pair = populated[: 2 * d0].reshape(d0, 2)
    rows = T[1 : 2 * d0 + 1, 1:].reshape(d0, 2, k)  # the two rows of each pair
    r = np.arange(d0)
    blocks = rows[:, :, : 2 * d0].reshape(d0, 2, d0, 2)[r, :, r]
    gram = blocks.swapaxes(1, 2) @ blocks - np.eye(2)
    coupled = pair.any(axis=1)[:, None] & populated & (np.arange(k) // 2 != r[:, None])
    return bool(np.all(np.abs(rows.swapaxes(0, 1)[:, coupled]) <= CONDITION_TOL)
                and np.all(np.abs(gram[pair[:, :, None] & pair[:, None, :]]) <= CONDITION_TOL))


# ---------------------------------------------------------------------------
# named channels: the factories build unlabelled Kraus channels, and
# make_named attaches the name and the full parameter map. Each factory
# takes scalar parameters, or arrays of values that broadcast together, and
# returns the (..., k, d, d) stack of the channels at those values; a scalar
# is the 0-d case. Every value is range-checked before any is used.


def _require(ok, msg, *values):
    """Raise InvalidChannelError unless ``ok`` holds at every parameter
    value. ``msg`` is formatted with ``values`` at the first value where it
    fails; a scalar is formatted as given."""
    ok = np.asarray(ok)
    if not ok.all():
        i = int(np.argmin(ok.ravel()))
        raise InvalidChannelError(msg.format(*(
            v if np.ndim(v) == 0 else np.broadcast_to(v, ok.shape).flat[i] for v in values)))


def _in_unit_interval(q):
    x = np.asarray(q, dtype=float)
    return (0.0 <= x) & (x <= 1.0)


def _nonzero(ops, w):
    """The operators of a (..., k, d, d) stack whose weight ``w`` is nonzero
    at some parameter value: one channel keeps its nonzero operators, and a
    stack keeps an operator unless it is zero in every channel, so that every
    channel has the same k. A zero operator adds nothing to a channel's action.
    The stack is copied only when an operator goes."""
    keep = np.reshape(w > 0, (-1, w.shape[-1])).any(axis=0)
    return ops if keep.all() else ops[..., keep, :, :]


def _pauli_flip(name, k):
    """Factory of the qubit channel that preserves sigma_k and shrinks the
    other two Paulis by q."""

    def flip(q):
        _require(_in_unit_interval(q), f"{name} requires 0 <= q <= 1, got q={{}}", q)
        x = np.asarray(q, dtype=float)
        w = np.sqrt(np.stack([(1 + x) / 2, (1 - x) / 2], axis=-1))
        return kraus_channel(w[..., None, None] * _SIGMA[[0, k]])

    return flip


def phase_damping(q) -> KrausChannel:
    """Qubit phase damping scaling the off-diagonal elements by q."""
    _require(_in_unit_interval(q), "phase_damping requires 0 <= q <= 1, got q={}", q)
    x = np.asarray(q, dtype=float)
    ops = np.zeros(x.shape + (2, 2, 2), dtype=complex)
    ops[..., 0, 0, 0] = 1.0
    ops[..., 0, 1, 1] = x
    ops[..., 1, 1, 1] = np.sqrt(1 - x * x)
    return kraus_channel(ops)


def pauli(p0, p1, p2, p3) -> KrausChannel:
    """Pauli channel E(rho) = sum_i p_i sigma_i rho sigma_i."""
    p = np.moveaxis(np.array(np.broadcast_arrays(p0, p1, p2, p3), dtype=float), 0, -1)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite sum fails the check
        ok = np.all(p >= 0, axis=-1) & (np.abs(p.sum(axis=-1) - 1.0) <= 1e-12)
    _require(ok, "pauli probabilities must be a distribution")
    return kraus_channel(_nonzero(np.sqrt(p)[..., None, None] * _SIGMA, p))


def generalized_amplitude_damping(gamma, pbar) -> KrausChannel:
    """Qubit GAD channel with damping gamma toward a pbar/(1-pbar) mixture."""
    _require(_in_unit_interval(gamma), "gamma must be in [0,1], got {}", gamma)
    _require(_in_unit_interval(pbar), "pbar must be in [0,1], got {}", pbar)
    gamma, pbar = np.asarray(gamma, dtype=float), np.asarray(pbar, dtype=float)
    ops = np.zeros(np.broadcast_shapes(gamma.shape, pbar.shape) + (4, 2, 2), dtype=complex)
    ops[..., 0, 0, 0] = ops[..., 2, 1, 1] = 1.0
    ops[..., 0, 1, 1] = ops[..., 2, 0, 0] = np.sqrt(1 - gamma)
    ops[..., 1, 0, 1] = ops[..., 3, 1, 0] = np.sqrt(gamma)
    ops *= np.sqrt(np.stack(np.broadcast_arrays(pbar, pbar, 1 - pbar, 1 - pbar), axis=-1))[..., None, None]
    # E_mu holds its scalar factor, sqrt(pbar) or sqrt(1 - pbar) times 1 or sqrt(gamma), as one entry
    return kraus_channel(_nonzero(ops, ops[..., range(4), [0, 0, 1, 1], [0, 1, 1, 0]].real))


def gell_mann_G(d, q, q0) -> KrausChannel:
    """Generator-mixing channel whose dual multiplies every off-diagonal
    generator by q and every diagonal one by q0."""
    _require(d >= 2, f"gell_mann_G requires d >= 2, got d={d}")
    q, q0 = np.asarray(q, dtype=float), np.asarray(q0, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite c fails a check
        c1 = 1.0 - q0
        c2 = 1.0 - d * q + (d - 1) * q0
        c3 = 1.0 + (d * d - d) * q + (d - 1) * q0
    _require(c1 >= -1e-12, "gell_mann_G requires 1 - q0 >= 0 (got {:.3e})", c1)
    _require(c2 >= -1e-12, "gell_mann_G requires 1 - d q + (d-1) q0 >= 0 (got {:.3e})", c2)
    _require(c3 >= -1e-12, "gell_mann_G requires 1 + (d^2-d) q + (d-1) q0 >= 0 (got {:.3e})", c3)
    n_off = d * d - d
    w = np.empty(c2.shape + (d * d,))  # c2 depends on q and q0, so it has their broadcast shape
    w[..., 0] = np.sqrt(np.maximum(c3, 0.0)) / d
    w[..., 1 : n_off + 1] = np.sqrt(np.maximum(c1, 0.0) / (2 * d))[..., None]
    w[..., n_off + 1 :] = np.sqrt(np.maximum(c2, 0.0) / (2 * d))[..., None]
    gens = np.concatenate((np.eye(d, dtype=complex)[None], gellmann_basis(d)))
    return kraus_channel(_nonzero(w[..., None, None] * gens, w), tol=1e-12)


def depolarizing(d, p) -> KrausChannel:
    """rho -> (1-p) rho + p I/d, realized as gell_mann_G(d, 1-p, 1-p)."""
    _require(d >= 2, f"depolarizing requires d >= 2, got d={d}")
    x = np.asarray(p, dtype=float)
    _require((0.0 <= x) & (x <= 1.0 + 1.0 / (d * d - 1)), "depolarizing requires p in range, got {}", p)
    return gell_mann_G(d, 1.0 - x, 1.0 - x)


def make_frozen_qubit(variant, q, sign=+1) -> KrausChannel:
    """Single-Kraus qubit channels that freeze the l1 coherence.

    variant 'xy': E_0 = q sigma_x +/- q' sigma_y;
    variant 'z':  E_0 = q I +/- i q' sigma_z; q' = sqrt(1 - q^2).
    """
    _require(_in_unit_interval(q), "frozen qubit channel requires 0 <= q <= 1, got {}", q)
    if sign not in (+1, -1):
        raise InvalidChannelError(f"sign must be +1 or -1, got {sign}")
    x = np.asarray(q, dtype=float)[..., None, None]
    qp = np.sqrt(1.0 - x * x)
    if variant == "xy":
        e0 = x * _SIGMA[1] + sign * qp * _SIGMA[2]
    elif variant == "z":
        e0 = x * _SIGMA[0] + sign * 1j * qp * _SIGMA[3]
    else:
        raise InvalidChannelError(f"variant must be 'xy' or 'z', got {variant!r}")
    return kraus_channel(e0[..., None, :, :])


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


def _finite(value):
    """True iff ``value`` is a finite real number or a NumPy array of them:
    not a boolean, a string, a list or an integer too large for a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.number, np.ndarray)):
        return False
    x = np.asarray(value)
    return x.dtype.kind in "iuf" and bool(np.isfinite(x).all())


def make_named(name, d=2, params=None) -> KrausChannel:
    """Construct a named channel from its parameter map. The channel is
    labelled ``name`` and carries every parameter, defaults included; a
    channel that does not take ``d`` is a qubit channel and needs d = 2.
    Every parameter must be a key of the channel's table row and a finite
    real number; parameters given as NumPy arrays build the (..., k, d, d)
    stack of the channels at their broadcast values."""
    entry = channel_entry(name)
    p = dict(params or {})
    known = set(entry.keys) | {k for k, _ in entry.defaults}
    unknown = sorted(set(p) - known)
    if unknown:
        raise InvalidChannelError(f"channel 'params' of {name!r} has unknown keys {unknown}; "
                                  f"known: {sorted(known)}")
    for key, value in p.items():
        if not _finite(value):
            raise InvalidChannelError(f"channel 'params' entry {key!r} must be a finite number, got {value!r}")
    missing = [k for k in entry.keys if k not in p]
    if missing:
        raise InvalidChannelError(f"channel {name!r} missing parameters {missing}")
    if not entry.takes_d and d != 2:
        raise InvalidChannelError(f"channel {name!r} is a qubit channel, got d={d}")
    args = {k: p[k] for k in entry.keys} | {k: p.get(k, v) for k, v in entry.defaults}
    ch = entry.factory(d, *args.values()) if entry.takes_d else entry.factory(*args.values())
    return KrausChannel(ch.kraus, label=name, params=args)


def validate_frozen_coefficients(eps) -> bool:
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
        return frozen_condition_check(transfer_matrix(ch))
    except NotApplicableError:
        return False


# ---------------------------------------------------------------------------
# auxiliary channel (N-qubit family generator)

EPS_TOL = -1e-10  # round-off on the solved Kraus weights
_AUX_SIGNS = _read_only(np.array(
    [[1, 1, 1, 1], [1, 1, -1, -1], [1, -1, 1, -1], [1, -1, -1, 1]], dtype=float))


def _aux_signs(v):
    """c v for rows v of 4^N entries, c_{nu mu} = 2^(1-N) (-1)^(sum_k xi_k), xi_k = 1 iff the base-4 digits nu_k,
    mu_k are nonzero and differ: c = 2^(1-N) S x ... x S for the symmetric S = _AUX_SIGNS, and c c = 4 I. Each of N
    passes moves the leading digit last and multiplies it by S (arXiv:2310.13421), every entry a sum of 4 terms."""
    N = qubit_count(_dimension_of(v, "weights"))
    for _ in range(N):
        v = (np.swapaxes(v.reshape(-1, 4, 4 ** (N - 1)), 1, 2).reshape(-1, 4) @ _AUX_SIGNS).reshape(v.shape)
    return 2.0 ** (1 - N) * v


def _pauli_coordinates(rho: DensityMatrix) -> np.ndarray:
    """Pauli tensor coordinates y = x a of d = 2^N states: x = bloch_decompose(rho), a = y_to_x_transform(N)."""
    return _by_row_blocks(bloch_decompose(rho), y_to_x_transform(qubit_count(rho.d)))


def aux_weights(y, m, chi):
    """Weights eps of the auxiliary channels steering d = 2^N states with Pauli
    coordinates y (_pauli_coordinates) onto the family members chi * m, in the
    N-qubit Pauli tensor basis, and the mask of the target coordinates they cannot reach.

    eps = c q / 4 solves c eps = q (_aux_signs), with q_0 = 1 and q_nu = chi
    m_nu / y_nu. A target coordinate m_nu != 0 over a vanishing y_nu (|y_nu|
    <= 1e-10) is unreachable, whatever chi; its row's weights are meaningless.
    A non-finite chi or m_nu raises CohfactError; overflowing weights are inf."""
    y, m, chi = (np.asarray(a, dtype=float) for a in (y, m, chi))
    if m.shape[-1:] != y.shape[-1:]:
        raise DimensionMismatchError(f"target direction needs {y.shape[-1]} components")
    if not np.all(np.isfinite(chi)):
        raise CohfactError(f"chi must be finite, got chi={chi}")
    if not np.isfinite(m).all():
        i = np.unravel_index(np.argmin(np.isfinite(m)), m.shape)
        raise CohfactError(f"target direction has a non-finite component m{[int(k) for k in i]} = {m[i]}")
    live = m != 0  # m_nu = 0: annihilate the coordinate (q_nu = 0)
    unreachable = live & (np.abs(y) <= 1e-10)
    q = np.ones(m.shape[:-1] + (m.shape[-1] + 1,))  # q_0 = 1
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # non-finite weights fail later
        q[..., 1:] = np.where(live & ~unreachable, chi[..., None] * m / y, 0.0)
        eps = _aux_signs(q) / 4.0
    return eps, unreachable


def aux_solve(rho: DensityMatrix, m, chi) -> np.ndarray:
    """Weights eps of aux_weights, raising UnreachableTargetError, which
    names the first unreachable coordinate, when a row has one."""
    eps, unreachable = aux_weights(_pauli_coordinates(rho), m, chi)
    if unreachable.any():
        nu = int(np.argmax(unreachable.reshape(-1, unreachable.shape[-1]).any(axis=0))) + 1
        raise UnreachableTargetError(f"target coordinate {nu} is nonzero but the source coordinate vanishes",
                                     index=nu)
    return eps


def _realizable(eps):
    """Weights eps clipped at 0; NotAChannelError if one is NaN or below EPS_TOL."""
    eps = np.asarray(eps, dtype=float)
    if not np.all(eps >= EPS_TOL):
        flat = eps.reshape(-1, eps.shape[-1])
        row = int(np.argmin(np.all(flat >= EPS_TOL, axis=1)))  # the first row that fails
        i = int(np.argmin(flat[row]))  # its most negative weight, or its first NaN
        raise NotAChannelError(
            f"no Kraus realization: solved weight eps[{i}] = {flat[row, i]:.3e} < 0", eps=flat[row])
    return np.clip(eps, 0.0, None)


def aux_pauli_action(eps) -> np.ndarray:
    """The factors lambda = c eps (_aux_signs), one row per row of weights eps of
    aux_solve, by which their auxiliary channel scales each Pauli tensor
    coordinate, lambda_0 (the trace) first: Y_mu Y_nu Y_mu = c_{nu mu} Y_nu.
    Raises NotAChannelError as aux_kraus_channel does, and
    InvalidChannelError if |lambda_0 - 1| = |sum E^dag E - I| exceeds
    COMPLETENESS_TOL for the clipped weights."""
    lam = _aux_signs(_realizable(eps))
    err = np.max(np.abs(lam[..., 0] - 1.0))
    if not err <= COMPLETENESS_TOL:
        raise InvalidChannelError(f"completeness violated: |sum E^dag E - I| = {err:.3e}")
    return lam


def aux_kraus_channel(eps, chi) -> KrausChannel:
    """Auxiliary channel with Kraus set E_mu = sqrt(eps_mu) Y_mu, the Y_mu
    of the Pauli tensor basis, from the weights eps of aux_solve at factor
    chi; raises NotAChannelError unless every weight is >= EPS_TOL. The rows
    of (s, 4^N) weights give the (s, k, d, d) stack of their channels, each
    keeping the operators whose weight is nonzero in some row."""
    eps = _realizable(eps)
    N = qubit_count(_dimension_of(eps, "weights"))
    gens = np.concatenate(([np.sqrt(2.0 ** (1 - N)) * np.eye(2**N)], pauli_tensor_basis(N)))
    ops = np.sqrt(eps)[..., None, None] * gens
    return kraus_channel(_nonzero(ops, eps), label="aux",
                         params={"chi": np.asarray(chi, dtype=float).tolist(), "N": N})


def aux_channel(rho: DensityMatrix, m, chi) -> KrausChannel:
    """Auxiliary channel mapping rho onto the family member with direction
    m and factor chi: aux_kraus_channel of the weights of aux_solve. An
    (s, d, d) stack of states with s directions and factors gives the
    (s, 4^N, d, d) stack of their channels."""
    return aux_kraus_channel(aux_solve(rho, m, chi), chi)


# ---------------------------------------------------------------------------
# random channels


def _haar_isometries(count, n, m, rng):
    """(count, n, m) stack of Haar isometries, the first m columns of Haar
    unitaries on n dimensions: the thin QR of a complex Gaussian, with R's
    diagonal phases divided out (Mezzadri, Notices AMS 54, 592 (2007)).
    Each draws its real, then its imaginary n x m Gaussian block."""
    z = rng.standard_normal((count, 2, n, m))
    q, r = np.linalg.qr(z[:, 0] + 1j * z[:, 1])
    phases = np.diagonal(r, axis1=1, axis2=2)
    return q * (phases / np.abs(phases))[:, None, :]


def random_channel(d, k=None, seed=None) -> KrausChannel:
    """Random CPTP map from a Haar isometry from d into d*k dimensions (k
    Kraus operators via the stacked-block construction); default k = d^2.
    The isometry costs O(d^3 k) time and O(d^2 k) memory, so d = 32 with
    its default k = 1024 takes a 16 MiB draw."""
    rng = np.random.default_rng(seed)  # a Generator passes through unchanged
    k = d * d if k is None else int(k)
    v = _haar_isometries(1, d * k, d, rng)[0]  # row block mu is E_mu
    return kraus_channel(v.reshape(k, d, d), label="random", params={"k": k})


def random_unital_channel(d, k=None, seed=None) -> KrausChannel:
    """Random unital CPTP map: a Dirichlet-weighted mixture of Haar
    unitaries (A = I, so the factorization condition holds)."""
    rng = np.random.default_rng(seed)  # a Generator passes through unchanged
    k = d * d if k is None else int(k)
    p = rng.dirichlet(np.ones(k))
    ops = np.sqrt(p)[:, None, None] * _haar_isometries(k, d, d, rng)
    return kraus_channel(ops, label="random_unital", params={"k": k})
