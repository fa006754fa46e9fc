"""Verification drivers for the coherence-evolution laws: the probe-state
factorization relation, its scalar and purity variants, the cascaded
N-qubit generalization, and frozen-coherence sweeps."""

from dataclasses import dataclass, fields

import numpy as np

from .basis import gellmann_basis, pauli_tensor_basis, qubit_count
from .channel import (
    CONDITION_TOL,
    KrausChannel,
    apply,
    aux_channel,
    channel_entry,
    make_named,
    scalar_actions,
    theorem1_condition,
    transfer_matrix,
)
from .errors import (
    DimensionMismatchError,
    InvalidChannelError,
    NotApplicableError,
)
from .measures import l1_from_density, purity_measure
from .state import (
    DensityMatrix,
    StateFamily,
    bloch_compose,
    bloch_decompose,
    is_psd,
    probe_factor,
)

# Bound on the complex entries of the (2s, k, d, d) product one chunk of
# verify trials runs through (16 MiB). It bounds a run's memory whatever its
# trial count; sweeps have their own bound, SWEEP_CHUNK_ENTRIES.
CHUNK_ENTRIES = 1 << 20

# Bound on the complex entries of the (P, k, d, d) Kraus stack of one chunk
# of sweep points (128 KiB). A chunk's stack and its temporaries then stay
# in cache and in the heap the allocator keeps, so a sweep does not fault
# fresh pages in on every call; each point is computed on its own, so the
# output does not depend on the bound.
SWEEP_CHUNK_ENTRIES = 1 << 13


@dataclass(frozen=True)
class FactorizationReport:
    """Both sides of a factorization law and its flags for one trial, or,
    from verify_families, arrays with one entry per family."""

    lhs: float
    rhs: float
    abs_err: float
    probe_physical: bool
    condition_held: bool

    def within(self, tol):
        return self.abs_err <= tol


def _law(measure_fn, ch: KrausChannel, states: DensityMatrix, condition) -> FactorizationReport:
    """Both sides of M[E(rho)] = M(rho) M[E(rho_p)] and their flags for the
    (2s, d, d) stack ``states`` of s states rho, then their s probes rho_p,
    mapped by the channel in one product; ``condition`` is the channel
    condition's outcome."""
    s = len(states.m) // 2
    before = measure_fn(states.m[:s])
    after = measure_fn(apply(ch, states).m)
    lhs, rhs = after[:s], before * after[s:]
    return FactorizationReport(
        lhs=lhs,
        rhs=rhs,
        abs_err=np.abs(lhs - rhs),
        probe_physical=is_psd(states.m[s:]),
        condition_held=np.full(s, condition),
    )


def verify_families(measure, ch: KrausChannel, n, chi, t=None) -> FactorizationReport:
    """Both sides of M[E(rho)] = M(rho) M[E(rho_p)] for the s families with
    the unit directions in the rows of n and the factors in chi, for the
    measure M = 'l1' (Theorem 1) or 'purity' (Lemma 1).

    The s members and s probes are composed as one (2s, d, d) stack and
    mapped by the channel in one product. The l1 probe has chi_p = 1/g(n^s);
    the purity probe solves chi_p^2 / 2 = 1 (chi_p = sqrt(2)). Probes
    outside the physical range are kept and flagged. The channel condition
    (T_k0 = 0 on the off-diagonal rows for l1, full unitality for purity)
    is read from ``t``, the channel's transfer matrix, built here when not
    given. A failed condition never aborts: its reports are counterexample
    probes. Returns a report whose fields are arrays of s entries.
    """
    if measure not in ("l1", "purity"):
        raise NotApplicableError(f"no factorization decomposition for measure {measure!r}")
    n = np.asarray(n, dtype=float)
    chi = np.asarray(chi, dtype=float)
    if t is None:
        t = transfer_matrix(ch)
    if measure == "l1":
        chi_p, measure_fn, condition = probe_factor(n, ch.d), l1_from_density, theorem1_condition(t)
    else:  # all T_k0 = 0: unital
        chi_p, measure_fn = np.full(len(chi), np.sqrt(2.0)), purity_measure
        condition = bool(np.max(np.abs(t[1:, 0])) <= CONDITION_TOL)
    states = bloch_compose(np.concatenate((chi[:, None] * n, chi_p[:, None] * n)), gellmann_basis(ch.d))
    return _law(measure_fn, ch, states, condition)


def _first(rep: FactorizationReport) -> FactorizationReport:
    """The one-trial report of a report over a stack of one."""
    return FactorizationReport(**{f.name: getattr(rep, f.name)[0].item() for f in fields(rep)})


def verify_theorem1(ch: KrausChannel, fam: StateFamily) -> FactorizationReport:
    """Both sides of C[E(rho)] = C(rho) C[E(rho_p)] for one family: the
    one-family case of verify_families.

    Never aborts on a failed channel condition: a report with
    ``condition_held=False`` is a counterexample probe."""
    return verify_lemma1("l1", ch, fam)


def verify_lemma1(measure, ch: KrausChannel, fam: StateFamily) -> FactorizationReport:
    """Factorization check of one family for a named measure ('l1' or
    'purity'): the one-family case of verify_families."""
    if fam.d != ch.d:
        raise DimensionMismatchError(f"family d={fam.d} vs channel d={ch.d}")
    return _first(verify_families(measure, ch, np.asarray(fam.n, dtype=float)[None], [fam.chi]))


def verify_corollary2(ch: KrausChannel, rho: DensityMatrix, t=None) -> FactorizationReport:
    """Scalar-action law C[E(rho)] = |q| C(rho) on the coordinates rho
    populates; ``t`` is the channel's transfer matrix, built when not given.

    A state holding an (s, d, d) stack gives a report of arrays: one masked
    read of ``t`` gives every state's q, and the stack goes through the
    channel in one product. Raises NotApplicableError if a state populates
    no off-diagonal coordinate or the channel has no common scalar on the
    ones it populates."""
    if rho.m.ndim == 2:
        return _first(verify_corollary2(ch, DensityMatrix(d=rho.d, m=rho.m[None]), t))
    basis = gellmann_basis(rho.d)
    populated = np.abs(bloch_decompose(rho, basis)[:, : basis.num_offdiag]) > 1e-12
    if not populated.any(axis=1).all():
        raise NotApplicableError("state has no off-diagonal coordinates; nothing to rescale")
    if t is None:
        t = transfer_matrix(ch)
    q = scalar_actions(t, populated)
    if np.isnan(q).any():
        raise NotApplicableError("channel has no common scalar action on the populated coordinates")
    lhs = l1_from_density(apply(ch, rho).m)
    rhs = np.abs(q) * l1_from_density(rho.m)
    s = len(q)
    return FactorizationReport(lhs=lhs, rhs=rhs, abs_err=np.abs(lhs - rhs),
                               probe_physical=np.full(s, True), condition_held=np.full(s, True))


def verify_cascade(ch_f: KrausChannel, rho: DensityMatrix, m, chi, t=None) -> FactorizationReport:
    """Cascaded relation C[E_F E_aux(rho)] = C[E_aux(rho)] C[E_F(rho_p^m)].

    The probe factor chi_p = 1/g(m) makes the probe's l1 coherence 1; g(m)
    is the l1 coherence of (1/2) m.Y, the direction in any basis, so it is
    read off the composed direction, which chi_p then rescales. ``t`` is
    the transfer matrix of E_F, built when not given. An (s, d, d) stack of
    states with (s, 4^N - 1) directions and s factors gives a report of
    arrays: the s auxiliary channels map their states as one (s, 4^N, d, d)
    stack, and E_F maps the s images and the s probes as one stack."""
    m = np.asarray(m, dtype=float)
    if rho.m.ndim == 2:
        return _first(verify_cascade(ch_f, DensityMatrix(d=rho.d, m=rho.m[None]), m[None], [chi], t))
    sigma = apply(aux_channel(rho, m, chi), rho).m
    direction = 0.5 * np.tensordot(m, pauli_tensor_basis(qubit_count(rho.d)).elements, 1)  # (1/2) m.Y
    g = l1_from_density(direction)
    if np.any(g <= 1e-12):
        raise NotApplicableError("target direction has no coherent part")
    probes = np.eye(rho.d) / rho.d + direction / g[:, None, None]
    condition = theorem1_condition(transfer_matrix(ch_f) if t is None else t)
    return _law(l1_from_density, ch_f, DensityMatrix(d=rho.d, m=np.concatenate((sigma, probes))), condition)


@dataclass(frozen=True)
class Trajectory:
    """Coherence and purity along a channel-parameter sweep."""

    params: np.ndarray
    values: np.ndarray
    purities: np.ndarray
    frozen: bool
    spread: float


def freeze_trajectory(name, grid, rho: DensityMatrix, d=2, params=None, tol=1e-9) -> Trajectory:
    """Sweep C_l1(E_q(rho)) and P(E_q(rho)) of the named channel over the
    values q in ``grid`` of its one required parameter; any other
    parameter (the sign of frozen_xy and frozen_z) comes from ``params``.
    Frozen iff the coherence's max - min <= tol.

    The grid is evaluated in chunks: one make_named call builds a chunk's
    channels as a (P, k, d, d) stack, and one product maps rho through all
    of them. Every named channel has k <= d^2, so a chunk of
    SWEEP_CHUNK_ENTRIES // d^4 points keeps the stack within
    SWEEP_CHUNK_ENTRIES; CHUNK_ENTRIES bounds only verify's products. A grid
    value outside the channel's range raises InvalidChannelError naming the
    first such value.
    """
    keys = channel_entry(name).keys
    if len(keys) != 1:
        raise InvalidChannelError(f"sweep needs a one-parameter channel; {name!r} takes {list(keys)}")
    grid = np.asarray(grid, dtype=float)
    values, purities = np.empty(len(grid)), np.empty(len(grid))
    points = max(1, SWEEP_CHUNK_ENTRIES // max(1, d**4))
    for lo in range(0, len(grid), points):
        chunk = slice(lo, lo + points)
        ch = make_named(name, d=d, params={**(params or {}), keys[0]: grid[chunk]})
        out = apply(ch, rho).m
        values[chunk], purities[chunk] = l1_from_density(out), purity_measure(out)
    spread = float(values.max() - values.min()) if len(values) else 0.0
    return Trajectory(params=grid, values=values, purities=purities,
                      frozen=bool(spread <= tol), spread=spread)
