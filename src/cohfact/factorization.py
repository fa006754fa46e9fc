"""Verification drivers for the coherence-evolution laws: the probe-state
factorization relation, its scalar and purity variants, the cascaded
N-qubit generalization, and frozen-coherence sweeps."""

from dataclasses import dataclass, fields
from math import isqrt

import numpy as np

from .basis import _by_row_blocks, qubit_count, y_to_x_transform
from .channel import (
    KrausChannel,
    _lemma1_condition,
    apply,
    aux_pauli_action,
    channel_entry,
    make_named,
    scalar_actions,
    theorem1_condition,
    transfer_matrix,
)
from .errors import (
    CohfactError,
    DimensionMismatchError,
    InvalidChannelError,
    NotApplicableError,
)
from .measures import l1_from_density, purity_measure
from .state import (
    DensityMatrix,
    _finite_weights,
    bloch_decompose,
    chi_interval,
    coherence_weight,
    probe_factor,
)

# Bound on the complex entries of the (P, k, d, d) Kraus stack of one chunk
# of sweep points (128 KiB). A chunk's stack and its temporaries then stay
# in cache and in the heap the allocator keeps, so a sweep does not fault
# fresh pages in on every call; each point is computed on its own, so the
# output does not depend on the bound.
SWEEP_CHUNK_ENTRIES = 1 << 13


@dataclass(frozen=True)
class FactorizationReport:
    """Both sides of a factorization law and its flags for one trial
    (verify_theorem1), or arrays with one entry per trial."""

    lhs: float
    rhs: float
    abs_err: float
    probe_physical: bool
    condition_held: bool

    def within(self, tol):
        return self.abs_err <= tol


def _measure(measure, x, d):
    """C_l1 = g of the generator coordinates 1..d^2-1, or the purity
    |x|^2 / 2 - 1/d over all d^2 coordinates, of each row of ``x``."""
    if measure == "l1":
        return coherence_weight(x[..., 1:], d)
    return 0.5 * np.sum(x * x, axis=-1) - 1.0 / d


def _through(t, *parts):
    """The rows x of the (s, d^2 - 1) coordinates in ``parts`` with x_0 = sqrt(2/d) put
    first, and their images x' = T x (_by_row_blocks), as two (len(parts), s, d^2) arrays."""
    x = np.empty((len(parts), len(parts[0]), len(t)))
    x[..., 0] = np.sqrt(2.0 / isqrt(len(t)))
    x[..., 1:] = parts
    # each block packs T^T, faster from a C-contiguous array: a view of transfer_matrix's T, not a copy
    return x, _by_row_blocks(x, np.ascontiguousarray(t.T))


def _law(measure, t, members, probes, probe_physical, condition) -> FactorizationReport:
    """Both sides of M[E(rho)] = M(rho) M[E(rho_p)] and their flags, for the
    Bloch coordinates of s states rho and of their probes rho_p mapped by
    ``t`` with its row 0, as a file's channel preserves trace only to 12 digits."""
    d, s = isqrt(len(t)), len(members)
    x, after = _through(t, members, probes)
    after = _measure(measure, after, d)
    lhs, rhs = after[0], _measure(measure, x[0], d) * after[1]
    return FactorizationReport(lhs=lhs, rhs=rhs, abs_err=np.abs(lhs - rhs),
                               probe_physical=probe_physical, condition_held=np.full(s, condition))


def verify_families(measure, t, n, chi, hi) -> FactorizationReport:
    """Both sides of M[E(rho)] = M(rho) M[E(rho_p)] for the s families with
    the unit directions in the rows of n and the factors in chi, for the
    measure M = 'l1' (Theorem 1) or 'purity' (Lemma 1), under the channel
    with transfer matrix ``t``; d is read from its shape.

    The members and probes go through ``t`` together (_through). The l1 probe has
    chi_p = 1/g(n^s), the purity probe chi_p = sqrt(2). Probes outside the physical
    range are kept and flagged: as chi_p > 0, rho_p is PSD iff chi_p <= hi, the
    upper end of its family's range (chi_interval). The channel condition, never a
    cause to abort, is c0 = C_l1[E(I/d)] <= CONDITION_TOL for l1 (theorem1_condition)
    and sum_jk |E(I/d) - I/d|_jk <= CONDITION_TOL for purity (Lemma 1's unitality).
    Returns a report of arrays of s entries. chi and hi must hold one entry per row
    of n (DimensionMismatchError); n, chi and hi must be finite (CohfactError,
    naming the first row with a non-finite direction or factor).
    """
    if measure not in ("l1", "purity"):
        raise NotApplicableError(f"no factorization decomposition for measure {measure!r}")
    d = isqrt(len(t))
    n, chi, hi = (np.asarray(a, dtype=float) for a in (n, chi, hi))
    if n.ndim != 2 or n.shape[1] != d * d - 1:
        raise DimensionMismatchError(f"expected {d * d - 1} components, got {n.shape}")
    if chi.shape != (len(n),) or hi.shape != (len(n),):
        raise DimensionMismatchError(f"expected one chi and one hi per row of n, got "
                                     f"{chi.shape} and {hi.shape} for {len(n)} rows")
    finite = np.isfinite(n).all(axis=1) & np.isfinite(chi)
    if not finite.all():  # refused before any product: NaN fails every comparison
        row = int(np.argmin(finite))
        what = f"a non-finite factor chi = {chi[row]}" if np.isfinite(n[row]).all() else "a non-finite component"
        raise CohfactError(f"family in row {row} has {what}")
    if not np.isfinite(hi).all():
        raise CohfactError("the upper ends hi of the physical ranges must be finite")
    if measure == "l1":
        chi_p, condition = probe_factor(n, d), theorem1_condition(t)
    else:
        chi_p, condition = np.full(len(chi), np.sqrt(2.0)), _lemma1_condition(t)
    return _law(measure, t, chi[:, None] * n, chi_p[:, None] * n, chi_p <= hi, condition)


def _first(rep: FactorizationReport) -> FactorizationReport:
    """The one-trial report of a report over a stack of one."""
    return FactorizationReport(**{f.name: getattr(rep, f.name)[0].item() for f in fields(rep)})


def verify_theorem1(ch: KrausChannel, n, chi) -> FactorizationReport:
    """Both sides of C[E(rho)] = C(rho) C[E(rho_p)] for the family with unit
    direction n and factor chi: the one-family case of verify_families,
    with the channel's transfer matrix built here.

    Never aborts on a failed channel condition: a report with
    ``condition_held=False`` is a counterexample probe."""
    n = np.asarray(n, dtype=float)[None]
    return _first(verify_families("l1", transfer_matrix(ch), n, [chi], chi_interval(n, ch.d)[1]))


def verify_corollary2(t, rho: DensityMatrix) -> FactorizationReport:
    """Scalar-action law C[E(rho)] = |q| C(rho) on the coordinates each state
    of the (s, d, d) stack rho populates, under the channel with transfer
    matrix ``t``, as a report of arrays from one masked read of ``t`` and one
    product. Raises NotApplicableError if a state populates no off-diagonal
    coordinate or the channel has no common scalar on the ones it does."""
    d = isqrt(len(t))
    if rho.m.shape != (len(rho.m), d, d):
        raise DimensionMismatchError(f"expected an (s, {d}, {d}) stack of states, got shape {rho.m.shape}")
    x = bloch_decompose(rho)
    populated = np.abs(x[:, : d * d - d]) > 1e-12
    if not populated.any(axis=1).all():
        raise NotApplicableError("state has no off-diagonal coordinates; nothing to rescale")
    q = scalar_actions(t, populated)
    if np.isnan(q).any():
        raise NotApplicableError("channel has no common scalar action on the populated coordinates")
    lhs = _measure("l1", _through(t, x)[1][0], d)  # x' = T x
    rhs = np.abs(q) * l1_from_density(rho.m)
    return FactorizationReport(lhs=lhs, rhs=rhs, abs_err=np.abs(lhs - rhs),
                               probe_physical=np.full(len(q), True), condition_held=np.full(len(q), True))


def verify_cascade(t, y, m, eps) -> FactorizationReport:
    """Cascaded relation C[E_F E_aux(rho)] = C[E_aux(rho)] C[E_F(rho_p^m)] under the
    channel E_F with transfer matrix ``t``, as a report of arrays over s states rho, d =
    2^N, given by their Pauli coordinates y (channel._pauli_coordinates), target directions
    m and their auxiliary Kraus weights eps (aux_solve). In coordinates only: E_aux scales y
    by aux_pauli_action, and one _by_row_blocks product by a^T, a = y_to_x_transform(N), maps
    targets and images to Gell-Mann ones. The probe of a target's Gell-Mann direction n = a m
    has chi_p = 1/g(n), physical iff chi_p <= hi of chi_interval."""
    y, m, eps = (np.asarray(a, dtype=float) for a in (y, m, eps))
    d, s = isqrt(len(t)), len(y)
    if y.shape != (s, d * d - 1) or m.shape != (s, d * d - 1) or eps.shape != (s, d * d):
        raise DimensionMismatchError(f"expected an (s, {d * d - 1}) stack of states' coordinates, (s, {d * d - 1}) "
                                     f"directions and (s, {d * d}) weights, got {y.shape}, {m.shape}, {eps.shape}")
    a = y_to_x_transform(qubit_count(d))
    target, image = _by_row_blocks(np.stack((m, aux_pauli_action(eps)[:, 1:] * y)), a.T)  # I/d + m.Y/2, E_aux(rho)
    g = _finite_weights(coherence_weight(target, d))
    if np.any(g <= 1e-12):
        raise NotApplicableError("target direction has no coherent part")
    return _law("l1", t, image, target / g[:, None],  # probes at chi_p = 1/g
                1.0 / g <= chi_interval(target, d)[1], theorem1_condition(t))


@dataclass(frozen=True)
class Trajectory:
    """Coherence and purity along a channel-parameter sweep."""

    params: np.ndarray
    values: np.ndarray
    purities: np.ndarray
    frozen: bool
    spread: float


def freeze_trajectory(name, grid, rho: DensityMatrix, d=None, params=None, tol=1e-9) -> Trajectory:
    """Sweep C_l1(E_q(rho)) and P(E_q(rho)) of the named channel, of the
    state's d unless ``d`` is given, over the values q in ``grid`` of its
    one required parameter; any other parameter (the sign of frozen_xy and
    frozen_z) comes from ``params``. Frozen iff the coherence's max - min <= tol.

    The grid is evaluated in chunks: one make_named call builds a chunk's
    channels as a (P, k, d, d) stack, and one product maps rho through all
    of them. Every named channel has k <= d^2, so a chunk of
    SWEEP_CHUNK_ENTRIES // d^4 points keeps the stack within
    SWEEP_CHUNK_ENTRIES. A grid value outside the channel's range raises
    InvalidChannelError naming the first such value.
    """
    keys = channel_entry(name).keys
    if len(keys) != 1:
        raise InvalidChannelError(f"sweep needs a one-parameter channel; {name!r} takes {list(keys)}")
    grid = np.asarray(grid, dtype=float)
    d = rho.d if d is None else d
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
