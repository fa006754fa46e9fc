"""Verification drivers for the coherence-evolution laws: the probe-state
factorization relation, its scalar and purity variants, the cascaded
N-qubit generalization, and frozen-coherence sweeps."""

from dataclasses import dataclass, fields
from math import isqrt

import numpy as np

from .basis import gellmann_basis, pauli_tensor_basis, qubit_count
from .channel import (
    CONDITION_TOL,
    KrausChannel,
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
    bloch_compose,
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
    """Both sides of a factorization law and its flags for one trial, or,
    from verify_families, arrays with one entry per family."""

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
        return coherence_weight(x[:, 1:], d)
    return 0.5 * np.sum(x * x, axis=-1) - 1.0 / d


def _with_x0(x, d):
    """The rows of ``x`` with x_0 = sqrt(2/d) put first: one concatenate,
    where np.insert spends more on its argument handling than on the copy."""
    return np.concatenate((np.full((len(x), 1), np.sqrt(2.0 / d)), x), axis=1)


def _law(measure, t, x, probe_physical, condition) -> FactorizationReport:
    """Both sides of M[E(rho)] = M(rho) M[E(rho_p)] and their flags for the
    (2s, d^2 - 1) Bloch coordinates ``x`` of s states rho, then their s
    probes rho_p. With x_0 = sqrt(2/d) put first, the channel maps them as
    x' = T x in one product with its transfer matrix ``t``; row 0 is used
    too, since a channel read from a file is trace preserving only to its
    printed digits. ``condition`` is the channel condition's outcome."""
    d, s = isqrt(len(t)), len(x) // 2
    x = _with_x0(x, d)
    after = _measure(measure, x @ t.T, d)
    lhs, rhs = after[:s], _measure(measure, x[:s], d) * after[s:]
    return FactorizationReport(lhs=lhs, rhs=rhs, abs_err=np.abs(lhs - rhs),
                               probe_physical=probe_physical, condition_held=np.full(s, condition))


def verify_families(measure, t, n, chi, hi) -> FactorizationReport:
    """Both sides of M[E(rho)] = M(rho) M[E(rho_p)] for the s families with
    the unit directions in the rows of n and the factors in chi, for the
    measure M = 'l1' (Theorem 1) or 'purity' (Lemma 1), under the channel
    with transfer matrix ``t``; d is read from its shape.

    The coordinates of the s members and s probes go through ``t`` in one
    product. The l1 probe has chi_p = 1/g(n^s); the purity probe solves
    chi_p^2 / 2 = 1 (chi_p = sqrt(2)). Probes outside the physical range
    are kept and flagged: ``hi`` holds the upper ends of the families'
    physical ranges (chi_interval), and as chi_p > 0 the probe rho_p =
    I/d + (chi_p/2) n.X passes the PSD check iff chi_p <= hi, so its
    spectrum is never computed again. The channel condition (T_k0 = 0 on
    the off-diagonal rows for l1, full unitality for purity) is read from
    ``t``; a failed one never aborts, its reports are counterexample
    probes. Returns a report whose fields are arrays of s entries. chi and
    hi must hold one entry per row of n (DimensionMismatchError); n, chi
    and hi must be finite (CohfactError, naming the first row with a
    non-finite direction or factor).
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
    else:  # all T_k0 = 0: unital
        chi_p = np.full(len(chi), np.sqrt(2.0))
        condition = bool(np.max(np.abs(t[1:, 0])) <= CONDITION_TOL)
    return _law(measure, t, np.concatenate((chi[:, None] * n, chi_p[:, None] * n)),
                chi_p <= hi, condition)


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
    """Scalar-action law C[E(rho)] = |q| C(rho) on the coordinates rho
    populates, under the channel with transfer matrix ``t``.

    A state holding an (s, d, d) stack gives a report of arrays: one masked
    read of ``t`` gives every state's q, and the coordinates of the stack
    go through ``t`` in one product. Raises NotApplicableError if a state
    populates no off-diagonal coordinate or the channel has no common
    scalar on the ones it populates."""
    if rho.m.ndim == 2:
        return _first(verify_corollary2(t, DensityMatrix(rho.m[None])))
    d = isqrt(len(t))
    x = bloch_decompose(rho, gellmann_basis(d))
    populated = np.abs(x[:, : d * d - d]) > 1e-12
    if not populated.any(axis=1).all():
        raise NotApplicableError("state has no off-diagonal coordinates; nothing to rescale")
    q = scalar_actions(t, populated)
    if np.isnan(q).any():
        raise NotApplicableError("channel has no common scalar action on the populated coordinates")
    lhs = _measure("l1", _with_x0(x, rho.d) @ t.T, rho.d)  # x' = T x
    rhs = np.abs(q) * l1_from_density(rho.m)
    s = len(q)
    return FactorizationReport(lhs=lhs, rhs=rhs, abs_err=np.abs(lhs - rhs),
                               probe_physical=np.full(s, True), condition_held=np.full(s, True))


def verify_cascade(t, rho: DensityMatrix, m, eps) -> FactorizationReport:
    """Cascaded relation C[E_F E_aux(rho)] = C[E_aux(rho)] C[E_F(rho_p^m)]
    for the channel E_F with transfer matrix ``t`` and the auxiliary channel
    with the Kraus weights ``eps`` (aux_solve) for the target direction m.

    E_aux scales the Pauli coordinates of rho by its aux_pauli_action, so
    the check covers whether the weights reach the target. The probe is the
    l1 family probe of the target's Gell-Mann direction n, read off (1/2)
    m.Y: chi_p = 1/g(n), physical iff chi_p <= hi of chi_interval, as in
    verify_families. A stack of s states, with s rows of m and eps, gives a
    report of arrays: E_F maps the s images and s probes in one product."""
    m, eps = np.asarray(m, dtype=float), np.asarray(eps, dtype=float)
    if rho.m.ndim == 2:
        return _first(verify_cascade(t, DensityMatrix(rho.m[None]), m[None], eps[None]))
    s, d = rho.m.shape[:2]
    if m.shape != (s, d * d - 1) or eps.shape != (s, d * d):
        raise DimensionMismatchError(f"expected ({s}, {d * d - 1}) directions, ({s}, {d * d}) weights, "
                                     f"got {m.shape}, {eps.shape}")
    pauli = pauli_tensor_basis(qubit_count(d))
    target = bloch_compose(m, pauli).m  # I/d + (1/2) m.Y
    g = _finite_weights(l1_from_density(target))
    if np.any(g <= 1e-12):
        raise NotApplicableError("target direction has no coherent part")
    sigma = bloch_compose(aux_pauli_action(eps)[:, 1:] * bloch_decompose(rho, pauli), pauli).m
    x = bloch_decompose(DensityMatrix(np.concatenate((sigma, target))), gellmann_basis(isqrt(len(t))))
    return _law("l1", t, np.concatenate((x[:s], x[s:] / g[:, None])),  # probes at chi_p = 1/g
                1.0 / g <= chi_interval(x[s:], d)[1], theorem1_condition(t))


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
