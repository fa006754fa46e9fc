"""Verification drivers for the coherence-evolution laws: the probe-state
factorization relation, its scalar and purity variants, the cascaded
N-qubit generalization, and frozen-coherence sweeps."""

from dataclasses import dataclass

import numpy as np

from .basis import gellmann_basis, pauli_tensor_basis, y_to_x_transform
from .channel import (
    KrausChannel,
    apply,
    aux_channel,
    scalar_action_detect,
    theorem1_condition,
    transfer_matrix,
)
from .errors import NotApplicableError
from .measures import l1_from_density, purity_measure
from .state import (
    DensityMatrix,
    StateFamily,
    bloch_compose,
    bloch_decompose,
    coherence_weight,
    family_member,
    is_psd,
    probe_state,
)


@dataclass(frozen=True)
class FamilyDecomposition:
    """Factor split C = f(chi) * g(n^s) of a family's coherence."""

    f_chi: float
    g_n: float


@dataclass(frozen=True)
class FactorizationReport:
    lhs: float
    rhs: float
    abs_err: float
    probe_physical: bool
    condition_held: bool

    def within(self, tol):
        return self.abs_err <= tol


def decompose_family(fam: StateFamily) -> FamilyDecomposition:
    """f(chi) = chi and g(n^s) for the l1 norm of coherence."""
    return FamilyDecomposition(f_chi=fam.chi, g_n=coherence_weight(fam.n, fam.d))


def verify_theorem1(ch: KrausChannel, fam: StateFamily) -> FactorizationReport:
    """Both sides of C[E(rho)] = C(rho) C[E(rho_p)] for one family.

    Never aborts on a failed channel condition: a report with
    ``condition_held=False`` is a counterexample probe."""
    basis = gellmann_basis(fam.d)
    member = family_member(fam, basis)
    probe = probe_state(fam.n, basis)
    lhs = l1_from_density(apply(ch, member))
    rhs = l1_from_density(member) * l1_from_density(apply(ch, probe.state))
    return FactorizationReport(
        lhs=lhs,
        rhs=rhs,
        abs_err=abs(lhs - rhs),
        probe_physical=probe.physical,
        condition_held=theorem1_condition(transfer_matrix(ch, basis)),
    )


def verify_lemma1(measure, ch: KrausChannel, fam: StateFamily) -> FactorizationReport:
    """Factorization check for a named measure ('l1' or 'purity').

    The purity probe solves chi_p^2 / 2 = 1 (chi_p = sqrt(2), formal when
    outside the purity radius); its condition is full unitality of T."""
    if measure == "l1":
        return verify_theorem1(ch, fam)
    if measure != "purity":
        raise NotApplicableError(f"no factorization decomposition for measure {measure!r}")
    basis = gellmann_basis(fam.d)
    member = family_member(fam, basis)
    chi_p = np.sqrt(2.0)
    probe = bloch_compose(chi_p * fam.n, basis)
    lhs = purity_measure(apply(ch, member))
    rhs = purity_measure(member) * purity_measure(apply(ch, probe))
    t = transfer_matrix(ch, basis)
    condition = bool(np.max(np.abs(t.t[1:, 0])) <= 1e-10)  # all T_k0 = 0: unital
    return FactorizationReport(
        lhs=lhs, rhs=rhs, abs_err=abs(lhs - rhs),
        probe_physical=is_psd(probe.m), condition_held=condition,
    )


def verify_corollary2(ch: KrausChannel, rho: DensityMatrix) -> FactorizationReport:
    """Scalar-action law C[E(rho)] = |q| C(rho) on the coordinates rho populates."""
    basis = gellmann_basis(rho.d)
    x = bloch_decompose(rho, basis).x
    n_off = basis.num_offdiag
    subset = [k + 1 for k in range(n_off) if abs(x[k]) > 1e-12]
    if not subset:
        raise NotApplicableError("state has no off-diagonal coordinates; nothing to rescale")
    t = transfer_matrix(ch, basis)
    q = scalar_action_detect(t, subset)
    if q is None:
        raise NotApplicableError("channel has no common scalar action on the populated coordinates")
    lhs = l1_from_density(apply(ch, rho))
    rhs = abs(q) * l1_from_density(rho)
    return FactorizationReport(
        lhs=lhs, rhs=rhs, abs_err=abs(lhs - rhs), probe_physical=True, condition_held=True
    )


def verify_cascade(ch_f: KrausChannel, rho: DensityMatrix, m, chi) -> FactorizationReport:
    """Cascaded relation C[E_F E_aux(rho)] = C[E_aux(rho)] C[E_F(rho_p^m)].

    The probe factor chi_p comes from the direction rewritten in the
    Gell-Mann ordering via the Y->X transform."""
    N = int(np.log2(rho.d))
    if 2**N != rho.d:
        raise NotApplicableError(f"cascade requires a 2^N-dimensional state, got d={rho.d}")
    ybasis = pauli_tensor_basis(N)
    m = np.asarray(m, dtype=float)
    aux = aux_channel(rho, m, chi, ybasis)
    sigma = apply(aux, rho)
    lhs = l1_from_density(apply(ch_f, sigma))

    m_bar = y_to_x_transform(N).a @ m
    g = coherence_weight(m_bar, 2**N)
    if g <= 1e-12:
        raise NotApplicableError("target direction has no coherent part")
    chi_p = 1.0 / g
    probe = bloch_compose(chi_p * m, ybasis)
    rhs = l1_from_density(sigma) * l1_from_density(apply(ch_f, probe))
    return FactorizationReport(
        lhs=lhs,
        rhs=rhs,
        abs_err=abs(lhs - rhs),
        probe_physical=is_psd(probe.m),
        condition_held=theorem1_condition(transfer_matrix(ch_f)),
    )


@dataclass(frozen=True)
class Trajectory:
    """Coherence and purity along a channel-parameter sweep."""

    params: np.ndarray
    values: np.ndarray
    purities: np.ndarray
    frozen: bool
    spread: float


def freeze_trajectory(channel_fn, params, rho: DensityMatrix, tol=1e-9) -> Trajectory:
    """Sweep C_l1(E_q(rho)) and P(E_q(rho)) over the parameter values q;
    frozen iff the coherence's max - min <= tol."""
    params = np.asarray(params, dtype=float)
    values, purities = np.empty(len(params)), np.empty(len(params))
    for i, q in enumerate(params):
        out = apply(channel_fn(q), rho)
        values[i] = l1_from_density(out)
        purities[i] = purity_measure(out)
    spread = float(values.max() - values.min()) if len(values) else 0.0
    return Trajectory(params=params, values=values, purities=purities,
                      frozen=bool(spread <= tol), spread=spread)
