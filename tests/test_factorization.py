import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohfact.channel import (
    _pauli_coordinates,
    apply,
    aux_channel,
    aux_solve,
    kraus_channel,
    make_named,
    random_unital_channel,
    transfer_matrix,
)
from cohfact.errors import CohfactError, DimensionMismatchError, NotAChannelError, NotApplicableError
from cohfact.factorization import (
    freeze_trajectory,
    verify_cascade,
    verify_corollary2,
    verify_families,
    verify_theorem1,
)
from cohfact.measures import l1_from_density
from cohfact.state import (
    DensityMatrix,
    bloch_compose,
    bloch_decompose,
    chi_interval,
    coherence_weight,
    density_matrix,
    family_member,
    random_family,
    random_state,
)


def _stack(rho):
    """The one state rho as a stack of one, the shape verify_corollary2 takes."""
    return DensityMatrix(rho.m[None])


def _coordinates(rho):
    """The Pauli coordinates of the one state rho as a stack of one, the
    shape verify_cascade takes."""
    return _pauli_coordinates(_stack(rho))


def nonunital_offdiag_channel():
    """Channel with T_10, T_20 nonzero: breaks the factorization condition."""
    e0 = np.array([[1, 1], [0, 0]], dtype=complex) / np.sqrt(2)
    plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
    minus = np.array([1, -1], dtype=complex) / np.sqrt(2)
    return kraus_channel([e0, np.outer(plus, minus.conj())])


def test_decompose_family():
    n, chi = np.array([0.6, 0.8, 0.0]), 0.5
    g = coherence_weight(n, 2)
    assert abs(g - 1.0) < 1e-15
    member = family_member(n, chi)
    assert abs(l1_from_density(member) - chi * g) < 1e-12


def test_theorem1_identity_channel():
    n, chi = random_family(3, 2)
    ident = kraus_channel([np.eye(3, dtype=complex)])
    rep = verify_theorem1(ident, n, chi)
    assert rep.condition_held
    assert rep.abs_err < 1e-12
    member = family_member(n, chi)
    assert abs(rep.lhs - l1_from_density(member)) < 1e-12


@pytest.mark.parametrize("d", [2, 3, 4])
def test_theorem1_random_unital(d):
    rng = np.random.default_rng(d * 7)
    for _ in range(20):
        rep = verify_theorem1(random_unital_channel(d, seed=rng), *random_family(d, rng))
        assert rep.condition_held
        assert rep.abs_err <= 1e-9


def test_theorem1_counterexample_mode():
    ch = nonunital_offdiag_channel()
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(50):
        rep = verify_theorem1(ch, *random_family(2, rng))
        assert not rep.condition_held
        worst = max(worst, rep.abs_err)
    assert worst > 1e-3  # the relation genuinely fails without the condition


@given(chi=st.floats(min_value=-0.8, max_value=0.8), seed=st.integers(0, 10**6))
@settings(max_examples=50, deadline=None)
def test_coherence_homogeneous_in_chi(chi, seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(8)
    n = v / np.linalg.norm(v)
    c1 = l1_from_density(bloch_compose(n))
    c = l1_from_density(bloch_compose(chi * n))
    assert abs(c - abs(chi) * c1) < 1e-12


@pytest.mark.parametrize("d", [2, 3])
def test_channel_linearity_on_coherence_coordinates(d):
    # x'_k = chi * sum_j T_kj n_j on the off-diagonal rows when T_k0 = 0
    rng = np.random.default_rng(d)
    n_off = d * d - d
    for _ in range(10):
        ch = random_unital_channel(d, seed=rng)
        n, chi = random_family(d, rng)
        out_n = bloch_decompose(apply(ch, bloch_compose(n)))
        out_chi = bloch_decompose(apply(ch, family_member(n, chi)))
        np.testing.assert_allclose(out_chi[:n_off], chi * out_n[:n_off], atol=1e-11)


def test_lemma1_l1_agrees_with_theorem1():
    ch = random_unital_channel(3, seed=5)
    n, chi = random_family(3, 5)
    a = verify_families("l1", transfer_matrix(ch), [n], [chi], chi_interval([n], 3)[1])
    b = verify_theorem1(ch, n, chi)
    assert a.lhs[0] == b.lhs and a.rhs[0] == b.rhs


@pytest.mark.parametrize("d", [2, 3])
def test_lemma1_purity_unital(d):
    rng = np.random.default_rng(d + 50)
    for _ in range(20):
        ch = random_unital_channel(d, seed=rng)
        n, chi = random_family(d, rng)
        rep = verify_families("purity", transfer_matrix(ch), [n], [chi], chi_interval([n], d)[1])
        assert rep.condition_held[0]
        assert rep.abs_err[0] <= 1e-9


def test_lemma1_purity_amplitude_damping_violation():
    ch = make_named("amplitude_damping", params={"gamma": 0.6})
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(30):
        n, chi = random_family(2, rng)
        rep = verify_families("purity", transfer_matrix(ch), [n], [chi], chi_interval([n], 2)[1])
        assert not rep.condition_held[0]
        worst = max(worst, rep.abs_err[0])
    assert worst > 1e-3


def test_lemma1_unknown_measure():
    with pytest.raises(NotApplicableError):
        n, chi = random_family(2, 0)
        verify_families("entropy", transfer_matrix(random_unital_channel(2, seed=0)), [n], [chi],
                        chi_interval([n], 2)[1])


def test_corollary2_phase_damping():
    q = 0.65
    ch = make_named("phase_damping", params={"q": q})
    rho = random_state(2, 12)
    rep = verify_corollary2(transfer_matrix(ch), _stack(rho))
    assert rep.abs_err <= 1e-10
    assert abs(rep.lhs - q * l1_from_density(rho)) < 1e-10


def test_corollary2_gell_mann_G_arbitrary_state():
    ch = make_named("gell_mann_G", d=3, params={"q": 0.3, "q0": 0.7})
    rng = np.random.default_rng(6)
    for _ in range(20):
        rep = verify_corollary2(transfer_matrix(ch), _stack(random_state(3, rng)))
        assert rep.abs_err <= 1e-10


def test_corollary2_identity_preserves_coherence():
    ch = make_named("phase_damping", params={"q": 1.0})
    rho = random_state(2, 1)
    rep = verify_corollary2(transfer_matrix(ch), _stack(rho))
    assert abs(rep.lhs - rep.rhs) < 1e-12
    assert abs(rep.lhs - l1_from_density(rho)) < 1e-12


def test_corollary2_not_applicable_without_scalar_action():
    ch = make_named("bit_flip", params={"q": 0.5})
    with pytest.raises(NotApplicableError):
        verify_corollary2(transfer_matrix(ch), _stack(random_state(2, 3)))


def _reachable_target(N, rng):
    while True:
        rho = random_state(2**N, rng)
        v = rng.standard_normal(4**N - 1)
        m = v / np.linalg.norm(v)
        chi = rng.uniform(0.005, 0.1)
        for _ in range(40):
            try:
                aux_channel(rho, m, chi)
                return rho, m, chi
            except NotAChannelError:
                chi *= 0.5


def test_cascade_depolarizing_n2():
    rng = np.random.default_rng(77)
    for _ in range(10):
        rho, m, chi = _reachable_target(2, rng)
        t = transfer_matrix(make_named("depolarizing", d=4, params={"p": 0.4}))
        rep = verify_cascade(t, _coordinates(rho), m[None], aux_solve(rho, m, chi)[None])
        assert rep.condition_held
        assert rep.abs_err <= 1e-9


def test_cascade_identity_reduces_to_aux_coherence():
    rng = np.random.default_rng(13)
    rho, m, chi = _reachable_target(2, rng)
    ident = kraus_channel([np.eye(4, dtype=complex)])
    rep = verify_cascade(transfer_matrix(ident), _coordinates(rho), m[None], aux_solve(rho, m, chi)[None])
    aux = aux_channel(rho, m, chi)
    assert abs(rep.lhs - l1_from_density(apply(aux, rho))) < 1e-12
    assert rep.abs_err <= 1e-9


def test_cascade_n1_matches_theorem1():
    rng = np.random.default_rng(29)
    rho, m, chi = _reachable_target(1, rng)
    ch_f = random_unital_channel(2, seed=31)
    rep = verify_cascade(transfer_matrix(ch_f), _coordinates(rho), m[None], aux_solve(rho, m, chi)[None])
    # for N = 1 the generated state is the family member (m, chi) directly
    rep2 = verify_theorem1(ch_f, m, chi)
    assert abs(rep.lhs - rep2.lhs) < 1e-11
    assert abs(rep.rhs - rep2.rhs) < 1e-11


def test_cascade_target_without_coherent_part():
    """A target along the diagonal generator sigma_z is reachable, but its
    direction has no l1 coherence, so the cascade has no probe."""
    rho = density_matrix(np.array([[0.75, 0.15 - 0.2j], [0.15 + 0.2j, 0.25]]))  # y = (0.3, 0.4, 0.5)
    m = np.array([0.0, 0.0, 1.0])
    aux_channel(rho, m, 0.1)  # realizable
    with pytest.raises(NotApplicableError, match="target direction has no coherent part"):
        verify_cascade(transfer_matrix(make_named("bit_flip", params={"q": 0.5})), _coordinates(rho), m[None],
                       aux_solve(rho, m, 0.1)[None])


def test_cascade_refuses_a_nan_direction():
    """A NaN target direction has a NaN coherence weight, which fails the
    probe check rather than passing g <= 1e-12 and reaching the probes,
    even with the weights of a finite target."""
    rho = density_matrix(np.array([[0.75, 0.15 - 0.2j], [0.15 + 0.2j, 0.25]]))  # y = (0.3, 0.4, 0.5)
    t = transfer_matrix(make_named("bit_flip", params={"q": 0.5}))
    eps = aux_solve(rho, np.array([0.0, 0.0, 1.0]), 0.1)
    with pytest.raises(CohfactError, match="non-finite coherence weight g = nan"):
        verify_cascade(t, _coordinates(rho), np.array([[np.nan, 0.0, 1.0]]), eps[None])


def test_one_hermiticity_rule():
    """A state with an anti-Hermitian part of 2e-11 per entry, within
    HERM_TOL, loads through density_matrix and is taken by bloch_decompose
    and verify_corollary2 as well; its coordinates are the real parts."""
    rho = density_matrix(np.array([[0.6, 0.2 + 2e-11j], [0.2 + 2e-11j, 0.4]]))
    np.testing.assert_allclose(bloch_decompose(rho), [0.4, 0.0, 0.2], rtol=0, atol=1e-15)
    rep = verify_corollary2(transfer_matrix(make_named("depolarizing", params={"p": 0.3})), _stack(rho))
    assert rep.abs_err <= 1e-12
    assert abs(rep.lhs - 0.7 * 0.4) <= 1e-12


def test_freeze_trajectory_frozen_xy():
    rho = random_state(2, 41)
    traj = freeze_trajectory("frozen_xy", np.linspace(0, 1, 101), rho)
    assert traj.frozen
    assert traj.spread <= 1e-9


def test_freeze_trajectory_bit_flip_family():
    rho = family_member(np.array([0.6, 0.0, 0.8]), 0.5)
    traj = freeze_trajectory("bit_flip", np.linspace(0, 1, 101), rho)
    assert traj.frozen


def test_freeze_trajectory_phase_damping_decay():
    rho = density_matrix(np.full((2, 2), 0.5, dtype=complex))
    grid = np.linspace(0, 1, 11)
    traj = freeze_trajectory("phase_damping", grid, rho)
    assert not traj.frozen
    np.testing.assert_allclose(traj.values, grid, atol=1e-12)
    # |+><+| keeps its populations, so P = Tr(rho^2) - 1/2 = q^2 / 2
    np.testing.assert_allclose(traj.purities, grid**2 / 2, atol=1e-12)


def test_probe_caching_consistency():
    n, chi = random_family(3, 61)
    ch = random_unital_channel(3, seed=62)
    r1 = verify_theorem1(ch, n, chi)
    r2 = verify_theorem1(ch, n, chi)
    assert r1.lhs == r2.lhs and r1.rhs == r2.rhs


@pytest.mark.parametrize("call, error, match", [
    (lambda: verify_theorem1(make_named("bit_flip", params={"q": 0.5}), *random_family(3, 0)),
     DimensionMismatchError, r"expected 3 components, got \(1, 8\)"),
    (lambda: verify_corollary2(transfer_matrix(make_named("depolarizing", d=3, params={"p": 0.2})),
                               _stack(density_matrix(np.diag([0.5, 0.3, 0.2])))),
     NotApplicableError, "no off-diagonal"),
], ids=["lemma1-d", "corollary2-diagonal"])
def test_factorization_input_checks(call, error, match):
    """Each check raises its own error; the message names the check, so
    a later check raising the same class does not stand in for it."""
    with pytest.raises(error, match=match):
        call()
