from dataclasses import fields

import numpy as np
import pytest

from cohfact.basis import gellmann_basis, pauli_tensor_basis, y_to_x_transform
from cohfact.channel import KrausChannel, apply, make_named, random_channel
from cohfact.errors import (
    CohfactError,
    DimensionMismatchError,
    IncoherentDirectionError,
    InvalidDimensionError,
    UnphysicalStateError,
)
from cohfact.state import (
    DensityMatrix,
    bloch_compose,
    bloch_decompose,
    chi_interval,
    coherence_weight,
    density_matrix,
    family_member,
    is_psd,
    probe_factor,
    probe_state,
    purity_radius,
    random_families,
    random_family,
    random_state,
    validate_density,
)
from cohfact.measures import l1_from_density


def plus_state():
    return density_matrix(np.full((2, 2), 0.5, dtype=complex))


def test_decompose_maximally_mixed_is_zero():
    rho = density_matrix(np.eye(3, dtype=complex) / 3)
    assert np.max(np.abs(bloch_decompose(rho))) < 1e-14


def test_decompose_plus_state():
    x = bloch_decompose(plus_state())
    np.testing.assert_allclose(x, [1.0, 0.0, 0.0], atol=1e-14)


@pytest.mark.parametrize("basis, read", [
    (gellmann_basis(3), lambda x: x), (gellmann_basis(8), lambda x: x),
    (pauli_tensor_basis(1), lambda x: x @ y_to_x_transform(1)),
    (pauli_tensor_basis(3), lambda x: x @ y_to_x_transform(3)),
], ids=["gm3", "gm8", "pauli1", "pauli3"])
def test_decompose_matches_trace_reference(basis, read):
    """The one-product decomposition, read in the Pauli tensor basis
    through y_to_x_transform for the pauli cases, against x_i = Tr(rho X_i)
    as an einsum over ``basis``, for one state and a stack; a non-Hermitian
    matrix still raises."""
    rho = random_state(basis.shape[-1], 4, 5)
    want = np.einsum("...ab,iba->...i", rho.m, basis).real
    np.testing.assert_allclose(read(bloch_decompose(rho)), want, rtol=0, atol=1e-15)
    one = DensityMatrix(rho.m[2])
    np.testing.assert_allclose(read(bloch_decompose(one)), want[2], rtol=0, atol=1e-15)
    skew = DensityMatrix(rho.m[2] + 1e-6j * np.triu(np.ones((basis.shape[-1], basis.shape[-1])), 1))
    with pytest.raises(UnphysicalStateError, match="not Hermitian"):
        bloch_decompose(skew)


def test_decompose_checks_every_state_of_a_stack():
    """The Hermiticity rule holds for each matrix of a stack: one skew
    matrix among Hermitian ones raises."""
    rho = random_state(3, 4, 5)
    m = rho.m.copy()
    m[3, 0, 1] += 1e-9j
    bloch_decompose(DensityMatrix(m[:3]))
    with pytest.raises(UnphysicalStateError, match="not Hermitian"):
        bloch_decompose(DensityMatrix(m))


def test_compose_trivials():
    np.testing.assert_allclose(bloch_compose(np.zeros(3)).m, np.eye(2) / 2)
    np.testing.assert_allclose(bloch_compose(np.array([0.0, 0.0, 1.0])).m, np.diag([1.0, 0.0]))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_round_trip(d):
    for seed in range(5):
        rho = random_state(d, seed)
        back = bloch_compose(bloch_decompose(rho))
        np.testing.assert_allclose(back.m, rho.m, atol=1e-12)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_purity_identity(d):
    for seed in range(5):
        rho = random_state(d, seed)
        x = bloch_decompose(rho)
        assert abs(np.trace(rho.m @ rho.m).real - (np.dot(x, x) / 2 + 1 / d)) < 1e-12


def test_compose_rejects_unphysical():
    x = np.zeros(8)
    x[0] = purity_radius(3) * 1.05
    with pytest.raises(UnphysicalStateError) as exc:
        validate_density(bloch_compose(x))
    assert exc.value.min_eigenvalue < 0


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_density_matrix_rejects_non_finite(bad):
    with pytest.raises(UnphysicalStateError, match="non-finite"):
        density_matrix(np.diag([bad, bad]))
    with pytest.raises(UnphysicalStateError, match="non-finite"), np.errstate(invalid="ignore"):
        validate_density(bloch_compose(np.array([0.0, bad, 0.0])))


def test_dimension_mismatch():
    """bloch_compose reads d from the d^2 - 1 coordinates: a length that is
    not d^2 - 1 for a d >= 2 is refused."""
    for x in (np.zeros(5), np.zeros(0), np.zeros((2, 2, 3))):
        with pytest.raises(DimensionMismatchError):
            bloch_compose(x)


def test_d_is_read_from_the_array():
    """No type stores d: each reads it from its array, so a 2 x 2 state
    meets a d = 3 channel as a DimensionMismatchError rather than a failed
    matrix product."""
    rho = DensityMatrix(np.eye(2) / 2)
    with pytest.raises(DimensionMismatchError, match="state d=2 vs channel d=3"):
        apply(make_named("depolarizing", d=3, params={"p": 0.3}), rho)
    for cls in (DensityMatrix, KrausChannel):
        assert "d" not in [f.name for f in fields(cls)]
    stack, ch, (n, chi) = random_state(3, 1, 4), random_channel(4, seed=1), random_family(5, 1)
    assert (stack.d, ch.d, family_member(n, chi).d, len(n)) == (3, 4, 5, 24)


def test_family_member_trivials():
    np.testing.assert_allclose(family_member(np.eye(8)[0], 0.0).m, np.eye(3) / 3)
    np.testing.assert_allclose(family_member(np.array([1.0, 0, 0]), 1.0).m, plus_state().m, atol=1e-14)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_family_purity_relation(d):
    for seed in range(5):
        n, chi = random_family(d, seed)
        rho = family_member(n, chi)
        assert abs(np.trace(rho.m @ rho.m).real - (chi**2 / 2 + 1 / d)) < 1e-12


def test_probe_qubit_x_direction():
    n = np.array([1.0, 0.0, 0.0])
    p = probe_state(n, 2)
    assert abs(probe_factor(n, 2) - 1.0) < 1e-15
    assert is_psd(p.m)
    np.testing.assert_allclose(p.m, plus_state().m, atol=1e-14)


def test_probe_formal_flag():
    # chi_p = 1/0.6 = 5/3 exceeds the qubit Bloch ball
    n = np.array([0.6, 0.0, 0.8])
    p = probe_state(n, 2)
    assert abs(probe_factor(n, 2) - 5.0 / 3.0) < 1e-12
    assert not is_psd(p.m)
    assert np.linalg.eigvalsh(p.m)[0] < -1e-9


def test_probe_coherence_is_one():
    rng = np.random.default_rng(0)
    for d in (2, 3, 4):
        for _ in range(20):
            v = rng.standard_normal(d * d - 1)
            n = v / np.linalg.norm(v)
            p = probe_state(n, d)
            assert abs(l1_from_density(p) - 1.0) < 1e-12


def test_probe_incoherent_direction_rejected():
    n = np.zeros(8)
    n[6] = 1.0  # purely diagonal direction
    with pytest.raises(IncoherentDirectionError):
        probe_state(n, 3)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_probe_refuses_a_non_finite_direction(bad):
    """A NaN fails every comparison, so it must fail the probe check rather
    than pass g <= 1e-12 and give a NaN factor and an all-NaN probe."""
    n = np.array([bad, 0.0, 1.0])
    for call in (lambda: probe_factor(n, 2), lambda: probe_state(n, 2)):
        with pytest.raises(CohfactError, match=f"non-finite coherence weight g = {bad}"):
            call()
    rows = np.array([[0.0, 1.0, 0.0], n])
    with pytest.raises(CohfactError, match=f"non-finite coherence weight g = {bad}"):
        probe_factor(rows, 2)


def test_coherence_weight_uses_offdiagonal_pairs_only():
    n = np.array([0.6, 0.8, 0.0])
    assert abs(coherence_weight(n, 2) - 1.0) < 1e-15
    n = np.zeros(8)
    n[6] = n[7] = 0.5
    assert coherence_weight(n, 3) == 0.0


def test_random_state_deterministic():
    a = random_state(3, 123)
    b = random_state(3, 123)
    np.testing.assert_array_equal(a.m, b.m)
    n_a, chi_a = random_family(3, 7)
    n_b, chi_b = random_family(3, 7)
    np.testing.assert_array_equal(n_a, n_b)
    assert chi_a == chi_b


def test_random_state_batch_validity():
    rng = np.random.default_rng(42)
    xs = []
    for _ in range(1000):
        rho = random_state(3, rng)
        validate_density(rho)
        xs.append(bloch_decompose(rho))
    mean = np.mean(xs, axis=0)
    assert np.linalg.norm(mean) < 5.0 / np.sqrt(1000)


def test_random_family_members_physical():
    for seed in range(20):
        n, chi = random_family(3, seed)
        validate_density(family_member(n, chi))
        assert abs(np.linalg.norm(n) - 1.0) < 1e-12
        assert abs(chi) <= purity_radius(3)


def test_random_family_chi_lies_in_its_interval():
    """chi is uniform on the family's physical range, so every draw lies in
    its chi_interval and within the purity radius."""
    for d in (2, 3, 4, 8):
        n, chi, _ = random_families(d, np.random.default_rng(d), 200)
        lo, hi = chi_interval(n, d)
        assert np.all((lo <= chi) & (chi <= hi) & (np.abs(chi) <= purity_radius(d)))
        for seed in range(20):
            n, chi = random_family(d, seed)
            lo, hi = chi_interval(n, d)
            assert lo <= chi <= hi


def test_chi_interval_rejects_a_direction_of_the_wrong_length():
    with pytest.raises(DimensionMismatchError, match="expected 8 components"):
        chi_interval(np.ones((1, 3)), 3)
    with pytest.raises(DimensionMismatchError):
        chi_interval(np.ones(15), 3)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_chi_interval_refuses_a_non_finite_direction(bad):
    """n.X of a non-finite direction has no spectrum; the first bad row is
    named in a CohfactError, not left to the eigensolver."""
    n = np.tile(np.eye(8)[0], (4, 1))
    n[2, 5] = n[3, 0] = bad
    with pytest.raises(CohfactError, match="row 2"):
        chi_interval(n, 3)
    with pytest.raises(CohfactError, match="row 0"):
        chi_interval(n[2], 3)


def test_chi_interval_refuses_a_zero_direction():
    """n.X = 0 has no negative and no positive eigenvalue, so no bound
    2c/lam exists; the first zero row is named in a CohfactError, where
    the division would give -inf with a divide-by-zero warning."""
    with pytest.raises(CohfactError, match="row 0 has n.X = 0"):
        chi_interval(np.zeros((2, 3)), 2)
    n = np.tile(np.eye(8)[0], (3, 1))
    n[1] = 0.0
    with pytest.raises(CohfactError, match="row 1 has n.X = 0"):
        chi_interval(n, 3)
    with pytest.raises(CohfactError, match="row 0 has n.X = 0"):
        chi_interval(n[1], 3)


def test_random_state_stack_rows_are_states():
    rho = random_state(3, np.random.default_rng(5), size=7)
    assert rho.m.shape == (7, 3, 3)
    for m in rho.m:
        validate_density(density_matrix(m))


@pytest.mark.parametrize("call, error, match", [
    (lambda: density_matrix(np.full((2, 3), 0.2)), InvalidDimensionError, "square"),
    (lambda: validate_density(DensityMatrix(np.array([[0.5, 0.1], [0.0, 0.5]], dtype=complex))),
     UnphysicalStateError, "not Hermitian"),
    (lambda: validate_density(DensityMatrix(np.diag([0.6, 0.6]).astype(complex))),
     UnphysicalStateError, "trace"),
    (lambda: probe_state(np.ones(4) / 2, 2), DimensionMismatchError, "components"),
], ids=["non-square", "non-hermitian", "trace", "probe-direction-length"])
def test_state_input_checks(call, error, match):
    """Each check raises its own error; the message names the check, so
    a later check raising the same class does not stand in for it."""
    with pytest.raises(error, match=match):
        call()
