import numpy as np
import pytest

from cohfact.basis import gellmann_basis
from cohfact.errors import (
    DimensionMismatchError,
    IncoherentDirectionError,
    UnphysicalStateError,
)
from cohfact.state import (
    StateFamily,
    bloch_compose,
    bloch_decompose,
    chi_interval,
    coherence_weight,
    density_matrix,
    family_member,
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
    b = gellmann_basis(3)
    rho = density_matrix(np.eye(3, dtype=complex) / 3)
    assert np.max(np.abs(bloch_decompose(rho, b))) < 1e-14


def test_decompose_plus_state():
    x = bloch_decompose(plus_state(), gellmann_basis(2))
    np.testing.assert_allclose(x, [1.0, 0.0, 0.0], atol=1e-14)


def test_compose_trivials():
    b = gellmann_basis(2)
    np.testing.assert_allclose(bloch_compose(np.zeros(3), b).m, np.eye(2) / 2)
    np.testing.assert_allclose(bloch_compose(np.array([0.0, 0.0, 1.0]), b).m, np.diag([1.0, 0.0]))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_round_trip(d):
    b = gellmann_basis(d)
    for seed in range(5):
        rho = random_state(d, seed)
        back = bloch_compose(bloch_decompose(rho, b), b)
        np.testing.assert_allclose(back.m, rho.m, atol=1e-12)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_purity_identity(d):
    b = gellmann_basis(d)
    for seed in range(5):
        rho = random_state(d, seed)
        x = bloch_decompose(rho, b)
        assert abs(np.trace(rho.m @ rho.m).real - (np.dot(x, x) / 2 + 1 / d)) < 1e-12


def test_compose_rejects_unphysical():
    b = gellmann_basis(3)
    x = np.zeros(8)
    x[0] = purity_radius(3) * 1.05
    with pytest.raises(UnphysicalStateError) as exc:
        validate_density(bloch_compose(x, b))
    assert exc.value.min_eigenvalue < 0


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_density_matrix_rejects_non_finite(bad):
    with pytest.raises(UnphysicalStateError, match="non-finite"):
        density_matrix(np.diag([bad, bad]))
    with pytest.raises(UnphysicalStateError, match="non-finite"), np.errstate(invalid="ignore"):
        validate_density(bloch_compose(np.array([0.0, bad, 0.0]), gellmann_basis(2)))


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        bloch_decompose(plus_state(), gellmann_basis(3))
    with pytest.raises(DimensionMismatchError):
        bloch_compose(np.zeros(5), gellmann_basis(2))


def test_family_member_trivials():
    fam = StateFamily(d=3, n=np.eye(8)[0], chi=0.0)
    np.testing.assert_allclose(family_member(fam).m, np.eye(3) / 3)
    fam2 = StateFamily(d=2, n=np.array([1.0, 0, 0]), chi=1.0)
    np.testing.assert_allclose(family_member(fam2).m, plus_state().m, atol=1e-14)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_family_purity_relation(d):
    for seed in range(5):
        fam = random_family(d, seed)
        rho = family_member(fam)
        assert abs(np.trace(rho.m @ rho.m).real - (fam.chi**2 / 2 + 1 / d)) < 1e-12


def test_probe_qubit_x_direction():
    p = probe_state(np.array([1.0, 0.0, 0.0]), 2)
    assert abs(p.chi_p - 1.0) < 1e-15
    assert p.physical
    np.testing.assert_allclose(p.state.m, plus_state().m, atol=1e-14)


def test_probe_formal_flag():
    # chi_p = 1/0.6 = 5/3 exceeds the qubit Bloch ball
    p = probe_state(np.array([0.6, 0.0, 0.8]), 2)
    assert abs(p.chi_p - 5.0 / 3.0) < 1e-12
    assert not p.physical
    assert np.linalg.eigvalsh(p.state.m)[0] < -1e-9


def test_probe_coherence_is_one():
    rng = np.random.default_rng(0)
    for d in (2, 3, 4):
        for _ in range(20):
            v = rng.standard_normal(d * d - 1)
            n = v / np.linalg.norm(v)
            p = probe_state(n, d)
            assert abs(l1_from_density(p.state) - 1.0) < 1e-12


def test_probe_incoherent_direction_rejected():
    n = np.zeros(8)
    n[6] = 1.0  # purely diagonal direction
    with pytest.raises(IncoherentDirectionError):
        probe_state(n, 3)


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
    fam_a = random_family(3, 7)
    fam_b = random_family(3, 7)
    np.testing.assert_array_equal(fam_a.n, fam_b.n)
    assert fam_a.chi == fam_b.chi


def test_random_state_batch_validity():
    rng = np.random.default_rng(42)
    xs = []
    b = gellmann_basis(3)
    for _ in range(1000):
        rho = random_state(3, rng)
        validate_density(rho)
        xs.append(bloch_decompose(rho, b))
    mean = np.mean(xs, axis=0)
    assert np.linalg.norm(mean) < 5.0 / np.sqrt(1000)


def test_random_family_members_physical():
    for seed in range(20):
        fam = random_family(3, seed)
        validate_density(family_member(fam))
        assert abs(np.linalg.norm(fam.n) - 1.0) < 1e-12
        assert abs(fam.chi) <= purity_radius(3)


def test_random_family_chi_lies_in_its_interval():
    """chi is uniform on the family's physical range, so every draw lies in
    its chi_interval and within the purity radius."""
    for d in (2, 3, 4, 8):
        n, chi = random_families(d, np.random.default_rng(d), 200)
        lo, hi = chi_interval(n, d)
        assert np.all((lo <= chi) & (chi <= hi) & (np.abs(chi) <= purity_radius(d)))
        for seed in range(20):
            fam = random_family(d, seed)
            lo, hi = chi_interval(fam.n, d)
            assert lo <= fam.chi <= hi


def test_chi_interval_rejects_a_direction_of_the_wrong_length():
    with pytest.raises(DimensionMismatchError, match="expected 8 components"):
        chi_interval(np.ones((1, 3)), 3)
    with pytest.raises(DimensionMismatchError):
        chi_interval(np.ones(15), 3)


def test_random_state_stack_rows_are_states():
    rho = random_state(3, np.random.default_rng(5), size=7)
    assert rho.m.shape == (7, 3, 3)
    for m in rho.m:
        validate_density(density_matrix(m))
