"""Property tests of the channel algebra on random channels: the transfer
matrix against its dual-map definition, composition, trace preservation,
and the Bloch round trip in both basis types."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cohfact.basis import gellmann_basis, pauli_tensor_basis
from cohfact.channel import dual_apply, kraus_channel, random_channel, transfer_matrix
from cohfact.state import bloch_compose, bloch_decompose

dims = st.integers(2, 5)
seeds = st.integers(0, 2**32 - 1)
kraus_counts = st.integers(1, 6)


def _transfer_reference(ch, basis):
    """T_ij = Tr[E^dag(X_i) X_j]/2, one dual_apply per generator."""
    gens = (basis.identity_element, *basis.elements)
    duals = [dual_apply(ch, g) for g in gens]
    return np.array([[np.trace(di @ gj).real / 2.0 for gj in gens] for di in duals])


@given(d=dims, k=kraus_counts, seed=seeds)
@settings(max_examples=40, deadline=None)
def test_transfer_matrix_matches_dual_definition(d, k, seed):
    ch = random_channel(d, k=k, seed=seed)
    got = transfer_matrix(ch).t
    np.testing.assert_allclose(got, _transfer_reference(ch, gellmann_basis(d)), rtol=0, atol=1e-12)


@given(d=dims, k1=kraus_counts, k2=kraus_counts, seed=seeds)
@settings(max_examples=40, deadline=None)
def test_transfer_matrix_of_composition_is_product(d, k1, k2, seed):
    # Heisenberg order: (E2 o E1)^dag = E1^dag E2^dag, so T(E2 o E1) = T(E2) T(E1).
    rng = np.random.default_rng(seed)
    e1 = random_channel(d, k=k1, seed=rng)
    e2 = random_channel(d, k=k2, seed=rng)
    both = kraus_channel([f @ e for e in e1.kraus for f in e2.kraus])
    want = transfer_matrix(e2).t @ transfer_matrix(e1).t
    np.testing.assert_allclose(transfer_matrix(both).t, want, rtol=0, atol=1e-12)


@given(d=dims, k=kraus_counts, seed=seeds)
@settings(max_examples=40, deadline=None)
def test_trace_preserving_channel_has_unit_first_row(d, k, seed):
    t = transfer_matrix(random_channel(d, k=k, seed=seed)).t
    e0 = np.zeros(d * d)
    e0[0] = 1.0
    np.testing.assert_allclose(t[0], e0, rtol=0, atol=1e-12)


@given(d=dims, seed=seeds)
@settings(max_examples=30, deadline=None)
def test_bloch_round_trip_gellmann(d, seed):
    x = np.random.default_rng(seed).standard_normal(d * d - 1)
    b = gellmann_basis(d)
    np.testing.assert_allclose(bloch_decompose(bloch_compose(x, b), b).x, x, rtol=0, atol=1e-12)


@given(N=st.integers(1, 3), seed=seeds)
@settings(max_examples=30, deadline=None)
def test_bloch_round_trip_pauli_tensor(N, seed):
    x = np.random.default_rng(seed).standard_normal(4**N - 1)
    b = pauli_tensor_basis(N)
    np.testing.assert_allclose(bloch_decompose(bloch_compose(x, b), b).x, x, rtol=0, atol=1e-12)
