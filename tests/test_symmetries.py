"""Metamorphic tests from the symmetries of C_l1, which need no oracle.

An incoherent unitary U = P diag(e^{i phi}) (Baumgratz, Cramer and Plenio,
PRL 113, 140401 (2014)) preserves C_l1, and so does complex conjugation.
Each acts on Gell-Mann coordinates as an orthogonal R that maps u/v pairs
to pairs, R_ij = Tr(X_i f(X_j)) / 2 with f(A) = U A U^dag or f(A) = A^*.
The channel with Kraus set f(E_mu) then has the transfer matrix
R~ T R~^T, R~ = diag(1, R), and every family n becomes R n; so both sides
of each factorization law and both flags must not change. A wrong pair
or digit index in a coordinate map breaks this, even where an oracle
built on the same index convention would agree with it."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohfact.basis import gellmann_basis
from cohfact.channel import kraus_channel, random_channel, random_unital_channel, transfer_matrix
from cohfact.factorization import verify_families
from cohfact.state import chi_interval, random_families

seeds = st.integers(0, 2**32 - 1)
FAMILIES = 20


def _symmetry(kind, d, data):
    """The map f of an incoherent unitary drawn from ``data``, or of complex conjugation."""
    if kind == "conjugation":
        return np.conj
    perm = data.draw(st.permutations(range(d)), label="permutation")
    phases = data.draw(st.lists(st.floats(0.0, 2 * np.pi), min_size=d, max_size=d), label="phases")
    u = np.zeros((d, d), dtype=complex)
    u[perm, range(d)] = np.exp(1j * np.array(phases))  # U = P diag(e^{i phi})
    return lambda a: u @ a @ u.conj().T


@pytest.mark.parametrize("measure", ["l1", "purity"])
@pytest.mark.parametrize("channel", [random_channel, random_unital_channel])
@pytest.mark.parametrize("kind", ["unitary", "conjugation"])
@given(data=st.data(), seed=seeds)
@settings(max_examples=25, deadline=None)
def test_verify_families_is_invariant_under_coherence_symmetries(kind, channel, measure, data, seed):
    d = data.draw(st.integers(2, 6), label="d")
    f = _symmetry(kind, d, data)
    x = gellmann_basis(d)
    r = np.einsum("iab,jba->ij", x, f(x)).real / 2.0
    np.testing.assert_allclose(r @ r.T, np.eye(d * d - 1), rtol=0, atol=1e-13)
    rt = np.eye(d * d)
    rt[1:, 1:] = r

    rng = np.random.default_rng(seed)
    ch = channel(d, seed=rng)
    t = transfer_matrix(ch)
    t_sym = rt @ t @ rt.T
    np.testing.assert_allclose(transfer_matrix(kraus_channel(f(ch.kraus))), t_sym, rtol=0, atol=1e-12)

    n, chi, hi = random_families(d, rng, FAMILIES)
    n_sym = n @ r.T
    want = verify_families(measure, t, n, chi, hi)
    got = verify_families(measure, t_sym, n_sym, chi, chi_interval(n_sym)[1])
    bound = 1e-13 * np.maximum(1.0, np.abs(want.lhs))
    assert np.all(np.abs(got.lhs - want.lhs) <= bound), np.max(np.abs(got.lhs - want.lhs))
    assert np.all(np.abs(got.rhs - want.rhs) <= bound), np.max(np.abs(got.rhs - want.rhs))
    assert np.array_equal(got.probe_physical, want.probe_physical)
    assert np.array_equal(got.condition_held, want.condition_held)
