"""Metamorphic tests from the symmetries of C_l1, which need no oracle.

An incoherent unitary U = P diag(e^{i phi}) (Baumgratz, Cramer and Plenio,
PRL 113, 140401 (2014)) preserves C_l1, and so does complex conjugation.
Each acts on Gell-Mann coordinates as an orthogonal R that maps u/v pairs
to pairs, R_ij = Tr(X_i f(X_j)) / 2 with f(A) = U A U^dag or f(A) = A^*.
The channel with Kraus set f(E_mu) then has the transfer matrix
R~ T R~^T, R~ = diag(1, R), every family n becomes R n and every state
rho becomes f(rho); so both sides of each factorization law, both flags
and the frozen-coherence decision must not change. A wrong pair or digit
index in a coordinate map breaks this, even where an oracle built on the
same index convention would agree with it.

A permutation of the qubits of d = 2^N is a level permutation too. It
permutes the base-4 digits of every Pauli tensor index, so the cascade's
state coordinates y, target directions m and auxiliary weights eps permute
with it, and its records must not change."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohfact.basis import gellmann_basis
from cohfact.channel import (
    _pauli_coordinates,
    aux_weights,
    frozen_condition_check,
    kraus_channel,
    make_named,
    random_channel,
    random_unital_channel,
    transfer_matrix,
)
from cohfact.errors import NotApplicableError
from cohfact.factorization import verify_cascade, verify_corollary2, verify_families
from cohfact.state import DensityMatrix, chi_interval, random_families, random_state

seeds = st.integers(0, 2**32 - 1)
FAMILIES = 20
CHANNELS = {
    "depolarizing": lambda d, rng: make_named("depolarizing", d=d, params={"p": 0.3}),
    "phases": lambda d, rng: kraus_channel(np.diag(np.exp(2j * np.pi * rng.random(d)))[None]),
    "unital": lambda d, rng: random_unital_channel(d, seed=rng),
    "nonunital": lambda d, rng: random_channel(d, seed=rng),
}


def _symmetry(kind, d, data):
    """The map f of an incoherent unitary drawn from ``data``, or of complex conjugation."""
    if kind == "conjugation":
        return np.conj
    perm = data.draw(st.permutations(range(d)), label="permutation")
    phases = data.draw(st.lists(st.floats(0.0, 2 * np.pi), min_size=d, max_size=d), label="phases")
    u = np.zeros((d, d), dtype=complex)
    u[perm, range(d)] = np.exp(1j * np.array(phases))  # U = P diag(e^{i phi})
    return lambda a: u @ a @ u.conj().T


def _rotations(f, d):
    """R, orthogonal, and R~ = diag(1, R) of the symmetry f at d."""
    x = gellmann_basis(d)
    r = np.einsum("iab,jba->ij", x, f(x)).real / 2.0
    np.testing.assert_allclose(r @ r.T, np.eye(d * d - 1), rtol=0, atol=1e-13)
    rt = np.eye(d * d)
    rt[1:, 1:] = r
    return r, rt


def _outcome(check, *args):
    """``check(*args)``, or None if it raises NotApplicableError."""
    try:
        return check(*args)
    except NotApplicableError:
        return None


@pytest.mark.parametrize("measure", ["l1", "purity"])
@pytest.mark.parametrize("channel", [random_channel, random_unital_channel])
@pytest.mark.parametrize("kind", ["unitary", "conjugation"])
@given(data=st.data(), seed=seeds)
@settings(max_examples=25, deadline=None)
def test_verify_families_is_invariant_under_coherence_symmetries(kind, channel, measure, data, seed):
    d = data.draw(st.integers(2, 6), label="d")
    f = _symmetry(kind, d, data)
    r, rt = _rotations(f, d)

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


@pytest.mark.parametrize("channel, applies", [("depolarizing", True), ("unital", False), ("nonunital", False)])
@pytest.mark.parametrize("kind", ["unitary", "conjugation"])
@given(data=st.data(), seed=seeds)
@settings(max_examples=25, deadline=None)
def test_corollary2_is_invariant_under_coherence_symmetries(kind, channel, applies, data, seed):
    """verify_corollary2 on R~ T R~^T with the states f(rho): the same lhs
    and rhs, or NotApplicableError on both sides. depolarizing has the
    common scalar 1 - p; random channels have none on random states."""
    d = data.draw(st.integers(2, 8), label="d")
    f = _symmetry(kind, d, data)
    _, rt = _rotations(f, d)
    rng = np.random.default_rng(seed)
    t = transfer_matrix(CHANNELS[channel](d, rng))
    rho = random_state(d, rng, 5)
    want = _outcome(verify_corollary2, t, rho)
    got = _outcome(verify_corollary2, rt @ t @ rt.T, DensityMatrix(f(rho.m)))
    assert (want is not None) == (got is not None) == applies
    if applies:
        bound = 1e-13 * np.maximum(1.0, np.abs(want.lhs))
        assert np.all(np.abs(got.lhs - want.lhs) <= bound), np.max(np.abs(got.lhs - want.lhs))
        assert np.all(np.abs(got.rhs - want.rhs) <= bound), np.max(np.abs(got.rhs - want.rhs))


@pytest.mark.parametrize("channel, frozen", [("phases", True), ("unital", False), ("nonunital", None)])
@pytest.mark.parametrize("kind", ["unitary", "conjugation"])
@given(data=st.data(), seed=seeds)
@settings(max_examples=25, deadline=None)
def test_freeze_check_is_invariant_under_coherence_symmetries(kind, channel, frozen, data, seed):
    """frozen_condition_check on R~ T R~^T with the family R n decides as on
    T and n, with and without a family, on channels far from the
    CONDITION_TOL boundary: an incoherent unitary diag(e^{i theta}) freezes
    coherence, a random unital channel does not, and a random channel, not
    unital, has T_k0 != 0 and is refused (None)."""
    d = data.draw(st.integers(2, 8), label="d")
    f = _symmetry(kind, d, data)
    r, rt = _rotations(f, d)
    rng = np.random.default_rng(seed)
    t = transfer_matrix(CHANNELS[channel](d, rng))
    n = random_families(d, rng, 1)[0][0]
    assert _outcome(frozen_condition_check, t) == _outcome(frozen_condition_check, rt @ t @ rt.T) == frozen
    assert _outcome(frozen_condition_check, t, n) == _outcome(frozen_condition_check, rt @ t @ rt.T, r @ n) == frozen


def permuted_digits(v, perm):
    """v with the N base-4 digits of its last axis's index permuted: digit k
    of the new index is digit perm[k] of the old, the first the most significant."""
    lead = tuple(range(v.ndim - 1))
    axes = lead + tuple(v.ndim - 1 + p for p in perm)
    return v.reshape(v.shape[:-1] + (4,) * len(perm)).transpose(axes).reshape(v.shape)


def permuted_qubits(m, perm):
    """The (..., 2^N, 2^N) matrices m with their qubits permuted: qubit k of
    the new matrix is qubit perm[k] of the old, in rows and columns alike."""
    N, lead = len(perm), tuple(range(m.ndim - 2))
    axes = lead + tuple(m.ndim - 2 + p for p in perm) + tuple(m.ndim - 2 + N + p for p in perm)
    return m.reshape(m.shape[:-2] + (2,) * (2 * N)).transpose(axes).reshape(m.shape)


@given(N=st.integers(1, 4), data=st.data(), seed=seeds)
@settings(max_examples=25, deadline=None)
def test_cascade_is_invariant_under_qubit_permutations(N, data, seed):
    """verify_cascade on permuted qubits: the Pauli coordinates read from the
    permuted states are y with permuted digits, and with m and eps permuted
    likewise and the Kraus set of E_F permuted, lhs, rhs and flags agree.
    The targets q_nu = chi m_nu / y_nu lie within 1/4^(N+1) of 1/2, so every
    weight is positive."""
    perm = data.draw(st.permutations(range(N)), label="perm")
    rng = np.random.default_rng(seed)
    rho, ch = random_state(2**N, rng, 3), random_unital_channel(2**N, k=3, seed=rng)
    y = _pauli_coordinates(rho)
    target = y * (0.5 + rng.uniform(-0.25, 0.25, y.shape) / 4**N)
    chi = np.linalg.norm(target, axis=-1)
    m = target / chi[:, None]
    eps, unreachable = aux_weights(y, m, chi)
    assert not unreachable.any()

    def digits(a):
        return permuted_digits(np.concatenate((np.zeros((len(a), 1)), a), axis=-1), perm)[:, 1:]

    y2 = _pauli_coordinates(DensityMatrix(permuted_qubits(rho.m, perm)))
    np.testing.assert_allclose(y2, digits(y), rtol=0, atol=1e-15)
    t2 = transfer_matrix(kraus_channel(permuted_qubits(ch.kraus, perm)))
    want = verify_cascade(transfer_matrix(ch), y, m, eps)
    got = verify_cascade(t2, y2, digits(m), permuted_digits(eps, perm))
    for side in ("lhs", "rhs"):
        assert np.all(np.abs(getattr(got, side) - getattr(want, side)) <= 1e-13 * np.maximum(1.0, np.abs(want.lhs)))
    np.testing.assert_array_equal(got.probe_physical, want.probe_physical)
    np.testing.assert_array_equal(got.condition_held, want.condition_held)
