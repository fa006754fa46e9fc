"""Property tests of the two-qubit measures on Ginibre, Werner, rank-2 and
product states: the correlation figures, D2, N2 and the Hellinger discord
against a reference built from Tr(rho s_i x s_j), D2 <= N2, invariance of
D2 and N2 under local unitaries, and D2 = 0 on classical-quantum states."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cohfact.measures import correlation_measures, geometric_discord2, hellinger_discord, min2
from cohfact.state import random_state

seeds = st.integers(0, 2**32 - 1)
weights = st.floats(0.0, 1.0)

SIGMA = [
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
]
SINGLET = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)


def _pure(rng, d):
    psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    psi /= np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


def _unitary(rng):
    q, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    return q


@st.composite
def two_qubit_states(draw):
    kind = draw(st.sampled_from(["ginibre", "werner", "rank2", "product"]))
    rng = np.random.default_rng(draw(seeds))
    if kind == "ginibre":
        return random_state(4, rng).m
    if kind == "werner":
        p = draw(weights)
        return p * np.outer(SINGLET, SINGLET) + (1.0 - p) * np.eye(4) / 4.0
    if kind == "rank2":
        w = draw(weights)
        return w * _pure(rng, 4) + (1.0 - w) * _pure(rng, 4)
    return np.kron(random_state(2, rng).m, random_state(2, rng).m)


def _reference(m):
    """The four measures from r_ij = Tr(m s_i x s_j), one trace per entry:
    x = r[1:, 0], T = r[1:, 1:], and the residual extremes
    (|x|^2 + ||T||^2 - lambda)/4 at the top and bottom eigenvalues of
    x x^T + T T^T."""

    def extremes(op):
        r = np.array([[np.trace(op @ np.kron(si, sj)).real for sj in SIGMA] for si in SIGMA])
        x, t = r[1:, 0], r[1:, 1:]
        lam = np.linalg.eigvalsh(np.outer(x, x) + t @ t.T)
        total = x @ x + np.sum(t * t)
        return (total - lam[-1]) / 4.0, (total - lam[0]) / 4.0, t

    low, high, t = extremes(m)
    e1, e2, e3 = np.clip(np.linalg.eigvalsh(t.T @ t)[::-1], 0.0, None)
    n_qt = np.sqrt(e1 + e2 + e3)
    corr = {
        "bell_max": 2.0 * np.sqrt(e1 + e2),
        "rsp_fidelity": (e2 + e3) / 2.0,
        "teleport_n": n_qt,
        "teleport_fidelity": 0.5 + n_qt / 6.0,
    }
    w, v = np.linalg.eigh(m)
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    return corr, 2.0 * low, 2.0 * high, extremes(root)[0]


@given(m=two_qubit_states())
@settings(max_examples=60, deadline=None)
def test_measures_match_pauli_reference(m):
    corr, d2, n2, dh = _reference(m)
    got = correlation_measures(m)
    assert got.keys() == corr.keys()
    for k in corr:
        assert abs(got[k] - corr[k]) <= 1e-12, k
    assert abs(geometric_discord2(m) - d2) <= 1e-12
    assert abs(min2(m) - n2) <= 1e-12
    assert abs(hellinger_discord(m) - dh) <= 1e-12


@given(m=two_qubit_states())
@settings(max_examples=60, deadline=None)
def test_discord_is_at_most_nonlocality(m):
    assert geometric_discord2(m) <= min2(m)


@given(m=two_qubit_states(), seed=seeds)
@settings(max_examples=40, deadline=None)
def test_local_unitary_invariance(m, seed):
    rng = np.random.default_rng(seed)
    u = np.kron(_unitary(rng), _unitary(rng))
    rotated = u @ m @ u.conj().T
    assert abs(geometric_discord2(rotated) - geometric_discord2(m)) <= 1e-12
    assert abs(min2(rotated) - min2(m)) <= 1e-12


@given(seed=seeds, p=weights)
@settings(max_examples=40, deadline=None)
def test_discord_vanishes_on_classical_quantum_states(seed, p):
    """sum_k p_k |k><k| x rho_k, with {|k>} a random basis of A."""
    rng = np.random.default_rng(seed)
    u = _unitary(rng)
    m = sum(pk * np.kron(np.outer(u[:, k], u[:, k].conj()), random_state(2, rng).m)
            for k, pk in enumerate((p, 1.0 - p)))
    assert abs(geometric_discord2(m)) <= 1e-12
