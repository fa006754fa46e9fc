"""Property tests of the channel algebra on random and named channels: the
transfer matrix against its dual-map definition and against apply, apply
against the Kraus sum, duality, composition, trace preservation, complete
positivity of every named channel, the Kraus stack's validation, and the
Bloch and JSON round trips, the auxiliary channel of reachable targets,
and stacked apply and purity against their item-by-item values."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cohfact import cli, io
from cohfact.basis import gellmann_basis, pauli_tensor_basis, y_to_x_transform
from cohfact.channel import (
    CONDITION_TOL,
    _lemma1_condition,
    apply,
    aux_channel,
    corollary1_check,
    dual_apply,
    kraus_channel,
    make_named,
    named_channels,
    random_channel,
    theorem1_condition,
    transfer_matrix,
)
from cohfact.errors import InvalidChannelError
from cohfact.measures import l1_from_density, purity_measure
from cohfact.state import DensityMatrix, bloch_compose, bloch_decompose, random_state

dims = st.integers(2, 5)
seeds = st.integers(0, 2**32 - 1)
kraus_counts = st.integers(1, 6)


def _transfer_reference(ch, basis):
    """T_ij = Tr[E^dag(X_i) X_j]/2, one dual_apply per generator."""
    d = basis.shape[-1]
    gens = (np.sqrt(2.0 / d) * np.eye(d), *basis)
    duals = [dual_apply(ch, g) for g in gens]
    return np.array([[np.trace(di @ gj).real / 2.0 for gj in gens] for di in duals])


@given(d=dims, k=kraus_counts, seed=seeds)
@settings(max_examples=40, deadline=None)
def test_transfer_matrix_matches_dual_definition(d, k, seed):
    ch = random_channel(d, k=k, seed=seed)
    got = transfer_matrix(ch)
    np.testing.assert_allclose(got, _transfer_reference(ch, gellmann_basis(d)), rtol=0, atol=1e-12)


@given(d=dims, k1=kraus_counts, k2=kraus_counts, seed=seeds)
@settings(max_examples=40, deadline=None)
def test_transfer_matrix_of_composition_is_product(d, k1, k2, seed):
    # Heisenberg order: (E2 o E1)^dag = E1^dag E2^dag, so T(E2 o E1) = T(E2) T(E1).
    rng = np.random.default_rng(seed)
    e1 = random_channel(d, k=k1, seed=rng)
    e2 = random_channel(d, k=k2, seed=rng)
    both = kraus_channel([f @ e for e in e1.kraus for f in e2.kraus])
    want = transfer_matrix(e2) @ transfer_matrix(e1)
    np.testing.assert_allclose(transfer_matrix(both), want, rtol=0, atol=1e-12)


@given(d=dims, k=kraus_counts, seed=seeds)
@settings(max_examples=40, deadline=None)
def test_trace_preserving_channel_has_unit_first_row(d, k, seed):
    t = transfer_matrix(random_channel(d, k=k, seed=seed))
    e0 = np.zeros(d * d)
    e0[0] = 1.0
    np.testing.assert_allclose(t[0], e0, rtol=0, atol=1e-12)


@given(d=dims, seed=seeds)
@settings(max_examples=30, deadline=None)
def test_bloch_round_trip_gellmann(d, seed):
    x = np.random.default_rng(seed).standard_normal(d * d - 1)
    np.testing.assert_allclose(bloch_decompose(bloch_compose(x)), x, rtol=0, atol=1e-12)


@given(N=st.integers(1, 3), seed=seeds)
@settings(max_examples=30, deadline=None)
def test_bloch_round_trip_pauli_tensor(N, seed):
    """Pauli tensor coordinates y go to Gell-Mann ones as a y and back as
    x a, a = y_to_x_transform(N), through the Bloch maps."""
    y = np.random.default_rng(seed).standard_normal(4**N - 1)
    a = y_to_x_transform(N)
    np.testing.assert_allclose(bloch_decompose(bloch_compose(y @ a.T)) @ a, y, rtol=0, atol=1e-12)


@given(N=st.integers(1, 4), seed=seeds)
@settings(max_examples=30, deadline=None)
def test_pauli_coordinates_match_trace_reference(N, seed):
    """Pauli tensor coordinates read as bloch_decompose(rho) @ a, a =
    y_to_x_transform(N), are y_j = Tr(rho Y_j) as an einsum over the Pauli
    tensor basis, for one state and a stack."""
    rho = random_state(2**N, seed, 3)
    want = np.einsum("...ab,jba->...j", rho.m, pauli_tensor_basis(N)).real
    np.testing.assert_allclose(bloch_decompose(rho) @ y_to_x_transform(N), want, rtol=0, atol=1e-15)
    np.testing.assert_allclose(bloch_decompose(DensityMatrix(rho.m[1])) @ y_to_x_transform(N), want[1],
                               rtol=0, atol=1e-15)


@given(d=dims, k=kraus_counts, seed=seeds)
@settings(max_examples=40, deadline=None)
def test_apply_matches_transfer_matrix_action(d, k, seed):
    # x'_i = sum_j T_ij x_j with the fixed coordinate x_0 = sqrt(2/d)
    rng = np.random.default_rng(seed)
    ch = random_channel(d, k=k, seed=rng)
    rho = random_state(d, rng)
    x = np.concatenate(([np.sqrt(2.0 / d)], bloch_decompose(rho)))
    got = bloch_decompose(apply(ch, rho))
    np.testing.assert_allclose(got, (transfer_matrix(ch) @ x)[1:], rtol=0, atol=1e-12)


def _random_operator(d, rng):
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


@given(d=dims, k=kraus_counts, seed=seeds)
@settings(max_examples=40, deadline=None)
def test_stack_products_match_kraus_sums(d, k, seed):
    rng = np.random.default_rng(seed)
    ch = random_channel(d, k=k, seed=rng)
    rho = random_state(d, rng)
    obs = _random_operator(d, rng)
    want = sum(e @ rho.m @ e.conj().T for e in ch.kraus)
    np.testing.assert_allclose(apply(ch, rho).m, want, rtol=0, atol=1e-12)
    want = sum(e.conj().T @ obs @ e for e in ch.kraus)
    np.testing.assert_allclose(dual_apply(ch, obs), want, rtol=0, atol=1e-12)
    want = sum(e @ e.conj().T for e in ch.kraus)  # A, which is E(I)
    np.testing.assert_allclose(apply(ch, DensityMatrix(np.eye(d))).m, want, rtol=0, atol=1e-12)
    # Corollary 1 reads C_l1(A)/d, the sum of the off-diagonal |A_jk| over d
    assert corollary1_check(ch) == bool(np.sum(np.abs(want - np.diag(np.diag(want)))) / d <= CONDITION_TOL)


def _sigma_channel(d, c):
    """E(rho) = rho/2 + Tr(rho) sigma/2 with sigma = I/d + c (|0><1| + |1><0|),
    from the Kraus operators I/sqrt(2) and sqrt(sigma)|i><j|/sqrt(2).
    E(I/d) = I/d + (c/2)(|0><1| + |1><0|), so c0 = C_l1[E(I/d)] = c, and
    E(I/d) - I/d has no diagonal part. sqrt(sigma) is I/sqrt(d) but for its
    0-1 block [[p, q], [q, p]], with p, q = (r+ +- r-)/2 and r+- = sqrt(1/d
    +- c); q is written c/(r+ + r-), where r+ - r- would cancel."""
    r_plus, r_minus = np.sqrt(1.0 / d + c), np.sqrt(1.0 / d - c)
    root = np.eye(d) / np.sqrt(d)
    root[:2, :2] = [[(r_plus + r_minus) / 2, c / (r_plus + r_minus)],
                    [c / (r_plus + r_minus), (r_plus + r_minus) / 2]]
    ops = np.einsum("ai,jb->ijab", root, np.eye(d)).reshape(d * d, d, d)  # sqrt(sigma)|i><j|
    return kraus_channel(np.concatenate(([np.eye(d)], ops)) / np.sqrt(2.0))


@given(d=st.integers(2, 32), above=st.booleans())
@example(d=32, above=False)
@example(d=32, above=True)
@settings(max_examples=10, deadline=None)
def test_condition_checks_read_c0_against_the_threshold(d, above):
    """theorem1_condition (from T), corollary1_check (from the Kraus set)
    and Lemma 1's unitality read c0 = C_l1[E(I/d)] against CONDITION_TOL,
    so a channel whose c0 lies 1e-3 of the threshold to one side is on
    that side in all three, at every d. Max-entry readings, |T_k0| =
    sqrt(d/2) c0 or |A_jk| = d c0 / 2, would fail a c0 under the threshold."""
    ch = _sigma_channel(d, CONDITION_TOL * (1.001 if above else 0.999))
    t = transfer_matrix(ch)
    assert theorem1_condition(t) is (not above)
    assert corollary1_check(ch) is (not above)
    assert _lemma1_condition(t) is (not above)


@given(d=dims, k=kraus_counts, seed=seeds)
@settings(max_examples=40, deadline=None)
def test_duality(d, k, seed):
    # Tr[E(rho) O] = Tr[rho E^dag(O)] for any operator O
    rng = np.random.default_rng(seed)
    ch = random_channel(d, k=k, seed=rng)
    rho = random_state(d, rng)
    obs = _random_operator(d, rng)
    lhs = np.trace(apply(ch, rho).m @ obs)
    rhs = np.trace(rho.m @ dual_apply(ch, obs))
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, np.abs(obs).max())


@given(d=dims, k=kraus_counts, seed=seeds)
@settings(max_examples=20, deadline=None)
def test_kraus_stack_is_a_read_only_copy(d, k, seed):
    ops = np.array(random_channel(d, k=k, seed=seed).kraus)
    ch = kraus_channel(ops)
    assert ch.kraus.shape == (k, d, d)
    assert not ch.kraus.flags.writeable
    assert ops.flags.writeable
    ops[0] = 0.0  # the caller's array stays theirs
    assert np.abs(ch.kraus[0]).max() > 0


@given(d=dims, d2=dims, k=kraus_counts)
@settings(max_examples=30, deadline=None)
def test_ragged_or_non_square_kraus_sets_are_rejected(d, d2, k):
    ops = [np.eye(d) / np.sqrt(k)] * k
    with pytest.raises(InvalidChannelError):
        kraus_channel(ops + [np.eye(d + 1)])  # ragged
    with pytest.raises(InvalidChannelError):
        kraus_channel(np.ones((k, d, d2 + d)))  # non-square
    with pytest.raises(InvalidChannelError):
        kraus_channel(np.eye(d))  # one matrix, not a stack


# ---------------------------------------------------------------------------
# named channels over their parameter domains

unit = st.floats(0.0, 1.0)


def _qubit(**keys):
    return st.fixed_dictionaries(keys).map(lambda p: (2, p))


def _gell_mann_G(d, q0, t):
    # channel iff q0 <= 1 and -(1 + (d-1) q0)/(d^2-d) <= q <= (1 + (d-1) q0)/d
    lo, hi = -(1 + (d - 1) * q0) / (d * d - d), (1 + (d - 1) * q0) / d
    return d, {"q": lo + t * (hi - lo), "q0": q0}


_NAMED_PARAMS = {
    "bit_flip": _qubit(q=unit),
    "bit_phase_flip": _qubit(q=unit),
    "phase_flip": _qubit(q=unit),
    "phase_damping": _qubit(q=unit),
    "amplitude_damping": _qubit(gamma=unit),
    "generalized_amplitude_damping": _qubit(gamma=unit, pbar=unit),
    "frozen_xy": _qubit(q=unit, sign=st.sampled_from([+1, -1])),
    "frozen_z": _qubit(q=unit, sign=st.sampled_from([+1, -1])),
    "pauli": st.lists(unit, min_size=4, max_size=4).filter(lambda p: sum(p) > 0.1).map(
        lambda p: (2, {f"p{i}": v / sum(p) for i, v in enumerate(p)})),
    "depolarizing": dims.flatmap(
        lambda d: st.floats(0.0, 1.0 + 1.0 / (d * d - 1)).map(lambda p: (d, {"p": p}))),
    "gell_mann_G": dims.flatmap(
        lambda d: st.tuples(st.floats(-1.0 / (d - 1), 1.0), unit).map(lambda a: _gell_mann_G(d, *a))),
}


def _choi_from_transfer(t, basis):
    """J = sum_ab |a><b| (x) E(|a><b|) = sum_ij T_ij X_j^T (x) X_i / 2, since
    E(X_j) = sum_i T_ij X_i and |a><b| = sum_j X_j[b, a] X_j / 2."""
    d = basis.shape[-1]
    g = np.concatenate(([np.sqrt(2.0 / d) * np.eye(d)], basis))
    return 0.5 * np.einsum("ij,jba,ice->acbe", t, g, g).reshape(d * d, d * d)


@pytest.mark.parametrize("name", named_channels())
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_named_channel_choi_matrix_is_psd(name, data):
    d, params = data.draw(_NAMED_PARAMS[name])
    ch = make_named(name, d=d, params=params)
    choi = _choi_from_transfer(transfer_matrix(ch), gellmann_basis(d))
    np.testing.assert_allclose(choi, choi.conj().T, rtol=0, atol=1e-12)
    assert np.linalg.eigvalsh(choi).min() >= -1e-10
    assert abs(np.trace(choi).real - d) <= 1e-10


@given(d=dims, k=kraus_counts, seed=seeds)
@settings(max_examples=40, deadline=None)
def test_random_channel_is_cptp(d, k, seed):
    """The Choi matrix of a random channel is PSD, and tracing out its output
    leaves I, so its trace is d."""
    ch = random_channel(d, k=k, seed=seed)
    choi = _choi_from_transfer(transfer_matrix(ch), gellmann_basis(d))
    np.testing.assert_allclose(choi, choi.conj().T, rtol=0, atol=1e-12)
    assert np.linalg.eigvalsh(choi).min() >= -1e-10
    assert abs(np.trace(choi).real - d) <= 1e-10
    np.testing.assert_allclose(np.einsum("acbc->ab", choi.reshape(d, d, d, d)), np.eye(d), rtol=0, atol=1e-10)


@given(N=st.integers(1, 2), seed=seeds)
@settings(max_examples=30, deadline=None)
def test_aux_channel_of_a_reachable_target_is_a_channel(N, seed):
    """The auxiliary channel of a random reachable target is trace
    preserving, has a PSD Choi matrix, and maps its source onto the target."""
    ys, ms, chis, _ = cli._sample_reachable_target(N, [seed, 0], 1)
    ybasis = pauli_tensor_basis(N)
    d = 2**N
    rho = DensityMatrix(np.eye(d) / d + 0.5 * np.tensordot(ys[0], ybasis, 1))  # I/d + (1/2) y.Y
    m, chi = ms[0], chis[0]
    ch = aux_channel(rho, m, chi)
    v = ch.kraus.reshape(-1, d)
    np.testing.assert_allclose(v.conj().T @ v, np.eye(d), rtol=0, atol=1e-12)
    t = transfer_matrix(ch)
    np.testing.assert_allclose(t[0], np.eye(d * d)[0], rtol=0, atol=1e-12)
    choi = _choi_from_transfer(t, gellmann_basis(d))
    np.testing.assert_allclose(choi, choi.conj().T, rtol=0, atol=1e-12)
    assert np.linalg.eigvalsh(choi).min() >= -1e-10
    target = np.eye(d) / d + 0.5 * np.tensordot(chi * m, ybasis, 1)  # I/d + (chi/2) m.Y
    np.testing.assert_allclose(apply(ch, rho).m, target, rtol=0, atol=1e-12)


def _assert_json_round_trip(ch):
    back = io.channel_from_dict(io.channel_to_dict(ch))
    assert back.label == ch.label
    assert back.params.keys() == ch.params.keys()
    np.testing.assert_allclose(list(back.params.values()), list(ch.params.values()),
                               rtol=1e-11, atol=0)
    np.testing.assert_allclose(np.array(back.kraus), np.array(ch.kraus), rtol=0, atol=1e-12)


@pytest.mark.parametrize("name", named_channels())
@given(data=st.data())
@settings(max_examples=10, deadline=None)
def test_named_channel_json_round_trip(name, data):
    d, params = data.draw(_NAMED_PARAMS[name])
    _assert_json_round_trip(make_named(name, d=d, params=params))


@given(d=dims, k=kraus_counts, seed=seeds)
@settings(max_examples=30, deadline=None)
def test_channel_and_state_json_round_trip(d, k, seed):
    rng = np.random.default_rng(seed)
    _assert_json_round_trip(random_channel(d, k=k, seed=rng))
    rho = random_state(d, rng)
    back = io.state_from_dict(io.state_to_dict(rho))
    np.testing.assert_allclose(back.m, rho.m, rtol=0, atol=1e-12)


@given(d=dims, k=kraus_counts, P=st.integers(1, 12), s=st.integers(1, 6), seed=seeds)
@settings(max_examples=40, deadline=None)
def test_stacks_map_item_by_item(d, k, P, s, seed):
    """A (P, k, d, d) stack of channels maps one state to the P images of
    its channels, and one channel maps an (s, d, d) stack of states to
    their s images, byte for byte; the purity of a stack is its per-matrix
    values bit for bit and |x|^2 / 2 of the Gell-Mann coordinates. Both
    sides of the last are sums of d^2 terms of a Tr rho^2 <= 1, so they
    agree to a few d^2 units of roundoff, not to a fixed 1e-15. C_l1 is
    never below 0, not even of an image I/d whose off-diagonal entries are
    round-off."""
    rng = np.random.default_rng(seed)
    chans = [random_channel(d, k=k, seed=rng) for _ in range(P)]
    rho = random_state(d, rng)
    images = apply(kraus_channel(np.stack([ch.kraus for ch in chans])), rho).m
    assert images.shape == (P, d, d)
    for ch, image in zip(chans, images):
        assert image.tobytes() == apply(ch, rho).m.tobytes()
    states = random_state(d, rng, size=s)
    for state, image in zip(states.m, apply(chans[0], states).m):
        assert image.tobytes() == apply(chans[0], DensityMatrix(state)).m.tobytes()
    purity = purity_measure(images)
    assert purity.tobytes() == np.array([purity_measure(m) for m in images]).tobytes()
    x = bloch_decompose(DensityMatrix(images))
    np.testing.assert_allclose(purity, 0.5 * np.sum(x * x, axis=-1), rtol=0, atol=4 * d * d * np.finfo(float).eps)
    mixed = apply(make_named("depolarizing", d=d, params={"p": 1.0}), states).m
    assert np.all(l1_from_density(np.concatenate((images, mixed))) >= 0.0)
