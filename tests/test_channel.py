import tracemalloc
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohfact.basis import pauli_tensor_basis
from cohfact.channel import (
    _AUX_SIGNS,
    _aux_signs,
    apply,
    aux_channel,
    aux_pauli_action,
    aux_solve,
    channel_entry,
    corollary1_check,
    dual_apply,
    frozen_condition_check,
    gell_mann_G,
    kraus_channel,
    make_frozen_qubit,
    make_named,
    named_channels,
    random_channel,
    random_unital_channel,
    scalar_actions,
    theorem1_condition,
    transfer_matrix,
    validate_frozen_coefficients,
)
from cohfact.errors import (
    CohfactError,
    DimensionMismatchError,
    InvalidChannelError,
    NotAChannelError,
    NotApplicableError,
    UnreachableTargetError,
)
from cohfact.io import MAX_D, channel_from_dict
from cohfact.state import DensityMatrix, bloch_decompose, density_matrix, random_state

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)


def identity_channel(d):
    return kraus_channel([np.eye(d, dtype=complex)], label="identity")


def _pauli_coefficients(ops):
    """Up to four qubit Kraus operators as eps[i, j] with
    E_i = sum_j eps[i, j] sigma_j, sigma_0 = I."""
    sigma = np.array([np.eye(2), SX, SY, np.diag([1.0, -1.0])], dtype=complex)
    eps = np.zeros((4, 4), dtype=complex)
    eps[: len(ops)] = np.einsum("iab,jba->ij", np.asarray(ops, dtype=complex), sigma) / 2.0
    return eps


def nondiagonal_a_channel():
    """Valid channel whose A = sum E E^dag has off-diagonal entries."""
    e0 = np.array([[1, 1], [0, 0]], dtype=complex) / np.sqrt(2)  # |0>(<0|+<1|)/sqrt(2)
    minus = np.array([1, -1], dtype=complex) / np.sqrt(2)
    plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
    e1 = np.outer(plus, minus.conj())
    return kraus_channel([e0, e1], label="nondiag_A")


def test_apply_identity():
    rho = random_state(3, 0)
    np.testing.assert_allclose(apply(identity_channel(3), rho).m, rho.m)


def test_phase_damping_scales_offdiagonals():
    rho = density_matrix(np.full((2, 2), 0.5, dtype=complex))
    out = apply(make_named("phase_damping", params={"q": 0.37}), rho)
    np.testing.assert_allclose(out.m, [[0.5, 0.5 * 0.37], [0.5 * 0.37, 0.5]], atol=1e-14)


def test_depolarizing_fixes_maximally_mixed():
    rho = density_matrix(np.eye(3, dtype=complex) / 3)
    out = apply(make_named("depolarizing", d=3, params={"p": 0.6}), rho)
    np.testing.assert_allclose(out.m, np.eye(3) / 3, atol=1e-13)


def test_apply_preserves_trace_and_hermiticity():
    for seed in range(10):
        ch = random_channel(3, seed=seed)
        out = apply(ch, random_state(3, seed)).m
        assert abs(np.trace(out) - 1.0) < 1e-12
        assert np.max(np.abs(out - out.conj().T)) < 1e-12


def test_dual_unital_fixes_identity():
    ch = make_named("bit_flip", params={"q": 0.3})
    np.testing.assert_allclose(dual_apply(ch, np.eye(2)), np.eye(2), atol=1e-13)


def test_dual_bit_flip_on_sigma_y():
    # direct conjugation: sigma_x sigma_y sigma_x = -sigma_y
    q = 0.4
    ch = make_named("bit_flip", params={"q": q})
    np.testing.assert_allclose(dual_apply(ch, SY), q * SY, atol=1e-13)


def test_adjoint_pairing():
    rng = np.random.default_rng(5)
    for _ in range(100):
        ch = random_channel(3, seed=rng)
        rho = random_state(3, rng)
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        obs = g + g.conj().T
        lhs = np.trace(apply(ch, rho).m @ obs)
        rhs = np.trace(rho.m @ dual_apply(ch, obs))
        assert abs(lhs - rhs) < 1e-11


def test_transfer_identity_channel():
    t = transfer_matrix(identity_channel(3))
    np.testing.assert_allclose(t, np.eye(9), atol=1e-13)


def test_transfer_depolarizing_diagonal():
    p = 0.25
    t = transfer_matrix(make_named("depolarizing", d=2, params={"p": p}))
    np.testing.assert_allclose(t, np.diag([1.0, 1 - p, 1 - p, 1 - p]), atol=1e-12)


def test_transfer_row0_is_trace_preservation():
    for seed in range(5):
        t = transfer_matrix(random_channel(3, seed=seed))
        np.testing.assert_allclose(t[0], np.eye(9)[0], atol=1e-12)


@pytest.mark.parametrize("d", [2, 3])
def test_transfer_consistency_with_apply(d):
    rng = np.random.default_rng(d)
    for _ in range(50):
        ch = random_channel(d, seed=rng)
        rho = random_state(d, rng)
        t = transfer_matrix(ch)
        xa = np.concatenate([[np.sqrt(2.0 / d)], bloch_decompose(rho)])
        got = bloch_decompose(apply(ch, rho))
        np.testing.assert_allclose(t @ xa, np.concatenate([[np.sqrt(2.0 / d)], got]), atol=1e-11)


def test_theorem1_condition_cases():
    assert theorem1_condition(transfer_matrix(random_unital_channel(3, seed=1)))
    # amplitude damping: T_30 != 0 but the off-diagonal rows are clean
    t = transfer_matrix(make_named("amplitude_damping", params={"gamma": 0.5}))
    assert abs(t[3, 0]) > 1e-3
    assert theorem1_condition(t)
    assert not theorem1_condition(transfer_matrix(nondiagonal_a_channel()))


def test_corollary1_cases():
    assert corollary1_check(random_unital_channel(2, seed=2))  # A = I
    assert corollary1_check(make_named("generalized_amplitude_damping",
                                       params={"gamma": 0.3, "pbar": 0.7}))
    assert not corollary1_check(nondiagonal_a_channel())


@pytest.mark.parametrize("d", [2, 3, 4])
def test_corollary1_equivalent_to_theorem1(d):
    rng = np.random.default_rng(d * 11)
    channels = [random_channel(d, seed=rng) if i % 3 else random_unital_channel(d, seed=rng)
                for i in range(30)]
    if d == 4:  # amplitude damping (0.5) on each qubit: non-unital with A diagonal
        ad = make_named("amplitude_damping", params={"gamma": 0.5}).kraus
        channels.append(kraus_channel([np.kron(a, b) for a in ad for b in ad]))
        assert corollary1_check(channels[-1])
    for ch in channels:
        assert corollary1_check(ch) == theorem1_condition(transfer_matrix(ch))


def test_scalar_action_phase_damping():
    q = 0.55
    t = transfer_matrix(make_named("phase_damping", params={"q": q}))
    assert abs(scalar_actions(t, [True, True]) - q) < 1e-12


def test_scalar_action_gell_mann_G():
    t = transfer_matrix(gell_mann_G(3, 0.4, 0.9))
    assert abs(scalar_actions(t, np.ones(6, dtype=bool)) - 0.4) < 1e-12


def test_scalar_action_bit_flip_has_no_common_q():
    t = transfer_matrix(make_named("bit_flip", params={"q": 0.5}))
    assert np.isnan(scalar_actions(t, [True, True]))
    assert abs(scalar_actions(t, [True, False]) - 1.0) < 1e-12


def test_frozen_condition_unitary_xy():
    t = transfer_matrix(make_frozen_qubit("xy", 0.7))
    assert frozen_condition_check(t)


def test_frozen_condition_bit_flip_relaxed():
    t = transfer_matrix(make_named("bit_flip", params={"q": 0.5}))
    assert not frozen_condition_check(t)
    assert frozen_condition_check(t, np.array([0.6, 0.0, 0.8]))
    assert not frozen_condition_check(t, np.array([0.0, 0.6, 0.8]))


def test_frozen_condition_phase_damping_false():
    t = transfer_matrix(make_named("phase_damping", params={"q": 0.5}))
    assert not frozen_condition_check(t)


def test_frozen_condition_requires_precondition():
    with pytest.raises(NotApplicableError):
        frozen_condition_check(transfer_matrix(nondiagonal_a_channel()))


def test_gell_mann_G_d2_depolarizing_special_case():
    q = 0.35
    tg = transfer_matrix(gell_mann_G(2, q, q))
    td = transfer_matrix(make_named("depolarizing", d=2, params={"p": 1 - q}))
    np.testing.assert_allclose(tg, td, atol=1e-12)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_gell_mann_G_dual_action(d):
    q, q0 = 0.45, 0.8
    t = transfer_matrix(gell_mann_G(d, q, q0))
    n_off = d * d - d
    want = np.diag([1.0] + [q] * n_off + [q0] * (d - 1))
    np.testing.assert_allclose(t, want, atol=1e-11)


def test_gell_mann_G_parameter_validation():
    with pytest.raises(InvalidChannelError, match="1 - d q"):
        gell_mann_G(3, 0.9, 0.0)
    with pytest.raises(InvalidChannelError, match="1 - q0"):
        gell_mann_G(3, 0.2, 1.5)


@pytest.mark.parametrize("name, params", [("depolarizing", {"p": 0.1}),
                                          ("gell_mann_G", {"q": 0.5, "q0": 0.5})])
@pytest.mark.parametrize("d", [1, 0])
def test_d_parameterized_channels_reject_small_d(name, params, d):
    with pytest.raises(InvalidChannelError, match="d >= 2"):
        make_named(name, d=d, params=params)


def test_bit_flip_transfer():
    q = 0.6
    t = transfer_matrix(make_named("bit_flip", params={"q": q}))
    np.testing.assert_allclose(t, np.diag([1.0, 1.0, q, q]), atol=1e-12)


def test_make_named_errors():
    with pytest.raises(InvalidChannelError, match="unknown"):
        make_named("nonsense")
    with pytest.raises(InvalidChannelError, match="missing"):
        make_named("bit_flip")
    with pytest.raises(InvalidChannelError):
        make_named("bit_flip", params={"q": 1.5})


@pytest.mark.parametrize("name, params, message", [
    ("frozen_xy", {"q": 0.3, "sgn": -1}, "has unknown keys ['sgn']; known: ['q', 'sign']"),
    ("amplitude_damping", {"gamma": 0.2, "pbar": 0.5}, "has unknown keys ['pbar']; known: ['gamma']"),
    ("bit_flip", {"q": "0.5"}, "entry 'q' must be a finite number, got '0.5'"),
    ("bit_flip", {"q": True}, "entry 'q' must be a finite number, got True"),
    ("bit_flip", {"q": None}, "entry 'q' must be a finite number, got None"),
    ("bit_flip", {"q": [0.2, 0.5]}, "entry 'q' must be a finite number, got [0.2, 0.5]"),
    ("bit_flip", {"q": np.nan}, "entry 'q' must be a finite number, got nan"),
    ("bit_flip", {"q": np.array([0.2, np.inf])}, "entry 'q' must be a finite number"),
    ("bit_flip", {"q": np.array([True])}, "entry 'q' must be a finite number"),
    ("bit_flip", {"q": 0.5j}, "entry 'q' must be a finite number"),
    ("frozen_z", {"q": 0.3, "sign": 10**400}, "entry 'sign' must be a finite number"),
])
def test_make_named_checks_every_parameter(name, params, message):
    """make_named is the one gate for named-channel parameters: a key off
    the channel's table row and a value that is not a finite real number
    are refused, from a library call and from a channel file alike."""
    with pytest.raises(InvalidChannelError) as lib:
        make_named(name, params=params)
    assert message in str(lib.value)
    if not any(isinstance(v, np.ndarray) or isinstance(v, complex) for v in params.values()):
        with pytest.raises(CohfactError) as file:
            channel_from_dict({"name": name, "params": params})
        assert str(file.value) == str(lib.value)


def test_make_named_takes_numpy_numbers_and_arrays():
    ch = make_named("frozen_xy", params={"q": np.float64(0.3), "sign": np.int64(-1)})
    np.testing.assert_array_equal(ch.kraus, make_frozen_qubit("xy", 0.3, sign=-1).kraus)
    assert make_named("bit_flip", params={"q": np.array([0.2, 0.5])}).kraus.shape == (2, 2, 2, 2)
    assert make_named("bit_flip", params={"q": np.array([0, 1])}).kraus.shape == (2, 2, 2, 2)


@pytest.mark.parametrize("name", ["phase_damping", "amplitude_damping", "frozen_z", "pauli"])
@pytest.mark.parametrize("d", [1, 3, 4])
def test_qubit_channel_rejects_other_d(name, d):
    params = {"q": 0.5, "gamma": 0.5, "p0": 1.0, "p1": 0.0, "p2": 0.0, "p3": 0.0}
    with pytest.raises(InvalidChannelError, match="qubit channel"):
        make_named(name, d=d, params={k: params[k] for k in channel_entry(name).keys})


def test_make_named_label_and_params():
    assert {"frozen_xy", "frozen_z"} <= set(named_channels())
    ch = make_named("frozen_z", params={"q": 0.3})
    assert (ch.label, ch.params) == ("frozen_z", {"q": 0.3, "sign": 1})
    np.testing.assert_array_equal(ch.kraus[0], make_frozen_qubit("z", 0.3).kraus[0])
    ch = make_named("amplitude_damping", params={"gamma": 0.2})
    assert (ch.label, ch.params) == ("amplitude_damping", {"gamma": 0.2})
    ch = make_named("depolarizing", d=3, params={"p": 0.4})
    assert (ch.label, ch.params, ch.d) == ("depolarizing", {"p": 0.4}, 3)


def test_pauli_channel():
    ch = make_named("pauli", params={"p0": 0.4, "p1": 0.3, "p2": 0.2, "p3": 0.1})
    np.testing.assert_allclose(apply(ch, DensityMatrix(np.eye(2))).m, np.eye(2), atol=1e-10)  # A = E(I)
    t = transfer_matrix(ch)
    # dual scales sigma_k by p0 + p_k - (sum of the other two)
    np.testing.assert_allclose(np.diag(t), [1.0, 0.4, 0.2, 0.0], atol=1e-12)


def test_frozen_qubit_trivial_endpoints():
    ch = make_frozen_qubit("xy", 1.0)
    np.testing.assert_allclose(ch.kraus[0], SX)
    ch = make_frozen_qubit("z", 1.0)
    np.testing.assert_allclose(ch.kraus[0], np.eye(2))
    with pytest.raises(InvalidChannelError):
        make_frozen_qubit("xy", 1.2)
    with pytest.raises(InvalidChannelError):
        make_frozen_qubit("w", 0.5)


@pytest.mark.parametrize("variant", ["xy", "z"])
@pytest.mark.parametrize("sign", [+1, -1])
def test_frozen_qubit_passes_corollary4(variant, sign):
    for q in (0.0, 0.3, 0.8, 1.0):
        ch = make_frozen_qubit(variant, q, sign=sign)
        assert frozen_condition_check(transfer_matrix(ch))
        assert validate_frozen_coefficients(_pauli_coefficients(ch.kraus))


def test_validate_frozen_coefficients_simplest_case():
    eps = np.zeros((4, 4), dtype=complex)
    eps[0, 1], eps[0, 2] = 0.6, 0.8
    assert validate_frozen_coefficients(eps)


def test_validate_frozen_coefficients_phase_damping_false():
    q = 0.5
    ch = make_named("phase_damping", params={"q": q})
    assert not validate_frozen_coefficients(_pauli_coefficients(ch.kraus))
    # A = sum E E^dag is not diagonal, so the factorization precondition fails
    assert not validate_frozen_coefficients(_pauli_coefficients(nondiagonal_a_channel().kraus))


def test_validate_frozen_coefficients_diagonal_unitary():
    theta = 0.77
    eps = np.zeros((4, 4), dtype=complex)
    eps[0, 0], eps[0, 3] = np.cos(theta), 1j * np.sin(theta)
    assert validate_frozen_coefficients(eps)


def test_validate_frozen_coefficients_requires_completeness():
    eps = np.zeros((4, 4), dtype=complex)
    eps[0, 1] = 0.5
    with pytest.raises(InvalidChannelError):
        validate_frozen_coefficients(eps)


def aux_coefficient_matrix(N):
    """The dense c = 2^(1-N) S x ... x S of N qubits, S = _AUX_SIGNS: the
    oracle of _aux_signs, which applies it one qubit at a time."""
    return reduce(np.kron, [_AUX_SIGNS] * N, 2.0 ** (1 - N))


def test_aux_coefficient_matrix_n1():
    want = np.array(
        [[1, 1, 1, 1], [1, 1, -1, -1], [1, -1, 1, -1], [1, -1, -1, 1]], dtype=float
    )
    np.testing.assert_array_equal(aux_coefficient_matrix(1), want)


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_aux_coefficient_matrix_digit_rule(N):
    # definition: c_{nu mu} = 2^(1-N) (-1)^(number of base-4 digit positions k
    # with nu_k, mu_k both nonzero and different)
    size = 4**N
    digits = np.array([[(idx // 4**k) % 4 for k in range(N)] for idx in range(size)])
    want = np.empty((size, size))
    for nu in range(size):
        anti = (digits[nu] != 0) & (digits != 0) & (digits != digits[nu])
        want[nu] = 2.0 ** (1 - N) * (-1.0) ** anti.sum(axis=1)
    c = aux_coefficient_matrix(N)
    np.testing.assert_array_equal(c, want)
    np.testing.assert_array_equal(c @ c, 4.0 * np.eye(size))


@given(N=st.integers(1, 5), s=st.integers(1, 40), data=st.data(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_per_qubit_signs_are_the_dense_product(N, s, data, seed):
    """_aux_signs(q) is c q to 1e-14 max(1, |q|) for each row q, rows of
    scales 1e-3 to 1e3; bitwise, the first t rows of an s-row call are a
    t-row call, and row 0 is the call on that row alone."""
    t = data.draw(st.integers(1, s), label="t")
    rng = np.random.default_rng(seed)
    q = rng.standard_normal((s, 4**N)) * 10.0 ** rng.integers(-3, 4, (s, 1))
    got = _aux_signs(q)
    bound = 1e-14 * np.maximum(1.0, np.linalg.norm(q, axis=-1, keepdims=True))
    assert np.all(np.abs(got - q @ aux_coefficient_matrix(N).T) <= bound)
    assert np.array_equal(got[:t], _aux_signs(q[:t]))
    assert np.array_equal(got[0], _aux_signs(q[0]))


def test_aux_identity_target():
    yb = pauli_tensor_basis(1)
    rho = random_state(2, 3)
    y = np.array([np.trace(rho.m @ e).real for e in yb])
    eps = aux_solve(rho, y / np.linalg.norm(y), np.linalg.norm(y))
    np.testing.assert_allclose(eps, [1.0, 0.0, 0.0, 0.0], atol=1e-12)


def test_aux_shrink_example():
    # hand-solved 4x4 system: q = (1, 0.5, 0, 0), eps = c q / 4
    rho = density_matrix(np.array([[0.5, 0.4], [0.4, 0.5]], dtype=complex))  # y = (0.8, 0, 0)
    eps = aux_solve(rho, np.array([1.0, 0.0, 0.0]), 0.4)
    q = np.array([1.0, 0.5, 0.0, 0.0])
    np.testing.assert_allclose(eps, aux_coefficient_matrix(1) @ q / 4, atol=1e-14)
    np.testing.assert_allclose(eps, [0.375, 0.375, 0.125, 0.125], atol=1e-14)
    ch = aux_channel(rho, np.array([1.0, 0.0, 0.0]), 0.4)
    out = bloch_decompose(apply(ch, rho))
    np.testing.assert_allclose(out, [0.4, 0.0, 0.0], atol=1e-12)


def test_aux_unreachable_target():
    rho = density_matrix(np.array([[0.9, 0.0], [0.0, 0.1]], dtype=complex))  # y = (0, 0, 0.8)
    with pytest.raises(UnreachableTargetError) as exc:
        aux_solve(rho, np.array([1.0, 0.0, 0.0]), 0.2)
    assert exc.value.index == 1


def test_aux_needs_a_power_of_2_dimension():
    rho = random_state(3, 0)
    for fn in (aux_solve, aux_channel):
        with pytest.raises(CohfactError):
            fn(rho, np.eye(8)[0], 0.1)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_aux_refuses_a_non_finite_direction(bad):
    """A non-finite target component is refused before any weight is
    solved, naming that component, as a non-finite chi is; it would
    otherwise give NaN weights, reported as a negative one."""
    rho = density_matrix(np.array([[0.75, 0.15 - 0.2j], [0.15 + 0.2j, 0.25]]))  # y = (0.3, 0.4, 0.5)
    for fn in (aux_solve, aux_channel):
        with pytest.raises(CohfactError, match=rf"non-finite component m\[0\] = {bad}"):
            fn(rho, np.array([bad, 0.0, 1.0]), 0.1)
    stack = DensityMatrix(np.stack([rho.m, rho.m]))
    m = np.array([[0.6, 0.0, 0.8], [0.0, bad, 1.0]])
    with pytest.raises(CohfactError, match=rf"non-finite component m\[1, 1\] = {bad}"):
        aux_solve(stack, m, [0.1, 0.1])


def _aux_q_reference(rho, m, chi, basis):
    """q of c eps = q, one coordinate at a time; returns the first dead
    coordinate's index instead when the target is unreachable; y_nu =
    Tr(rho Y_nu) is an einsum over the Pauli tensor ``basis``."""
    y = np.einsum("ab,jba->j", rho.m, basis).real
    q = np.zeros(basis.shape[-1]**2)
    q[0] = 1.0
    for nu in range(1, basis.shape[-1]**2):
        if abs(m[nu - 1]) > 0:
            if abs(y[nu - 1]) <= 1e-10:
                return nu
            q[nu] = chi * m[nu - 1] / y[nu - 1]
    return q


@pytest.mark.parametrize("N", [1, 2, 3])
def test_aux_solve_matches_coordinate_loop(N):
    rng = np.random.default_rng(100 + N)
    yb = pauli_tensor_basis(N)
    n = 4**N - 1
    dead_seen = 0
    for trial in range(60):
        # odd trials zero a few source coordinates; targets have zero entries
        live_source = rng.random(n) < (0.9 if trial % 2 else 1.0)
        y = 0.1 * rng.standard_normal(n) * live_source
        rho = DensityMatrix(np.eye(2**N) / 2**N + 0.5 * np.tensordot(y, yb, 1))  # I/d + (1/2) y.Y
        m = rng.standard_normal(n) * (rng.random(n) < 0.7)
        chi = rng.uniform(0.01, 0.3)
        want = _aux_q_reference(rho, m, chi, yb)
        if isinstance(want, int):
            dead_seen += 1
            with pytest.raises(UnreachableTargetError) as exc:
                aux_solve(rho, m, chi)
            assert exc.value.index == want
        else:
            # the Pauli coordinates of aux_solve agree with the einsum to 1e-15
            # (test_pauli_coordinates_match_trace_reference), so q_nu = chi m_nu / y_nu
            # to q_nu^2 1e-15 / |chi m_nu|, and eps = c q / 4, |c| = 2^(1-N), to the sum
            live = m != 0
            tol = 2.0 ** (-1 - N) * 1e-15 * np.sum(want[1:][live] ** 2 / np.abs(chi * m[live]))
            np.testing.assert_allclose(aux_solve(rho, m, chi), aux_coefficient_matrix(N) @ want / 4,
                                       rtol=0, atol=tol)
    assert 0 < dead_seen < 60


def test_aux_negative_eps_rejected():
    rho = density_matrix(np.array([[0.5, 0.05], [0.05, 0.5]], dtype=complex))  # y = (0.1, 0, 0)
    with pytest.raises(NotAChannelError) as exc:
        aux_channel(rho, np.array([1.0, 0.0, 0.0]), 1.0)  # q_1 = 10
    assert exc.value.eps is not None


def test_aux_n2_frobenius():
    rng = np.random.default_rng(21)
    yb = pauli_tensor_basis(2)
    hits = 0
    while hits < 10:
        rho = random_state(4, rng)
        v = rng.standard_normal(15)
        m = v / np.linalg.norm(v)
        chi = rng.uniform(0.005, 0.05)
        try:
            ch = aux_channel(rho, m, chi)
        except NotAChannelError:
            continue
        hits += 1
        out = apply(ch, rho).m
        target = np.eye(4, dtype=complex) / 4
        for mv, yv in zip(m, yb):
            target += 0.5 * chi * mv * yv
        assert np.linalg.norm(out - target) <= 1e-10


def test_random_channel_completeness_and_seeding():
    for d in (2, 3, 4):
        ch = random_channel(d, seed=9)
        s = sum(e.conj().T @ e for e in ch.kraus)
        np.testing.assert_allclose(s, np.eye(d), atol=1e-10)
        ch2 = random_channel(d, seed=9)
        np.testing.assert_array_equal(ch.kraus[0], ch2.kraus[0])


@pytest.mark.parametrize("k", [1, 32, 1024])
def test_random_channel_at_max_d_has_a_bounded_allocation(k):
    """The isometry is drawn by a thin QR, so d = MAX_D with k up to the
    default d^2 = 1024 stays within 128 MiB of traced allocation."""
    tracemalloc.start()
    try:
        ch = random_channel(MAX_D, k=k, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ch.kraus.shape == (k, MAX_D, MAX_D)
    assert peak < 128 * 2**20, peak


def test_random_unital_channel_is_unital():
    for d in (2, 3):
        ch = random_unital_channel(d, seed=4)
        np.testing.assert_allclose(apply(ch, DensityMatrix(np.eye(d))).m, np.eye(d), atol=1e-10)  # A = E(I)


def test_kraus_channel_rejects_incomplete_set():
    with pytest.raises(InvalidChannelError, match="completeness"):
        kraus_channel([0.5 * np.eye(2)])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_kraus_channel_rejects_non_finite(bad):
    e = np.eye(2, dtype=complex)
    e[0, 1] = bad
    with pytest.raises(InvalidChannelError, match="non-finite"):
        kraus_channel([e])


# transfer_matrix's imaginary-residue check has no case here: E^dag maps
# Hermitian generators to Hermitian operators for any Kraus set, so T is
# real up to rounding and no input reaches that raise.
@pytest.mark.parametrize("call, error, match", [
    (lambda: kraus_channel([]), InvalidChannelError, "empty"),
    (lambda: apply(make_named("bit_flip", params={"q": 0.5}), random_state(3, 0)),
     DimensionMismatchError, "state d=3"),
    (lambda: dual_apply(make_named("bit_flip", params={"q": 0.5}), np.eye(3)),
     DimensionMismatchError, "observable shape"),
    (lambda: make_frozen_qubit("xy", 0.5, sign=2), InvalidChannelError, "sign"),
    (lambda: validate_frozen_coefficients(np.eye(4)[:3]), InvalidChannelError, "4x4"),
    (lambda: aux_solve(random_state(2, 0), np.ones(4) / 2, 0.1), DimensionMismatchError, "components"),
    (lambda: aux_pauli_action([[0.5, 0.5, 1e-9, 0.0]]), InvalidChannelError, "completeness"),
], ids=["empty-kraus", "apply-d", "dual-shape", "frozen-sign", "frozen-table", "aux-direction",
        "aux-completeness"])
def test_channel_input_checks(call, error, match):
    """Each check raises its own error; the message names the check, so
    a later check raising the same class does not stand in for it."""
    with pytest.raises(error, match=match):
        call()
