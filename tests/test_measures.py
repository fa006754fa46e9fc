import os
import subprocess
import sys

import numpy as np
import pytest

import cohfact
from cohfact.channel import apply, make_named
from cohfact.errors import DimensionMismatchError, UnphysicalStateError
from cohfact.measures import (
    _collapse_extremes,
    correlation_measures,
    geometric_discord2,
    hellinger_discord,
    l1_from_density,
    min2,
    projective_collapse,
    purity_measure,
)
from cohfact.state import bloch_decompose, coherence_weight, density_matrix, random_state


# sigma_x, sigma_y, sigma_z
_SIG = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def _correlation_tensor(m):
    """Independent oracle: T_ij = Tr(m sigma_i x sigma_j), one trace per entry."""
    return np.array([[np.trace(m @ np.kron(a, b)).real for b in _SIG] for a in _SIG])


def bell_state():
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = m[0, 3] = m[3, 0] = m[3, 3] = 0.5
    return density_matrix(m)


def test_l1_trivials():
    assert l1_from_density(np.diag([0.3, 0.7])) == 0.0
    assert abs(l1_from_density(np.full((2, 2), 0.5)) - 1.0) < 1e-15


@pytest.mark.parametrize("d", [2, 3, 5])
def test_l1_maximally_coherent(d):
    rho = np.full((d, d), 1.0 / d)
    assert abs(l1_from_density(rho) - (d - 1)) < 1e-12


def test_l1_bloch_trivials():
    assert coherence_weight(np.zeros(3)) == 0.0
    assert abs(coherence_weight(np.array([0.6, 0.8, 0.3])) - 1.0) < 1e-15


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_dual_picture_agreement(d):
    rng = np.random.default_rng(d)
    for _ in range(50):
        rho = random_state(d, rng)
        assert abs(l1_from_density(rho) - coherence_weight(bloch_decompose(rho))) < 1e-12


def test_purity_trivials():
    assert abs(purity_measure(np.eye(3) / 3)) < 1e-15
    assert abs(purity_measure(np.diag([1.0, 0.0, 0.0])) - 2.0 / 3.0) < 1e-15


@pytest.mark.parametrize("d", [2, 3, 4])
def test_purity_bloch_identity(d):
    rng = np.random.default_rng(d + 100)
    for _ in range(20):
        rho = random_state(d, rng)
        x = bloch_decompose(rho)
        assert abs(purity_measure(rho) - np.dot(x, x) / 2.0) < 1e-12


def test_l1_monotone_under_incoherent_channels():
    rng = np.random.default_rng(8)
    for _ in range(10):
        rho = random_state(2, rng)
        c0 = l1_from_density(rho)
        last_pd, last_dep = c0, c0
        for q in np.linspace(1.0, 0.0, 11):
            pd = l1_from_density(apply(make_named("phase_damping", params={"q": q}), rho))
            dep = l1_from_density(apply(make_named("depolarizing", d=2, params={"p": 1 - q}), rho))
            assert pd <= last_pd + 1e-12
            assert dep <= last_dep + 1e-12
            last_pd, last_dep = pd, dep


def test_correlation_product_state():
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0  # |00><00|
    t3 = _correlation_tensor(rho)
    np.testing.assert_allclose(t3, np.diag([0.0, 0.0, 1.0]), atol=1e-14)
    assert abs(correlation_measures(rho)["bell_max"] - 2.0) < 1e-12


def test_correlation_bell_state():
    t3 = _correlation_tensor(bell_state().m)
    np.testing.assert_allclose(np.linalg.eigvalsh(t3.T @ t3), [1.0, 1.0, 1.0], atol=1e-12)
    meas = correlation_measures(bell_state())
    assert abs(meas["bell_max"] - 2.0 * np.sqrt(2.0)) < 1e-10
    assert abs(meas["teleport_fidelity"] - (0.5 + np.sqrt(3.0) / 6.0)) < 1e-10
    assert abs(meas["rsp_fidelity"] - 1.0) < 1e-12


def test_correlation_maximally_mixed():
    meas = correlation_measures(np.eye(4) / 4)
    assert all(abs(v) < 1e-12 for k, v in meas.items() if k != "teleport_fidelity")
    assert abs(meas["teleport_fidelity"] - 0.5) < 1e-12


def test_correlation_local_unitary_invariance():
    rng = np.random.default_rng(3)
    for _ in range(10):
        rho = random_state(4, rng)
        base = correlation_measures(rho)
        za = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        zb = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        ua, _ = np.linalg.qr(za)
        ub, _ = np.linalg.qr(zb)
        u = np.kron(ua, ub)
        rotated = correlation_measures(u @ rho.m @ u.conj().T)
        for k in base:
            assert abs(base[k] - rotated[k]) < 1e-10


def test_projective_collapse_diagonal_fixed_point():
    rho = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    out = projective_collapse(rho, np.array([0.0, 0.0, 1.0]))
    np.testing.assert_allclose(out.m, rho, atol=1e-14)


def test_projective_collapse_bell_state():
    out = projective_collapse(bell_state(), np.array([0.0, 0.0, 1.0]))
    want = np.zeros((4, 4))
    want[0, 0] = want[3, 3] = 0.5
    np.testing.assert_allclose(out.m, want, atol=1e-14)


def test_projective_collapse_trace_and_idempotence():
    rng = np.random.default_rng(17)
    for _ in range(20):
        rho = random_state(4, rng)
        v = rng.standard_normal(3)
        a = v / np.linalg.norm(v)
        once = projective_collapse(rho, a)
        assert abs(np.trace(once.m) - 1.0) < 1e-12
        twice = projective_collapse(once, a)
        np.testing.assert_allclose(twice.m, once.m, atol=1e-12)


def _bloch_closed_form(rho, opt):
    """Independent oracle: 2 opt_e ||rho - Pi(rho)||_2^2 from the Bloch
    decomposition; the objective is quadratic in the direction, so the
    optimum is an eigenvalue of a a^T + T T^T."""
    m = rho.m if hasattr(rho, "m") else np.asarray(rho)
    a = np.array([np.trace(m @ np.kron(s, np.eye(2))).real for s in _SIG])
    t3 = _correlation_tensor(m)
    k = np.outer(a, a) + t3 @ t3.T
    total = np.dot(a, a) + np.sum(t3 * t3)
    lam = np.linalg.eigvalsh(k)
    pick = lam[-1] if opt == "min" else lam[0]
    return 0.5 * (total - pick)


def test_discord_bell_state_vs_closed_form():
    assert abs(geometric_discord2(bell_state()) - 1.0) < 1e-8
    assert abs(geometric_discord2(bell_state()) - _bloch_closed_form(bell_state(), "min")) < 1e-8


def test_discord_classical_product_state():
    plus = np.full((2, 2), 0.5, dtype=complex)
    rho = np.kron(plus, np.eye(2) / 2)
    assert geometric_discord2(rho) < 1e-10


def test_discord_matches_closed_form_on_randoms():
    rng = np.random.default_rng(23)
    for _ in range(10):
        rho = random_state(4, rng)
        assert abs(geometric_discord2(rho) - _bloch_closed_form(rho, "min")) < 1e-8
        assert abs(min2(rho) - _bloch_closed_form(rho, "max")) < 1e-8


def test_min2_dominates_discord():
    rng = np.random.default_rng(31)
    for _ in range(20):
        rho = random_state(4, rng)
        assert min2(rho) >= geometric_discord2(rho) - 1e-10


def test_hellinger_discord():
    assert abs(hellinger_discord(bell_state()) - 0.5) < 1e-8
    plus = np.full((2, 2), 0.5, dtype=complex)
    assert hellinger_discord(density_matrix(np.kron(plus, np.eye(2) / 2))) < 1e-10
    assert hellinger_discord(random_state(4, 1)) >= 0.0


def _sqrtm(rho):
    w, v = np.linalg.eigh(rho.m)
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T


def _residual_sq(m, a):
    """||m - Pi_a(m)||_2^2 from the definition of the local measurement map."""
    diff = m - projective_collapse(m, a).m
    return float(np.sum(np.abs(diff) ** 2))


@pytest.mark.parametrize("measure, operator, scale, largest", [
    (geometric_discord2, lambda rho: rho.m, 2.0, False),
    (min2, lambda rho: rho.m, 2.0, True),
    (hellinger_discord, _sqrtm, 1.0, False),
])
def test_discord_definition_at_returned_direction(measure, operator, scale, largest):
    """The value is the residual at the returned direction, and no sampled
    direction beats it."""
    rng = np.random.default_rng(37)
    for rho in [bell_state()] + [random_state(4, rng) for _ in range(10)]:
        m = operator(rho)
        _, a = _collapse_extremes(m)[largest]
        best = _residual_sq(m, a)
        assert abs(np.linalg.norm(a) - 1.0) < 1e-12
        assert abs(measure(rho) - scale * best) < 1e-8
        v = rng.standard_normal((100, 3))
        for u in v / np.linalg.norm(v, axis=1, keepdims=True):
            r = _residual_sq(m, u)
            assert (r <= best + 1e-12) if largest else (r >= best - 1e-12)


@pytest.mark.parametrize("measure, calls", [
    (geometric_discord2, 0), (min2, 0), (correlation_measures, 0), (hellinger_discord, 1),
])
def test_values_take_no_eigenvectors_of_k(monkeypatch, measure, calls):
    """D2, N2 and the correlation figures need eigenvalues only; D_H takes
    one eigh, that of rho for its square root, and none of its K."""
    eigh, shapes = np.linalg.eigh, []

    def spy(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    for rho in (bell_state(), random_state(4, 5)):
        shapes.clear()
        measure(rho)
        assert shapes == [(4, 4)] * calls


@pytest.mark.parametrize("measure", [geometric_discord2, min2, hellinger_discord])
def test_discord_rejects_non_two_qubit_input(measure):
    with pytest.raises(DimensionMismatchError):
        measure(np.eye(3) / 3)


@pytest.mark.parametrize("measure", [
    correlation_measures, geometric_discord2, min2, hellinger_discord,
    pytest.param(lambda m: projective_collapse(m, [0.0, 0.0, 1.0]), id="projective_collapse"),
])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_two_qubit_measures_reject_non_finite_input(measure, bad):
    one = np.eye(4, dtype=complex) / 4
    one[0, 1] = bad
    for m in (one, np.full((4, 4), bad)):
        with pytest.raises(UnphysicalStateError, match="non-finite"):
            measure(m)


def test_import_does_not_load_scipy():
    src = os.path.dirname(os.path.dirname(cohfact.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = "import sys, cohfact; sys.exit('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                          timeout=60)
    assert proc.returncode == 0


def test_measurement_direction_projectors():
    """The collapse along a = x uses the projectors (I +/- sigma_x)/2: an
    x eigenstate on A is kept, and a z eigenstate on A becomes I/2."""
    b = random_state(2, 4).m
    plus, zero = np.full((2, 2), 0.5), np.diag([1.0, 0.0])
    np.testing.assert_allclose(projective_collapse(np.kron(plus, b), [1.0, 0.0, 0.0]).m,
                               np.kron(plus, b), atol=1e-15)
    np.testing.assert_allclose(projective_collapse(np.kron(zero, b), [1.0, 0.0, 0.0]).m,
                               np.kron(np.eye(2) / 2, b), atol=1e-15)


def test_hellinger_discord_rejects_a_non_psd_matrix():
    with pytest.raises(UnphysicalStateError, match="square root undefined"):
        hellinger_discord(np.diag([1.5, -0.5, 0.0, 0.0]))
