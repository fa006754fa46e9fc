"""Acceptance suite: one test per criterion, each printing a pass/fail line
at the pinned tolerance. Run with ``pytest -s tests/test_acceptance.py``."""

import numpy as np

from cohfact.basis import pauli_tensor_basis
from cohfact.channel import (
    _pauli_coordinates,
    apply,
    aux_channel,
    aux_solve,
    corollary1_check,
    gell_mann_G,
    make_named,
    random_channel,
    random_unital_channel,
    theorem1_condition,
    transfer_matrix,
)
from cohfact.errors import NotAChannelError
from cohfact.factorization import (
    freeze_trajectory,
    verify_cascade,
    verify_families,
    verify_theorem1,
)
from cohfact.measures import (
    _collapse_extremes,
    correlation_measures,
    geometric_discord2,
    l1_from_density,
    min2,
    projective_collapse,
)
from cohfact.state import (
    DensityMatrix,
    bloch_decompose,
    chi_interval,
    coherence_weight,
    density_matrix,
    family_member,
    is_psd,
    probe_state,
    random_family,
    random_state,
)


def _report(name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {name}: {status} {detail}")
    assert passed, f"{name} failed: {detail}"


def test_criterion_1_factorization_law():
    """Factorization law on 500 random unital channels x families per d in 2..4."""
    worst = 0.0
    for d in (2, 3, 4):
        rng = np.random.default_rng(1000 + d)
        for _ in range(500):
            rep = verify_theorem1(random_unital_channel(d, k=d, seed=rng), *random_family(d, rng))
            worst = np.maximum(worst, rep.abs_err)
    _report("1 factorization-law", worst <= 1e-9, f"max |lhs-rhs| = {worst:.3e}")


def test_criterion_2_condition_equivalence():
    """corollary1_check agrees with theorem1_condition on 200 channels per d."""
    agree = True
    trues = 0
    for d in (2, 3, 4):
        rng = np.random.default_rng(2000 + d)
        for i in range(200):
            if i % 4 == 0:
                ch = random_unital_channel(d, k=d, seed=rng)
            else:
                ch = random_channel(d, k=d, seed=rng)
            a = corollary1_check(ch)
            b = theorem1_condition(transfer_matrix(ch))
            trues += a
            agree = agree and (a == b)
    _report("2 condition-equivalence", agree and trues > 0, f"{trues} condition-true channels")


def test_criterion_3_gell_mann_G_scalar_law():
    """C[E_G(rho)] = q C(rho) over a 21-point valid (q, q0) grid per d."""
    worst = 0.0
    comp_worst = 0.0
    for d in (2, 3, 4):
        rng = np.random.default_rng(3000 + d)
        grid = [
            (t * (1.0 + (d - 1) * q0) / d, q0)
            for q0 in np.linspace(0.0, 1.0, 7)
            for t in (0.0, 0.5, 1.0)
        ]
        assert len(grid) == 21
        for q, q0 in grid:
            ch = gell_mann_G(d, q, q0)
            s = sum(e.conj().T @ e for e in ch.kraus)
            comp_worst = np.maximum(comp_worst, float(np.max(np.abs(s - np.eye(d)))))
            rho = random_state(d, rng)
            err = abs(l1_from_density(apply(ch, rho)) - q * l1_from_density(rho))
            worst = np.maximum(worst, err)
    ok = worst <= 1e-10 and comp_worst <= 1e-12
    _report("3 scalar-law-E_G", ok, f"max err = {worst:.3e}, completeness = {comp_worst:.3e}")


def test_criterion_4_frozen_coherence():
    """Frozen-qubit families stay constant over q in [0,1]; bit(-phase)-flip
    freezes the matching zero-component families."""
    grid = np.linspace(0.0, 1.0, 101)
    worst = 0.0
    rng = np.random.default_rng(4000)
    for variant in ("xy", "z"):
        for sign in (+1, -1):
            for _ in range(50):
                rho = random_state(2, rng)
                traj = freeze_trajectory(f"frozen_{variant}", grid, rho, params={"sign": sign})
                worst = np.maximum(worst, traj.spread)
    for name, zero_idx in (("bit_flip", 1), ("bit_phase_flip", 0)):
        for _ in range(20):
            n = rng.standard_normal(3)
            n[zero_idx] = 0.0
            n /= np.linalg.norm(n)
            chi = rng.uniform(0.05, 0.9)
            if not is_psd(family_member(n, chi).m):
                chi *= 0.5
            rho = family_member(n, chi)
            traj = freeze_trajectory(name, grid, rho)
            worst = np.maximum(worst, traj.spread)
    _report("4 frozen-coherence", worst <= 1e-9, f"max spread = {worst:.3e}")


def _reachable_targets(N, count, seed):
    rng = np.random.default_rng(seed)
    yb = pauli_tensor_basis(N)
    out = []
    while len(out) < count:
        rho = random_state(2**N, rng)
        v = rng.standard_normal(4**N - 1)
        m = v / np.linalg.norm(v)
        chi = rng.uniform(0.005, 0.2)
        for _ in range(60):
            try:
                ch = aux_channel(rho, m, chi)
            except NotAChannelError:
                chi *= 0.5
                continue
            out.append((rho, m, chi, ch))
            break
    return out, yb


def test_criterion_5_auxiliary_channel_and_cascade():
    """E_aux hits the target family member; the cascaded relation holds."""
    worst_target = 0.0
    worst_cascade = 0.0
    for N in (1, 2):
        draws, yb = _reachable_targets(N, 200, 5000 + N)
        dep = make_named("depolarizing", d=2**N, params={"p": 0.35})
        uni = random_unital_channel(2**N, k=2**N, seed=5050 + N)
        for i, (rho, m, chi, ch) in enumerate(draws):
            out = apply(ch, rho).m
            target = np.eye(2**N, dtype=complex) / 2**N
            for mv, yv in zip(m, yb):
                target += 0.5 * chi * mv * yv
            worst_target = np.maximum(worst_target, float(np.linalg.norm(out - target)))
            if i < 50:
                for ch_f in (dep, uni):
                    y = _pauli_coordinates(DensityMatrix(rho.m[None]))
                    rep = verify_cascade(transfer_matrix(ch_f), y, m[None], aux_solve(rho, m, chi)[None])
                    worst_cascade = np.maximum(worst_cascade, rep.abs_err[0])
    ok = worst_target <= 1e-10 and worst_cascade <= 1e-9
    _report(
        "5 auxiliary-channel",
        ok,
        f"max target err = {worst_target:.3e}, max cascade err = {worst_cascade:.3e}",
    )


def test_criterion_6_dual_picture_and_transfer():
    """l1 agrees across pictures; Bloch action x' = T x matches apply."""
    worst_l1 = 0.0
    for d in range(2, 7):
        rng = np.random.default_rng(6000 + d)
        for _ in range(500):
            rho = random_state(d, rng)
            err = abs(l1_from_density(rho) - coherence_weight(bloch_decompose(rho)))
            worst_l1 = np.maximum(worst_l1, err)
    worst_t = 0.0
    for d in (2, 3, 4):
        rng = np.random.default_rng(6100 + d)
        for _ in range(167):
            ch = random_channel(d, k=d, seed=rng)
            rho = random_state(d, rng)
            t = transfer_matrix(ch)
            xa = np.concatenate([[np.sqrt(2.0 / d)], bloch_decompose(rho)])
            got = bloch_decompose(apply(ch, rho))
            worst_t = np.maximum(worst_t, float(np.max(np.abs((t @ xa)[1:] - got))))
    ok = worst_l1 <= 1e-12 and worst_t <= 1e-11
    _report("6 dual-picture", ok, f"l1 err = {worst_l1:.3e}, transfer err = {worst_t:.3e}")


def _purity_err(ch, rng):
    """abs_err of the purity law (Lemma 1) under ``ch`` for one random
    family of the channel's d."""
    n, chi = random_family(ch.d, rng)
    return verify_families("purity", transfer_matrix(ch), [n], [chi], chi_interval([n])[1]).abs_err[0]


def test_criterion_7_purity_factorization():
    """Purity factorizes under unital channels; amplitude damping breaks it."""
    worst = 0.0
    for d in (2, 3):
        rng = np.random.default_rng(7000 + d)
        for _ in range(100):
            worst = np.maximum(worst, _purity_err(random_unital_channel(d, seed=rng), rng))
    ad = make_named("amplitude_damping", params={"gamma": 0.5})
    rng = np.random.default_rng(7100)
    violation = np.max([_purity_err(ad, rng) for _ in range(50)])
    ok = worst <= 1e-9 and violation > 1e-6
    _report("7 purity-factorization", ok, f"unital err = {worst:.3e}, AD violation = {violation:.3e}")


def _collapse_residuals(m, units):
    """||m - Pi_a(m)||_2^2 for each row a of ``units``, from the definition:
    the residual after sandwiching with (P_+/- x I), P_+/- = (I +/- a.sigma)/2."""
    sig = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
    av = np.einsum("ni,ijk->njk", units, sig)
    eye = np.eye(2)
    out = np.zeros((len(units), 4, 4), dtype=complex)
    for p in ((eye + av) / 2, (eye - av) / 2):
        pk = np.einsum("nij,kl->nikjl", p, eye).reshape(-1, 4, 4)
        out += pk @ m @ pk
    return np.sum(np.abs(m - out) ** 2, axis=(1, 2))


def test_criterion_8_two_qubit_measures():
    """Bell-state figures of merit; D2 is the collapse residual at its
    direction and no sampled direction beats it; N2 >= D2."""
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = m[0, 3] = m[3, 0] = m[3, 3] = 0.5
    bell = density_matrix(m)
    meas = correlation_measures(bell)
    err_bell = abs(meas["bell_max"] - 2.0 * np.sqrt(2.0))
    err_tf = abs(meas["teleport_fidelity"] - (0.5 + np.sqrt(3.0) / 6.0))
    rng = np.random.default_rng(8000)
    states = [bell] + [random_state(4, rng) for _ in range(200)]
    v = rng.standard_normal((500, 3))
    units = v / np.linalg.norm(v, axis=1, keepdims=True)
    def_err = 0.0
    beaten_by = 0.0  # largest amount a sampled direction undercuts the minimum
    dominance = True
    for rho in states:
        d2 = geometric_discord2(rho)
        _, a = _collapse_extremes(rho.m)[0]
        at_a = 2.0 * np.sum(np.abs(rho.m - projective_collapse(rho, a).m) ** 2)
        def_err = np.maximum(def_err, abs(d2 - at_a))
        beaten_by = np.maximum(beaten_by, d2 / 2.0 - np.min(_collapse_residuals(rho.m, units)))
        dominance = dominance and (min2(rho) >= d2 - 1e-10)
    ok = (err_bell <= 1e-10 and err_tf <= 1e-10 and def_err <= 1e-8
          and beaten_by <= 1e-12 and dominance)
    _report(
        "8 two-qubit-measures",
        ok,
        f"bell err = {err_bell:.3e}, fidelity err = {err_tf:.3e}, "
        f"D2 definition err = {def_err:.3e}, sampled undercut = {beaten_by:.3e}",
    )


def test_criterion_9_probe_contract():
    """Probe coherence is exactly 1; physicality is flagged by a PSD check."""
    worst = 0.0
    flags_consistent = True
    both_seen = set()
    for d in (2, 3, 4):
        rng = np.random.default_rng(9000 + d)
        for _ in range(500):
            v = rng.standard_normal(d * d - 1)
            p = probe_state(v / np.linalg.norm(v))
            worst = np.maximum(worst, abs(l1_from_density(p) - 1.0))
            w_min = float(np.linalg.eigvalsh(p.m)[0])
            flags_consistent = flags_consistent and (is_psd(p.m) == (w_min >= -1e-9))
            both_seen.add(is_psd(p.m))
    ok = worst <= 1e-12 and flags_consistent and both_seen == {True, False}
    _report("9 probe-contract", ok, f"max |C-1| = {worst:.3e}, flags = {sorted(both_seen)}")
