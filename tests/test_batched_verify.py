"""The batched verify path against the per-trial reference it replaced.

``reference_random_family`` and ``reference_verify`` are the per-trial
bodies of the earlier ``random_family``, ``verify_theorem1`` and
``verify_lemma1``: one PSD eigendecomposition per chi draw, one channel
application per state and one transfer matrix per trial.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohfact import cli, factorization, io
from cohfact.basis import gellmann_basis
from cohfact.channel import (
    apply,
    make_named,
    random_channel,
    random_unital_channel,
    theorem1_condition,
    transfer_matrix,
)
from cohfact.errors import CohfactError, InvalidDimensionError, UnreachableTargetError
from cohfact.factorization import verify_families, verify_lemma1, verify_theorem1
from cohfact.measures import l1_from_density, purity_measure
from cohfact.state import (
    MAX_CHI_DRAWS,
    StateFamily,
    bloch_compose,
    chi_interval,
    coherence_weight,
    family_member,
    is_psd,
    probe_state,
    purity_radius,
    random_families,
    random_family,
)


def reference_random_family(d, rng):
    basis = gellmann_basis(d)
    v = rng.standard_normal(d * d - 1)
    n = v / np.linalg.norm(v)
    bound = purity_radius(d)
    for _ in range(MAX_CHI_DRAWS):
        chi = rng.uniform(-bound, bound)
        if is_psd(bloch_compose(chi * n, basis).m):
            return StateFamily(d=d, n=n, chi=float(chi))
    raise CohfactError("no PSD family member")


def reference_verify(measure, ch, fam):
    """(lhs, rhs, probe_physical, condition_held) of one family."""
    basis = gellmann_basis(fam.d)
    member = family_member(fam)
    t = transfer_matrix(ch)
    if measure == "l1":
        probe, f = probe_state(fam.n, fam.d).state, l1_from_density
        condition = theorem1_condition(t)
    else:
        probe, f = bloch_compose(np.sqrt(2.0) * fam.n, basis), purity_measure
        condition = bool(np.max(np.abs(t.t[1:, 0])) <= 1e-10)
    lhs = f(apply(ch, member))
    rhs = f(member) * f(apply(ch, probe))
    return lhs, rhs, is_psd(probe.m), condition


def _channel(kind, d):
    if kind == "unital":
        return random_unital_channel(d, seed=10 * d)
    if kind == "nonunital":
        return random_channel(d, seed=10 * d + 1)
    if d == 2:  # T_k0 = 0 on the off-diagonal rows only: Theorem 1 holds, unitality fails
        return make_named("amplitude_damping", params={"gamma": 0.35})
    return make_named("depolarizing", d=d, params={"p": 0.35})


KINDS = [("theorem1", "l1", []), ("lemma1", "l1", ["--measure", "l1"]),
         ("lemma1", "purity", ["--measure", "purity"])]


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("channel", ["unital", "nonunital", "named"])
@pytest.mark.parametrize("kind, measure, flags", KINDS, ids=["theorem1", "lemma1-l1", "lemma1-purity"])
def test_verify_jsonl_matches_reference_loop(tmp_path, monkeypatch, capsys, d, channel,
                                             kind, measure, flags):
    path = tmp_path / "ch.json"
    io.save_channel(path, _channel(channel, d))
    ch = io.load_channel(path)
    seed, trials = 17 * d, 12
    monkeypatch.setattr(io, "fmt12", float)  # full-precision JSONL
    code = cli.main(["--seed", str(seed), "--trials", str(trials), "verify", kind,
                     "--channel", str(path), *flags])
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [r["trial"] for r in records] == list(range(trials))
    failures = 0
    for r in records:
        fam = reference_random_family(d, np.random.default_rng([seed, r["trial"]]))
        lhs, rhs, physical, held = reference_verify(measure, ch, fam)
        assert (r["probe_physical"], r["condition_held"]) == (physical, held)
        assert abs(r["lhs"] - lhs) <= 1e-15 and abs(r["rhs"] - rhs) <= 1e-15
        assert abs(r["abs_err"] - abs(lhs - rhs)) <= 1e-15
        failures += not abs(lhs - rhs) <= 1e-9
    assert code == (1 if failures else 0)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_one_family_functions_match_reference(d):
    rng = np.random.default_rng(d)
    for ch in (random_unital_channel(d, seed=rng), random_channel(d, seed=rng)):
        for _ in range(5):
            fam = random_family(d, rng)
            for measure, rep in (("l1", verify_theorem1(ch, fam)),
                                 ("purity", verify_lemma1("purity", ch, fam))):
                lhs, rhs, physical, held = reference_verify(measure, ch, fam)
                assert type(rep.lhs) is float and type(rep.probe_physical) is bool
                assert (rep.probe_physical, rep.condition_held) == (physical, held)
                assert abs(rep.lhs - lhs) <= 1e-15 and abs(rep.rhs - rhs) <= 1e-15


@pytest.mark.parametrize("d", [2, 3, 4, 8])
def test_random_families_match_rejection_sampler(d):
    """Same chi for every family and the direction to round-off, whether the
    families are drawn one at a time or together."""
    rngs = [np.random.default_rng([d, i]) for i in range(300)]
    n, chi = random_families(d, rngs)
    for i in range(300):
        ref = reference_random_family(d, np.random.default_rng([d, i]))
        assert chi[i] == ref.chi
        np.testing.assert_allclose(n[i], ref.n, rtol=0, atol=1e-15)
        one = random_family(d, np.random.default_rng([d, i]))
        assert one.chi == ref.chi


@given(d=st.integers(2, 5), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_chi_interval_agrees_with_psd_check(d, seed):
    rng = np.random.default_rng(seed)
    basis = gellmann_basis(d)
    v = rng.standard_normal(d * d - 1)
    n = v / np.linalg.norm(v)
    lo, hi = chi_interval(n[None], d)
    assert lo[0] < 0 < hi[0]
    bound = purity_radius(d)
    edges = np.array([lo[0], hi[0]])
    for chi in np.concatenate((rng.uniform(-bound, bound, 40), edges - 1e-8, edges + 1e-8)):
        if min(abs(chi - lo[0]), abs(chi - hi[0])) <= 1e-9:
            continue
        assert (lo[0] <= chi <= hi[0]) == is_psd(bloch_compose(chi * n, basis).m), chi


def test_layer_functions_map_a_stack_state_by_state():
    rng = np.random.default_rng(3)
    for d in (2, 3, 5):
        basis = gellmann_basis(d)
        n, chi = random_families(d, [np.random.default_rng([d, i]) for i in range(4)])
        stack = bloch_compose(chi[:, None] * n, basis)
        assert stack.m.shape == (4, d, d)
        ch = random_channel(d, seed=rng)
        out = apply(ch, stack)
        for i in range(4):
            one = bloch_compose(chi[i] * n[i], basis)
            assert np.array_equal(stack.m[i], one.m)
            np.testing.assert_allclose(out.m[i], apply(ch, one).m, rtol=0, atol=1e-15)
            assert l1_from_density(stack.m)[i] == l1_from_density(one)
            assert abs(purity_measure(stack.m)[i] - purity_measure(one)) <= 1e-15
            assert is_psd(stack.m)[i] == is_psd(one.m)
            assert coherence_weight(n, d)[i] == coherence_weight(n[i], d)
        with pytest.raises(InvalidDimensionError):
            bloch_compose(chi[:, None] * n, basis, validate=True)


def test_verify_families_takes_a_stack(capsys):
    ch = random_unital_channel(3, seed=4)
    fams = [random_family(3, s) for s in range(6)]
    rep = verify_families("l1", ch, [f.n for f in fams], [f.chi for f in fams])
    assert rep.lhs.shape == rep.probe_physical.shape == rep.condition_held.shape == (6,)
    for i, fam in enumerate(fams):
        one = verify_theorem1(ch, fam)
        assert abs(rep.lhs[i] - one.lhs) <= 1e-15 and rep.probe_physical[i] == one.probe_physical


@pytest.mark.parametrize("kind, extra", [
    ("theorem1", []), ("lemma1", ["--measure", "purity"]), ("corollary2", []), ("cascade", []),
])
def test_transfer_matrix_runs_once_per_verify_run(tmp_path, monkeypatch, capsys, kind, extra):
    calls = []

    def counted(ch):
        calls.append(ch.d)
        return transfer_matrix(ch)

    for mod in (cli, factorization):
        monkeypatch.setattr(mod, "transfer_matrix", counted)
    path = tmp_path / "dep.json"
    path.write_text(json.dumps({"name": "depolarizing", "d": 2, "params": {"p": 0.3}}))
    assert cli.main(["--trials", "7", "verify", kind, "--channel", str(path), *extra]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 7
    assert calls == [2]


@pytest.mark.parametrize("limit, value", [("CHUNK_TRIALS", 2), ("CHUNK_ENTRIES", 1)])
def test_chunked_run_matches_one_chunk(tmp_path, monkeypatch, capsys, limit, value):
    path = tmp_path / "u.json"
    io.save_channel(path, random_unital_channel(3, seed=8))
    argv = ["--trials", "9", "verify", "lemma1", "--measure", "purity", "--channel", str(path)]
    assert cli.main(argv) == 0
    whole = capsys.readouterr().out
    monkeypatch.setattr(cli, limit, value)  # chunks of two trials, or of one
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == whole


def test_target_sampler_skips_an_unreachable_draw(monkeypatch):
    """An unreachable coordinate does not depend on chi: the sampler makes a
    new draw instead of halving chi."""
    seen = []

    def aux(rho, m, chi):
        seen.append((rho.m, chi))
        if len(seen) == 1:
            raise UnreachableTargetError("dead coordinate", index=1)
        return np.full(rho.d**2, 1.0 / rho.d**2)

    monkeypatch.setattr(cli, "aux_solve", aux)
    cli._sample_reachable_target(2, np.random.default_rng(0))
    assert len(seen) == 2
    assert not np.array_equal(seen[0][0], seen[1][0]) and seen[1][1] != seen[0][1] / 2
