"""The batched verify path against the per-trial reference it replaced.

``reference_block_family`` draws one trial's family on its own from its
block's generator, and ``reference_verify`` is the earlier per-trial body
of the one-family check of the l1 and purity laws: one channel application
per state and one transfer matrix per trial. ``rejection_chi`` is the chi
sampler the closed form replaced.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohfact import cli, factorization, io
from cohfact.basis import ROW_BLOCK, _by_row_blocks, gellmann_basis, pauli_tensor_basis, qubit_count
from cohfact.channel import (
    _pauli_coordinates,
    apply,
    aux_channel,
    aux_solve,
    aux_weights,
    make_named,
    random_channel,
    random_unital_channel,
    theorem1_condition,
    transfer_matrix,
)
from cohfact.errors import (
    CohfactError,
    DimensionMismatchError,
    InvalidDimensionError,
    NotAChannelError,
    UnreachableTargetError,
)
from cohfact.factorization import (
    verify_cascade,
    verify_corollary2,
    verify_families,
    verify_theorem1,
)
from cohfact.measures import l1_from_density, purity_measure
from cohfact.state import (
    PSD_TOL,
    DensityMatrix,
    bloch_compose,
    bloch_decompose,
    chi_interval,
    coherence_weight,
    family_member,
    is_psd,
    probe_state,
    purity_radius,
    random_families,
    random_family,
    random_state,
    validate_density,
)


B = cli.BLOCK_TRIALS


def reference_block_family(d, seed, trial):
    """The family (n, chi) of one trial of a verify run: row r = trial % B of the
    block drawn by generator (seed, B * (trial // B)), which draws the
    uniforms of all B rows, then the directions of rows 0..r. chi is
    uniform on the physical part of [-R, R], found from the eigenvalues of
    n.X. n.X is taken as every row of coordinates is: as row 0 of a
    zero-padded block of ROW_BLOCK rows, times the (re, im) pairs of the
    flattened generators."""
    rng = np.random.default_rng([seed, B * (trial // B)])
    r = trial % B
    u = rng.uniform(size=B)[r]
    v = rng.standard_normal((r + 1, d * d - 1))[r:]
    n = (v / np.linalg.norm(v, axis=-1, keepdims=True))[0]
    block = np.zeros((ROW_BLOCK, d * d - 1))
    block[0] = n
    gens = gellmann_basis(d).reshape(d * d - 1, -1).view(float)
    lam = np.linalg.eigvalsh((block @ gens)[0].view(complex).reshape(d, d))
    c = 2.0 * (1.0 / d - PSD_TOL)
    bound = purity_radius(d)
    a, b = max(-c / lam[-1], -bound), min(c / -lam[0], bound)
    return n, float(a + u * (b - a))


def rejection_chi(d, rng, count):
    """chi of ``count`` random families by the rejection sampler the closed
    form replaced: chi uniform in [-r, r], drawn again until the member is
    PSD (each round redraws every family still open)."""
    v = rng.standard_normal((count, d * d - 1))
    n = v / np.linalg.norm(v, axis=1)[:, None]
    chi = np.full(count, np.nan)
    bound = purity_radius(d)
    while np.isnan(chi).any():
        todo = np.flatnonzero(np.isnan(chi))
        x = rng.uniform(-bound, bound, len(todo))
        ok = is_psd(bloch_compose(x[:, None] * n[todo]).m)
        chi[todo[ok]] = x[ok]
    return chi


def reference_verify(measure, ch, n, chi):
    """(lhs, rhs, probe_physical, condition_held) of one family."""
    member = family_member(n, chi)
    t = transfer_matrix(ch)
    if measure == "l1":
        probe, f = probe_state(n, ch.d), l1_from_density
        condition = theorem1_condition(t)
    else:
        probe, f = bloch_compose(np.sqrt(2.0) * n), purity_measure
        condition = bool(np.max(np.abs(t[1:, 0])) <= 1e-10)
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
        fam = reference_block_family(d, seed, r["trial"])
        lhs, rhs, physical, held = reference_verify(measure, ch, *fam)
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
            n, chi = random_family(d, rng)
            t = transfer_matrix(ch)
            one = verify_theorem1(ch, n, chi)
            assert type(one.lhs) is float and type(one.probe_physical) is bool
            for measure in ("l1", "purity"):
                rep = verify_families(measure, t, [n], [chi], chi_interval([n], d)[1])
                lhs, rhs, physical, held = reference_verify(measure, ch, n, chi)
                assert (rep.probe_physical.item(), rep.condition_held.item()) == (physical, held)
                assert abs(rep.lhs.item() - lhs) <= 1e-15 and abs(rep.rhs.item() - rhs) <= 1e-15
                if measure == "l1":
                    assert (one.probe_physical, one.condition_held) == (physical, held)
                    assert abs(one.lhs - lhs) <= 1e-15 and abs(one.rhs - rhs) <= 1e-15


@pytest.mark.parametrize("d", [2, 3, 4, 8])
def test_random_families_match_block_reference(d):
    """Bitwise the same chi and direction for every trial, whether a block
    is drawn for all its rows or for a prefix of them."""
    for seed in range(3):
        for rows in (1, 7, B):
            n, chi, _ = random_families(d, np.random.default_rng([seed, 0]), rows, B)
            for i in range(rows):
                ref_n, ref_chi = reference_block_family(d, seed, i)
                assert chi[i] == ref_chi
                assert np.array_equal(n[i], ref_n)


@pytest.mark.parametrize("d", [2, 3, 4, 8])
def test_random_families_match_rejection_sampler(d):
    """The closed-form chi has the law of the rejection sampler: a two-sample
    Kolmogorov-Smirnov test at level 0.001 on 4000 draws each, fixed seeds."""
    size = 4000
    _, chi, _ = random_families(d, np.random.default_rng([d, 1]), size)
    ref = rejection_chi(d, np.random.default_rng([d, 2]), size)
    both = np.sort(np.concatenate((chi, ref)))
    gap = np.searchsorted(np.sort(chi), both, side="right") - np.searchsorted(np.sort(ref), both, side="right")
    assert np.max(np.abs(gap)) / size <= 1.949 * np.sqrt(2.0 / size)


@given(d=st.integers(2, 5), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_chi_interval_agrees_with_psd_check(d, seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(d * d - 1)
    n = v / np.linalg.norm(v)
    lo, hi = chi_interval(n[None], d)
    assert lo[0] < 0 < hi[0]
    bound = purity_radius(d)
    edges = np.array([lo[0], hi[0]])
    for chi in np.concatenate((rng.uniform(-bound, bound, 40), edges - 1e-8, edges + 1e-8)):
        if min(abs(chi - lo[0]), abs(chi - hi[0])) <= 1e-9:
            continue
        assert (lo[0] <= chi <= hi[0]) == is_psd(bloch_compose(chi * n).m), chi


@given(d=st.integers(2, 8), seed=st.integers(0, 2**32 - 1), count=st.integers(1, 40))
@settings(max_examples=40, deadline=None)
def test_random_families_return_the_unclipped_upper_end(d, seed, count):
    """The third array of random_families is chi_interval's hi of its
    directions, bit for bit: the sampler's interval, not clipped to the
    purity radius."""
    n, _, hi = random_families(d, np.random.default_rng(seed), count)
    assert np.array_equal(hi, chi_interval(n, d)[1])


@given(d=st.integers(2, 8), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_probe_physical_agrees_with_the_composed_probe(d, seed):
    """chi_p <= hi, the flag verify_families reports, is the PSD check of
    the composed l1 and purity probes, wherever the probe's smallest
    eigenvalue is not within round-off of PSD_TOL."""
    n, chi, hi = random_families(d, np.random.default_rng(seed), 32)
    t = transfer_matrix(random_unital_channel(d, seed=seed))
    for measure, chi_p in (("l1", 1.0 / coherence_weight(n, d)), ("purity", np.full(32, np.sqrt(2.0)))):
        probes = bloch_compose(chi_p[:, None] * n).m
        clear = np.abs(np.linalg.eigvalsh(probes)[:, 0] - PSD_TOL) > 1e-12
        flags = verify_families(measure, t, n, chi, hi).probe_physical
        assert np.array_equal(flags[clear], is_psd(probes)[clear])
        assert np.array_equal(flags, chi_p <= hi)


def test_verify_families_refuses_arrays_that_do_not_match_n():
    """chi and hi hold one finite entry per row of n: another length raises
    DimensionMismatchError, not NumPy's broadcasting ValueError, and a
    non-finite hi raises CohfactError."""
    t = transfer_matrix(make_named("depolarizing", d=3, params={"p": 0.3}))
    n, chi, hi = random_families(3, np.random.default_rng(0), 4)
    for args in ((n, chi[:3], hi), (n, chi, hi[:3]), (n, np.append(chi, 0.1), hi), (n, chi, hi[:, None]),
                 (n[0], chi[:1], hi[:1])):
        for measure in ("l1", "purity"):
            with pytest.raises(DimensionMismatchError):
                verify_families(measure, t, *args)
    bad = hi.copy()
    bad[2] = np.nan
    with pytest.raises(CohfactError, match="finite"):
        verify_families("l1", t, n, chi, bad)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("measure", ["l1", "purity"])
def test_verify_families_refuses_a_non_finite_direction_or_factor(monkeypatch, measure, bad):
    """A NaN or infinite component of n or chi is refused for both measures
    with a CohfactError naming its row, before any product is formed; the
    purity law, which needs no probe factor, returned an all-NaN report."""
    t = transfer_matrix(make_named("depolarizing", d=3, params={"p": 0.3}))
    n, chi, hi = random_families(3, np.random.default_rng(0), 4)

    def no_product(*args):
        raise AssertionError("a product was formed")

    monkeypatch.setattr(factorization, "_law", no_product)
    monkeypatch.setattr(factorization, "probe_factor", no_product)
    bad_n = n.copy()
    bad_n[2, 5] = bad
    with pytest.raises(CohfactError, match="family in row 2 has a non-finite component"):
        verify_families(measure, t, bad_n, chi, hi)
    bad_chi = chi.copy()
    bad_chi[1] = bad
    with pytest.raises(CohfactError, match=f"family in row 1 has a non-finite factor chi = {bad}"):
        verify_families(measure, t, n, bad_chi, hi)
    with pytest.raises(CohfactError, match="family in row 1 "):  # the first bad row is named
        verify_families(measure, t, bad_n, bad_chi, hi)


def test_layer_functions_map_a_stack_state_by_state():
    rng = np.random.default_rng(3)
    for d in (2, 3, 5):
        n, chi, _ = random_families(d, np.random.default_rng(d), 4)
        stack = bloch_compose(chi[:, None] * n)
        assert stack.m.shape == (4, d, d)
        ch = random_channel(d, seed=rng)
        out = apply(ch, stack)
        for i in range(4):
            one = bloch_compose(chi[i] * n[i])
            assert np.array_equal(stack.m[i], one.m)
            np.testing.assert_allclose(out.m[i], apply(ch, one).m, rtol=0, atol=1e-15)
            assert l1_from_density(stack.m)[i] == l1_from_density(one)
            assert abs(purity_measure(stack.m)[i] - purity_measure(one)) <= 1e-15
            assert is_psd(stack.m)[i] == is_psd(one.m)
            assert coherence_weight(n, d)[i] == coherence_weight(n[i], d)
        with pytest.raises(InvalidDimensionError):
            validate_density(bloch_compose(chi[:, None] * n))


def test_verify_families_takes_a_stack(capsys):
    ch = random_unital_channel(3, seed=4)
    fams = [random_family(3, s) for s in range(6)]
    n = [n for n, _ in fams]
    rep = verify_families("l1", transfer_matrix(ch), n, [chi for _, chi in fams], chi_interval(n, 3)[1])
    assert rep.lhs.shape == rep.probe_physical.shape == rep.condition_held.shape == (6,)
    for i, fam in enumerate(fams):
        one = verify_theorem1(ch, *fam)
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


@pytest.mark.parametrize("limit, value", [("CHUNK_TRIALS", 2), ("CHUNK_TRIALS", 1)])
def test_chunked_run_matches_one_chunk(tmp_path, monkeypatch, capsys, limit, value):
    path = tmp_path / "u.json"
    io.save_channel(path, random_unital_channel(3, seed=8))
    argv = ["--trials", "9", "verify", "lemma1", "--measure", "purity", "--channel", str(path)]
    assert cli.main(argv) == 0
    whole = capsys.readouterr().out
    monkeypatch.setattr(cli, limit, value)  # chunks of two trials, or of one
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == whole


def _target_round(N, key, rows):
    """One round of cascade target draws for the first ``rows`` rows of a
    block: chi values, then each row's state and unit direction."""
    rng = np.random.default_rng(key)
    chi = rng.uniform(0.01, 0.3, B)[:rows]
    z = rng.standard_normal((rows, 2 * 4**N + 4**N - 1))
    g = z[:, : 2 * 4**N].reshape(rows, 2, 2**N, 2**N)
    rho = np.empty((rows, 2**N, 2**N), dtype=complex)
    for i in range(rows):
        one = g[i, 0] + 1j * g[i, 1]
        rho[i] = one @ one.conj().T / np.trace(one @ one.conj().T).real
    v = z[:, 2 * 4**N :]
    return rho, v / np.linalg.norm(v, axis=-1, keepdims=True), chi


def _states(y, N):
    """The N-qubit states I/d + (1/2) y.Y of the Pauli coordinates y that
    the target sampler returns."""
    return DensityMatrix(np.eye(2**N) / 2**N + 0.5 * np.tensordot(y, pauli_tensor_basis(N), 1))


def test_target_sampler_skips_an_unreachable_draw(monkeypatch):
    """An unreachable coordinate does not depend on chi: the row takes its
    draw of the next round instead of halving chi, and the other rows keep
    their draws of the first round."""
    calls = []

    def weights(y, m, chi):
        eps, unreachable = aux_weights(y, m, chi)
        calls.append(len(chi))
        if len(calls) == 1:
            unreachable = unreachable.copy()
            unreachable[0, 0] = True
        return eps, unreachable

    monkeypatch.setattr(cli, "aux_weights", weights)
    y, m, chi, _ = cli._sample_reachable_target(2, [7, 0], 3)
    assert calls == [3, 1]
    first, second = _target_round(2, [7, 0], 3), _target_round(2, [7, 0, 1], 1)
    # the coordinates of each round's states, read as the sampler reads them
    first_y, second_y = (_pauli_coordinates(DensityMatrix(r[0])) for r in (first, second))
    assert np.array_equal(y[0], second_y[0]) and np.array_equal(m[0], second[1][0])
    assert np.array_equal(y[1:], first_y[1:3]) and np.array_equal(m[1:], first[1][1:3])
    for i, x in ((0, second[2][0]), (1, first[2][1]), (2, first[2][2])):
        assert np.log2(x / chi[i]) == int(np.log2(x / chi[i]))  # chi halved k >= 0 times


@pytest.mark.parametrize("kind, extra", [
    ("theorem1", []), ("lemma1", ["--measure", "purity"]), ("corollary2", []), ("cascade", []),
])
@pytest.mark.parametrize("chunk", [None, 5])
def test_first_records_match_a_shorter_run(tmp_path, monkeypatch, capsys, kind, extra, chunk):
    """The first t records of a run of 3 B + 5 trials are those of a
    t-trial run, for t within a block, across a block boundary and at the
    last partial block, with chunks of the default size or of 5 trials."""
    path = tmp_path / "dep.json"
    path.write_text(json.dumps({"name": "depolarizing", "d": 2, "params": {"p": 0.3}}))

    def run(trials):
        assert cli.main(["--trials", str(trials), "--seed", "5", "verify", kind,
                         "--channel", str(path), *extra]) == 0
        return capsys.readouterr().out.splitlines()

    prefixes = {t: run(t) for t in (1, 7, B + 3, 3 * B + 5)}
    if chunk:
        monkeypatch.setattr(cli, "CHUNK_TRIALS", chunk)
    whole = run(3 * B + 5)
    assert len(whole) == 3 * B + 5
    for t, lines in prefixes.items():
        assert whole[:t] == lines


@pytest.mark.parametrize("kind, extra", [("theorem1", []), ("lemma1", ["--measure", "purity"]), ("cascade", [])])
@pytest.mark.parametrize("chunk", [None, 5])
def test_first_records_match_a_shorter_run_on_a_dense_transfer_matrix(tmp_path, monkeypatch, capsys,
                                                                     kind, extra, chunk):
    """The prefix rule where T is dense, so that every image coordinate is
    a sum over the whole row: a row's bits must not depend on how many rows
    are mapped with it. depolarizing's T is diagonal and cannot show this."""
    path = tmp_path / "unital8.json"
    io.save_channel(path, random_unital_channel(8, k=8, seed=8))

    def run(trials):
        assert cli.main(["--trials", str(trials), "verify", kind, "--channel", str(path), *extra]) == 0
        return capsys.readouterr().out.splitlines()

    short = run(7)
    if chunk:
        monkeypatch.setattr(cli, "CHUNK_TRIALS", chunk)
    assert run(50)[:7] == short


_PREFIX_KINDS = [("theorem1", []), ("lemma1", ["--measure", "l1"]), ("lemma1", ["--measure", "purity"]),
                 ("corollary2", []), ("cascade", [])]


@pytest.mark.parametrize("channel, kind, extra", [
    pytest.param(channel, kind, extra, id="-".join([channel, kind, *extra[1:]]))
    for channel in ("dep4", "dep8", "dense8") for kind, extra in _PREFIX_KINDS
    if (channel, kind) != ("dense8", "corollary2")  # a dense T has no common scalars
])
def test_one_and_33_trial_runs_are_prefixes_of_a_50_trial_run(tmp_path, capsys, channel, kind, extra):
    """The first t records of a 50-trial run are the text of a t-trial run,
    byte for byte, at t = 1 and 33: a block of one row, and a last block of
    one row, where a product of one row would take another kernel."""
    path = tmp_path / f"{channel}.json"
    if channel == "dense8":
        io.save_channel(path, random_unital_channel(8, k=8, seed=8))
    else:
        path.write_text(json.dumps({"name": "depolarizing", "d": int(channel[3:]), "params": {"p": 0.3}}))

    def run(trials):
        assert cli.main(["--trials", str(trials), "verify", kind, "--channel", str(path), *extra]) == 0
        return capsys.readouterr().out

    whole = run(50).splitlines(keepends=True)
    assert len(whole) == 50
    for t in (1, 33):
        assert run(t) == "".join(whole[:t])


@given(d=st.sampled_from([2, 3, 4, 5, 6, 7, 8, 16]), s=st.integers(1, 80), data=st.data(),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_first_rows_of_a_call_are_those_of_a_shorter_call(d, s, data, seed):
    """Bitwise, the first t rows of an s-row call are a t-row call, and row 0
    is the call on that row alone, for the blocked product and the maps
    built on it: a row's bits do not depend on the rows mapped with it."""
    t = data.draw(st.integers(1, s), label="t")
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((s, d * d - 1))
    n = v / np.linalg.norm(v, axis=-1, keepdims=True)
    a, states = rng.standard_normal((d * d - 1, d * d)), random_state(d, rng, s).m
    maps = [
        (lambda x: _by_row_blocks(x, a), n),
        (lambda x: bloch_compose(x).m, n),
        (lambda x: bloch_decompose(DensityMatrix(x)), states),
        (lambda x: np.stack(chi_interval(x, d), axis=-1), n),
    ]
    for f, rows in maps:
        whole = f(rows)
        assert np.array_equal(whole[:t], f(rows[:t]))
        assert np.array_equal(whole[0], f(rows[0]))


def _round_trip(ch):
    """The channel as read back from its 12-digit file form: trace
    preserving only to about 1e-12."""
    return io.channel_from_dict(json.loads(json.dumps(io.channel_to_dict(ch))))


def _assert_close(got, want):
    """Round-off agreement of the transfer-matrix path with the Kraus one:
    |got - want| <= 1e-14 max(1, |want|), entry by entry."""
    got, want = np.asarray(got), np.asarray(want)
    assert np.all(np.abs(got - want) <= 1e-14 * np.maximum(1.0, np.abs(want))), np.max(np.abs(got - want))


@pytest.mark.parametrize("d", [2, 4, 8, 16])
def test_transfer_path_matches_kraus_reference(d):
    """verify_families (l1 and purity), verify_corollary2 and verify_cascade
    map coordinates through T; the reference maps the composed states
    through the Kraus operators with apply, as the drivers did before."""
    rng = np.random.default_rng(d)
    unital = random_unital_channel(d, seed=rng)
    channels = [unital, _round_trip(unital), _round_trip(random_channel(d, k=d, seed=rng))]
    assert np.max(np.abs(transfer_matrix(channels[1])[0] - np.eye(d * d)[0])) > 1e-14  # not exactly TP
    n, chi, hi = random_families(d, rng, 6)
    for ch in channels:
        t = transfer_matrix(ch)
        for measure, chi_p, f in (("l1", 1.0 / coherence_weight(n, d), l1_from_density),
                                  ("purity", np.full(6, np.sqrt(2.0)), purity_measure)):
            members = bloch_compose(chi[:, None] * n)
            probes = bloch_compose(chi_p[:, None] * n)
            rep = verify_families(measure, t, n, chi, hi)
            _assert_close(rep.lhs, f(apply(ch, members).m))
            _assert_close(rep.rhs, f(members.m) * f(apply(ch, probes).m))
            assert np.array_equal(rep.probe_physical, is_psd(probes.m))
    dep = make_named("depolarizing", d=d, params={"p": 0.3})
    states = random_state(d, rng, 6)
    for ch in (dep, _round_trip(dep)):
        rep = verify_corollary2(transfer_matrix(ch), states)
        _assert_close(rep.lhs, l1_from_density(apply(ch, states).m))
    y, m, x, eps = cli._sample_reachable_target(qubit_count(d), [d, 0], 4)
    rho = _states(y, qubit_count(d))
    sigma = apply(aux_channel(rho, m, x), rho)
    direction = 0.5 * np.tensordot(m, pauli_tensor_basis(qubit_count(d)), 1)
    probes = DensityMatrix(np.eye(d) / d + direction / l1_from_density(direction)[:, None, None])
    for ch in (dep, *channels):
        rep = verify_cascade(transfer_matrix(ch), y, m, eps)
        _assert_close(rep.lhs, l1_from_density(apply(ch, sigma).m))
        _assert_close(rep.rhs, l1_from_density(sigma.m) * l1_from_density(apply(ch, probes).m))
        assert np.array_equal(rep.probe_physical, is_psd(probes.m))


def test_theorem1_draws_only_the_trials_it_runs(tmp_path, monkeypatch, capsys):
    """32 trials at d = 16 come from 32 drawn family rows: the chunk bound
    no longer grows with the channel's Kraus count k = 256, so no block is
    drawn twice."""
    rows = []

    def counted(d, rng, count, block=None):
        rows.append(count)
        return random_families(d, rng, count, block)

    monkeypatch.setattr(cli, "random_families", counted)
    path = tmp_path / "dep16.json"
    path.write_text(json.dumps({"name": "depolarizing", "d": 16, "params": {"p": 0.3}}))
    assert cli.main(["--trials", "32", "verify", "theorem1", "--channel", str(path)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 32
    assert sum(rows) == 32


def test_cascade_draws_only_the_trials_it_runs(tmp_path, monkeypatch, capsys):
    """32 cascade trials at d = 32 come from 32 drawn target rows: the
    auxiliary channel acts on Pauli coordinates, so a trial holds d^2
    entries and no chunk is cut below a block."""
    rows = []
    sample = cli._sample_reachable_target

    def counted(N, key, count):
        rows.append(count)
        return sample(N, key, count)

    monkeypatch.setattr(cli, "_sample_reachable_target", counted)
    path = tmp_path / "dep32.json"
    path.write_text(json.dumps({"name": "depolarizing", "d": 32, "params": {"p": 0.3}}))
    assert cli.main(["--trials", "32", "verify", "cascade", "--channel", str(path)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 32
    assert sum(rows) == 32


@pytest.mark.parametrize("N", [1, 2, 3])
def test_cascade_raises_what_the_kraus_path_raises(N):
    """Where aux_channel finds no channel, a negative weight at a large chi
    or a target coordinate over a vanishing source one, verify_cascade on
    the solved weights, or aux_solve, raises the same class, for one trial
    and for a stack holding it."""
    d = 2**N
    t = transfer_matrix(make_named("depolarizing", d=d, params={"p": 0.3}))
    y, m, chi, _ = cli._sample_reachable_target(N, [N, 0], 3)
    rho = _states(y, N).m
    large = chi.copy()
    large[1] = 1e3
    mixed = rho.copy()
    mixed[1] = np.eye(d) / d  # every source coordinate vanishes

    def cascade(states, m, x):
        return verify_cascade(t, _pauli_coordinates(states), m, aux_solve(states, m, x))

    for states, x, want, call in ((rho, large, NotAChannelError, cascade),
                                  (mixed, chi, UnreachableTargetError, aux_solve)):
        with pytest.raises(want):
            aux_channel(DensityMatrix(states[1]), m[1], x[1])
        with pytest.raises(want):
            call(DensityMatrix(states[1:2]), m[1:2], x[1:2])
        with pytest.raises(want):
            call(DensityMatrix(states), m, x)


def test_drivers_refuse_coordinates_of_another_dimension():
    """d is read from T's shape; directions or states of another d raise
    DimensionMismatchError before any product."""
    t = transfer_matrix(make_named("depolarizing", d=4, params={"p": 0.3}))
    n, chi, hi = random_families(2, np.random.default_rng(0), 3)
    with pytest.raises(DimensionMismatchError):
        verify_families("l1", t, n, chi, hi)
    with pytest.raises(DimensionMismatchError):
        verify_corollary2(t, random_state(2, 0, 3))
    y, m, x, eps = cli._sample_reachable_target(1, [0, 0], 3)
    with pytest.raises(DimensionMismatchError):
        verify_cascade(t, y, m, eps)


@pytest.mark.parametrize("state_d, t_d", [(4, 4), (4, 2), (2, 4)])
def test_corollary2_and_cascade_take_only_stacks_of_the_transfer_matrix_d(state_d, t_d, monkeypatch):
    """verify_corollary2 takes an (s, d, d) stack of T's d, and
    verify_cascade the (s, d^2-1) Pauli coordinates of one: a single state,
    or a stack of another d, raises DimensionMismatchError before the
    states' coordinates are read."""
    t = transfer_matrix(make_named("depolarizing", d=t_d, params={"p": 0.3}))
    y, m, x, eps = cli._sample_reachable_target(qubit_count(state_d), [0, 0], 3)
    rho = _states(y, qubit_count(state_d)).m

    def unread(rho):
        raise AssertionError("coordinates read before the dimension check")

    monkeypatch.setattr(factorization, "bloch_decompose", unread)
    cases = [(DensityMatrix(rho[0]), y[0], m[0], eps[0])]
    if state_d != t_d:
        cases.append((DensityMatrix(rho), y, m, eps))
    for states, coords, dirs, weights in cases:
        with pytest.raises(DimensionMismatchError, match="stack of states"):
            verify_corollary2(t, states)
        with pytest.raises(DimensionMismatchError, match="stack of states"):
            verify_cascade(t, coords, dirs, weights)
