"""The cascade's block target sampler against the per-trial halving loop.

``reference_target`` draws one trial's target on its own: each round it
draws its block's chi values and the normals of the rows up to its own, and
builds the auxiliary channel at chi, chi/2, chi/4, ... until one is a
channel, moving on to the next round when a coordinate is unreachable or no
halving works. The closed-form sampler makes one ``aux_weights`` call per
round for the rows still open and must return the bitwise same (y, m,
chi) for every row, y the Pauli coordinates of the reference's state. Half
of the runs dephase some of their states, so that source coordinates
vanish and the unreachable-draw path is compared too.
"""

import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohfact import channel, cli, factorization
from cohfact.basis import pauli_tensor_basis
from cohfact.channel import EPS_TOL, _pauli_coordinates, aux_channel, aux_pauli_action, aux_weights
from cohfact.errors import CohfactError, NotAChannelError, UnreachableTargetError
from cohfact.state import DensityMatrix, ginibre_state

B = cli.BLOCK_TRIALS


def reference_target(N, key, row, max_rounds):
    d = 2**N
    for r in range(max_rounds):
        rng = np.random.default_rng([*key, r] if r else key)
        chi = rng.uniform(0.01, 0.3, B)[row]
        z = rng.standard_normal((row + 1, 2 * d * d + 4**N - 1))[row:]
        rho = DensityMatrix(cli.ginibre_state(z[:, : 2 * d * d].reshape(1, 2, d, d)).m[0])
        v = z[:, 2 * d * d :]
        m = (v / np.linalg.norm(v, axis=-1, keepdims=True))[0]
        for _ in range(60):
            try:
                aux_channel(rho, m, chi)
            except NotAChannelError:
                chi *= 0.5
                continue
            except UnreachableTargetError:
                break
            return rho.m, m, chi
    raise CohfactError("could not sample a realizable auxiliary-channel target")


def dephased_states(z):
    """Random states, half of them dephased by a Pauli tensor P: (rho + P
    rho P) / 2 keeps the coordinates that commute with P and zeroes the
    others. Whether a state is dephased and by which P is read off its own
    first normals, so each row still depends only on its own draws."""
    rho = ginibre_state(z).m
    d = rho.shape[-1]
    basis = pauli_tensor_basis(d.bit_length() - 1)
    pick = (np.abs(z[:, 0, 0, 0]) * 1e6).astype(int) % (2 * (d * d - 1))  # even: keep
    p = basis[pick // 2] * np.sqrt(d / 2)  # unitaries
    flip = (pick % 2 == 1)[:, None, None]
    return DensityMatrix(np.where(flip, (rho + p @ rho @ p) / 2, rho))


def _outcome(N, seed, rows, max_rounds):
    with mock.patch.object(cli, "MAX_TARGET_ROUNDS", max_rounds):
        try:
            y, m, chi, _ = cli._sample_reachable_target(N, [seed, 0], rows)
        except CohfactError as exc:
            return type(exc), str(exc)
    return [(y[i].tobytes(), m[i].tobytes(), chi[i].hex()) for i in range(rows)]


def _reference_outcome(N, seed, rows, max_rounds):
    try:
        targets = [reference_target(N, [seed, 0], i, max_rounds) for i in range(rows)]
    except CohfactError as exc:
        return type(exc), str(exc)
    return [(_pauli_coordinates(DensityMatrix(rho[None]))[0].tobytes(), m.tobytes(), chi.hex())
            for rho, m, chi in targets]


def _compare(N, seed, rows, max_rounds, dephase):
    with mock.patch.object(cli, "ginibre_state", dephased_states if dephase else ginibre_state):
        got = _outcome(N, seed, rows, max_rounds)
        assert got == _reference_outcome(N, seed, rows, max_rounds)
    return got


@given(N=st.integers(1, 3), seed=st.integers(0, 2**32 - 1), rows=st.integers(1, B),
       max_rounds=st.sampled_from([1, 2, 200]), dephase=st.booleans())
@settings(max_examples=300, deadline=None)
def test_sampler_matches_halving_loop(N, seed, rows, max_rounds, dephase):
    _compare(N, seed, rows, max_rounds, dephase)


def test_compared_draws_reach_every_path():
    """The seeds below give rows that are feasible at once, rows that need
    halving, unreachable rows and runs that give up, so the comparison is
    not only on one path."""
    seen = set()

    def spy(y, m, chi):
        eps, unreachable = aux_weights(y, m, chi)
        dead = unreachable.any(axis=1)
        seen.update(["unreachable"] * bool(dead.any()))
        live = eps[~dead]
        seen.update(["halved"] * bool((live.min(axis=1) < EPS_TOL).any()))
        seen.update(["feasible"] * bool((live.min(axis=1) >= EPS_TOL).any()))
        return eps, unreachable

    with mock.patch.object(cli, "aux_weights", spy):
        outcomes = [_compare(N, seed, 1 + seed % B, 1 + seed % 2, dephase=True)
                    for seed in range(12) for N in (1, 2, 3)]
    assert seen == {"unreachable", "halved", "feasible"}
    assert any(got[0] is CohfactError for got in outcomes)


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_sampler_returns_the_weights_it_tested(N):
    """The weights returned with each target are the affine expression
    whose minimum decided it, so aux_pauli_action accepts every row, and
    they are the weights aux_weights solves at the returned chi."""
    worst = 0.0
    for seed in range(4):
        y, m, chi, eps = cli._sample_reachable_target(N, [seed, 0], B)
        aux_pauli_action(eps)  # raises unless every weight is >= EPS_TOL
        want, unreachable = aux_weights(y, m, chi)
        assert not unreachable.any()
        worst = max(worst, np.max(np.abs(eps - want)))
    assert worst <= 1e-15


def test_cascade_solves_each_trial_once(tmp_path, capsys):
    """verify cascade calls aux_weights once per sampler round, the call
    that chose the weights, and verify_cascade solves nothing again: the
    factorization layer imports neither aux_solve nor is_psd. The states'
    Pauli coordinates are read once per round too, and verify_cascade
    decomposes no state."""
    path = tmp_path / "dep4.json"
    path.write_text(json.dumps({"name": "depolarizing", "d": 4, "params": {"p": 0.3}}))
    rounds, sampler, elsewhere, read, decomposed = [], [], [], [], []

    def counted(calls, fn):
        def wrapper(*args):
            calls.append(1)
            return fn(*args)
        return wrapper

    with mock.patch.object(cli, "ginibre_state", counted(rounds, ginibre_state)), \
            mock.patch.object(cli, "aux_weights", counted(sampler, aux_weights)), \
            mock.patch.object(channel, "aux_weights", counted(elsewhere, aux_weights)), \
            mock.patch.object(cli, "_pauli_coordinates", counted(read, _pauli_coordinates)), \
            mock.patch.object(factorization, "bloch_decompose", counted(decomposed, factorization.bloch_decompose)):
        assert cli.main(["--trials", "40", "verify", "cascade", "--channel", str(path)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 40
    assert len(sampler) == len(read) == len(rounds) >= 3  # 3 blocks, one round or more each
    assert elsewhere == [] and decomposed == []
    assert not hasattr(factorization, "aux_solve") and not hasattr(factorization, "is_psd")
