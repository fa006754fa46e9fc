"""The cascade's block target sampler against the per-trial halving loop.

``reference_target`` draws one trial's target on its own: each round it
draws its block's chi values and the normals of the rows up to its own, and
builds the auxiliary channel at chi, chi/2, chi/4, ... until one is a
channel, moving on to the next round when a coordinate is unreachable or no
halving works. The closed-form sampler makes one ``aux_weights`` call per
round for the rows still open and must return the bitwise same (rho, m,
chi) for every row. Half of the runs dephase some of their states, so that
source coordinates vanish and the unreachable-draw path is compared too.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cohfact import cli
from cohfact.basis import pauli_tensor_basis
from cohfact.channel import EPS_TOL, aux_channel, aux_weights
from cohfact.errors import CohfactError, NotAChannelError, UnreachableTargetError
from cohfact.state import DensityMatrix, ginibre_state

B = cli.BLOCK_TRIALS


def reference_target(N, key, row, max_rounds):
    d = 2**N
    for r in range(max_rounds):
        rng = np.random.default_rng([*key, r] if r else key)
        chi = rng.uniform(0.01, 0.3, B)[row]
        z = rng.standard_normal((row + 1, 2 * d * d + 4**N - 1))[row:]
        rho = DensityMatrix(d=d, m=cli.ginibre_state(z[:, : 2 * d * d].reshape(1, 2, d, d)).m[0])
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
    p = basis.elements[pick // 2] * np.sqrt(d / 2)  # unitaries
    flip = (pick % 2 == 1)[:, None, None]
    return DensityMatrix(d=d, m=np.where(flip, (rho + p @ rho @ p) / 2, rho))


def _outcome(N, seed, rows, max_rounds):
    with mock.patch.object(cli, "MAX_TARGET_ROUNDS", max_rounds):
        try:
            rho, m, chi = cli._sample_reachable_target(N, [seed, 0], rows)
        except CohfactError as exc:
            return type(exc), str(exc)
    return [(rho[i].tobytes(), m[i].tobytes(), chi[i].hex()) for i in range(rows)]


def _reference_outcome(N, seed, rows, max_rounds):
    try:
        targets = [reference_target(N, [seed, 0], i, max_rounds) for i in range(rows)]
    except CohfactError as exc:
        return type(exc), str(exc)
    return [(rho.tobytes(), m.tobytes(), chi.hex()) for rho, m, chi in targets]


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

    def spy(rho, m, chi):
        eps, unreachable = aux_weights(rho, m, chi)
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
