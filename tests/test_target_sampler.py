"""The cascade's target sampler against the halving loop it replaced.

``reference_sample_reachable_target`` is the earlier body of
``cli._sample_reachable_target``: it builds the auxiliary channel at chi,
chi/2, chi/4, ... until one is a channel. The closed-form sampler makes one
``aux_solve`` per draw and must return the bitwise same (rho, m, chi) and
leave the generator in the same state. Half of the runs dephase some of
their states, so that source coordinates vanish and the unreachable-draw
path is compared too.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cohfact import cli
from cohfact.basis import pauli_tensor_basis
from cohfact.channel import EPS_TOL, aux_channel, aux_solve
from cohfact.errors import CohfactError, NotAChannelError, UnreachableTargetError
from cohfact.state import DensityMatrix, random_state


def reference_sample_reachable_target(N, rng, max_tries=200):
    for _ in range(max_tries):
        rho = cli.random_state(2**N, rng)
        v = rng.standard_normal(4**N - 1)
        m = v / np.linalg.norm(v)
        chi = rng.uniform(0.01, 0.3)
        for _ in range(60):
            try:
                aux_channel(rho, m, chi)
            except NotAChannelError:
                chi *= 0.5
                continue
            except UnreachableTargetError:
                break
            return rho, m, chi
    raise CohfactError("could not sample a realizable auxiliary-channel target")


def dephased_state(d, rng):
    """A random state, half of the time dephased by a random Pauli tensor P:
    (rho + P rho P) / 2 keeps the coordinates that commute with P and zeroes
    the others."""
    rho = random_state(d, rng)
    if rng.random() < 0.5:
        basis = pauli_tensor_basis(d.bit_length() - 1)
        p = basis.elements[rng.integers(d * d - 1)] * np.sqrt(d / 2)  # a unitary
        rho = DensityMatrix(d=d, m=(rho.m + p @ rho.m @ p) / 2)
    return rho


def _outcome(sampler, N, seed, max_tries):
    rng = np.random.default_rng(seed)
    try:
        rho, m, chi = sampler(N, rng, max_tries=max_tries)
    except CohfactError as exc:
        return type(exc), str(exc), rng.bit_generator.state
    return rho.m.tobytes(), m.tobytes(), chi.hex(), rng.bit_generator.state


def _compare(N, seed, max_tries, dephase):
    with mock.patch.object(cli, "random_state", dephased_state if dephase else random_state):
        got = _outcome(cli._sample_reachable_target, N, seed, max_tries)
        assert got == _outcome(reference_sample_reachable_target, N, seed, max_tries)
    return got


@given(N=st.integers(1, 3), seed=st.integers(0, 2**32 - 1), max_tries=st.sampled_from([1, 2, 200]),
       dephase=st.booleans())
@settings(max_examples=300, deadline=None)
def test_sampler_matches_halving_loop(N, seed, max_tries, dephase):
    _compare(N, seed, max_tries, dephase)


def test_compared_draws_reach_every_path():
    """The seeds below give draws that are feasible at once, draws that
    need halving, unreachable draws and runs that give up, so the
    comparison is not only on one path."""
    seen = set()

    def spy(rho, m, chi):
        try:
            eps = aux_solve(rho, m, chi)
        except UnreachableTargetError:
            seen.add("unreachable")
            raise
        seen.add("halved" if np.min(eps) < EPS_TOL else "feasible")
        return eps

    with mock.patch.object(cli, "aux_solve", spy):
        outcomes = [_compare(N, seed, 1 + seed % 3, dephase=True)
                    for seed in range(40) for N in (1, 2, 3)]
    assert seen == {"unreachable", "halved", "feasible"}
    assert any(got[0] is CohfactError for got in outcomes)
