"""``apply`` against the per-operator sum it contracts, and the order of
``kraus_channel``'s checks.

``apply`` forms every E_mu rho of a stack in one product, side by side, and
takes each image as one dot product per entry over the k d columns. The
reference here is the definition, sum_mu E_mu rho E_mu^dag, one operator at
a time. ``kraus_channel`` computes the completeness error first and scans
for non-finite entries only when that error is not within tolerance."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohfact.channel import apply, channel_entry, kraus_channel, make_named, named_channels
from cohfact.errors import InvalidChannelError
from cohfact.factorization import SWEEP_CHUNK_ENTRIES
from cohfact.state import random_state

ONE_PARAMETER = [name for name in named_channels() if len(channel_entry(name).keys) == 1]
CASES = [(name, d, sign) for name in ONE_PARAMETER
         for d in ((2, 3, 4, 5) if name == "depolarizing" else (2,))
         for sign in ((1, -1) if name.startswith("frozen_") else (None,))]


def _per_operator(kraus, m):
    """sum_mu E_mu rho E_mu^dag, one Kraus operator at a time."""
    out = 0
    for mu in range(kraus.shape[-3]):
        e = kraus[..., mu, :, :]
        out = out + e @ m @ e.conj().swapaxes(-2, -1)
    return out


def _stack(name, d, sign, points, rng):
    """The named channel's (points, k, d, d) stack at random parameter values."""
    top = 1.0 + 1.0 / (d * d - 1) if name == "depolarizing" else 1.0
    grid = rng.uniform(0.0, top, points)
    grid[rng.integers(points)] = top  # the end of the range, where an operator may vanish
    params = {channel_entry(name).keys[0]: grid} | ({} if sign is None else {"sign": sign})
    return make_named(name, d=d, params=params)


@given(case=st.sampled_from(CASES), data=st.data(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=120, deadline=None)
def test_stack_apply_is_the_per_operator_sum(case, data, seed):
    """For one state and for a stack of as many states as channels, at every
    stack size up to a sweep chunk."""
    name, d, sign = case
    points = data.draw(st.integers(1, max(1, SWEEP_CHUNK_ENTRIES // d**4)), label="points")
    rng = np.random.default_rng(seed)
    ch = _stack(name, d, sign, points, rng)
    for rho in (random_state(d, rng), random_state(d, rng, size=points)):
        got = apply(ch, rho).m
        assert got.shape == (points, d, d)
        np.testing.assert_allclose(got, _per_operator(ch.kraus, rho.m), rtol=0, atol=1e-14)


def _stacked_kraus(points=5):
    """A (points, k, 3, 3) stack of valid depolarizing Kraus sets, writable."""
    return make_named("depolarizing", d=3, params={"p": np.linspace(0.1, 0.9, points)}).kraus.copy()


@pytest.mark.parametrize("value, message", [
    (np.nan, "Kraus operators have non-finite entries"),
    (complex(0.0, np.nan), "Kraus operators have non-finite entries"),
    (np.inf, "Kraus operators have non-finite entries"),
    (complex(-np.inf, 1.0), "Kraus operators have non-finite entries"),
    (1e200, "completeness violated: |sum E^dag E - I| = inf"),
])
@pytest.mark.parametrize("stacked", [True, False])
def test_one_bad_point_is_refused_without_a_warning(value, message, stacked):
    """One entry of one point of a (P, k, d, d) stack, or of a single
    channel, is NaN, inf or 1e200: the set is refused with the message of
    its kind, and the huge entries raise no RuntimeWarning on the way."""
    kraus = _stacked_kraus()
    kraus[3, 2, 1, 0] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidChannelError) as info:
            kraus_channel(kraus if stacked else kraus[3])
    assert str(info.value) == message


def test_non_finite_is_named_before_a_huge_point():
    """A stack with a huge point and a NaN point is refused as non-finite,
    whichever comes first."""
    kraus = _stacked_kraus()
    kraus[0, 0, 0, 0], kraus[4, 0, 0, 0] = 1e200, np.nan
    with pytest.raises(InvalidChannelError, match="non-finite"):
        kraus_channel(kraus)
    kraus[0, 0, 0, 0], kraus[4, 0, 0, 0] = np.nan, 1e200
    with pytest.raises(InvalidChannelError, match="non-finite"):
        kraus_channel(kraus)
