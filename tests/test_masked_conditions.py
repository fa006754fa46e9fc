"""The masked transfer-matrix conditions against the loops they replaced.

``reference_frozen_condition_check`` and ``reference_scalar_action_detect``
are the earlier per-pair and per-row bodies of ``frozen_condition_check``
and of the subset form of ``scalar_actions``. The masked versions must give
the same answer, ``NotApplicableError`` included, on channels and on
transfer matrices built to sit on either side of each condition; a NaN
scalar stands for the reference's None.
"""

from math import isqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohfact.channel import (
    CONDITION_TOL,
    _haar_isometries,
    frozen_condition_check,
    gell_mann_G,
    kraus_channel,
    make_named,
    random_channel,
    random_unital_channel,
    scalar_actions,
    theorem1_condition,
    transfer_matrix,
)
from cohfact.errors import CohfactError, DimensionMismatchError, NotApplicableError


def reference_scalar_action_detect(T, subset, tol=CONDITION_TOL):
    subset = sorted(set(int(k) for k in subset))
    if not subset:
        return None
    q = None
    for k in subset:
        row = T[k]
        if q is None:
            q = row[k]
        if abs(row[k] - q) > tol:
            return None
        rest = np.delete(row, k)
        if np.max(np.abs(rest)) > tol:
            return None
    return float(q)


def reference_frozen_condition_check(T, n=None, tol=CONDITION_TOL):
    if not theorem1_condition(T):
        raise NotApplicableError("factorization precondition fails")
    d = isqrt(len(T))
    d0 = (d * d - d) // 2
    s = T[1 : d * d - d + 1, 1:]

    def block(r):
        i = 2 * r - 1
        return T[i : i + 2, i : i + 2]

    if n is None:
        for r in range(1, d0 + 1):
            rows = slice(2 * r - 2, 2 * r)
            off = s[rows].copy()
            off[:, 2 * r - 2 : 2 * r] = 0.0
            if np.max(np.abs(off)) > tol:
                return False
            b = block(r)
            if np.max(np.abs(b.T @ b - np.eye(2))) > tol:
                return False
        return True

    n = np.asarray(n, dtype=float)
    populated = np.abs(n) > tol
    for r in range(1, d0 + 1):
        i, j = 2 * r - 2, 2 * r - 1
        if not populated[i] and not populated[j]:
            continue
        off = s[i : j + 1].copy()
        off[:, i : j + 1] = 0.0
        off[:, ~populated] = 0.0
        if np.max(np.abs(off)) > tol:
            return False
        b = block(r)
        if populated[i] and populated[j]:
            if np.max(np.abs(b.T @ b - np.eye(2))) > tol:
                return False
        elif populated[i]:
            if abs(b[0, 0] ** 2 + b[1, 0] ** 2 - 1.0) > tol:
                return False
        else:
            if abs(b[0, 1] ** 2 + b[1, 1] ** 2 - 1.0) > tol:
                return False
    return True


def _outcome(fn, *args):
    try:
        return fn(*args)
    except NotApplicableError as exc:
        return type(exc)


def _channel(kind, d, rng):
    """A channel of the given kind; the qubit-only kinds ignore ``d``."""
    q = rng.choice([0.0, 1.0, rng.uniform()])
    if kind == "haar_unitary":
        return kraus_channel(_haar_isometries(1, d, d, rng))
    if kind == "phase_unitary":  # diagonal phases freeze every pair
        return kraus_channel(np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, d)))[None])
    if kind == "permutation":  # pairs map onto pairs, with phases
        u = np.eye(d)[rng.permutation(d)] * np.exp(1j * rng.uniform(0, 2 * np.pi, d))
        return kraus_channel(u[None])
    if kind == "frozen":
        return make_named(str(rng.choice(["frozen_xy", "frozen_z"])),
                          params={"q": q, "sign": int(rng.choice([1, -1]))})
    if kind == "pauli":
        name = rng.choice(["bit_flip", "bit_phase_flip", "phase_flip", "phase_damping"])
        return make_named(str(name), params={"q": q})
    if kind == "unital":
        return random_unital_channel(d, k=int(rng.integers(1, d * d + 1)), seed=rng)
    if kind == "gell_mann_G":
        q0 = rng.uniform()
        lo, hi = -(1 + (d - 1) * q0) / (d * d - d), (1 + (d - 1) * q0) / d
        return gell_mann_G(d, rng.choice([q0, rng.uniform(lo, hi)]), q0)
    if kind == "amplitude_damping":  # T_k0 = 0 holds although the channel is not unital
        return make_named("amplitude_damping", params={"gamma": q})
    return random_channel(d, k=int(rng.integers(1, d * d + 1)), seed=rng)


def _random_transfer(d, rng):
    """A transfer matrix around the frozen condition: T^S block diagonal
    with orthogonal 2x2 blocks, then some blocks replaced by ones with a
    single unit column, some rows coupled outside their block, and T_k0
    sometimes nonzero. The matrix need not belong to a channel."""
    n, d0 = d * d, (d * d - d) // 2
    t = np.zeros((n, n))
    t[0, 0] = 1.0
    t[1 + 2 * d0 :, 1:] = rng.standard_normal((d - 1, n - 1))
    for r in range(d0):
        a = rng.uniform(0, 2 * np.pi)
        b = np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])
        kind = rng.integers(5)
        if kind == 1:  # a reflection
            b[:, 1] *= -1
        elif kind == 2:  # shrunk
            b *= rng.uniform(0.2, 0.99)
        elif kind == 3:  # one unit column, the other neither unit nor orthogonal to it
            b[:, 1] = b[:, 0] * rng.uniform(0.1, 0.9) + b[::-1, 0] * [1, -1] * rng.uniform(0.1, 0.9)
            b = b[:, ::-1] if rng.integers(2) else b
        t[1 + 2 * r : 3 + 2 * r, 1 + 2 * r : 3 + 2 * r] = b
    for _ in range(rng.integers(3)):  # couplings outside the own block, into any column
        i, j = rng.integers(1, 1 + 2 * d0), rng.integers(1, n)
        t[i, j] += rng.choice([1e-3, 0.5])
    if rng.uniform() < 0.1:
        t[rng.integers(1, 1 + 2 * d0), 0] = 0.1
    return t


def _family(d, rng):
    """A family's unit direction with each component, and sometimes each
    whole u/v pair, zeroed at random; at least one component stays."""
    n = rng.standard_normal(d * d - 1)
    n[rng.uniform(size=n.size) < rng.uniform()] = 0.0
    pairs = (d * d - d) // 2
    n[: 2 * pairs].reshape(pairs, 2)[rng.uniform(size=pairs) < 0.3] = 0.0
    if not n.any():
        n[rng.integers(n.size)] = 1.0
    return n / np.linalg.norm(n)


def _subset(d, rng):
    """Random 1-based indices in 1..d^2-d."""
    k_max = d * d - d
    return list(rng.choice(np.arange(1, k_max + 1), size=rng.integers(0, k_max + 1), replace=False))


def _scalar_action(T, subset):
    """scalar_actions of the mask of a subset of 1-based indices, None for NaN."""
    d = isqrt(len(T))
    q = scalar_actions(T, np.isin(np.arange(1, d * d - d + 1), subset))
    return None if np.isnan(q) else float(q)


def _check(T, rng):
    d = isqrt(len(T))
    for n in (None, _family(d, rng), _family(d, rng), _family(d, rng)):
        assert (_outcome(frozen_condition_check, T, n)
                == _outcome(reference_frozen_condition_check, T, n))
    for _ in range(3):
        subset = _subset(d, rng)
        assert _scalar_action(T, subset) == reference_scalar_action_detect(T, subset)


KINDS = ["haar_unitary", "phase_unitary", "permutation", "frozen", "pauli", "unital",
         "gell_mann_G", "amplitude_damping", "random"]


@given(kind=st.sampled_from(KINDS), d=st.integers(2, 5), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_masked_conditions_match_reference_on_channels(kind, d, seed):
    rng = np.random.default_rng(seed)
    _check(transfer_matrix(_channel(kind, d, rng)), rng)


@given(d=st.integers(2, 5), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_masked_conditions_match_reference_on_built_matrices(d, seed):
    rng = np.random.default_rng(seed)
    _check(_random_transfer(d, rng), rng)


def test_channel_cases_reach_every_answer():
    """Channels alone give frozen, not frozen and not applicable, so the
    comparison above is not only on one answer."""
    rng = np.random.default_rng(5)
    ts = [transfer_matrix(_channel(kind, d, rng)) for kind in KINDS for d in (2, 3)]
    seen = {_outcome(frozen_condition_check, T, n) for T in ts for n in (None, _family(isqrt(len(T)), rng))}
    assert {True, False, NotApplicableError} <= seen


def test_built_matrices_reach_both_answers():
    rng = np.random.default_rng(7)
    seen = [_outcome(frozen_condition_check, _random_transfer(3, rng), n)
            for _ in range(200) for n in (None, _family(3, rng))]
    assert {True, False, NotApplicableError} <= set(seen)


def test_nan_never_passes():
    t = np.eye(4)
    t[1, 3] = np.nan  # a coupling of the first pair's u row
    assert frozen_condition_check(t) is False
    t = np.eye(4)
    t[1, 1] = t[2, 2] = np.nan
    assert np.isnan(scalar_actions(t, [True, True]))


def test_family_of_another_dimension():
    T = transfer_matrix(make_named("bit_flip", params={"q": 0.5}))
    with pytest.raises(DimensionMismatchError):
        frozen_condition_check(T, np.eye(8)[0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_direction_is_refused(bad):
    """NaN fails |n_i| > CONDITION_TOL, so it would read as an unpopulated
    coordinate: bit_flip q = 0.5 freezes [0.6, 0, 0.8], yet [0.6, NaN, 0.8]
    is no direction and is refused before any decision."""
    T = transfer_matrix(make_named("bit_flip", params={"q": 0.5}))
    with pytest.raises(CohfactError, match=r"n\[1\] = "):
        frozen_condition_check(T, np.array([0.6, bad, 0.8]))


@pytest.mark.parametrize("size", [4, 5])
def test_direction_of_the_wrong_length(size):
    """A qubit transfer matrix takes a 3-component direction; 4 or 5 raise
    DimensionMismatchError, not NumPy's broadcasting ValueError."""
    T = transfer_matrix(make_named("bit_flip", params={"q": 0.5}))
    with pytest.raises(DimensionMismatchError, match=rf"shape \({size},\), expected \(3,\)"):
        frozen_condition_check(T, np.ones(size) / np.sqrt(size))
