"""The shape rule: d is read from an array's last axis, d^2 entries with the
identity (a square transfer matrix, the 4^N weights of d = 2^N) or the
d^2 - 1 Bloch components without it. Every public reader refuses a shape
that no d >= 2 fits with a DimensionMismatchError that names the shape,
rather than reading a wrong d or failing inside NumPy."""

import re

import numpy as np
import pytest

from cohfact import io
from cohfact.channel import (
    aux_kraus_channel,
    aux_pauli_action,
    frozen_condition_check,
    scalar_actions,
    theorem1_condition,
)
from cohfact.errors import DimensionMismatchError
from cohfact.factorization import verify_cascade, verify_corollary2, verify_families
from cohfact.measures import l1_from_density, purity_measure
from cohfact.state import (
    bloch_compose,
    chi_interval,
    coherence_weight,
    probe_factor,
    probe_state,
    random_state,
)


def _verify_families(t):
    n = np.eye(8)[:1]  # a d = 3 direction, as isqrt(10) = 3 would read
    return verify_families("l1", t, n, [0.5], [1.0])


def _verify_corollary2(t):
    return verify_corollary2(t, random_state(3, 0, size=1))


def _verify_cascade(t):
    y, m = np.full((1, 8), 0.1), np.eye(8)[:1]
    return verify_cascade(t, y, m, np.full((1, 9), 1 / 9))


TRANSFER_READERS = {
    "theorem1_condition": theorem1_condition,
    "frozen_condition_check": frozen_condition_check,
    "scalar_actions": lambda t: scalar_actions(t, np.ones(6, dtype=bool)),
    "verify_families": _verify_families,
    "verify_corollary2": _verify_corollary2,
    "verify_cascade": _verify_cascade,
    "transfer_to_dict": io.transfer_to_dict,
}


@pytest.mark.parametrize("shape", [(10, 10), (4, 9)])
@pytest.mark.parametrize("name", list(TRANSFER_READERS))
def test_transfer_matrix_that_no_d_fits_is_refused(name, shape):
    """10 is no d^2, and a (4, 9) array is not square: theorem1_condition and
    transfer_to_dict read d = 3 or 2 from either, the others failed in NumPy."""
    pattern = rf"d\^2 x d\^2 transfer matrix for a d >= 2, got shape \({shape[0]}, {shape[1]}\)"
    with pytest.raises(DimensionMismatchError, match=pattern):
        TRANSFER_READERS[name](np.eye(*shape))


COMPONENT_READERS = {
    "coherence_weight": coherence_weight,
    "probe_factor": probe_factor,
    "probe_state": probe_state,
    "chi_interval": chi_interval,
    "bloch_compose": bloch_compose,
}


@pytest.mark.parametrize("rows", [(), (3,)])
@pytest.mark.parametrize("name", list(COMPONENT_READERS))
def test_components_that_no_d_fits_are_refused(name, rows):
    """7 components are d^2 - 1 for no d; a direction of them has a coherent
    part and finite entries, so only the shape rule can refuse it."""
    pattern = rf"d\^2 - 1 components for a d >= 2, got shape \({', '.join(map(str, rows + (7,)))},?\)"
    with pytest.raises(DimensionMismatchError, match=pattern):
        COMPONENT_READERS[name](np.full(rows + (7,), 0.25))


def test_coherence_weight_sums_only_the_pairs_of_its_d():
    """Of 8 components, d = 3: three pairs and the two w_l. An 8-entry x
    given with d = 4 summed six pairs of a (4^2 - 1)-component vector."""
    x = np.zeros(8)
    x[:6] = 0.3, 0.4, 0.0, 0.0, 0.6, 0.8
    x[6:] = 5.0
    assert coherence_weight(x) == pytest.approx(1.5, abs=1e-15)
    with pytest.raises(DimensionMismatchError, match=r"got shape \(8, 9\)"):
        coherence_weight(np.ones((8, 9)))


@pytest.mark.parametrize("weights", [[[0.2] * 5], [[1 / 9] * 9], [0.5]], ids=["5", "9", "scalar-row"])
def test_aux_pauli_action_refuses_weights_that_are_not_4_to_the_N(weights):
    """5 weights are d^2 for no d and 9 are those of d = 3, no qubit count."""
    with pytest.raises(DimensionMismatchError, match=r"4\^N weights for a d >= 2, got shape"):
        aux_pauli_action(weights)


@pytest.mark.parametrize("weights", [[[0.2] * 5], [[1 / 9] * 9], [0.5]], ids=["5", "9", "scalar-row"])
def test_aux_kraus_channel_refuses_weights_that_are_not_4_to_the_N(weights):
    with pytest.raises(DimensionMismatchError, match=r"4\^N weights for a d >= 2, got shape"):
        aux_kraus_channel(weights, 0.1)


@pytest.mark.parametrize("measure", [l1_from_density, purity_measure])
@pytest.mark.parametrize("m", [np.ones(3), np.ones((2, 3)), np.ones((4, 2, 3)), np.float64(0.5)],
                         ids=["vector", "2x3", "stack-of-2x3", "scalar"])
def test_measures_refuse_an_input_that_is_not_square(measure, m):
    """A vector failed with NumPy's AxisError and a 2 x 3 matrix with a
    broadcast ValueError; every square matrix or stack of them still passes."""
    pattern = re.escape(f"square matrix or a stack of them, got shape {m.shape}")
    with pytest.raises(DimensionMismatchError, match=pattern):
        measure(m)
    rho = random_state(3, 1, size=2).m
    assert np.shape(measure(rho)) == (2,) and isinstance(measure(rho[0]), float)
