"""Fuzz of the input boundary: whatever JSON a state, channel or family file
holds, its parser and its file loader return a value or raise CohfactError
(which the CLI turns into exit 2), never another exception."""

import gc
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cohfact import io
from cohfact.channel import channel_entry, named_channels
from cohfact.errors import CohfactError

KEYS = ["d", "matrix", "bloch", "name", "params", "kraus", "label", "n", "chi"]
PARAM_KEYS = ["q", "p", "gamma", "pbar", "q0", "sign", "p0", "p1", "p2", "p3", "x"]

numbers = (st.integers(-3, 6) | st.integers() | st.sampled_from([10**400, -(10**400)])
           | st.floats(allow_nan=True, allow_infinity=True) | st.floats(-1.5, 1.5))
dims = st.integers(-2, 6) | st.sampled_from([io.MAX_D + 1, 10**400, 2.0, 2.5, 3.0, -1.0, "3", None, True])
scalars = st.none() | st.booleans() | numbers | st.text(max_size=4) | st.sampled_from(named_channels())


def _pairs(d, k=None):
    """A d x d matrix (or a stack of k) of [re, im] pairs, sometimes ragged."""
    pair = st.lists(numbers, min_size=2, max_size=2) | st.lists(numbers, max_size=3)
    matrix = st.lists(st.lists(pair, min_size=d, max_size=d), min_size=d, max_size=d)
    return matrix if k is None else st.lists(matrix, min_size=k, max_size=k)


def _planes(d, k=None):
    """A d x d matrix (or a stack of k) as an object of its real and
    imaginary planes: sometimes ragged, of two shapes, nested one level too
    deep or too shallow, or with a key missing, added or not a plane."""
    row = st.lists(numbers, min_size=d, max_size=d) | st.lists(numbers, max_size=d + 1)
    matrix = st.lists(row, min_size=d, max_size=d)
    plane = (matrix if k is None else st.lists(matrix, min_size=k, max_size=k)) | matrix.map(lambda m: [m]) | row
    return (st.fixed_dictionaries({"re": plane, "im": plane}, optional={"x": json_values})
            | st.dictionaries(st.sampled_from(["re", "im", "x"]), plane | scalars, max_size=3))


@st.composite
def kraus_sets(draw):
    """A regular (k, d, d) Kraus set, of [re, im] pairs or planes, that reaches
    kraus_channel: a complete set, sqrt(w_mu) times a permutation matrix
    with phases +-1, +-i, or an incomplete one of any entries; either with
    one entry made huge (1e200) or non-finite (NaN, Infinity in the file)."""
    k, d = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    if draw(st.booleans()):
        w = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k)))
        ops = np.zeros((k, d, d), dtype=complex)
        for mu in range(k):
            phases = draw(st.lists(st.sampled_from([1, -1, 1j, -1j]), min_size=d, max_size=d))
            ops[mu, range(d), draw(st.permutations(range(d)))] = np.sqrt(w[mu] / w.sum()) * np.array(phases)
        pairs = np.stack((ops.real, ops.imag), axis=-1)
    else:
        pairs = draw(hnp.arrays(float, (k, d, d, 2), elements=st.floats(-1.5, 1.5)))
    bad = draw(st.sampled_from([None, None, 1e200, -1e200, float("nan"), float("inf"), -float("inf")]))
    if bad is not None:
        pairs[tuple(draw(st.integers(0, n - 1)) for n in pairs.shape)] = bad
    if draw(st.booleans()):  # the same set as real and imaginary planes
        return {"re": pairs[..., 0].tolist(), "im": pairs[..., 1].tolist()}
    return pairs.tolist()


json_values = st.recursive(
    scalars,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.sampled_from(KEYS + PARAM_KEYS) | st.text(max_size=3), children, max_size=4),
    max_leaves=20,
)
structured = {
    "d": dims,
    "matrix": st.integers(1, 3).flatmap(lambda d: _pairs(d) | _planes(d)),
    "bloch": st.lists(numbers, max_size=9) | st.lists(st.lists(numbers, max_size=3), max_size=3),
    "name": st.sampled_from(named_channels()) | scalars,
    "params": st.none() | st.dictionaries(st.sampled_from(PARAM_KEYS), numbers | scalars, max_size=5),
    "kraus": st.tuples(st.integers(1, 3), st.integers(1, 3)).flatmap(lambda a: _pairs(*a) | _planes(*a))
    | st.integers(1, 3).flatmap(lambda d: _pairs(d) | _planes(d)) | kraus_sets(),
    "label": scalars,
    "n": st.lists(numbers, max_size=9) | scalars,
    "chi": numbers | scalars,
}
# Specs of the right shape, so that the fuzz also reaches the range checks
# and the builders behind the type checks.
unit = st.floats(-0.2, 1.2) | st.sampled_from([0.0, 1.0])
small_d = st.integers(1, 5) | st.sampled_from([io.MAX_D + 1, 2.0])


def _named(name):
    entry = channel_entry(name)
    values = unit | st.sampled_from([1, -1, 0, 1.0]) if entry.defaults else unit | numbers
    params = st.fixed_dictionaries({k: unit | numbers for k in entry.keys},
                                   optional={k: values for k, _ in entry.defaults})
    return st.fixed_dictionaries({"name": st.just(name), "params": params}, optional={"d": small_d})


named_specs = st.sampled_from(named_channels()).flatmap(_named)
bloch_specs = small_d.flatmap(lambda d: st.fixed_dictionaries({
    "d": st.just(d),
    "bloch": st.sampled_from([st.floats(-0.6, 0.6), numbers]).flatmap(lambda x: st.lists(
        x, min_size=max(int(d) ** 2 - 2, 0), max_size=int(d) ** 2)) if d <= 5 else st.just([0.0]),
}))
kraus_specs = st.fixed_dictionaries({"kraus": kraus_sets()}, optional={
    "label": scalars, "params": st.none() | st.dictionaries(st.text(max_size=3), scalars, max_size=3) | json_values})
family_specs = st.integers(2, 4).flatmap(lambda d: st.fixed_dictionaries(
    {"d": st.sampled_from([d, 2, 2.0, "2"]), "n": st.lists(unit | numbers, min_size=d * d - 2, max_size=d * d)},
    optional={"chi": unit | numbers | scalars}))
specs = (named_specs | bloch_specs | kraus_specs | family_specs
         | st.fixed_dictionaries({}, optional={key: structured[key] | json_values for key in KEYS})
         | json_values)


def _only_cohfact_errors(parse, spec):
    try:
        parse(spec)
    except CohfactError:
        pass


def _load_only_cohfact_errors(load, spec, collecting):
    """``load`` of a file holding ``spec``, with the cyclic collector on or
    off, raises only CohfactError and leaves the collector as it was."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "spec.json")
        with open(path, "w") as fh:
            json.dump(spec, fh)
        (gc.enable if collecting else gc.disable)()
        try:
            _only_cohfact_errors(load, path)
            assert gc.isenabled() is collecting
        finally:
            gc.enable()


@given(spec=specs)
@settings(max_examples=200, deadline=None)
def test_state_parser_raises_only_cohfact_errors(spec):
    _only_cohfact_errors(io.state_from_dict, spec)


@given(spec=specs)
@settings(max_examples=200, deadline=None)
def test_channel_parser_raises_only_cohfact_errors(spec):
    _only_cohfact_errors(io.channel_from_dict, spec)


@given(spec=specs, collecting=st.booleans())
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_state_loader_raises_only_cohfact_errors(spec, collecting):
    _load_only_cohfact_errors(io.load_state, spec, collecting)


@given(spec=specs, collecting=st.booleans())
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_channel_loader_raises_only_cohfact_errors(spec, collecting):
    _load_only_cohfact_errors(io.load_channel, spec, collecting)


@given(spec=specs, d=st.integers(2, 4), collecting=st.booleans())
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_family_loader_raises_only_cohfact_errors(spec, d, collecting):
    _load_only_cohfact_errors(lambda p: io.load_family(p, d), spec, collecting)


def test_family_loader_rejects_non_finite_and_non_list_entries(tmp_path):
    for spec in ({"d": 2, "n": [1, 0, 0], "chi": float("nan")},
                 {"d": 2, "n": [1, 0, 0], "chi": 10**400},
                 {"d": 2, "n": "100"},
                 {"d": 2, "n": [10**400, 0, 0]}):
        path = tmp_path / "family.json"
        path.write_text(json.dumps(spec))
        try:
            io.load_family(str(path), 2)
        except CohfactError:
            continue
        raise AssertionError(f"accepted {spec}")


@pytest.mark.parametrize("values, want", [
    ([0, 1e308, 0], [0, 1, 0]),
    ([1e200, -1e200, 1e200], [1, -1, 1]),
    ([0, 1e-320, 0], [0, 1, 0]),
    ([1e-160, 0, 0], [1, 0, 0]),  # the norm is normal, but not its square
    ([3e-160, 4e-160, 0], [0.75, 1, 0]),
])
def test_unit_direction_rescales_a_squared_norm_out_of_range(values, want):
    """A finite direction whose sum of squares over- or underflows is
    rescaled by its largest component before it is normalised, with no
    NumPy warning; an ordinary direction keeps the bits of n / |n|."""
    want = np.array(want, dtype=float)
    np.testing.assert_allclose(io.unit_direction(values, 3, "n"), want / np.linalg.norm(want), rtol=1e-15, atol=0)
    n = np.array([0.3, 0.4, 0.5])
    assert np.array_equal(io.unit_direction(n, 3, "n"), n / np.linalg.norm(n))


def test_kraus_file_must_hold_one_channel():
    """A stack of channels is a library value; a channel file holds one."""
    one = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    assert io.channel_from_dict({"kraus": [one]}).kraus.shape == (1, 2, 2)
    try:
        io.channel_from_dict({"kraus": [[one]]})
    except CohfactError as exc:
        assert "list of d x d matrices" in str(exc)
    else:
        raise AssertionError("a (1, 1, 2, 2) Kraus entry was accepted")
    np.testing.assert_array_equal(io.state_from_dict({"d": 2, "bloch": [0, 0, 0]}).m, np.eye(2) / 2)


@pytest.mark.parametrize("parse, spec", [
    (io.state_from_dict, {"d": 2, "bloch": [0.0, 0.0, float("inf")]}),
    (io.state_from_dict, {"d": 2, "bloch": [float("nan"), 0.0, 0.0]}),
    (io.state_from_dict, {"d": 3, "bloch": [1e308] * 8}),
    (io.state_from_dict, {"matrix": [[[1e308, 0], [1e308, 0]], [[-1e308, 0], [0, 0]]]}),
    (io.channel_from_dict, {"kraus": [[[[0, 0], [1e200, 0]], [[0, 0], [0, 0]]]]}),
    (io.channel_from_dict, {"kraus": [[[[0, 1.3407807929942597e154]]]]}),
    (io.channel_from_dict, {"kraus": [[[[1e200, 1e200], [0, 0]], [[0, 0], [1, 0]]]]}),  # NaN error
])
def test_huge_or_non_finite_entries_fail_before_any_arithmetic(parse, spec):
    """Rejected with CohfactError before they can overflow: NumPy's
    RuntimeWarning fails the suite."""
    with pytest.raises(CohfactError):
        parse(spec)
