"""The batched sweep against the per-point path it replaced.

``freeze_trajectory`` builds a chunk of grid points as one (P, k, d, d)
stack of channels and maps the state through it in one product. The
reference here is the old per-point loop (one make_named, apply and pair of
measures per grid value) and the old scalar bodies of the named-channel
factories, kept verbatim."""

import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cohfact import cli, factorization, io
from cohfact.basis import _SIGMA, gellmann_basis
from cohfact.channel import (
    apply,
    channel_entry,
    corollary1_check,
    dual_apply,
    kraus_channel,
    make_named,
    named_channels,
    transfer_matrix,
)
from cohfact.errors import DimensionMismatchError, InvalidChannelError
from cohfact.factorization import freeze_trajectory
from cohfact.measures import l1_from_density, purity_measure
from cohfact.state import density_matrix, random_state

ONE_PARAMETER = [name for name in named_channels() if len(channel_entry(name).keys) == 1]
CASES = [(name, d) for name in ONE_PARAMETER
         for d in ((2, 3, 4, 5) if name == "depolarizing" else (2,))]


# ---------------------------------------------------------------------------
# reference: the scalar factories and the per-point sweep


def _ref_flip(k):
    def flip(q):
        w = np.sqrt([(1 + q) / 2, (1 - q) / 2])
        return w[:, None, None] * _SIGMA[[0, k]]

    return flip


def _ref_phase_damping(q):
    return np.array([[[1.0, 0.0], [0.0, q]], [[0.0, 0.0], [0.0, np.sqrt(1 - q * q)]]],
                    dtype=complex)


def _ref_pauli(p0, p1, p2, p3):
    p = np.array([p0, p1, p2, p3], dtype=float)
    return (np.sqrt(p)[:, None, None] * _SIGMA)[p > 0]


def _ref_gad(gamma, pbar):
    g = np.sqrt(gamma)
    gq = np.sqrt(1 - gamma)
    w = np.sqrt([pbar, pbar, 1 - pbar, 1 - pbar])
    ops = w[:, None, None] * np.array([
        [[1, 0], [0, gq]], [[0, g], [0, 0]], [[gq, 0], [0, 1]], [[0, 0], [g, 0]],
    ], dtype=complex)
    return ops[np.abs(ops).max(axis=(1, 2)) > 0]


def _ref_gell_mann_G(d, q, q0):
    c1 = 1.0 - q0
    c2 = 1.0 - d * q + (d - 1) * q0
    c3 = 1.0 + (d * d - d) * q + (d - 1) * q0
    basis = gellmann_basis(d)
    w = np.concatenate(([np.sqrt(max(c3, 0.0)) / d],
                        np.full(d * d - d, np.sqrt(max(c1, 0.0) / (2 * d))),
                        np.full(d - 1, np.sqrt(max(c2, 0.0) / (2 * d)))))
    gens = np.concatenate((np.eye(d, dtype=complex)[None], basis))
    return (w[:, None, None] * gens)[w > 0]


def _ref_frozen(variant, q, sign):
    qp = np.sqrt(1.0 - q * q)
    if variant == "xy":
        return (q * _SIGMA[1] + sign * qp * _SIGMA[2])[None]
    return (q * _SIGMA[0] + sign * 1j * qp * _SIGMA[3])[None]


def _gell_mann_G_params(d, t, s):
    """(q, q0) of a channel: q0 = 1 - s (1 + 1/(d-1)) and q a fraction t of
    its range."""
    q0 = 1.0 - s * (1.0 + 1.0 / (d - 1))
    lo, hi = -(1 + (d - 1) * q0) / (d * d - d), (1 + (d - 1) * q0) / d
    return {"q": lo + t * (hi - lo), "q0": q0}


# name -> (dimensions, params of a value t in [0, 1], reference Kraus set)
REFERENCE = {
    "bit_flip": ((2,), lambda t, d: {"q": t}, lambda d, p: _ref_flip(1)(p["q"])),
    "bit_phase_flip": ((2,), lambda t, d: {"q": t}, lambda d, p: _ref_flip(2)(p["q"])),
    "phase_flip": ((2,), lambda t, d: {"q": t}, lambda d, p: _ref_flip(3)(p["q"])),
    "phase_damping": ((2,), lambda t, d: {"q": t}, lambda d, p: _ref_phase_damping(p["q"])),
    "pauli": ((2,), lambda t, d: {"p0": t, "p1": (1 - t) / 2, "p2": 0.0, "p3": (1 - t) / 2},
              lambda d, p: _ref_pauli(p["p0"], p["p1"], p["p2"], p["p3"])),
    "generalized_amplitude_damping": (
        (2,), lambda t, d: {"gamma": t, "pbar": 1.0 - t},
        lambda d, p: _ref_gad(p["gamma"], p["pbar"])),
    "amplitude_damping": ((2,), lambda t, d: {"gamma": t}, lambda d, p: _ref_gad(p["gamma"], 1.0)),
    "depolarizing": ((2, 3, 4, 5), lambda t, d: {"p": t * (1.0 + 1.0 / (d * d - 1))},
                     lambda d, p: _ref_gell_mann_G(d, 1.0 - p["p"], 1.0 - p["p"])),
    "gell_mann_G": ((2, 3, 4, 5), lambda t, d: _gell_mann_G_params(d, t, 1.0 - t),
                    lambda d, p: _ref_gell_mann_G(d, p["q"], p["q0"])),
    "frozen_xy": ((2,), lambda t, d: {"q": t, "sign": -1},
                  lambda d, p: _ref_frozen("xy", p["q"], p["sign"])),
    "frozen_z": ((2,), lambda t, d: {"q": t, "sign": -1},
                 lambda d, p: _ref_frozen("z", p["q"], p["sign"])),
}


def reference_trajectory(name, grid, rho, d=2, params=None, tol=1e-9):
    """The per-point sweep: one channel, one apply and one pair of measures
    per grid value."""
    key = channel_entry(name).keys[0]
    values, purities = np.empty(len(grid)), np.empty(len(grid))
    for i, q in enumerate(grid):
        out = apply(make_named(name, d=d, params={**(params or {}), key: q}), rho)
        values[i], purities[i] = l1_from_density(out), purity_measure(out)
    spread = float(values.max() - values.min())
    return values, purities, bool(spread <= tol), spread


def _top(name, d):
    return 1.0 + 1.0 / (d * d - 1) if name == "depolarizing" else 1.0


def _grid(name, d, rng):
    """A regular grid over the parameter's whole range, both ends included,
    and random interior values."""
    top = _top(name, d)
    return np.concatenate((np.linspace(0.0, top, 41), rng.uniform(0.0, top, 20)))


# ---------------------------------------------------------------------------
# construction


def test_reference_table_covers_every_row():
    assert sorted(REFERENCE) == named_channels()


@pytest.mark.parametrize("name", named_channels())
@pytest.mark.parametrize("t", [0.0, 0.37, 1.0])
def test_make_named_is_bit_identical_to_the_scalar_factories(name, t):
    dims, params_of, ref = REFERENCE[name]
    for d in dims:
        params = params_of(t, d)
        ch = make_named(name, d=d, params=params)
        want = ref(d, params)
        assert ch.kraus.shape == want.shape, (name, d, t)
        assert ch.kraus.tobytes() == want.tobytes(), (name, d, t)


@pytest.mark.parametrize("name, d", CASES)
def test_array_parameter_builds_the_stack_of_channels(name, d):
    """make_named over an array holds every point's channel; an operator
    zero at some points but not at all of them is kept, so that all share
    one k."""
    key = channel_entry(name).keys[0]
    grid = np.linspace(0.0, _top(name, d), 9)
    stack = make_named(name, d=d, params={key: grid})
    assert stack.kraus.shape[0] == len(grid) and not stack.kraus.flags.writeable
    for q, ops in zip(grid, stack.kraus):
        one = make_named(name, d=d, params={key: q}).kraus
        nonzero = ops[np.abs(ops).max(axis=(1, 2)) > 0]
        if len(one) < len(ops):
            np.testing.assert_array_equal(nonzero, one[np.abs(one).max(axis=(1, 2)) > 0])
        else:
            np.testing.assert_array_equal(ops, one)


_INTERIOR = np.linspace(0.05, 0.95, 7)


@pytest.mark.parametrize("name, params", [
    ("amplitude_damping", {"gamma": _INTERIOR}),
    ("generalized_amplitude_damping", {"gamma": _INTERIOR, "pbar": 0.0}),
    ("generalized_amplitude_damping", {"gamma": _INTERIOR, "pbar": 1.0}),
    ("pauli", {"p0": 1.0 - _INTERIOR, "p1": _INTERIOR / 2, "p2": 0.0, "p3": _INTERIOR / 2}),
])
def test_stack_drops_operators_zero_at_every_point(name, params):
    """An operator that is zero at every grid point is dropped from the
    stack, as one channel drops it: each point's Kraus set is bitwise the
    scalar channel's, with the same k."""
    stack = make_named(name, params=params).kraus
    for i in range(len(_INTERIOR)):
        one = make_named(name, params={key: v[i] if np.ndim(v) else v for key, v in params.items()}).kraus
        assert stack.shape[1:] == one.shape, (name, i)
        assert stack[i].tobytes() == one.tobytes(), (name, i)


def test_stack_validates_every_channel():
    good = make_named("bit_flip", params={"q": np.array([0.2, 0.5])}).kraus.copy()
    good[1, 0] *= 1.1  # the second channel is no longer trace preserving
    with pytest.raises(InvalidChannelError, match="completeness"):
        kraus_channel(good)


def test_functions_of_one_channel_reject_a_stack():
    stack = make_named("phase_flip", params={"q": np.array([0.2, 0.5])})
    for fn in (transfer_matrix, corollary1_check, lambda ch: dual_apply(ch, np.eye(2))):
        with pytest.raises(InvalidChannelError, match="stack of shape"):
            fn(stack)


def test_apply_refuses_stacks_that_do_not_broadcast():
    """A stack of 3 channels and a stack of 2 states have no common leading
    shape: apply names both instead of ending in NumPy's broadcasting error."""
    stack = make_named("phase_flip", params={"q": np.array([0.2, 0.5, 0.9])})
    states = random_state(2, 0, size=2)
    with pytest.raises(DimensionMismatchError, match=r"channel stack of shape \(3,\) vs state stack of shape \(2,\)"):
        apply(stack, states)
    assert apply(stack, random_state(2, 0, size=1)).m.shape == (3, 2, 2)  # a stack of one broadcasts


# ---------------------------------------------------------------------------
# the sweep


@pytest.mark.parametrize("name, d", CASES)
def test_batched_sweep_matches_the_per_point_loop(name, d):
    rng = np.random.default_rng([ONE_PARAMETER.index(name), d])
    for _ in range(4):
        rho = random_state(d, rng)
        grid = _grid(name, d, rng)
        traj = freeze_trajectory(name, grid, rho, d=d)
        values, purities, frozen, spread = reference_trajectory(name, grid, rho, d=d)
        np.testing.assert_allclose(traj.values, values, rtol=0, atol=1e-15)
        np.testing.assert_allclose(traj.purities, purities, rtol=0, atol=1e-15)
        assert traj.frozen == frozen and traj.spread == spread
        np.testing.assert_array_equal(traj.params, grid)


@pytest.mark.parametrize("sign", [+1, -1])
@pytest.mark.parametrize("name", ["frozen_xy", "frozen_z"])
def test_fixed_parameters_reach_every_point(name, sign):
    rho = random_state(2, 5)
    grid = np.linspace(0.0, 1.0, 11)
    traj = freeze_trajectory(name, grid, rho, params={"sign": sign})
    values, _, frozen, spread = reference_trajectory(name, grid, rho, params={"sign": sign})
    np.testing.assert_allclose(traj.values, values, rtol=0, atol=1e-15)
    assert traj.frozen and frozen and traj.spread == spread


def _chunked_and_whole(name, grid, rho, d, bound):
    """The sweep at the given bound, the point count of each stack it built,
    and the same sweep in one chunk."""
    built = []

    def counted(*args, **kwargs):
        ch = make_named(*args, **kwargs)
        built.append(len(ch.kraus))
        return ch

    with mock.patch.object(factorization, "make_named", counted), \
            mock.patch.object(factorization, "SWEEP_CHUNK_ENTRIES", bound):
        chunked = freeze_trajectory(name, grid, rho, d=d)
    with mock.patch.object(factorization, "SWEEP_CHUNK_ENTRIES", max(1, len(grid)) * d**4):
        whole = freeze_trajectory(name, grid, rho, d=d)
    return chunked, built, whole


@pytest.mark.parametrize("name, d, per_chunk", [("bit_flip", 2, 3), ("depolarizing", 3, 7),
                                                ("amplitude_damping", 2, 1)])
def test_grid_over_several_chunks_matches_one_chunk(name, d, per_chunk):
    rng = np.random.default_rng(11)
    rho = random_state(d, rng)
    grid = _grid(name, d, rng)
    chunked, built, whole = _chunked_and_whole(name, grid, rho, d, per_chunk * d**4)
    assert built == [min(per_chunk, len(grid) - lo) for lo in range(0, len(grid), per_chunk)]
    np.testing.assert_array_equal(chunked.values, whole.values)
    np.testing.assert_array_equal(chunked.purities, whole.purities)
    assert chunked.spread == whole.spread


def test_default_bound_splits_a_d4_sweep_into_cache_sized_stacks():
    """2^13 entries hold 32 points of a (P, 16, 4, 4) depolarizing stack."""
    assert factorization.SWEEP_CHUNK_ENTRIES == 1 << 13
    grid = np.linspace(0.0, 1.0, 101)
    rho = random_state(4, 29)
    chunked, built, whole = _chunked_and_whole("depolarizing", grid, rho, 4,
                                               factorization.SWEEP_CHUNK_ENTRIES)
    assert built == [32, 32, 32, 5]
    np.testing.assert_array_equal(chunked.values, whole.values)
    np.testing.assert_array_equal(chunked.purities, whole.purities)
    assert chunked.spread == whole.spread and chunked.frozen == whole.frozen


@given(name=st.sampled_from(ONE_PARAMETER), d=st.sampled_from([2, 3, 4]),
       fractions=st.lists(st.floats(0.0, 1.0), max_size=80),
       bound=st.integers(1, 40 * 4**4), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_chunked_sweep_equals_one_chunk(name, d, fractions, bound, seed):
    """Every point is computed on its own: the values and purities do not
    depend on the bound, and the stacks hold max(1, bound // d^4) points."""
    d = d if name == "depolarizing" else 2
    grid = _top(name, d) * np.array(fractions, dtype=float)
    chunked, built, whole = _chunked_and_whole(name, grid, random_state(d, seed), d, bound)
    points = max(1, bound // d**4)
    assert built == [min(points, len(grid) - lo) for lo in range(0, len(grid), points)]
    np.testing.assert_array_equal(chunked.values, whole.values)
    np.testing.assert_array_equal(chunked.purities, whole.purities)
    assert chunked.spread == whole.spread


def test_out_of_range_value_is_named_whatever_its_chunk(monkeypatch):
    grid = np.array([0.1, 0.2, 0.3, 0.4, 1.7, 2.5])
    monkeypatch.setattr(factorization, "SWEEP_CHUNK_ENTRIES", 2 * 16)  # chunks of two points
    with pytest.raises(InvalidChannelError, match=r"got q=1\.7$"):
        freeze_trajectory("phase_damping", grid, random_state(2, 3))


def test_channel_d_defaults_to_the_state_d():
    rho = random_state(3, seed=1)
    grid = np.linspace(0.0, 1.0, 5)
    traj = freeze_trajectory("depolarizing", grid, rho)
    values, purities, _, _ = reference_trajectory("depolarizing", grid, rho, d=3)
    np.testing.assert_allclose(traj.values, values, rtol=0, atol=1e-15)
    np.testing.assert_allclose(traj.purities, purities, rtol=0, atol=1e-15)


def test_empty_grid_gives_an_empty_trajectory():
    traj = freeze_trajectory("bit_flip", [], random_state(2, 1))
    assert traj.values.shape == (0,) and traj.frozen and traj.spread == 0.0


# ---------------------------------------------------------------------------
# the CLI


@pytest.fixture
def qubit_file(tmp_path):
    path = tmp_path / "rho.json"
    io.save_state(path, random_state(2, 17))
    return str(path)


def _reference_csv(name, grid, rho, d):
    """The CSV the per-point sweep wrote, each number through io.fmt12."""
    values, purities, frozen, spread = reference_trajectory(name, grid, rho, d=d)
    lines = ["param,c_l1,purity"]
    lines += [f"{io.fmt12(q):.12g},{io.fmt12(c):.12g},{io.fmt12(p):.12g}"
              for q, c, p in zip(grid, values, purities)]
    lines.append(f"# frozen={str(frozen).lower()} spread={spread:.12g}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name, d", CASES)
def test_cli_csv_matches_the_per_point_output(tmp_path, capsys, name, d):
    path = tmp_path / "rho.json"
    io.save_state(path, random_state(d, 23 + d))
    rho = io.load_state(path)
    argv = ["sweep", name, "0:1:0.01", "--state", str(path)] + (["--d", str(d)] if d > 2 else [])
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert out == _reference_csv(name, np.arange(0.0, 1.005, 0.01), rho, d)
    assert len(out.splitlines()) == 103


@pytest.mark.parametrize("channel, grid, message", [
    ("phase_damping", "0:2:0.5", "phase_damping requires 0 <= q <= 1, got q=1.5"),
    ("depolarizing", "0:1.5:0.25", "depolarizing requires p in range, got 1.5"),
    ("frozen_xy", "0:1.2:0.1", "frozen qubit channel requires 0 <= q <= 1, got 1.1"),
])
def test_out_of_range_grid_exits_2_before_any_row(qubit_file, capsys, channel, grid, message):
    assert cli.main(["sweep", channel, grid, "--state", qubit_file]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"


@pytest.mark.parametrize("name, message", [("depolarizing", "depolarizing requires d >= 2, got d=0"),
                                           ("phase_damping", "is a qubit channel, got d=0")])
def test_sweep_d_0_is_used_not_ignored(qubit_file, capsys, name, message):
    assert cli.main(["sweep", name, "0:1:0.5", "--state", qubit_file, "--d", "0"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and message in err


def test_sweep_d_above_max_d_exits_2(qubit_file, capsys):
    d = io.MAX_D + 1
    assert cli.main(["sweep", "depolarizing", "0:1:0.5", "--state", qubit_file, "--d", str(d)]) == 2
    assert f"--d must be at most MAX_D = {io.MAX_D}, got {d}" in capsys.readouterr().err


@pytest.mark.parametrize("spec", [
    {"name": "depolarizing", "d": 200, "params": {"p": 0.1}},
    {"name": "depolarizing", "d": 33.0, "params": {"p": 0.1}},
    {"name": "depolarizing", "d": 10**400, "params": {"p": 0.1}},
    {"d": 40, "bloch": [0.0] * 1599},
])
def test_dimension_above_max_d_is_rejected(tmp_path, capsys, spec):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    command = ["coherence", str(path)] if "bloch" in spec else ["transfer", "--channel", str(path)]
    assert cli.main(command) == 2
    assert f"must be at most MAX_D = {io.MAX_D}" in capsys.readouterr().err


def test_max_d_itself_is_accepted():
    d = io.MAX_D
    rho = io.state_from_dict({"d": d, "bloch": [0.0] * (d * d - 1)})
    np.testing.assert_allclose(rho.m, np.eye(d) / d, atol=1e-15)
    assert io._dimension({"d": float(d)}, "channel", 2) == d


def test_point_count_is_capped_before_the_grid_is_built(qubit_file, capsys, monkeypatch):
    assert cli.main(["sweep", "phase_damping", "0:1:1e-12", "--state", qubit_file]) == 2
    assert f"more than MAX_SWEEP_POINTS = {cli.MAX_SWEEP_POINTS}" in capsys.readouterr().err

    def no_arange(*args, **kwargs):
        raise AssertionError("the grid of a rejected range was built")

    monkeypatch.setattr(cli.np, "arange", no_arange)
    assert cli.main(["sweep", "phase_damping", "0:1:1e-300", "--state", qubit_file]) == 2
    monkeypatch.undo()
    monkeypatch.setattr(cli, "MAX_SWEEP_POINTS", 11)
    assert cli.main(["sweep", "phase_damping", "0:1:0.1", "--state", qubit_file]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 13
    assert cli.main(["sweep", "phase_damping", "0:1:0.09", "--state", qubit_file]) == 2
    assert "has 12 points" in capsys.readouterr().err


@given(a=st.floats(-10, 10), span=st.floats(0, 10), step=st.floats(1e-3, 10))
@example(a=0.0, span=0.3, step=0.1)  # 3 * 0.1 is 0.30000000000000004
@settings(max_examples=200, deadline=None)
def test_point_count_is_the_length_of_the_grid(a, span, step):
    """The count the cap reads is the number of points the grid holds: a
    + i step from a, rising, none past b, and the next one would pass b."""
    b = a + span
    points = cli._grid_points(a, b, step)
    grid = cli._sweep_grid(f"{a!r}:{b!r}:{step!r}")
    assert len(grid) == points and math.isfinite(points)
    assert grid[0] == a and grid[-1] <= b and np.all(np.diff(grid) > 0)
    assert points * step > b - a


@pytest.mark.parametrize("name, grid, rows, last", [
    ("phase_damping", "0.3:1:0.1", 8, "1"),
    ("phase_damping", "0.2:1:0.1", 9, "1"),
    ("phase_damping", "0.1:1:0.05", 19, "1"),
    ("phase_damping", "0.1:1:0.001", 901, "1"),
    ("phase_damping", "0.09:1:0.07", 14, "1"),  # 0.09 + 13 * 0.07 is 1.0000000000000002
    ("phase_damping", "0:1:0.15", 7, "0.9"),
    ("depolarizing", "0:1:0.15", 7, "0.9"),
])
def test_grid_ends_at_b_and_never_passes_it(qubit_file, capsys, name, grid, rows, last):
    """A step that divides b - a only up to round-off still ends on b
    itself, and one that does not divide it stops short of b."""
    assert cli.main(["sweep", name, grid, "--state", qubit_file]) == 0
    lines = capsys.readouterr().out.splitlines()[1:-1]
    assert len(lines) == rows and lines[-1].split(",")[0] == last


def test_sweep_of_a_matrix_state(tmp_path, capsys):
    path = tmp_path / "plus.json"
    io.save_state(path, density_matrix(np.full((2, 2), 0.5, dtype=complex)))
    assert cli.main(["sweep", "phase_damping", "0:1:0.25", "--state", str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[1:-1] == [
        "0,0,0", "0.25,0.25,0.03125", "0.5,0.5,0.125", "0.75,0.75,0.28125", "1,1,0.5"]
