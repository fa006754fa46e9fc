"""The two layouts of a complex array in a file: real and imaginary planes,
{"re": ..., "im": ...}, which save_channel writes, and [re, im] number
pairs, which save_state writes and earlier files hold. Both load to the same
bits and give the same CLI output; a bad plane object is a usage error; and
a save that fails leaves the old file as it was."""

import json

import numpy as np
import pytest

from cohfact import cli, io
from cohfact.channel import kraus_channel, make_named, random_channel, random_unital_channel
from cohfact.errors import CohfactError
from cohfact.state import DensityMatrix, random_state

DIMS = [2, 4, 8]


def _pairs(planes):
    """The [re, im] pairs of a plane object."""
    return np.stack((planes["re"], planes["im"]), axis=-1).tolist()


def _files(tmp_path, ch):
    """A plane file of ``ch`` written by save_channel, and its conversion to pairs."""
    planes, pairs = tmp_path / "planes.json", tmp_path / "pairs.json"
    io.save_channel(planes, ch)
    spec = json.loads(planes.read_text())
    pairs.write_text(json.dumps({**spec, "kraus": _pairs(spec["kraus"])}))
    return planes, pairs


def _run(argv, capsys):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("d", DIMS)
def test_save_channel_writes_planes_that_load_back(tmp_path, d):
    ch = random_unital_channel(d, k=d, seed=d)
    path = tmp_path / "ch.json"
    io.save_channel(path, ch)
    spec = json.loads(path.read_text())
    assert set(spec["kraus"]) == {"re", "im"}
    assert np.shape(spec["kraus"]["re"]) == np.shape(spec["kraus"]["im"]) == (d, d, d)
    back = io.load_channel(path)
    fmt = np.vectorize(io.fmt12)
    np.testing.assert_array_equal(back.kraus.real, fmt(ch.kraus.real))
    np.testing.assert_array_equal(back.kraus.imag, fmt(ch.kraus.imag))
    assert (back.label, back.params) == ("random_unital", {"k": float(d)})


@pytest.mark.parametrize("d", DIMS)
def test_plane_file_and_its_pairs_load_bit_identically(tmp_path, d):
    planes, pairs = _files(tmp_path, random_channel(d, k=3, seed=d))
    a, b = io.load_channel(planes).kraus, io.load_channel(pairs).kraus
    assert a.shape == b.shape == (3, d, d)
    assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("make", [lambda d: random_unital_channel(d, k=d, seed=d),
                                  lambda d: random_channel(d, k=2, seed=d)], ids=["unital", "nonunital"])
@pytest.mark.parametrize("d", DIMS)
@pytest.mark.parametrize("argv", [
    ["--trials", "20", "verify", "theorem1"],
    ["--trials", "20", "verify", "lemma1", "--measure", "purity"],
    ["--trials", "20", "verify", "corollary2"],
    ["--trials", "20", "verify", "cascade"],
    ["transfer"],
    ["freeze-check"],
], ids=["theorem1", "purity", "corollary2", "cascade", "transfer", "freeze-check"])
def test_both_layouts_give_the_same_cli_output(tmp_path, capsys, make, d, argv):
    planes, pairs = _files(tmp_path, make(d))
    got = [_run([*argv, "--channel", str(path)], capsys) for path in (planes, pairs)]
    assert got[0] == got[1]
    assert got[0][1] or got[0][2]


@pytest.mark.parametrize("d", DIMS)
def test_state_matrix_as_planes_loads_like_its_pairs(tmp_path, d):
    rho = random_state(d, seed=d)
    spec = io.state_to_dict(rho)
    m = np.array(spec["matrix"])
    planes = {"d": d, "matrix": {"re": m[..., 0].tolist(), "im": m[..., 1].tolist()}}
    path = tmp_path / "rho.json"
    path.write_text(json.dumps(planes))
    want = io.state_from_dict(spec).m
    for got in (io.state_from_dict(planes).m, io.load_state(path).m):
        assert got.tobytes() == want.tobytes()


DEEP = json.loads("[" * 70 + "0" + "]" * 70)
I2 = [[[1.0, 0.0], [0.0, 1.0]]]
Z2 = [[[0.0, 0.0], [0.0, 0.0]]]
BAD_PLANES = {
    "missing-key": ({"re": I2}, "keys 're' and 'im' only"),
    "extra-key": ({"re": I2, "im": Z2, "abs": I2}, "keys 're' and 'im' only"),
    "key-case": ({"Re": I2, "im": Z2}, "keys 're' and 'im' only"),
    "two-shapes": ({"re": I2, "im": [[[0.0, 0.0, 0.0]] * 3]}, "regular array"),
    "two-depths": ({"re": I2, "im": Z2[0]}, "regular array"),
    "ragged": ({"re": [[[1.0, 0.0], [0.0]]], "im": Z2}, "regular array"),
    "boolean": ({"re": [[[True, 0.0], [0.0, 1.0]]], "im": Z2}, "got bool"),
    "string": ({"re": I2, "im": [[["0.5", 0.0], [0.0, 0.0]]]}, "got str"),
    "not-a-list": ({"re": 1.0, "im": 0.0}, "d x d matrices"),
    "nan": ({"re": I2, "im": [[[float("nan"), 0.0], [0.0, 0.0]]]}, "non-finite"),
    "infinity": ({"re": [[[float("inf"), 0.0], [0.0, 1.0]]], "im": Z2}, "non-finite"),
    "deep": ({"re": DEEP, "im": DEEP}, "nested 71 levels deep"),  # past NumPy's 64 dimensions
}


@pytest.mark.parametrize("planes, message", BAD_PLANES.values(), ids=BAD_PLANES.keys())
def test_bad_planes_are_refused_by_the_loader(tmp_path, planes, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"kraus": planes}))
    with pytest.raises(CohfactError, match=message):
        io.load_channel(path)


@pytest.mark.parametrize("planes, message", BAD_PLANES.values(), ids=BAD_PLANES.keys())
@pytest.mark.parametrize("argv", [["--trials", "2", "verify", "theorem1"], ["transfer"], ["freeze-check"]],
                         ids=["verify", "transfer", "freeze-check"])
def test_bad_planes_exit_2(tmp_path, capsys, planes, message, argv):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"kraus": planes}))
    code, out, err = _run([*argv, "--channel", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_bad_state_planes_are_refused(tmp_path):
    for planes in ({"re": [[1.0]]}, {"re": [[0.5, 0.0], [0.0, 0.5]], "im": [[0.0, 0.0]]}):
        with pytest.raises(CohfactError):
            io.state_from_dict({"matrix": planes})


def test_numpy_parameters_are_written_as_numbers(tmp_path):
    path = tmp_path / "pd.json"
    io.save_channel(path, make_named("phase_damping", params={"q": np.array(0.3)}))
    assert json.loads(path.read_text())["params"] == {"q": 0.3}
    params = {"a": np.float32(0.25), "b": np.int64(3), "flag": True, "note": None}
    io.save_channel(path, kraus_channel(np.eye(2)[None], params=params))
    assert io.load_channel(path).params == {"a": 0.25, "b": 3.0, "flag": True, "note": None}


@pytest.mark.parametrize("save, value", [
    (io.save_channel, make_named("phase_damping", params={"q": np.array([0.2, 0.4])})),  # a stack
    (io.save_channel, kraus_channel(np.eye(2)[None], params={"q": np.array([0.2, 0.4])})),
    (io.save_channel, kraus_channel(np.eye(2)[None], params={"q": 1j})),
    (io.save_channel, kraus_channel(np.eye(2)[None], params={"q": 10**400})),
    (io.save_state, DensityMatrix(np.stack([np.eye(2) / 2] * 2))),
], ids=["channel-stack", "array-param", "complex-param", "huge-param", "state-stack"])
def test_a_failed_save_leaves_the_old_file(tmp_path, save, value):
    path = tmp_path / "old.json"
    io.save_channel(path, random_unital_channel(2, seed=1))
    old = path.read_bytes()
    with pytest.raises(CohfactError):
        save(path, value)
    assert path.read_bytes() == old
