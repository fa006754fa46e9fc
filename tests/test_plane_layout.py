"""The three layouts of a complex array in a file: packed little-endian
doubles, {"shape": ..., "base64": ...}, which save_channel writes; real and
imaginary planes, {"re": ..., "im": ...}, which 0.2.0 and 0.3.0 wrote; and
[re, im] number pairs, which save_state writes and earlier files hold. All
load to the same bits and give the same CLI output; a bad packed or plane
object is a usage error; and a save that fails leaves the old file as it
was."""

import base64
import json

import numpy as np
import pytest

from cohfact import cli, io
from cohfact.channel import _pauli_coordinates, aux_kraus_channel, aux_solve
from cohfact.channel import kraus_channel, make_named, random_channel, random_unital_channel
from cohfact.errors import CohfactError
from cohfact.state import DensityMatrix, random_state

DIMS = [2, 4, 8]


def _packed(a):
    """The packed object of the complex array ``a``."""
    a = np.asarray(a, dtype=complex)
    return {"shape": list(a.shape), "base64": base64.b64encode(a.astype("<c16").tobytes()).decode()}


def _layouts(a):
    """The packed object, the planes and the [re, im] pairs of the complex array ``a``."""
    return {"packed": _packed(a), "planes": {"re": a.real.tolist(), "im": a.imag.tolist()},
            "pairs": np.stack((a.real, a.imag), axis=-1).tolist()}


def _files(tmp_path, ch):
    """A packed file of ``ch`` written by save_channel, and its conversions
    to planes and to pairs, built from the Kraus set it loads to."""
    packed = tmp_path / "packed.json"
    io.save_channel(packed, ch)
    spec = json.loads(packed.read_text())
    layouts = _layouts(io.load_channel(packed).kraus)
    files = [packed]
    for name in ("planes", "pairs"):
        files.append(tmp_path / f"{name}.json")
        files[-1].write_text(json.dumps({**spec, "kraus": layouts[name]}))
    return files


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
    assert sorted(spec["kraus"]) == ["base64", "shape"]
    assert spec["kraus"]["shape"] == [d, d, d]
    assert len(base64.b64decode(spec["kraus"]["base64"], validate=True)) == 16 * d**3
    back = io.load_channel(path)
    fmt = np.vectorize(io.fmt12)
    np.testing.assert_array_equal(back.kraus.real, fmt(ch.kraus.real))
    np.testing.assert_array_equal(back.kraus.imag, fmt(ch.kraus.imag))
    assert (back.label, back.params) == ("random_unital", {"k": float(d)})


@pytest.mark.parametrize("d", DIMS)
def test_plane_file_and_its_pairs_load_bit_identically(tmp_path, d):
    """The packed file save_channel writes, too."""
    a, b, c = (io.load_channel(path).kraus for path in _files(tmp_path, random_channel(d, k=3, seed=d)))
    assert a.shape == b.shape == c.shape == (3, d, d)
    assert a.tobytes() == b.tobytes() == c.tobytes()


def test_negative_zero_real_parts_are_packed_as_such(tmp_path):
    """-0.0 + 1j written as re + 1j*im would load as +0.0 + 1j."""
    ops = np.zeros((1, 2, 2), dtype=complex)
    ops.real[0] = [[-0.0, 0.0], [0.0, -0.0]]
    ops.imag[0] = [[1.0, 0.0], [0.0, -1.0]]
    path = tmp_path / "phase.json"
    io.save_channel(path, kraus_channel(ops))
    back = io.load_channel(path).kraus
    assert back.tobytes() == ops.tobytes()
    assert np.signbit(back.real).tolist() == [[[True, False], [False, True]]]


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
    """All three layouts: packed, planes and pairs."""
    got = [_run([*argv, "--channel", str(path)], capsys) for path in _files(tmp_path, make(d))]
    assert got[0] == got[1] == got[2]
    assert got[0][1] or got[0][2]


@pytest.mark.parametrize("d", DIMS)
def test_state_matrix_as_planes_loads_like_its_pairs(tmp_path, d):
    """And packed."""
    rho = random_state(d, seed=d)
    spec = io.state_to_dict(rho)
    want = io.state_from_dict(spec).m
    for name in ("planes", "packed"):
        other = {"d": d, "matrix": _layouts(want)[name]}
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(other))
        for got in (io.state_from_dict(other).m, io.load_state(path).m):
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
ONE = _packed(np.eye(2)[None])  # 4 entries, 64 bytes: 88 characters, one "=" of padding
TEXT = ONE["base64"]


def _with_entry(value):
    """The packed identity with its first entry set to ``value``."""
    ops = np.eye(2, dtype=complex)[None]
    ops[0, 0, 0] = value
    return _packed(ops)


BAD_PACKED = {
    "missing-key": ({"shape": [1, 2, 2]}, "keys 'shape' and 'base64' only"),
    "extra-key": ({**ONE, "re": I2}, "keys 'shape' and 'base64' only"),
    "key-case": ({"Shape": [1, 2, 2], "base64": TEXT}, "keys 'shape' and 'base64' only"),
    "shape-number": ({"shape": 4, "base64": TEXT}, "'shape' must be a list of non-negative integers"),
    "shape-string": ({"shape": "1,2,2", "base64": TEXT}, "'shape' must be a list of non-negative integers"),
    "shape-true": ({"shape": [True, 2, 2], "base64": TEXT}, "'shape' must be a list of non-negative integers"),
    "shape-float": ({"shape": [1, 2.0, 2], "base64": TEXT}, "'shape' must be a list of non-negative integers"),
    "shape-negative": ({"shape": [-1, 2, 2], "base64": TEXT}, "'shape' must be a list of non-negative integers"),
    "shape-list": ({"shape": [[1], 2, 2], "base64": TEXT}, "'shape' must be a list of non-negative integers"),
    "shape-huge": ({"shape": [2**62] * 3, "base64": TEXT}, "holds 64 bytes, where shape"),
    "shape-deep": ({"shape": [1] * 70, "base64": _packed([1.0])["base64"]}, "nested 70 levels deep"),
    "shape-flat": ({"shape": [4], "base64": TEXT}, "d x d matrices"),
    "no-entries": ({"shape": [0, 2, 2], "base64": ""}, "empty Kraus set"),
    "data-number": ({"shape": [1, 2, 2], "base64": 5}, "'base64' must be a string, got int"),
    "data-list": ({"shape": [1, 2, 2], "base64": [TEXT]}, "'base64' must be a string, got list"),
    "not-ascii": ({"shape": [1, 2, 2], "base64": "\u00e9" + TEXT[1:]}, "only ASCII"),
    "space": ({"shape": [1, 2, 2], "base64": TEXT[:40] + " " + TEXT[40:]}, "not standard base64"),
    "newline": ({"shape": [1, 2, 2], "base64": TEXT[:76] + "\n" + TEXT[76:]}, "not standard base64"),
    "no-padding": ({"shape": [1, 2, 2], "base64": TEXT.rstrip("=")}, "not standard base64"),
    "extra-padding": ({"shape": [1, 2, 2], "base64": TEXT + "=="}, "not standard base64"),
    "entry-short": ({"shape": [1, 2, 2], "base64": _packed(np.zeros(3))["base64"]}, "holds 48 bytes"),
    "entry-long": ({"shape": [1, 2, 2], "base64": _packed(np.zeros(5))["base64"]}, "holds 80 bytes"),
    "nan": (_with_entry(complex(float("nan"), 0.0)), "non-finite"),
    "infinity": (_with_entry(complex(1.0, float("inf"))), "non-finite"),
    "minus-infinity": (_with_entry(complex(-float("inf"), 0.0)), "non-finite"),
}


# packed objects are refused by the same tests as planes
BAD_OBJECTS = {**BAD_PLANES, **{f"packed-{key}": case for key, case in BAD_PACKED.items()}}


@pytest.mark.parametrize("planes, message", BAD_OBJECTS.values(), ids=BAD_OBJECTS.keys())
def test_bad_planes_are_refused_by_the_loader(tmp_path, planes, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"kraus": planes}))
    with pytest.raises(CohfactError, match=message):
        io.load_channel(path)


@pytest.mark.parametrize("planes, message", BAD_OBJECTS.values(), ids=BAD_OBJECTS.keys())
@pytest.mark.parametrize("argv", [["--trials", "2", "verify", "theorem1"], ["transfer"], ["freeze-check"]],
                         ids=["verify", "transfer", "freeze-check"])
def test_bad_planes_exit_2(tmp_path, capsys, planes, message, argv):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"kraus": planes}))
    code, out, err = _run([*argv, "--channel", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_loading_a_packed_file_walks_no_json_numbers(tmp_path, monkeypatch):
    """The d = 8, k = 64 file of the verify-large benchmark loads without
    _numbers, the walk over one Python float per entry."""
    path = tmp_path / "unital_d8.json"
    ch = random_unital_channel(8, k=64, seed=3)
    io.save_channel(path, ch)
    walks = []

    def spy(entries, what):
        walks.append(what)
        return numbers(entries, what)

    numbers = io._numbers
    monkeypatch.setattr(io, "_numbers", spy)
    back = io.load_channel(path)
    assert walks == []
    fmt = np.vectorize(io.fmt12)
    assert back.kraus.real.tobytes() == fmt(ch.kraus.real).tobytes()
    assert back.kraus.imag.tobytes() == fmt(ch.kraus.imag).tobytes()
    pairs = tmp_path / "rho.json"
    io.save_state(pairs, random_state(2, seed=1))
    io.load_state(pairs)
    assert walks == ["state 'matrix'"]  # a pair file is walked, so the spy is live


@pytest.mark.parametrize("d", [2, 4])
def test_construct_aux_writes_a_packed_file(tmp_path, capsys, d):
    """construct-aux --out writes the auxiliary channel packed, loading to
    fmt12 of its real and imaginary parts bit for bit."""
    state = tmp_path / "rho.json"
    io.save_state(state, random_state(d, seed=d))
    rho = io.load_state(state)
    y = _pauli_coordinates(rho)
    m, chi = y / np.linalg.norm(y), 0.5 * float(np.linalg.norm(y))
    target = ",".join(map(repr, m.tolist()))
    out = tmp_path / "aux.json"
    assert cli.main(["--out", str(out), "construct-aux", "--state", str(state), "--target", target,
                     "--chi", repr(chi)]) == 0
    assert capsys.readouterr().out.startswith("eps = ")
    want = aux_kraus_channel(aux_solve(rho, io.unit_direction(target.split(","), d * d - 1, "m"), chi), chi).kraus
    spec = json.loads(out.read_text())
    assert sorted(spec["kraus"]) == ["base64", "shape"] and spec["kraus"]["shape"] == list(want.shape)
    back = io.load_channel(out).kraus
    fmt = np.vectorize(io.fmt12)
    assert back.real.tobytes() == fmt(want.real).tobytes()
    assert back.imag.tobytes() == fmt(want.imag).tobytes()


def test_bad_state_planes_are_refused(tmp_path):
    """And packed: a 0 x 0 matrix, or one entry of a 2 x 2."""
    for planes in ({"re": [[1.0]]}, {"re": [[0.5, 0.0], [0.0, 0.5]], "im": [[0.0, 0.0]]},
                   {"shape": [0, 0], "base64": ""}, {"shape": [2, 2], "base64": _packed([0.5])["base64"]}):
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
