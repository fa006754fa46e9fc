"""Reading state, channel and family files: the decoded JSON is converted
with the cyclic collector paused, the collector's state is restored however
the load ends, and bad bytes or over-deep nesting are usage errors. Kraus
files are checked in both layouts, real and imaginary planes ("planes", as
save_channel writes them) and [re, im] pairs."""

import contextlib
import gc
import io as _io
import json

import numpy as np
import pytest

import cohfact
from cohfact import cli, io
from cohfact.errors import CohfactError

LOADERS = {
    "state": (io.load_state, io.state_from_dict),
    "channel": (io.load_channel, io.channel_from_dict),
    "planes": (io.load_channel, io.channel_from_dict),
    "family": (lambda path: io.load_family(path, 2), lambda spec: io.family_from_dict(spec, 2)),
}
VALID = {
    "state": {"d": 2, "bloch": [0.3, 0.4, 0.5]},
    "channel": {"name": "depolarizing", "d": 2, "params": {"p": 0.3}},
    "planes": io.channel_to_dict(cohfact.random_channel(2, k=2, seed=6)),
    "family": {"d": 2, "n": [0.6, 0.0, 0.8], "chi": 0.5},
}


def _nested(depth):
    v = 0.0
    for _ in range(depth):
        v = [v]
    return v


def _pairs(spec):
    """A Kraus spec with its planes written as [re, im] pairs."""
    planes = spec["kraus"]
    return {**spec, "kraus": np.stack((planes["re"], planes["im"]), axis=-1).tolist()}


# A numeric field 70 levels deep, past NumPy's 64 dimensions, and JSON
# nested far past any interpreter's recursion limit for the decoder.
DEEP_FIELD = {
    "state": {"d": 2, "bloch": _nested(70)},
    "channel": {"kraus": _nested(70)},
    "planes": {"kraus": {"re": _nested(69), "im": _nested(69)}},  # one level more for [re, im]
    "family": {"d": 2, "n": _nested(70)},
}
JSON_DEPTH = 50_000
DEEP_JSON = '{"d": 2, "n": ' + "[" * JSON_DEPTH + "]" * JSON_DEPTH + "}"


class Collections:
    """Counts the collections the cyclic collector starts while active,
    from an empty generation 0 (a full collection runs on entry)."""

    def __init__(self):
        self.count = 0

    def _callback(self, phase, info):
        self.count += phase == "start"

    def __enter__(self):
        gc.collect()
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self._callback)


@contextlib.contextmanager
def collector(enabled):
    """The cyclic collector switched on or off, switched back on after."""
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        gc.enable()


def test_loading_a_kraus_file_starts_no_collection(tmp_path):
    path = tmp_path / "unital_d8.json"
    io.save_channel(path, cohfact.random_unital_channel(8, k=64, seed=3))
    with Collections() as seen:
        ch = io.load_channel(path)
        pending = gc.get_count()[0]
    assert ch.kraus.shape == (64, 8, 8)
    assert seen.count == 0
    # the decoded lists are freed before the collector resumes, so the load
    # leaves no collection due at the next allocation either
    assert pending < gc.get_threshold()[0]


def test_loading_a_pair_kraus_file_starts_no_collection(tmp_path):
    """The same for the d = 8, k = 64 file as [re, im] pairs, 4,096 lists more."""
    path = tmp_path / "unital_d8.json"
    path.write_text(json.dumps(_pairs(io.channel_to_dict(cohfact.random_unital_channel(8, k=64, seed=3)))))
    with Collections() as seen:
        ch = io.load_channel(path)
        pending = gc.get_count()[0]
    assert ch.kraus.shape == (64, 8, 8)
    assert seen.count == 0
    assert pending < gc.get_threshold()[0]


def test_verify_calls_on_a_kraus_file_rarely_start_a_collection(tmp_path):
    """One theorem1 trial on a d = 8, k = 64 Kraus file and one cascade
    trial per call; decoding the file alone would start about six."""
    unital = tmp_path / "unital_d8.json"
    io.save_channel(unital, cohfact.random_unital_channel(8, k=64, seed=4))
    depol = tmp_path / "depolarizing_d8.json"
    depol.write_text(json.dumps({"name": "depolarizing", "d": 8, "params": {"p": 0.4}}))

    def call(i):
        for kind, path in (("theorem1", unital), ("cascade", depol)):
            with contextlib.redirect_stdout(_io.StringIO()):
                assert cli.main(["--trials", "1", "--seed", str(i), "verify", kind, "--channel", str(path)]) == 0

    calls = 40
    call(0)
    with Collections() as seen:
        for i in range(calls):
            call(i)
    assert seen.count / calls < 0.1


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("kind", sorted(LOADERS))
@pytest.mark.parametrize("text, raises", [
    (None, None),
    ('{"d": 2, "n": "x", "bloch": "x", "kraus": "x"}', CohfactError),
    ("{", json.JSONDecodeError),
])
def test_load_restores_the_collector_state(tmp_path, enabled, kind, text, raises):
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(VALID[kind]) if text is None else text)
    load = LOADERS[kind][0]
    with collector(enabled):
        if raises is None:
            load(path)
        else:
            with pytest.raises(raises):
                load(path)
        assert gc.isenabled() is enabled


def _arrays(value):
    """A state's matrix, a channel's Kraus stack, or a family's (n, chi)."""
    if isinstance(value, tuple):
        return [np.asarray(a) for a in value]
    return [a for a in (getattr(value, name, None) for name in ("m", "kraus")) if a is not None]


@pytest.mark.parametrize("kind, spec", [
    ("state", {"d": 2, "bloch": [0.3, -0.4, 0.5]}),
    ("state", {"matrix": [[[0.6, 0], [0.1, -0.2]], [[0.1, 0.2], [0.4, 0]]]}),
    ("channel", io.channel_to_dict(cohfact.random_channel(3, seed=5))),
    ("channel", {"name": "amplitude_damping", "params": {"gamma": 0.25}}),
    ("family", {"d": 2, "n": [0.3, -0.1, 0.7], "chi": 0.25}),
    ("channel", _pairs(io.channel_to_dict(cohfact.random_channel(3, seed=5)))),
    ("state", {"matrix": {"re": [[0.6, 0.1], [0.1, 0.4]], "im": [[0, -0.2], [0.2, 0]]}}),
])
def test_loaded_arrays_are_bit_identical_to_the_dict_parser(tmp_path, kind, spec):
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(spec))
    load, from_dict = LOADERS[kind]
    with open(path) as fh:
        want = _arrays(from_dict(json.load(fh)))
    got = _arrays(load(path))
    assert want and [a.tobytes() for a in got] == [a.tobytes() for a in want]


@pytest.mark.parametrize("kind", sorted(LOADERS))
@pytest.mark.parametrize("data, message", [
    (lambda kind: json.dumps(VALID[kind]).encode() + b"\xff", "is not UTF-8 text"),
    (lambda kind: json.dumps(VALID[kind]).encode("utf-16"), "is not UTF-8 text"),
    (lambda kind: json.dumps(DEEP_FIELD[kind]).encode(), "is nested 70 levels deep"),
    (lambda kind: DEEP_JSON.encode(), f"nests JSON {JSON_DEPTH + 1} levels deep"),
], ids=["0xff", "utf-16", "deep-field", "deep-json"])
def test_bad_bytes_and_deep_nesting_are_cohfact_errors(tmp_path, kind, data, message):
    path = tmp_path / f"{kind}.json"
    path.write_bytes(data(kind))
    with pytest.raises(CohfactError, match=message):
        LOADERS[kind][0](path)
    assert gc.isenabled()


@pytest.mark.parametrize("kind, argv", [
    ("state", ["coherence", "{path}"]),
    ("channel", ["transfer", "--channel", "{path}"]),
    ("channel", ["--trials", "2", "verify", "theorem1", "--expect-violation", "--channel", "{path}"]),
    ("family", ["freeze-check", "--channel", "{channel}", "--family", "{path}"]),
    ("planes", ["transfer", "--channel", "{path}"]),
    ("planes", ["--trials", "2", "verify", "theorem1", "--expect-violation", "--channel", "{path}"]),
    ("planes", ["freeze-check", "--channel", "{path}"]),
])
@pytest.mark.parametrize("data", [
    lambda kind: json.dumps(VALID[kind]).encode() + b"\xff",
    lambda kind: json.dumps(DEEP_FIELD[kind]).encode(),
    lambda kind: DEEP_JSON.encode(),
], ids=["0xff", "deep-field", "deep-json"])
def test_bad_bytes_and_deep_nesting_exit_2(tmp_path, capsys, kind, argv, data):
    path = tmp_path / f"{kind}.json"
    path.write_bytes(data(kind))
    channel = tmp_path / "bit_flip.json"
    channel.write_text(json.dumps({"name": "bit_flip", "params": {"q": 0.5}}))
    assert cli.main([a.format(path=path, channel=channel) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1

