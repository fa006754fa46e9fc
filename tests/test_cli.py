import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from cohfact import channel, cli, io
from cohfact.channel import aux_weights
from cohfact.cli import main
from cohfact.state import density_matrix


def write_state(tmp_path, name, m):
    path = tmp_path / name
    io.save_state(path, density_matrix(np.asarray(m, dtype=complex)))
    return str(path)


def write_channel(tmp_path, name, spec):
    path = tmp_path / name
    path.write_text(json.dumps(spec))
    return str(path)


@pytest.fixture
def plus_file(tmp_path):
    return write_state(tmp_path, "plus.json", np.full((2, 2), 0.5))


def test_coherence_plus_state(plus_file, capsys):
    assert main(["coherence", plus_file]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "C_l1 = 1.000000000000"
    assert out[1] == "purity = 0.500000000000"


def test_coherence_maximally_mixed(tmp_path, capsys):
    path = write_state(tmp_path, "mixed.json", np.eye(2) / 2)
    assert main(["coherence", path]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "C_l1 = 0.000000000000"
    assert out[1] == "purity = 0.000000000000"


def test_coherence_bell_state(tmp_path, capsys):
    m = np.zeros((4, 4))
    m[0, 0] = m[0, 3] = m[3, 0] = m[3, 3] = 0.5
    path = write_state(tmp_path, "bell.json", m)
    assert main(["coherence", path]) == 0
    lines = capsys.readouterr().out.splitlines()
    bell = [l for l in lines if l.startswith("bell_max")]
    assert bell and bell[0].startswith("bell_max = 2.828427124746")
    assert lines[6:9] == ["D2 = 1.000000000000", "N2 = 1.000000000000", "D_H = 0.500000000000"]


def test_coherence_two_qubit_optima(tmp_path, capsys):
    """|+><+| x I/2 is classical on A along x only: D2 = 0 at the unique
    direction +/-x, printed with its largest entry positive, after the
    correlation figures."""
    path = write_state(tmp_path, "plus_mixed.json", np.kron(np.full((2, 2), 0.5), np.eye(2) / 2))
    assert main(["coherence", path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [l.split(" = ")[0] for l in lines] == [
        "C_l1", "purity", "bell_max", "rsp_fidelity", "teleport_n", "teleport_fidelity",
        "D2", "N2", "D_H", "D2_direction", "N2_direction"]
    values = dict(l.split(" = ") for l in lines)
    assert values["D2"] == "0.000000000000"
    assert values["N2"] == "0.500000000000"
    assert values["D_H"] == "0.000000000000"
    assert values["D2_direction"] == "1.000000000000,0.000000000000,0.000000000000"
    # N2 is reached at any unit direction orthogonal to x
    a = np.array([float(v) for v in values["N2_direction"].split(",")])
    assert abs(a[0]) < 1e-12 and abs(np.linalg.norm(a) - 1.0) < 1e-11


def test_coherence_bloch_input(tmp_path, capsys):
    path = tmp_path / "bloch.json"
    path.write_text(json.dumps({"d": 2, "bloch": [0.6, 0.8, 0.0]}))
    assert main(["coherence", str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "C_l1 = 1.000000000000"


def test_bad_state_file_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"d": 2}')
    assert main(["coherence", str(path)]) == 2
    path.write_text("not json")
    assert main(["coherence", str(path)]) == 2
    assert main(["coherence", str(tmp_path / "missing.json")]) == 2


def test_unphysical_state_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"d": 2, "bloch": [2.0, 0.0, 0.0]}))
    assert main(["coherence", str(path)]) == 2


def test_verify_theorem1_depolarizing(tmp_path, capsys):
    ch = write_channel(tmp_path, "dep.json", {"name": "depolarizing", "d": 3, "params": {"p": 0.4}})
    out = tmp_path / "reports.jsonl"
    code = main(["--trials", "20", "--out", str(out), "verify", "theorem1", "--channel", ch])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 20
    for line in lines:
        rep = json.loads(line)
        assert rep["condition_held"] is True
        assert rep["abs_err"] <= 1e-9


def test_verify_expect_violation(tmp_path):
    # non-unital-offdiag channel built from explicit Kraus matrices
    e0 = (np.array([[1, 1], [0, 0]]) / np.sqrt(2)).astype(complex)
    e1 = np.outer([1, 1], [1, -1]).astype(complex) / 2
    spec = {"kraus": [[[[z.real, z.imag] for z in row] for row in e] for e in (e0, e1)]}
    ch = write_channel(tmp_path, "cex.json", spec)
    out = tmp_path / "r.jsonl"
    assert main(["--trials", "10", "--out", str(out), "verify", "theorem1",
                 "--channel", ch, "--expect-violation"]) == 0
    # without the flag the same run fails with exit 1
    assert main(["--trials", "10", "--out", str(out), "verify", "theorem1", "--channel", ch]) == 1


def test_verify_corollary2_reports_q(tmp_path):
    q = 0.55
    ch = write_channel(tmp_path, "pd.json", {"name": "phase_damping", "params": {"q": q}})
    out = tmp_path / "r.jsonl"
    assert main(["--trials", "10", "--tol", "1e-10", "--out", str(out),
                 "verify", "corollary2", "--channel", ch]) == 0
    for line in out.read_text().splitlines():
        rep = json.loads(line)
        assert abs(rep["lhs"] / rep["rhs"] - 1.0) < 1e-9 or rep["rhs"] == 0


def test_verify_cascade(tmp_path):
    ch = write_channel(tmp_path, "dep4.json", {"name": "depolarizing", "d": 4, "params": {"p": 0.3}})
    out = tmp_path / "r.jsonl"
    assert main(["--trials", "5", "--out", str(out), "verify", "cascade", "--channel", ch]) == 0


def test_verify_cascade_at_four_qubits(tmp_path, capsys):
    """d = 16: the probe factor is read off the target's Gell-Mann
    coordinates m @ y_to_x_transform(4).T, so the cascade runs for every N
    up to the qubit cap."""
    ch = write_channel(tmp_path, "dep16.json", {"name": "depolarizing", "d": 16, "params": {"p": 0.3}})
    assert main(["--trials", "3", "verify", "cascade", "--channel", ch]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [r["trial"] for r in records] == [0, 1, 2]
    assert all(r["d"] == 16 and r["condition_held"] and r["abs_err"] <= 1e-9 for r in records)


def test_verify_deterministic_output(tmp_path):
    ch = write_channel(tmp_path, "dep.json", {"name": "depolarizing", "d": 2, "params": {"p": 0.2}})
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    main(["--trials", "8", "--seed", "7", "--out", str(a), "verify", "theorem1", "--channel", ch])
    main(["--trials", "8", "--seed", "7", "--out", str(b), "verify", "theorem1", "--channel", ch])
    assert a.read_bytes() == b.read_bytes()


def test_sweep_frozen_xy_constant(tmp_path, plus_file):
    out = tmp_path / "sweep.csv"
    assert main(["--out", str(out), "sweep", "frozen_xy", "0:1:0.1", "--state", plus_file]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "param,c_l1,purity"
    vals = [float(l.split(",")[1]) for l in lines[1:] if not l.startswith("#")]
    assert max(vals) - min(vals) <= 1e-9
    assert lines[-1].startswith("# frozen=true")


def test_sweep_phase_damping_tracks_param(tmp_path, plus_file):
    out = tmp_path / "sweep.csv"
    assert main(["--out", str(out), "sweep", "phase_damping", "0:1:0.25",
                 "--state", plus_file]) == 0
    rows = [l.split(",") for l in out.read_text().splitlines()[1:] if not l.startswith("#")]
    for q, c, _ in rows:
        assert abs(float(q) - float(c)) < 1e-12


def test_sweep_depolarizing_on_mixed_is_zero(tmp_path):
    path = write_state(tmp_path, "mixed.json", np.eye(2) / 2)
    out = tmp_path / "sweep.csv"
    assert main(["--out", str(out), "sweep", "depolarizing", "0:1:0.5", "--state", path]) == 0
    rows = [l.split(",") for l in out.read_text().splitlines()[1:] if not l.startswith("#")]
    assert all(float(c) == 0.0 for _, c, _ in rows)


def test_sweep_frozen_flag_uses_the_global_tol(plus_file, capsys):
    # phase damping of |+> over q = 0, 0.5, 1 spreads the coherence by 1
    for tol, frozen in (("10", "true"), ("0.5", "false"), ("1e-9", "false")):
        assert main(["--tol", tol, "sweep", "phase_damping", "0:1:0.5", "--state", plus_file]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == f"# frozen={frozen} spread=1", tol


def test_sweep_bad_range(tmp_path, plus_file, capsys):
    """A range that is not a:b:step, is not finite, has a step that is not
    positive or ends before it starts exits 2; a range of one point, a = b,
    gives one row."""
    for bad in ("nonsense", "nan:1:0.1", "0:inf:0.1", "0:1:nan", "0:1:0", "0:1:-0.1", "1:0:0.1"):
        assert main(["sweep", "phase_damping", bad, "--state", plus_file]) == 2, bad
    capsys.readouterr()
    assert main(["sweep", "phase_damping", "0.5:0.5:0.1", "--state", plus_file]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "param,c_l1,purity" and lines[-1].startswith("# frozen=")
    assert [row.split(",")[0] for row in lines[1:-1]] == ["0.5"]


@pytest.mark.parametrize("name", ["gell_mann_G", "generalized_amplitude_damping", "pauli"])
def test_sweep_needs_a_one_parameter_channel(plus_file, capsys, name):
    assert main(["sweep", name, "0:1:0.5", "--state", plus_file]) == 2
    assert "one-parameter" in capsys.readouterr().err


def test_sweep_unknown_channel_or_param_flag(plus_file, capsys):
    assert main(["sweep", "nonsense", "0:1:0.5", "--state", plus_file]) == 2
    assert "unknown channel name" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:  # --param is no longer an option
        main(["sweep", "frozen_xy", "0:1:0.5", "--state", plus_file, "--param", "sign"])
    assert exc.value.code == 2


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_verify_needs_a_trial(tmp_path, capsys, trials):
    ch = write_channel(tmp_path, "dep.json", {"name": "depolarizing", "d": 2, "params": {"p": 0.2}})
    assert main(["--trials", trials, "verify", "theorem1", "--channel", ch]) == 2
    assert "--trials" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["theorem1", "lemma1", "corollary2", "cascade"])
def test_verify_negative_seed_exits_2(tmp_path, capsys, kind):
    ch = write_channel(tmp_path, "dep.json", {"name": "depolarizing", "d": 2, "params": {"p": 0.3}})
    code, out, err = _run(["--seed", "-1", "--trials", "3", "verify", kind, "--channel", ch], capsys)
    assert (code, out, err) == (2, "", "error: --seed must be at least 0, got -1\n")


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1", "-1e-300"])
@pytest.mark.parametrize("extra", [[], ["--expect-violation"]])
def test_verify_tol_must_be_finite_and_non_negative(tmp_path, capsys, tol, extra):
    ch = write_channel(tmp_path, "dep.json", {"name": "depolarizing", "d": 2, "params": {"p": 0.3}})
    code, out, err = _run([f"--tol={tol}", "--trials", "3", "verify", "theorem1", "--channel", ch, *extra],
                          capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: --tol must be finite and at least 0, got ")


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_sweep_tol_must_be_finite_and_non_negative(plus_file, capsys, tol):
    code, out, err = _run([f"--tol={tol}", "sweep", "frozen_z", "0:1:0.5", "--state", plus_file], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: --tol must be finite and at least 0, got ")


def test_zero_tol_is_accepted(tmp_path, capsys):
    mixed = write_state(tmp_path, "mixed.json", np.eye(2) / 2)  # no coherence to lose
    assert main(["--tol", "0", "sweep", "phase_damping", "0:1:0.5", "--state", mixed]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "# frozen=true spread=0"
    ch = write_channel(tmp_path, "pd.json", {"name": "phase_damping", "params": {"q": 0.4}})
    assert main(["--tol", "0", "--trials", "3", "verify", "corollary2", "--channel", ch]) != 2


def test_construct_aux_identity_target(tmp_path, capsys):
    m = np.array([[0.6, 0.2 - 0.1j], [0.2 + 0.1j, 0.4]])
    path = write_state(tmp_path, "rho.json", m)
    y = np.array([0.4, 0.2, 0.2])
    target = ",".join(str(v) for v in y / np.linalg.norm(y))
    out_ch = tmp_path / "aux.json"
    code = main(["--out", str(out_ch), "construct-aux", "--state", path,
                 "--target", target, "--chi", str(np.linalg.norm(y))])
    assert code == 0
    eps_line = capsys.readouterr().out.splitlines()[0]
    eps = [float(v) for v in eps_line.split("=")[1].split(",")]
    np.testing.assert_allclose(eps, [1, 0, 0, 0], atol=1e-10)
    # written channel re-parses through the package's own loader
    ch = io.load_channel(out_ch)
    assert ch.d == 2


def test_construct_aux_solves_once(tmp_path, monkeypatch, capsys):
    solves = []

    def counted(*args):
        solves.append(args)
        return aux_weights(*args)

    monkeypatch.setattr(channel, "aux_weights", counted)
    path = write_state(tmp_path, "rho.json", np.array([[0.8, 0.2 - 0.2j], [0.2 + 0.2j, 0.2]]))
    assert main(["--out", str(tmp_path / "aux.json"), "construct-aux", "--state", path,
                 "--target", "0.6,0,0.8", "--chi", "0.1"]) == 0
    assert len(solves) == 1
    assert capsys.readouterr().out.startswith("eps = ")


def test_construct_aux_unreachable(tmp_path, capsys):
    path = write_state(tmp_path, "diag.json", np.diag([0.9, 0.1]))
    code = main(["construct-aux", "--state", path, "--target", "1,0,0", "--chi", "0.1"])
    assert code == 1
    assert "unreachable coordinate 1" in capsys.readouterr().err


@pytest.mark.parametrize("target", ["a,b,c", "0,0,0", "nan,1,0", "1,inf,0"])
def test_construct_aux_bad_target_exits_2(tmp_path, capsys, target):
    path = write_state(tmp_path, "rho.json", np.array([[0.6, 0.2 - 0.1j], [0.2 + 0.1j, 0.4]]))
    assert main(["construct-aux", "--state", path, "--target", target, "--chi", "0.1"]) == 2
    assert "--target" in capsys.readouterr().err


@pytest.mark.parametrize("chi", ["nan", "inf", "-inf"])
def test_construct_aux_non_finite_chi_exits_2(tmp_path, capsys, chi):
    path = write_state(tmp_path, "rho.json", np.array([[0.75, 0.15 - 0.2j], [0.15 + 0.2j, 0.25]]))
    assert main(["construct-aux", "--state", path, "--target", "0.6,0,0.8", f"--chi={chi}"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: chi must be finite, got chi={float(chi)}\n"


def test_construct_aux_overflowing_chi_is_not_a_channel(tmp_path, capsys):
    """Weights that overflow fail the weight rule (exit 1), with no NumPy
    RuntimeWarning (the suite turns one into an error)."""
    path = write_state(tmp_path, "rho.json", np.array([[0.75, 0.15 - 0.2j], [0.15 + 0.2j, 0.25]]))
    assert main(["construct-aux", "--state", path, "--target", "0.6,0,0.8", "--chi=1e308"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: no Kraus realization: solved weight eps[")


@pytest.mark.parametrize("family", [
    {"d": 2, "n": [0.6, 0.8]},  # wrong length
    {"d": 3, "n": [1, 0, 0, 0, 0, 0, 0, 0]},  # d differs from the channel's
    {"d": 2, "n": [0, 0, 0]},
    {"d": 2, "n": [float("nan"), 1, 0]},
    {"d": 2, "n": [1, 0, 0], "chi": "x"},
    [0.6, 0.0, 0.8],  # not an object
    {"n": [1, 0, 0]},
    {"d": 2, "n": ["0.6", True, 0.8], "chi": True},  # float() would read these
    {"d": 2, "n": [0.6, 0, 0.8], "chi": "0.5"},
    {"d": 2, "n": ["0.6", 0, 0.8]},
    {"d": 2, "n": [0.6, True, 0.8]},
    {"d": 2, "n": [1, 0, 0], "chi": True},
    {"d": 2, "n": [[0.6, 0, 0.8]]},  # nested
])
def test_freeze_check_bad_family_exits_2(tmp_path, capsys, family):
    pd = write_channel(tmp_path, "pd.json", {"name": "phase_damping", "params": {"q": 0.4}})
    fam = tmp_path / "fam.json"
    fam.write_text(json.dumps(family))
    assert main(["freeze-check", "--channel", pd, "--family", str(fam)]) == 2
    out, err = capsys.readouterr()
    assert "frozen" not in out
    assert err.startswith("error: family")


def test_freeze_check_not_applicable_exits_1(tmp_path, capsys):
    """A channel with T_k0 != 0 has no frozen-coherence decision."""
    path = tmp_path / "random.json"
    ch = channel.random_channel(2, seed=1)
    assert not channel.theorem1_condition(channel.transfer_matrix(ch))
    io.save_channel(path, ch)
    code, out, err = _run(["freeze-check", "--channel", str(path)], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("not applicable: frozen-coherence check requires")
    code, out, err = _run(["--out", str(tmp_path / "f.txt"), "freeze-check", "--channel", str(path)], capsys)
    assert (code, out) == (1, "") and not (tmp_path / "f.txt").exists()
    assert err.startswith("not applicable: frozen-coherence check requires")


def test_readme_cli_examples(tmp_path, monkeypatch, capsys):
    """Every `cohfact ...` line of the README's CLI block parses and, run on
    the input files the README describes, exits 0."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("## CLI", 1)[1].split("\n## ", 1)[0]
    block = section.split("```sh", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("cohfact ")]
    assert len(lines) == 7
    inputs = re.findall(r"`(\w+\.json)` holds [^`]*`(\{[^`]*\})`", section)
    assert len(inputs) == 4
    for name, doc in inputs:
        (tmp_path / name).write_text(doc)
    monkeypatch.chdir(tmp_path)
    for line in lines:
        argv = shlex.split(line)[1:]
        cli._parser().parse_args(argv)  # argparse exits on a usage error
        assert main(argv) == 0, (line, capsys.readouterr().err)


def test_readme_python_example(capsys):
    """The README's Python example runs and prints what it says."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Example", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert lines[0].endswith(" True") and lines[2].endswith(" True")


def test_readme_lists_every_named_channel():
    from cohfact.channel import named_channels

    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    para = text.split("\nNamed channels,", 1)[1].split("\n\n", 1)[0]
    listed = re.findall(r"`(\w+)`\s+\(", para)
    assert listed == named_channels()


def test_transfer_dump(tmp_path, capsys):
    ch = write_channel(tmp_path, "bf.json", {"name": "bit_flip", "params": {"q": 0.5}})
    assert main(["transfer", "--channel", ch]) == 0
    doc = json.loads(capsys.readouterr().out)
    np.testing.assert_allclose(doc["t"], np.diag([1.0, 1.0, 0.5, 0.5]), atol=1e-12)


def test_freeze_check(tmp_path, capsys):
    ch = write_channel(tmp_path, "fz.json", {"name": "frozen_xy", "params": {"q": 0.4}})
    assert main(["freeze-check", "--channel", ch]) == 0
    assert capsys.readouterr().out.strip() == "frozen = true"
    pd = write_channel(tmp_path, "pd.json", {"name": "phase_damping", "params": {"q": 0.4}})
    assert main(["freeze-check", "--channel", pd]) == 0
    assert capsys.readouterr().out.strip() == "frozen = false"


def test_freeze_check_writes_to_out(tmp_path, capsys):
    ch = write_channel(tmp_path, "fz.json", {"name": "frozen_xy", "params": {"q": 0.4}})
    out = tmp_path / "frozen.txt"
    assert main(["--out", str(out), "freeze-check", "--channel", ch]) == 0
    assert capsys.readouterr() == ("", "")
    assert out.read_text() == "frozen = true\n"


def test_freeze_check_with_family(tmp_path, capsys):
    bf = write_channel(tmp_path, "bf.json", {"name": "bit_flip", "params": {"q": 0.5}})
    fam = tmp_path / "fam.json"
    fam.write_text(json.dumps({"d": 2, "n": [0.6, 0.0, 0.8], "chi": 0.5}))
    assert main(["freeze-check", "--channel", bf, "--family", str(fam)]) == 0
    assert capsys.readouterr().out.strip() == "frozen = true"


@pytest.mark.parametrize("n", [[0, 1e308, 0], [0, 1e-320, 0]])
def test_freeze_check_family_whose_squared_norm_overflows_or_underflows(tmp_path, capsys, n):
    """A finite family direction whose sum of squares is inf or 0 is the
    direction [0, 1, 0], which bit_flip does not freeze, with no NumPy
    RuntimeWarning (the suite turns one into an error)."""
    bf = write_channel(tmp_path, "bf.json", {"name": "bit_flip", "params": {"q": 0.5}})
    outputs = []
    for direction in ([0, 1, 0], n):
        fam = tmp_path / "fam.json"
        fam.write_text(json.dumps({"d": 2, "n": direction}))
        assert main(["freeze-check", "--channel", bf, "--family", str(fam)]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1] == ("frozen = false\n", "")


@pytest.mark.parametrize("target", ["1e308,1e308,1e308", "1e-320,1e-320,1e-320"])
def test_construct_aux_target_whose_squared_norm_overflows_or_underflows(tmp_path, capsys, target):
    """A finite --target whose sum of squares is inf or 0 gets the weights
    of the target 1,1,1."""
    path = tmp_path / "rho.json"
    path.write_text(json.dumps({"d": 2, "bloch": [0.3, 0.4, 0.5]}))
    outputs = []
    for direction in ("1,1,1", target):
        assert main(["construct-aux", "--state", str(path), "--target", direction, "--chi", "0.1"]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]
    assert outputs[0].out.startswith("eps = ") and outputs[0].err == ""


def test_verify_nan_kraus_exits_2(tmp_path, capsys):
    nan = float("nan")
    spec = {"kraus": [[[[1.0, 0.0], [nan, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]]}
    ch = write_channel(tmp_path, "nan.json", spec)
    assert main(["--trials", "3", "verify", "theorem1", "--channel", ch]) == 2
    assert "non-finite" in capsys.readouterr().err


def test_verify_nan_error_counts_as_failure(tmp_path, monkeypatch):
    from cohfact import cli
    from cohfact.factorization import FactorizationReport

    def nan_reports(measure, t, n, chi, hi):
        nan, ones = np.full(len(chi), np.nan), np.ones(len(chi), dtype=bool)
        return FactorizationReport(lhs=nan, rhs=np.zeros(len(chi)), abs_err=nan,
                                   probe_physical=ones, condition_held=ones)

    monkeypatch.setattr(cli, "verify_families", nan_reports)
    ch = write_channel(tmp_path, "dep.json", {"name": "depolarizing", "d": 2, "params": {"p": 0.2}})
    out = tmp_path / "r.jsonl"
    assert main(["--trials", "2", "--out", str(out), "verify", "theorem1", "--channel", ch]) == 1
    assert main(["--trials", "2", "--out", str(out), "verify", "theorem1", "--channel", ch,
                 "--expect-violation"]) == 0


def test_verify_records_match_json_dumps(tmp_path, monkeypatch, capsys):
    """Each record is the text json.dumps writes for its dict, with every
    float through io.fmt12: non-finite values, a negative zero, exponents,
    and a label holding a quote, braces and a non-ASCII character."""
    from cohfact.factorization import FactorizationReport

    values = np.array([np.nan, np.inf, -np.inf, -0.0, 1.0, 1e16, 1e-17, 0.1234567890123456])
    flags = np.arange(len(values)) % 2 == 0

    def reports(measure, t, n, chi, hi):
        return FactorizationReport(lhs=values, rhs=values[::-1], abs_err=np.roll(values, 3),
                                   probe_physical=flags, condition_held=~flags)

    monkeypatch.setattr(cli, "verify_families", reports)
    label = 'say "{x}" \u00e9'
    ch = write_channel(tmp_path, "id.json", {"label": label, **_identity_kraus(2)})
    main(["--trials", str(len(values)), "--seed", "3", "verify", "theorem1", "--channel", ch])
    want = [json.dumps({
        "trial": i, "seed": 3, "d": 2, "channel": label, "lhs": io.fmt12(values[i]),
        "rhs": io.fmt12(values[::-1][i]), "abs_err": io.fmt12(np.roll(values, 3)[i]),
        "probe_physical": bool(flags[i]), "condition_held": not flags[i],
    }) for i in range(len(values))]
    assert capsys.readouterr().out.splitlines() == want


def test_qubit_channel_with_other_d_exits_2(tmp_path, capsys):
    ch = write_channel(tmp_path, "pd3.json", {"name": "phase_damping", "d": 3, "params": {"q": 0.4}})
    assert main(["verify", "theorem1", "--channel", ch]) == 2
    assert "qubit channel" in capsys.readouterr().err


def test_depolarizing_d1_exits_2(tmp_path, capsys):
    ch = write_channel(tmp_path, "dep1.json", {"name": "depolarizing", "d": 1, "params": {"p": 0.1}})
    assert main(["verify", "theorem1", "--channel", ch]) == 2
    assert "d >= 2" in capsys.readouterr().err


@pytest.mark.parametrize("kind, message", [
    ("theorem1", "dimension must be >= 2"), ("lemma1", "dimension must be >= 2"),
    ("corollary2", "dimension must be >= 2"), ("cascade", "qubit count must be in 1..5"),
])
def test_verify_on_a_d1_kraus_channel_exits_2(tmp_path, capsys, kind, message):
    """The trial draws reject d = 1 before any transfer matrix is built."""
    ch = write_channel(tmp_path, "one.json", {"kraus": [[[[1, 0]]]]})
    assert main(["verify", kind, "--channel", ch]) == 2
    assert capsys.readouterr().err == f"error: {message}, got {0 if kind == 'cascade' else 1}\n"


def _run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_parser_is_built_once_and_lazily():
    import subprocess
    import sys

    probe = "import cohfact.cli as c; print(c._parser.cache_info().currsize)"
    src = str(Path(__file__).resolve().parents[1] / "src")
    res = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env={"PYTHONPATH": src}, check=True)
    assert res.stdout.strip() == "0"  # importing the CLI builds no parser
    assert cli._parser() is cli._parser()


def test_back_to_back_calls_match_fresh_runs(tmp_path, plus_file, capsys):
    """One process, one cached parser: each call's output equals a run with a
    newly built parser, and no flag of an earlier call carries over."""
    dep = write_channel(tmp_path, "dep.json", {"name": "depolarizing", "d": 2, "params": {"p": 0.2}})
    calls = [
        (["--trials", "4", "verify", "theorem1", "--channel", dep, "--expect-violation"], 1),
        (["--trials", "4", "verify", "theorem1", "--channel", dep], 0),  # flag did not stick
        (["sweep", "phase_damping", "0:1:0.5", "--state", plus_file, "--d", "3"], 2),
        (["sweep", "phase_damping", "0:1:0.5", "--state", plus_file], 0),  # --d fell back
        (["--seed", "5", "--trials", "3", "verify", "lemma1", "--measure", "purity",
          "--channel", dep], 0),
        (["--trials", "3", "verify", "lemma1", "--channel", dep], 0),  # seed and measure reset
        (["coherence", plus_file], 0),
        (["transfer", "--channel", dep], 0),
        (["freeze-check", "--channel", dep], 0),
    ]
    warm = [_run(argv, capsys) for argv, _ in calls]
    for (argv, want_code), got in zip(calls, warm):
        cli._parser.cache_clear()
        fresh = _run(argv, capsys)
        assert got == fresh, argv
        assert got[0] == want_code, (argv, got[2])
    seeds = {json.loads(line)["seed"] for line in warm[5][1].splitlines()}
    assert seeds == {42}


@pytest.mark.parametrize("spec, field", [
    ({"name": "depolarizing", "d": "x", "params": {"p": 0.1}}, "'d'"),
    ({"name": "depolarizing", "d": 2.5, "params": {"p": 0.1}}, "'d'"),
    ({"name": "depolarizing", "d": True, "params": {"p": 0.1}}, "'d'"),
    ({"kraus": [[[["a", 0], [0, 0]], [[0, 0], [1, 0]]]]}, "'kraus'"),
    ({"kraus": [[[[1, 0]]], [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]]}, "'kraus'"),  # ragged
    ({"kraus": [[[[1], [0]], [[0], [1]]]]}, "'kraus'"),  # one component per entry
    ([1, 2], "channel spec"),
    ({"name": "depolarizing", "d": 2, "params": {"p": "x"}}, "'params' entry 'p'"),
    ({"name": "depolarizing", "d": 2, "params": [0.1]}, "'params' must be a JSON object"),
    ({"name": "depolarizing", "d": 2, "params": {"p": float("nan")}}, "'params' entry 'p'"),
    ({"name": "depolarizing", "d": 2, "params": {"p": True}}, "'params' entry 'p'"),
    ({"name": "gell_mann_G", "d": 2, "params": {"q": 10**400, "q0": 1}}, "'params' entry 'q'"),
    ({"name": "depolarizing", "d": 2, "params": {"p": 0.1, "q": 0.2}}, "unknown keys ['q']"),
    ({"name": ["depolarizing"], "params": {"p": 0.1}}, "'name'"),
    ({"kraus": [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]], "params": [1]}, "'params'"),
    ({"kraus": [[[["1", "0"], [0, 0]], [[0, 0], [True, 0]]]]}, "'kraus'"),  # float() reads these
    ({"kraus": [[[[1, 0], [0, 0]], [[0, 0], [True, False]]]]}, "'kraus'"),
])
def test_bad_channel_file_exits_2(tmp_path, capsys, spec, field):
    ch = write_channel(tmp_path, "bad.json", spec)
    code, out, err = _run(["transfer", "--channel", ch], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and field in err


def _identity_kraus(d):
    """A channel file holding the d x d identity as its one Kraus operator."""
    return {"kraus": [[[[float(i == j), 0.0] for j in range(d)] for i in range(d)]]}


@pytest.mark.parametrize("spec, message", [
    (_identity_kraus(64), "operator size must be at most MAX_D = 32, got 64"),
    ({"d": 8, **_identity_kraus(2)}, "declared d=8 but Kraus operators are 2x2"),
])
@pytest.mark.parametrize("argv", [["transfer"], ["--trials", "2", "verify", "theorem1"]])
def test_kraus_file_dimension_is_bounded_and_checked(tmp_path, capsys, spec, message, argv):
    """A Kraus file's operator size is a d read from input: at most MAX_D,
    and equal to the file's "d" when it declares one."""
    ch = write_channel(tmp_path, "kraus.json", spec)
    code, out, err = _run([*argv, "--channel", ch], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and message in err


def test_saved_kraus_file_declares_its_d_and_loads(tmp_path, capsys):
    path = tmp_path / "unital.json"
    io.save_channel(path, channel.random_unital_channel(3, seed=1))
    assert json.loads(path.read_text())["d"] == 3
    assert main(["transfer", "--channel", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["d"] == 3
    assert main(["--trials", "2", "verify", "theorem1", "--channel", str(path)]) == 0


def _mixed_state_file(tmp_path, d):
    """A state file holding I/d as its matrix, with no "d" entry."""
    path = tmp_path / f"mixed{d}.json"
    path.write_text(json.dumps({"matrix": [[[float(i == j) / d, 0.0] for j in range(d)]
                                           for i in range(d)]}))
    return str(path)


@pytest.mark.parametrize("argv", [["coherence"], ["sweep", "depolarizing", "0:1:0.5", "--state"]])
def test_state_file_matrix_size_is_bounded(tmp_path, capsys, argv):
    """A state file's matrix size is a d read from input: at most MAX_D,
    whether or not the file declares a "d"."""
    code, out, err = _run([*argv, _mixed_state_file(tmp_path, io.MAX_D + 1)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "'matrix' size must be at most MAX_D = 32, got 33" in err


def test_state_file_at_max_d_loads(tmp_path, capsys):
    assert main(["coherence", _mixed_state_file(tmp_path, io.MAX_D)]) == 0
    assert capsys.readouterr().out.splitlines() == ["C_l1 = 0.000000000000", "purity = 0.000000000000"]


@pytest.mark.parametrize("spec, field", [
    ({"bloch": [0.6, 0.8, 0.0]}, "needs a 'd' entry"),
    ({"d": "x", "bloch": [0.6, 0.8, 0.0]}, "'d'"),
    ({"d": 2.5, "bloch": [0.6, 0.8, 0.0]}, "'d'"),
    ({"d": 2, "bloch": ["a", 0.8, 0.0]}, "'bloch'"),
    ({"d": 2, "matrix": [[["a", 0], [0, 0]], [[0, 0], [1, 0]]]}, "'matrix'"),
    ({"matrix": [[[0.5, 0]], [[0, 0], [0.5, 0]]]}, "'matrix'"),  # ragged
    ({"matrix": [[[0.5], [0]], [[0], [0.5]]]}, "'matrix'"),  # one component per entry
    ("plus", "state spec"),
    ({"d": 2, "bloch": [[0.6, 0.8, 0.0], [0.0, 0.0, 1.0]]}, "'bloch'"),  # a stack
    ({"d": 2, "bloch": ["0.1", True, 0]}, "'bloch'"),  # float() reads these
    ({"d": 2, "matrix": [[[True, 0], [0, 0]], [[0, 0], [0, 0]]]}, "'matrix'"),
    ({"d": 2, "matrix": [[["0.5", 0], [0, 0]], [[0, 0], [0.5, 0]]]}, "'matrix'"),
    ({"d": 3, "matrix": [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]}, "declared d=3 but matrix is 2x2"),
])
def test_bad_state_spec_exits_2(tmp_path, capsys, spec, field):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(spec))
    code, out, err = _run(["coherence", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and field in err


def test_internal_key_error_is_not_a_usage_error(tmp_path, monkeypatch):
    """Only user mistakes exit 2: a KeyError from a bug propagates."""
    def broken(path):
        raise KeyError("internal")

    monkeypatch.setattr(cli.io, "load_channel", broken)
    ch = write_channel(tmp_path, "dep.json", {"name": "depolarizing", "d": 2, "params": {"p": 0.2}})
    with pytest.raises(KeyError, match="internal"):
        main(["verify", "theorem1", "--channel", ch])


def test_integral_float_d_is_accepted(tmp_path, capsys):
    ch = write_channel(tmp_path, "dep.json", {"name": "depolarizing", "d": 2.0, "params": {"p": 0.2}})
    assert main(["transfer", "--channel", ch]) == 0
    assert json.loads(capsys.readouterr().out)["d"] == 2


@pytest.mark.parametrize("kind", ["theorem1", "corollary2", "cascade"])
@pytest.mark.parametrize("measure", ["l1", "purity"])
def test_measure_applies_to_lemma1_only(tmp_path, capsys, kind, measure):
    """--measure on a kind that has no measure exits 2 with nothing
    written, rather than running that kind's own law."""
    dep = write_channel(tmp_path, "dep.json", {"name": "depolarizing", "d": 2, "params": {"p": 0.3}})
    code, out, err = _run(["--trials", "3", "verify", kind, "--measure", measure, "--channel", dep], capsys)
    assert (code, out) == (2, "")
    assert "--measure" in err


def test_lemma1_measure_defaults_to_l1(tmp_path, capsys):
    dep = write_channel(tmp_path, "dep.json", {"name": "depolarizing", "d": 2, "params": {"p": 0.3}})
    argv = ["--trials", "5", "verify", "lemma1", "--channel", dep]
    assert _run(argv, capsys) == _run(argv + ["--measure", "l1"], capsys)
    assert _run(argv, capsys)[1] != _run(argv + ["--measure", "purity"], capsys)[1]


@pytest.mark.parametrize("matrix", [
    [[[0.5, 0], [0.1, 0]], [[0, 0], [0.5, 0]]],  # not Hermitian
    [[[0.6, 0], [0, 0]], [[0, 0], [0.6, 0]]],  # trace 1.2
], ids=["non-hermitian", "trace"])
def test_invalid_state_matrix_file_exits_2(tmp_path, capsys, matrix):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"matrix": matrix}))
    code, out, err = _run(["coherence", str(path)], capsys)
    assert (code, out) == (2, "")
    assert "Hermitian" in err or "trace" in err
