"""The four benchmark workloads.

Each workload writes its inputs from a seed into a work directory
(``generate``), loads them back (``load``), makes one call into cohfact at a
time (``call``) and checks that call's output (``check``). ``round_calls`` is
the number of calls in one round over the workload's kinds of input. Calls go through
the public API or the in-process ``cohfact.cli.main(argv)``, always by module
attribute, so that the tracer's wrappers are seen. The output checks use
formulas written here from the definitions, never the library's own code.
"""

import contextlib
import io as _io
import json
import math
import os

import numpy as np

import cohfact
from cohfact import cli, io, measures

TOL = 1e-9  # the CLI's default --tol
SWEEP_RANGE = "0:1:0.01"
SWEEP_POINTS = 101
SEED_STRIDE = 1_000_000  # call i of a run with seed s passes --seed s*SEED_STRIDE + i


class CheckFailed(Exception):
    """A call returned, but its output is wrong."""


def _write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh)


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _run_cli(argv):
    out, err = _io.StringIO(), _io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _matrix_from_file(path):
    """Density matrix of a state file, parsed without cohfact."""
    rows = _read_json(path)["matrix"]
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def _l1(m):
    return float(np.sum(np.abs(m)) - np.sum(np.abs(np.diag(m))))


def _purity(m):
    return float(np.trace(m @ m).real - 1.0 / m.shape[0])


def _close(got, want, what):
    if not abs(got - want) <= 1e-9:
        raise CheckFailed(f"{what}: got {got!r}, expected {want!r}")


# ---------------------------------------------------------------------------
# verify-small and verify-large


def _check_verify(out, trials, d, expect_violation):
    """Every JSONL record is finite and self-consistent; every trial passes,
    or, under --expect-violation, the condition fails and some trial does."""
    code, stdout, stderr = out
    if code != 0:
        raise CheckFailed(f"exit code {code}: {stderr.strip()}")
    recs = [json.loads(line) for line in stdout.splitlines()]
    if [r["trial"] for r in recs] != list(range(trials)):
        raise CheckFailed(f"expected trials 0..{trials - 1}, got {len(recs)} records")
    for r in recs:
        lhs, rhs, err = float(r["lhs"]), float(r["rhs"]), float(r["abs_err"])
        if r["d"] != d:
            raise CheckFailed(f"record has d={r['d']}, expected {d}")
        if not all(math.isfinite(v) for v in (lhs, rhs, err)):
            raise CheckFailed(f"non-finite value in {r}")
        # lhs, rhs and abs_err are each rounded to 12 significant digits
        if not abs(err - abs(lhs - rhs)) <= 1e-11 * max(1.0, abs(lhs), abs(rhs)):
            raise CheckFailed(f"abs_err {err} is not |lhs - rhs| in {r}")
        if r["condition_held"] != (not expect_violation):
            raise CheckFailed(f"condition_held is {r['condition_held']} in {r}")
        if not expect_violation and not (err <= TOL):
            raise CheckFailed(f"abs_err {err} exceeds {TOL}")
    if expect_violation and not any(float(r["abs_err"]) > TOL for r in recs):
        raise CheckFailed("expected at least one violating trial")


class VerifySmall:
    """`cohfact --trials 10 verify theorem1` round-robin over six channels at d <= 4."""

    items_per_call = 10

    @staticmethod
    def generate(rng, seed, workdir):
        channels = []
        for d in (2, 3, 4):
            path = os.path.join(workdir, f"unital_d{d}.json")
            io.save_channel(path, cohfact.random_unital_channel(d, seed=rng))
            channels.append({"file": path, "d": d, "expect_violation": False})
        path = os.path.join(workdir, "depolarizing_d4.json")
        _write_json(path, {"name": "depolarizing", "d": 4,
                           "params": {"p": float(rng.uniform(0.05, 0.95))}})
        channels.append({"file": path, "d": 4, "expect_violation": False})
        # gell_mann_G(3, q, q0) is a channel for 0 <= q0 <= 1, 0 <= q <= (1 + 2 q0)/3
        q0 = float(rng.uniform(0.0, 0.9))
        q = float(rng.uniform(0.05, 0.95) * (1.0 + 2.0 * q0) / 3.0)
        path = os.path.join(workdir, "gell_mann_G_d3.json")
        _write_json(path, {"name": "gell_mann_G", "d": 3, "params": {"q": q, "q0": q0}})
        channels.append({"file": path, "d": 3, "expect_violation": False})
        path = os.path.join(workdir, "nonunital_d3.json")
        io.save_channel(path, cohfact.random_channel(3, seed=rng))
        channels.append({"file": path, "d": 3, "expect_violation": True})
        _write_json(os.path.join(workdir, "inputs.json"),
                    {"seed_base": seed * SEED_STRIDE, "channels": channels})

    def __init__(self, workdir):
        spec = _read_json(os.path.join(workdir, "inputs.json"))
        self.seed_base = spec["seed_base"]
        self.channels = spec["channels"]
        self.round_calls = len(self.channels)

    def call(self, i):
        ch = self.channels[i % self.round_calls]
        argv = ["--trials", str(self.items_per_call), "--seed", str(self.seed_base + i),
                "verify", "theorem1", "--channel", ch["file"]]
        if ch["expect_violation"]:
            argv.append("--expect-violation")
        return _run_cli(argv)

    def check(self, i, out):
        ch = self.channels[i % self.round_calls]
        _check_verify(out, self.items_per_call, ch["d"], ch["expect_violation"])


class VerifyLarge:
    """One `verify theorem1` trial on a random unital Kraus file (d = 8,
    k = 64) followed by one `verify cascade` trial with depolarizing d = 8
    as E_F.

    The two trial kinds differ in cost by a third or more, so a call holds
    one of each: with one trial per call the median would fall in the gap
    between the two clusters and swing from run to run.
    """

    items_per_call = 2
    round_calls = 1

    @staticmethod
    def generate(rng, seed, workdir):
        unital = os.path.join(workdir, "unital_d8.json")
        io.save_channel(unital, cohfact.random_unital_channel(8, k=64, seed=rng))
        depol = os.path.join(workdir, "depolarizing_d8.json")
        _write_json(depol, {"name": "depolarizing", "d": 8,
                            "params": {"p": float(rng.uniform(0.05, 0.95))}})
        _write_json(os.path.join(workdir, "inputs.json"),
                    {"seed_base": seed * SEED_STRIDE,
                     "kinds": [["theorem1", unital], ["cascade", depol]]})

    def __init__(self, workdir):
        spec = _read_json(os.path.join(workdir, "inputs.json"))
        self.seed_base = spec["seed_base"]
        self.kinds = spec["kinds"]

    def call(self, i):
        return [_run_cli(["--trials", "1", "--seed", str(self.seed_base + i),
                          "verify", kind, "--channel", path])
                for kind, path in self.kinds]

    def check(self, i, out):
        for one in out:
            _check_verify(one, 1, 8, expect_violation=False)


# ---------------------------------------------------------------------------
# two-qubit

_PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def _collapse_extremes(m):
    """Min and max over unit a of ||m - Pi_a(m)||_2^2 for a Hermitian 4x4 m.

    With x_i = Tr(m s_i x I) and T_ij = Tr(m s_i x s_j) the residual is
    (|x|^2 + ||T||^2 - a^T K a)/4, K = x x^T + T T^T, so the extremes come
    from the largest and smallest eigenvalues of K.
    """
    mm = m.reshape(2, 2, 2, 2)
    x = np.einsum("abcb,ica->i", mm, _PAULI).real
    t = np.einsum("abcd,ica,jdb->ij", mm, _PAULI, _PAULI).real
    lam = np.linalg.eigvalsh(np.outer(x, x) + t @ t.T)
    base = x @ x + np.sum(t * t)
    return (base - lam[-1]) / 4.0, (base - lam[0]) / 4.0, t


class TwoQubit:
    """Correlation measures, D2, N2 and Hellinger discord of one two-qubit
    state per call, cycling through random, Werner and rank-2 states."""

    items_per_call = 1
    round_calls = 3  # random, Werner and rank-2 states in turn
    pool_size = 240

    @staticmethod
    def generate(rng, seed, workdir):
        singlet = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
        states = []
        for k in range(TwoQubit.pool_size):
            if k % 3 == 0:
                m = cohfact.random_state(4, seed=rng).m
            elif k % 3 == 1:
                p = rng.uniform(0.05, 0.95)
                m = p * np.outer(singlet, singlet) + (1.0 - p) * np.eye(4) / 4.0
            else:
                psi = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
                psi /= np.linalg.norm(psi, axis=1, keepdims=True)
                w = rng.uniform(0.2, 0.8)
                m = w * np.outer(psi[0], psi[0].conj()) + (1 - w) * np.outer(psi[1], psi[1].conj())
            states.append(io.state_to_dict(cohfact.density_matrix(m)))
        _write_json(os.path.join(workdir, "inputs.json"), {"states": states})

    def __init__(self, workdir):
        spec = _read_json(os.path.join(workdir, "inputs.json"))
        self.states = [io.state_from_dict(s) for s in spec["states"]]

    def call(self, i):
        rho = self.states[i % len(self.states)]
        return (measures.correlation_measures(rho), measures.geometric_discord2(rho),
                measures.min2(rho), measures.hellinger_discord(rho))

    def check(self, i, out):
        corr, d2, n2, dh = out
        m = self.states[i % len(self.states)].m
        lo, hi, t = _collapse_extremes(m)
        w, v = np.linalg.eigh(m)
        root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
        _close(d2, 2.0 * lo, "geometric_discord2")
        _close(n2, 2.0 * hi, "min2")
        _close(dh, _collapse_extremes(root)[0], "hellinger_discord")
        e1, e2, e3 = np.linalg.eigvalsh(t.T @ t)[::-1]
        n_qt = math.sqrt(max(e1 + e2 + e3, 0.0))
        _close(corr["bell_max"], 2.0 * math.sqrt(max(e1 + e2, 0.0)), "bell_max")
        _close(corr["rsp_fidelity"], (e2 + e3) / 2.0, "rsp_fidelity")
        _close(corr["teleport_n"], n_qt, "teleport_n")
        _close(corr["teleport_fidelity"], 0.5 + n_qt / 6.0, "teleport_fidelity")


# ---------------------------------------------------------------------------
# sweep


def _qubit_bloch(m):
    return np.array([2 * m[0, 1].real, -2 * m[0, 1].imag, (m[0, 0] - m[1, 1]).real])


# Bloch-vector action of each swept qubit channel at parameter q.
_QUBIT_MAPS = {
    "phase_damping": lambda r, q: (q * r[0], q * r[1], r[2]),
    "phase_flip": lambda r, q: (q * r[0], q * r[1], r[2]),
    "bit_flip": lambda r, q: (r[0], q * r[1], q * r[2]),
    "bit_phase_flip": lambda r, q: (q * r[0], r[1], q * r[2]),
    "amplitude_damping": lambda r, q: (math.sqrt(1 - q) * r[0], math.sqrt(1 - q) * r[1],
                                       q + (1 - q) * r[2]),
}
_FROZEN = ("frozen_xy", "frozen_z")


class Sweep:
    """`cohfact sweep <name> 0:1:0.01`, round-robin over seven qubit
    channels and depolarizing on one d = 3 and two d = 4 states."""

    items_per_call = SWEEP_POINTS

    @staticmethod
    def generate(rng, seed, workdir):
        def state(tag, d):
            path = os.path.join(workdir, f"state_{tag}.json")
            io.save_state(path, cohfact.random_state(d, seed=rng))
            return path

        qubit = state("d2", 2)
        calls = [[name, qubit, 2] for name in (*_QUBIT_MAPS, *_FROZEN)]
        # depolarizing at d = 4, the slowest call, takes two of the ten calls
        # in a round, so that p90 falls inside its cluster of latencies
        # rather than on the edge between d = 3 and d = 4.
        calls += [["depolarizing", state(tag, d), d] for tag, d in (("d3", 3), ("d4a", 4), ("d4b", 4))]
        _write_json(os.path.join(workdir, "inputs.json"), {"calls": calls})

    def __init__(self, workdir):
        self.calls = _read_json(os.path.join(workdir, "inputs.json"))["calls"]
        self.round_calls = len(self.calls)
        self.states = {path: _matrix_from_file(path) for _, path, _ in self.calls}

    def call(self, i):
        name, path, d = self.calls[i % self.round_calls]
        argv = ["sweep", name, SWEEP_RANGE, "--state", path]
        if name == "depolarizing":
            argv += ["--d", str(d)]
        return _run_cli(argv)

    def _expected(self, name, m, q):
        """(C_l1, purity) of the channel's output at parameter q."""
        if name == "depolarizing":
            return (1 - q) * _l1(m), (1 - q) ** 2 * _purity(m)
        if name in _FROZEN:  # unitary: both measures are unchanged
            return _l1(m), _purity(m)
        x, y, z = _QUBIT_MAPS[name](_qubit_bloch(m), q)
        return math.hypot(x, y), (x * x + y * y + z * z) / 2.0

    def check(self, i, out):
        code, stdout, stderr = out
        name, path, _ = self.calls[i % self.round_calls]
        if code != 0:
            raise CheckFailed(f"exit code {code}: {stderr.strip()}")
        lines = stdout.splitlines()
        if len(lines) != SWEEP_POINTS + 2 or lines[0] != "param,c_l1,purity":
            raise CheckFailed(f"expected a header and {SWEEP_POINTS} rows, got {len(lines)} lines")
        m = self.states[path]
        for k, line in enumerate(lines[1:-1]):
            q, c, pur = (float(v) for v in line.split(","))
            _close(q, k / (SWEEP_POINTS - 1), f"{name} row {k} param")
            want_c, want_pur = self._expected(name, m, q)
            _close(c, want_c, f"{name} q={q} c_l1")
            _close(pur, want_pur, f"{name} q={q} purity")
        frozen = "true" if name in _FROZEN else "false"
        if not lines[-1].startswith(f"# frozen={frozen} "):
            raise CheckFailed(f"{name}: expected frozen={frozen}, got {lines[-1]!r}")


WORKLOADS = {
    "verify-small": VerifySmall,
    "verify-large": VerifyLarge,
    "two-qubit": TwoQubit,
    "sweep": Sweep,
}


def generate(name, seed, workdir):
    """Write the inputs of workload ``name`` for ``seed`` into ``workdir``."""
    WORKLOADS[name].generate(np.random.default_rng(seed), seed, workdir)


def load(name, workdir):
    """Load the inputs that ``generate`` wrote; returns the workload object."""
    return WORKLOADS[name](workdir)
