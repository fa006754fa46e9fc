"""cohfact benchmark: one closed-loop workload per run, one caller, one process.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify-small --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off. ``--trace 1``
alternates untraced blocks with blocks under the span wrappers, half the
time each, and reports the per-layer metrics. Every call's
output is checked. The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
list each metric with its unit and sample count. A fuller record, with the
machine's run record and every call's time, goes to
``.perfbench_results/<workload>-trace<t>.json``
and the traced run's spans to ``.perfbench_results/<workload>-spans.npy``.
"""

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

# One BLAS thread, in this process and the set-up probes it starts. This
# must happen before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
RESULTS = os.path.join(ROOT, ".perfbench_results")

WORKLOADS = ("verify-small", "verify-large", "two-qubit", "sweep")
MIN_CALLS = 100  # so that ten samples lie beyond p90
MIN_TRACED_CALLS = 20
TRACE_BLOCKS = 4  # untraced/traced block pairs in a traced run
SETUP_RUNS = 9
SETUP_GAUGE_SAMPLES = 3  # gauge samples taken just before and just after each set-up probe
GAUGE_PERIOD_S = 0.1  # how often the speed gauge times its kernel
GAUGE_WINDOW_S = 0.5  # a call is scaled by the gauge samples this close to its start
GAUGE_NOMINAL_S = 0.002  # the kernel's time at the reference speed


class SpeedGauge:
    """Scales a run's times to a reference machine speed.

    On a shared machine the speed of the CPU this process gets drifts by tens
    of percent over minutes, which no length of run averages away. The gauge
    times a fixed kernel every GAUGE_PERIOD_S: products and traces of 8x8
    complex matrices in a Python loop, the same kind of work cohfact does, so
    it slows down and speeds up with the workload. Each call's time is
    multiplied by GAUGE_NOMINAL_S over the kernel's median time within
    GAUGE_WINDOW_S of the call. The kernel does not call cohfact, so a change
    to the program cannot move it.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._mats = [rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
                      for _ in range(16)]
        self.samples = []
        self.stamps = []
        self._last = -GAUGE_PERIOD_S

    def sample(self):
        start = time.perf_counter()
        total = 0.0
        for a in self._mats:
            for b in self._mats:
                total += np.trace(a @ b).real
        self._last = time.perf_counter()
        self.samples.append(self._last - start)
        self.stamps.append(start)
        return total

    def tick(self):
        """Sample if the last sample is GAUGE_PERIOD_S old."""
        if time.perf_counter() - self._last >= GAUGE_PERIOD_S:
            self.sample()

    def scale(self, last):
        """Factor from seconds to seconds at the reference speed, from the
        median of the ``last`` samples."""
        return GAUGE_NOMINAL_S / statistics.median(self.samples[-last:])

    def scales(self, stamps):
        """The factor for a call started at each of ``stamps``, from the
        median of the samples within GAUGE_WINDOW_S of it, or of all samples
        where fewer than 3 lie that close. The median passes over a sample
        that a preemption stretched."""
        at = np.asarray(self.stamps)
        lo = np.searchsorted(at, np.asarray(stamps) - GAUGE_WINDOW_S)
        hi = np.searchsorted(at, np.asarray(stamps) + GAUGE_WINDOW_S)
        overall = statistics.median(self.samples)
        local = [statistics.median(self.samples[a:b]) if b - a >= 3 else overall
                 for a, b in zip(lo, hi)]
        return GAUGE_NOMINAL_S / np.asarray(local)


class Runner:
    """Makes the workload's calls one after another and counts failures."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.stamps = []

    def step(self):
        """One call and its output check; returns the call's seconds."""
        i = self.attempted
        self.attempted += 1
        elapsed = None
        start = time.perf_counter()
        try:
            out = self.wl.call(i)
            elapsed = time.perf_counter() - start
            self.wl.check(i, out)
        except Exception:  # a failed call is counted and the run goes on
            if elapsed is None:
                elapsed = time.perf_counter() - start
            self.failed += 1
            if self.failed <= 3:
                print(f"call {i} failed:", file=sys.stderr)
                traceback.print_exc(file=sys.stderr)
        return elapsed

    def loop(self, step, seconds, min_calls, gauge=None):
        """Call ``step`` until ``seconds`` have passed and ``min_calls``
        calls are done, ticking ``gauge`` between calls; returns the call
        times and the loop's wall time."""
        times = []
        start = time.perf_counter()
        while len(times) < min_calls or time.perf_counter() - start < seconds:
            self.stamps.append(time.perf_counter())
            times.append(step())
            if gauge is not None:
                gauge.tick()
        return times, time.perf_counter() - start


def setup_time(workload, workdir):
    """Seconds from launching a fresh interpreter until it has imported
    cohfact, loaded the inputs and made one warm-up call.

    The probe prints time.monotonic() when ready; on Linux that clock is
    CLOCK_MONOTONIC, shared by all processes.
    """
    env = dict(os.environ, PYTHONPATH=SRC)
    cmd = [sys.executable, os.path.join(HERE, "probe.py"), workload, workdir]
    start = time.monotonic()
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1]) - start


def run_record(seed):
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_vendor": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


def _blas_threads():
    """Thread count reported by numpy's bundled OpenBLAS, or None."""
    for path in glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*")):
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(lib, fn):
                get = getattr(lib, fn)
                get.argtypes, get.restype = [], ctypes.c_int
                return get()
    return None


def end_to_end(wl, times, setups, rss_mb, call_scales, setup_scales):
    """Call times multiplied by ``call_scales``, set-up times by ``setup_scales``."""
    scaled = (np.asarray(times) * call_scales).tolist()
    return {
        "throughput_per_s": (wl.items_per_call * len(scaled) / sum(scaled), "1/s", len(scaled)),
        "call_ms_p50": (1e3 * statistics.median(scaled), "ms", len(scaled)),
        "call_ms_p90": (1e3 * statistics.quantiles(scaled, n=10)[8], "ms", len(scaled)),
        "setup_s": (float(np.median(np.asarray(setups) * setup_scales)), "s", len(setups)),
        "peak_rss_mb": (rss_mb, "MB", 1),
    }


def per_layer(name, runner, seconds):
    """Untraced and traced blocks in turn; returns metrics and the trace record.

    Alternating the blocks keeps a slow drift in machine speed out of
    trace.overhead_frac.
    """
    import spans as spans_mod

    block = seconds / (2 * TRACE_BLOCKS)
    min_calls = MIN_TRACED_CALLS // TRACE_BLOCKS
    tracer = spans_mod.Tracer()
    traced_step = tracer.wrap(spans_mod.HARNESS, runner.step)
    plain, traced, wall = [], [], 0.0
    for _ in range(TRACE_BLOCKS):
        plain += runner.loop(runner.step, block, min_calls)[0]
        tracer.install()
        try:
            times, block_wall = runner.loop(traced_step, block, min_calls)
        finally:
            tracer.uninstall()
        traced += times
        wall += block_wall
    table = tracer.table()
    items = runner.wl.items_per_call * len(traced)
    layer, check = tracer.profile(table, items, wall)
    metrics = {k: (v, unit, len(traced)) for k, (v, unit) in layer.items()}
    metrics["trace.overhead_frac"] = (
        (len(plain) / sum(plain)) / (len(traced) / sum(traced)) - 1.0, "fraction", len(traced))
    check["mechanism"] = mechanism(name, layer, items, wall * (1.0 - check["harness_share"]))
    os.makedirs(RESULTS, exist_ok=True)
    np.save(os.path.join(RESULTS, f"{name}-spans.npy"), table)
    check["span_names"] = tracer.names
    check["span_fields"] = spans_mod.FIELDS
    return metrics, check


def mechanism(name, layer, items, program_s):
    """Does the workload stress what it claims? ``program_s`` is the traced
    time spent inside cohfact. Recorded, not enforced: a later change to the
    program may rightly move these shares."""
    def calls(fn):
        return layer[f"{fn}.calls_per_item"][0] * items

    discord = ("measures.geometric_discord2", "measures.min2", "measures.hellinger_discord")
    checks = []
    if name == "verify-large":
        share = layer["channel.transfer_matrix.self_ms_per_item"][0] * items / 1e3 / program_s
        checks.append(("transfer_matrix share of program time >= 0.8", share, share >= 0.8))
    if name in ("two-qubit", "sweep"):
        n = calls("channel.transfer_matrix")
        checks.append(("transfer_matrix calls == 0", n, n == 0))
    if name != "two-qubit":
        n = sum(calls(fn) for fn in discord)
        checks.append(("discord calls == 0", n, n == 0))
    return [{"check": c, "value": float(v), "pass": bool(ok)} for c, v, ok in checks]


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "cohfact", "__init__.py")):
        print(f"error: no cohfact sources in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import cohfact
    import workloads

    if not os.path.abspath(cohfact.__file__).startswith(SRC + os.sep):
        print(f"error: imported cohfact from {cohfact.__file__}, not {SRC}", file=sys.stderr)
        return 2

    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK)
    try:
        workloads.generate(args.workload, args.seed, workdir)
        runner = Runner(workloads.load(args.workload, workdir))
        gauge = SpeedGauge()
        if args.trace == 0:
            setups, setup_scales = [], []
            for _ in range(SETUP_RUNS):
                for _ in range(SETUP_GAUGE_SAMPLES):
                    gauge.sample()
                setups.append(setup_time(args.workload, workdir))
                for _ in range(SETUP_GAUGE_SAMPLES):
                    gauge.sample()
                setup_scales.append(gauge.scale(2 * SETUP_GAUGE_SAMPLES))
        for _ in range(runner.wl.round_calls):  # builds the lru_cache bases
            runner.step()
        if args.trace == 0:
            times, _ = runner.loop(runner.step, args.seconds, MIN_CALLS, gauge)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux
            metrics = end_to_end(runner.wl, times, setups, rss_mb, gauge.scales(runner.stamps),
                                 setup_scales)
            raw, trace = end_to_end(runner.wl, times, setups, rss_mb, 1.0, 1.0), None
        else:
            times, setups, raw = None, None, {}
            metrics, trace = per_layer(args.workload, runner, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = runner.failed == 0 and (trace is None or trace["ok"])
    for name, (value, unit, n) in metrics.items():
        as_measured = f"  (as measured {raw[name][0]:.6g})" if name in raw else ""
        print(f"{args.workload:<13} {name:<50} {value:>14.6g} {unit:<13} n={n}{as_measured}")
    # failed_frac is 0 when all is well, so it is reported here and through
    # the result's attempted and failed counts, not as a metric.
    print(f"{args.workload:<13} {'failed_frac':<50} {runner.failed / runner.attempted:>14.6g} "
          f"{'fraction':<13} n={runner.attempted}")
    if trace is not None:
        for m in trace["mechanism"]:
            print(f"mechanism {m['check']}: {m['value']:.4g} {'PASS' if m['pass'] else 'FAIL'}")
        print("transfer_matrix ms per call by d:", trace["transfer_matrix_ms_per_call_by_d"])
        print(f"span self times {trace['span_self_sum_s']:.4f} s of traced wall "
              f"{trace['wall_s']:.4f} s: {'OK' if trace['ok'] else 'MISMATCH'}")

    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u, _) in metrics.items()},
    }
    record = dict(result, workload=args.workload, seconds=args.seconds, trace=args.trace,
                  run=run_record(args.seed), samples={k: n for k, (_, _, n) in metrics.items()},
                  as_measured={k: v for k, (v, _, _) in raw.items()},
                  gauge_s=gauge.samples, gauge_t=gauge.stamps, call_s=times,
                  call_t=runner.stamps, setup_runs_s=setups,
                  trace_check=trace)
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, f"{args.workload}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
