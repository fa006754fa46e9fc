"""Span tracing for the benchmark's traced run.

A span is a timing wrapper around one public function of a cohfact layer.
The wrappers are installed from outside the package: every module binding
of a traced function is replaced, because ``from .channel import apply``
copies the binding into the importing module. Spans stay in memory as one
flat array of doubles until the run ends.
"""

import array
import itertools
import time

import numpy as np

import cohfact

# The layers are cohfact's modules; `errors` does no work and is not one.
LAYERS = {
    "basis": ("gellmann_basis", "pauli_tensor_basis", "y_to_x_transform"),
    "state": ("random_family", "random_state", "probe_state", "family_member",
              "bloch_compose", "bloch_decompose", "is_psd"),
    "channel": ("kraus_channel", "make_named", "make_frozen_qubit", "apply",
                "transfer_matrix", "theorem1_condition", "aux_solve", "aux_channel"),
    "measures": ("l1_from_density", "purity_measure", "correlation_measures",
                 "geometric_discord2", "min2", "hellinger_discord"),
    "factorization": ("verify_theorem1", "verify_cascade", "freeze_trajectory"),
    "io": ("load_channel", "load_state", "fmt12"),
    "cli": ("main",),
}
HARNESS = "perfbench.call"  # root span around each call and its output check
FIELDS = ("index", "name_id", "start", "end", "parent", "ok", "d")
_SIZED = {"channel.transfer_matrix"}  # spans that also record their channel's d


class Tracer:
    """Installs span wrappers on cohfact and records spans.

    Each span is (index, name id, start, end, parent index or -1, 1 if it
    returned else 0, d of the first argument for ``_SIZED`` names else 0).
    """

    def __init__(self):
        self.names = [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]
        self.names.append(HARNESS)
        self._buf = array.array("d")
        self._stack = []
        self._counter = itertools.count()
        self._patches = []

    def wrap(self, name, fn):
        """Return ``fn`` wrapped in a span named ``name``."""
        name_id = float(self.names.index(name))
        sized = name in _SIZED
        record, stack, counter = self._buf.extend, self._stack, self._counter
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = next(counter)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            ok = 0.0
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = 1.0
                return result
            finally:
                end = clock()
                stack.pop()
                record((idx, name_id, start, end, parent, ok, args[0].d if sized else 0))

        return traced

    def install(self):
        """Replace every cohfact module binding of each traced function."""
        modules = [cohfact] + [getattr(cohfact, layer) for layer in LAYERS]
        for layer, fns in LAYERS.items():
            for fn in fns:
                original = getattr(getattr(cohfact, layer), fn)
                wrapper = self.wrap(f"{layer}.{fn}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def table(self):
        """Spans as an (n, 7) array in start order, columns as in FIELDS."""
        spans = np.frombuffer(self._buf, dtype=float).reshape(-1, len(FIELDS))
        return spans[np.argsort(spans[:, 0], kind="stable")]

    def profile(self, spans, items, wall_s):
        """Per-layer metrics of a traced phase that finished ``items`` work
        items in ``wall_s`` seconds, as {name: (value, unit)}, and a check
        that the spans nest and account for the phase's wall time."""
        name_id = spans[:, 1].astype(int)
        parent = spans[:, 4].astype(int)
        dur = spans[:, 3] - spans[:, 2]
        has_parent = parent >= 0
        child = np.zeros(len(spans))
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_s = dur - child
        parent_id = np.full(len(spans), -1)
        parent_id[has_parent] = name_id[parent[has_parent]]

        n = len(self.names)
        ids = {name: k for k, name in enumerate(self.names)}
        calls = np.bincount(name_id, minlength=n)
        returned = np.bincount(name_id, weights=spans[:, 5], minlength=n)
        self_total = np.bincount(name_id, weights=self_s, minlength=n)

        def under(name, parent_name):
            return int(np.sum((name_id == ids[name]) & (parent_id == ids[parent_name])))

        metrics = {}
        for name in self.names[:-1]:
            metrics[f"{name}.calls_per_item"] = (calls[ids[name]] / items, "calls/item")
            metrics[f"{name}.self_ms_per_item"] = (1e3 * self_total[ids[name]] / items, "ms/item")
        for layer, fns in LAYERS.items():
            layer_s = sum(self_total[ids[f"{layer}.{fn}"]] for fn in fns)
            metrics[f"{layer}.self_share"] = (layer_s / wall_s, "fraction")
        metrics["state.random_family.psd_checks_per_call"] = (
            _ratio(under("state.is_psd", "state.random_family"), calls[ids["state.random_family"]]),
            "checks/call")
        metrics["channel.aux_channel.accept_ratio"] = (
            _ratio(returned[ids["channel.aux_channel"]], calls[ids["channel.aux_channel"]]),
            "ratio")
        metrics["factorization.probe_builds_per_verify"] = (
            _ratio(under("state.probe_state", "factorization.verify_theorem1"),
                   calls[ids["factorization.verify_theorem1"]]),
            "builds/verify")

        traced_s = float(self_s.sum())
        tm = name_id == ids["channel.transfer_matrix"]
        check = {
            "wall_s": wall_s,
            "span_self_sum_s": traced_s,
            "harness_share": float(self_total[ids[HARNESS]] / wall_s),
            "min_self_s": float(self_s.min()),
            "transfer_matrix_ms_per_call_by_d": {
                str(int(d)): float(1e3 * self_s[tm & (spans[:, 6] == d)].mean())
                for d in np.unique(spans[tm, 6])
            },
        }
        # Self times add up to the root spans; the root spans cover the
        # phase except the loop's own bookkeeping between calls.
        check["ok"] = bool(check["min_self_s"] >= -1e-9
                           and abs(wall_s - traced_s) <= 0.05 * wall_s)
        return metrics, check


def _ratio(num, den):
    """num/den, or 0.0 when the function was never called."""
    return float(num / den) if den else 0.0
