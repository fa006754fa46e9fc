"""JSON formats for states, channels, and transfer matrices.

State: {"d": int, "matrix": [[[re, im], ...], ...]} or {"d": int, "bloch": [...]}.
Channel: {"name": ..., "d": int, "params": {...}} or {"kraus": [[[[re, im], ...]]]}.
Numbers serialize with 12 significant digits.
"""

import json

import numpy as np

from .basis import gellmann_basis
from .channel import KrausChannel, TransferMatrix, kraus_channel, make_named
from .errors import CohfactError
from .state import DensityMatrix, bloch_compose, density_matrix


def fmt12(x):
    """12-significant-digit float, round-tripping through repr."""
    return float(f"{float(x):.12g}")


def _complex_to_pair(z):
    return [fmt12(z.real), fmt12(z.imag)]


def _matrix_to_json(m):
    return [[_complex_to_pair(z) for z in row] for row in np.asarray(m, dtype=complex)]


def _complex_from_json(entries, what):
    """Complex array from nested [re, im] pairs, parsed in one pass. The
    complex view of the (..., 2) float array is exactly complex(re, im)."""
    try:
        pairs = np.ascontiguousarray(entries, dtype=float)
    except (TypeError, ValueError) as exc:  # a non-number or ragged nesting
        raise CohfactError(f"{what} must be a regular array of [re, im] number pairs: {exc}") from exc
    if pairs.shape[-1] != 2:
        raise CohfactError(f"{what} entries must be [re, im] pairs, got shape {pairs.shape}")
    return pairs.view(complex)[..., 0]


def _dimension(spec, what, default):
    """The integer "d" of a spec, or ``default`` when it has none; an
    integral float such as 2.0 is accepted."""
    if "d" not in spec:
        return default
    d = spec["d"]
    if isinstance(d, bool) or not isinstance(d, (int, float)) or not float(d).is_integer():
        raise CohfactError(f"{what} 'd' must be an integer, got {d!r}")
    return int(d)


def _object(spec, what):
    if not isinstance(spec, dict):
        raise CohfactError(f"{what} spec must be a JSON object, got {type(spec).__name__}")
    return spec


def state_to_dict(rho: DensityMatrix) -> dict:
    return {"d": rho.d, "matrix": _matrix_to_json(rho.m)}


def state_from_dict(spec: dict, validate=True) -> DensityMatrix:
    spec = _object(spec, "state")
    d = _dimension(spec, "state", None)
    if "matrix" in spec:
        rho = density_matrix(_complex_from_json(spec["matrix"], "state 'matrix'"), validate=validate)
    elif "bloch" in spec:
        if d is None:
            raise CohfactError("state with a 'bloch' entry needs a 'd' entry")
        try:
            x = np.asarray(spec["bloch"], dtype=float)
        except (TypeError, ValueError) as exc:
            raise CohfactError(f"state 'bloch' must be a list of numbers: {exc}") from exc
        rho = bloch_compose(x, gellmann_basis(d), validate=validate)
    else:
        raise CohfactError("state spec needs a 'matrix' or 'bloch' entry")
    if d is not None and d != rho.d:
        raise CohfactError(f"declared d={d} but matrix is {rho.d}x{rho.d}")
    return rho


def load_state(path, validate=True) -> DensityMatrix:
    with open(path) as fh:
        return state_from_dict(json.load(fh), validate=validate)


def save_state(path, rho: DensityMatrix):
    with open(path, "w") as fh:
        json.dump(state_to_dict(rho), fh)
        fh.write("\n")


def channel_to_dict(ch: KrausChannel) -> dict:
    return {
        "d": ch.d,
        "label": ch.label,
        "params": {k: fmt12(v) if isinstance(v, (int, float)) else v for k, v in ch.params.items()},
        "kraus": [_matrix_to_json(e) for e in ch.kraus],
    }


def channel_from_dict(spec: dict) -> KrausChannel:
    spec = _object(spec, "channel")
    if "name" in spec:
        d = _dimension(spec, "channel", 2)
        return make_named(spec["name"], d=d, params=spec.get("params"))
    if "kraus" in spec:
        ops = _complex_from_json(spec["kraus"], "channel 'kraus'")
        return kraus_channel(ops, label=spec.get("label", ""), params=spec.get("params"))
    raise CohfactError("channel spec needs a 'name' or 'kraus' entry")


def load_channel(path) -> KrausChannel:
    with open(path) as fh:
        return channel_from_dict(json.load(fh))


def save_channel(path, ch: KrausChannel):
    with open(path, "w") as fh:
        json.dump(channel_to_dict(ch), fh)
        fh.write("\n")


def transfer_to_dict(t: TransferMatrix) -> dict:
    """Row-major real entries, index-0 (identity) row first."""
    return {"d": t.d, "t": [[fmt12(v) for v in row] for row in t.t]}
