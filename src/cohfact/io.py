"""JSON formats for states, channels, and transfer matrices.

State: {"d": int, "matrix": M} or {"d": int, "bloch": [...]}.
Channel: {"name": ..., "d": int, "params": {...}} or {"kraus": K}.
Family: {"d": int, "n": [...], "chi": number (default 1)}.

A complex array M (d, d) or K (k, d, d) is read in either of two layouts:
nested [re, im] number pairs, [[[re, im], ...], ...], or an object of its
real and imaginary planes, {"re": [[...]], "im": [[...]]}, two real arrays
of one shape. save_channel writes planes: json.loads builds one list per
row of a plane where pairs take one per entry, so a d = 8, k = 64 Kraus
file loads in about 1.7 ms instead of 2.2 ms. A plane file needs cohfact
0.2.0 or later to load. save_state writes pairs, as a state's d^2 entries
load as fast in either layout. Numbers serialize with 12 significant
digits. Input files are read as UTF-8.
"""

import gc
import json
import re
from itertools import accumulate, chain
from math import isqrt

import numpy as np

from .channel import KrausChannel, _one_channel, kraus_channel, make_named
from .errors import CohfactError, DimensionMismatchError, InvalidDimensionError
from .state import DensityMatrix, bloch_compose, density_matrix, validate_density


# Largest d accepted from input. A named channel or Bloch state of
# dimension d allocates O(d^4) entries (the (d^2, d, d) generator stack),
# so an unchecked d could exhaust memory; 32 is twice the largest d used.
MAX_D = 32


def fmt12(x):
    """12-significant-digit float, round-tripping through repr."""
    return float(f"{float(x):.12g}")


def _real_to_json(a):
    """Nested lists of the fmt12 values of the real array ``a``."""
    return np.array(list(map(fmt12, a.ravel().tolist()))).reshape(a.shape).tolist()


def _numbers(entries, what):
    """Float array of a regular nesting of lists of JSON numbers. Booleans
    and strings are not numbers here, though float() would take them; the
    nesting is walked one level at a time, each level one C-level pass."""
    shape, level = [], [entries]
    while True:
        kinds = set(map(type, level))
        if kinds != {list}:
            break
        sizes = set(map(len, level))
        if len(sizes) != 1:
            raise CohfactError(f"{what} must be a regular array of numbers, got lists of lengths {sorted(sizes)}")
        shape.append(sizes.pop())
        level = list(chain.from_iterable(level))
    if not kinds <= {int, float}:
        names = sorted(t.__name__ for t in kinds - {int, float})
        raise CohfactError(f"{what} must be a regular array of numbers, got {', '.join(names)}")
    try:
        flat = np.array(level, dtype=float)
    except OverflowError as exc:  # an integer too large for a float
        raise CohfactError(f"{what} has a number out of range: {exc}") from exc
    try:
        return flat.reshape(shape)
    except ValueError as exc:  # more levels than NumPy's largest ndim
        raise CohfactError(f"{what} is nested {len(shape)} levels deep: {exc}") from exc


def _complex_from_json(entries, what):
    """Complex array from its planes {"re": ..., "im": ...}, read by one
    _numbers walk of [re, im] so that one check covers both, or from nested
    [re, im] number pairs. Either way each entry is exactly complex(re, im):
    planes are written into the real and imaginary parts, and pairs are the
    complex view of their (..., 2) float array."""
    if isinstance(entries, dict):
        if entries.keys() != {"re", "im"}:
            raise CohfactError(f"{what} planes must have the keys 're' and 'im' only, got {sorted(entries)}")
        planes = _numbers([entries["re"], entries["im"]], what)
        out = np.empty(planes.shape[1:], dtype=complex)
        out.real, out.imag = planes
        return out
    pairs = _numbers(entries, what)
    if pairs.ndim == 0 or pairs.shape[-1] != 2:
        raise CohfactError(f"{what} entries must be [re, im] pairs, got shape {pairs.shape}")
    return pairs.view(complex)[..., 0]


def _dimension(spec, what, default):
    """The integer "d" of a spec, or ``default`` when it has none; an
    integral float such as 2.0 is accepted."""
    if "d" not in spec:
        return default
    d = spec["d"]
    integral = isinstance(d, int) or (isinstance(d, float) and d.is_integer())
    if isinstance(d, bool) or not integral:
        raise CohfactError(f"{what} 'd' must be an integer, got {d!r}")
    return bounded_dimension(int(d), f"{what} 'd'")


def bounded_dimension(d, what):
    """``d`` if it is at most MAX_D."""
    if d > MAX_D:
        raise CohfactError(f"{what} must be at most MAX_D = {MAX_D}, got {d}")
    return d


def _object(spec, what):
    if not isinstance(spec, dict):
        raise CohfactError(f"{what} must be a JSON object, got {type(spec).__name__}")
    return spec


def _params(spec):
    """The "params" object of a channel spec; absent or null means none."""
    params = spec.get("params")
    return {} if params is None else _object(params, "channel 'params'")


def _load(path, convert, *args):
    """``convert(spec, *args)`` of the JSON document ``spec`` in the file
    ``path``.

    The decoded tree of lists and dicts holds no cycles and reference
    counting frees it, so the cyclic collector is paused until it is gone:
    left running, it re-walks the thousands of lists of a Kraus file several
    times per load. The collector's state on entry is restored."""
    enabled = gc.isenabled()
    gc.disable()
    try:  # no local holds the tree, so it is freed before the collector resumes
        return convert(_decode(path), *args)
    finally:
        if enabled:
            gc.enable()


def _decode(path):
    """The JSON document in the UTF-8 file ``path``."""
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise CohfactError(f"{path} is not UTF-8 text: {exc}") from exc
    try:
        return json.loads(text)
    except RecursionError as exc:
        bare = re.sub(r'"(?:[^"\\]|\\.)*"', "", text)  # brackets in strings do not nest
        depth = max(accumulate(1 if c in "[{" else -1 for c in bare if c in "[]{}"))
        raise CohfactError(f"{path} nests JSON {depth} levels deep, past the decoder's recursion limit") from exc


def state_to_dict(rho: DensityMatrix) -> dict:
    pairs = np.stack((rho.m.real, rho.m.imag), axis=-1).reshape(rho.d, rho.d, 2)  # a stack does not fit
    return {"d": rho.d, "matrix": _real_to_json(pairs)}


def state_from_dict(spec: dict) -> DensityMatrix:
    spec = _object(spec, "state spec")
    d = _dimension(spec, "state", None)
    if "matrix" in spec:
        m = _complex_from_json(spec["matrix"], "state 'matrix'")
        bounded_dimension(max(m.shape, default=0), "state 'matrix' size")
        rho = density_matrix(m)
    elif "bloch" in spec:
        if d is None:
            raise CohfactError("state with a 'bloch' entry needs a 'd' entry")
        x = _numbers(spec["bloch"], "state 'bloch'")
        if x.ndim != 1:
            raise CohfactError(f"state 'bloch' must be a flat list of numbers, got shape {x.shape}")
        if not np.all(np.abs(x) <= np.sqrt(2.0)):  # NaN fails too
            raise CohfactError("state 'bloch' entries must be finite and at most sqrt(2) in size, "
                               "as every state's coordinates are")
        if d < 2:
            raise InvalidDimensionError(f"dimension must be an integer >= 2, got {d}")
        if x.shape != (d * d - 1,):
            raise DimensionMismatchError(f"expected {d * d - 1} coordinates, got {x.shape}")
        rho = validate_density(bloch_compose(x))
    else:
        raise CohfactError("state spec needs a 'matrix' or 'bloch' entry")
    if d is not None and d != rho.d:
        raise CohfactError(f"declared d={d} but matrix is {rho.d}x{rho.d}")
    return rho


def load_state(path) -> DensityMatrix:
    return _load(path, state_from_dict)


def _save(path, to_dict, value):
    """Write the JSON document ``to_dict(value)`` to ``path``. The text is
    built before the file is opened, so a value that cannot be written
    raises CohfactError and leaves the file as it was."""
    try:
        text = json.dumps(to_dict(value))
    except CohfactError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise CohfactError(f"cannot write {path} as JSON: {exc}") from exc
    with open(path, "w") as fh:
        fh.write(text + "\n")


def save_state(path, rho: DensityMatrix):
    _save(path, state_to_dict, rho)


def _param_to_json(v):
    """A channel parameter as JSON: a number, NumPy scalar or 0-d array as its
    fmt12 float; a boolean stays a boolean."""
    number = isinstance(v, (int, float, np.integer, np.floating)) or (isinstance(v, np.ndarray) and v.ndim == 0)
    return fmt12(v) if number and not isinstance(v, bool) else v


def channel_to_dict(ch: KrausChannel) -> dict:
    """The spec of one channel, its Kraus set as real and imaginary planes;
    a stack of channels raises InvalidChannelError."""
    kraus = _one_channel(ch)
    return {
        "d": ch.d,
        "label": ch.label,
        "params": {k: _param_to_json(v) for k, v in ch.params.items()},
        "kraus": {"re": _real_to_json(kraus.real), "im": _real_to_json(kraus.imag)},
    }


def channel_from_dict(spec: dict) -> KrausChannel:
    spec = _object(spec, "channel spec")
    if "name" in spec:  # make_named checks the params' keys and values
        d = _dimension(spec, "channel", 2)
        if not isinstance(spec["name"], str):
            raise CohfactError(f"channel 'name' must be a string, got {spec['name']!r}")
        return make_named(spec["name"], d=d, params=_params(spec))
    if "kraus" in spec:
        ops = _complex_from_json(spec["kraus"], "channel 'kraus'")
        if ops.ndim != 3:
            raise CohfactError(f"channel 'kraus' must be a list of d x d matrices, got shape {ops.shape}")
        d = bounded_dimension(ops.shape[-1], "channel 'kraus' operator size")
        if _dimension(spec, "channel", d) != d:
            raise CohfactError(f"declared d={spec['d']} but Kraus operators are {d}x{d}")
        return kraus_channel(ops, label=spec.get("label", ""), params=_params(spec))
    raise CohfactError("channel spec needs a 'name' or 'kraus' entry")


def load_channel(path) -> KrausChannel:
    return _load(path, channel_from_dict)


def save_channel(path, ch: KrausChannel):
    _save(path, channel_to_dict, ch)


def transfer_to_dict(t) -> dict:
    """Row-major real entries of a (d^2, d^2) transfer matrix, index-0
    (identity) row first."""
    return {"d": isqrt(len(t)), "t": _real_to_json(np.asarray(t))}


def unit_direction(values, length, what):
    """The array of ``length`` finite numbers ``values`` (or strings that
    float() reads), not all zero, normalised to unit length."""
    try:
        n = np.asarray(values, dtype=float)
    except ValueError as exc:
        raise CohfactError(f"{what} must be a list of numbers: {exc}") from exc
    if n.shape != (length,):
        raise CohfactError(f"{what} needs {length} components, got {n.size if n.ndim == 1 else f'shape {n.shape}'}")
    if not np.all(np.isfinite(n)):
        raise CohfactError(f"{what} has non-finite components")
    if not n.any():
        raise CohfactError(f"{what} is zero")
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(n)
    if not np.sqrt(np.finfo(float).tiny) <= norm < np.inf:  # the sum of squares is not a normal float
        n = n / np.max(np.abs(n))
        norm = np.linalg.norm(n)
    return n / norm


def family_from_dict(spec: dict, d):
    """The family of a spec for a d-dimensional channel as the pair (n, chi),
    its direction n normalised."""
    spec = _object(spec, "family spec")
    for key in ("d", "n"):
        if key not in spec:
            raise CohfactError(f"family spec needs a {key!r} entry")
    if _dimension(spec, "family", None) != d:
        raise CohfactError(f"family d={spec['d']} vs channel d={d}")
    chi = _numbers(spec.get("chi", 1.0), "family 'chi'")
    if chi.ndim != 0 or not np.isfinite(chi):
        raise CohfactError(f"family 'chi' must be a finite number, got {spec['chi']!r}")
    n = unit_direction(_numbers(spec["n"], "family 'n'"), d * d - 1, "family 'n'")
    return n, float(chi)


def load_family(path, d):
    return _load(path, family_from_dict, d)
