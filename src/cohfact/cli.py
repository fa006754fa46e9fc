"""Command-line front end.

Subcommands: coherence, verify, sweep, construct-aux, transfer, freeze-check.
Exit codes: 0 pass, 1 tolerance/feasibility failure, 2 usage or parse error.
"""

import argparse
import json
import sys
from contextlib import contextmanager
from functools import lru_cache

import numpy as np

from . import io
from .basis import qubit_count
from .channel import (
    EPS_TOL,
    aux_kraus_channel,
    aux_solve,
    aux_weights,
    frozen_condition_check,
    transfer_matrix,
)
from .errors import (
    CohfactError,
    NotAChannelError,
    NotApplicableError,
    UnreachableTargetError,
)
from .factorization import (
    freeze_trajectory,
    verify_cascade,
    verify_corollary2,
    verify_families,
)
from .measures import (
    _collapse_extremes,
    correlation_measures,
    hellinger_discord,
    l1_from_density,
    purity_measure,
)
from .state import DensityMatrix, ginibre_state, random_families, random_state


@lru_cache(maxsize=1)
def _parser():
    """The argument parser, built on first use and then reused: each
    parse_args call starts from a fresh namespace, so nothing carries over."""
    p = argparse.ArgumentParser(prog="cohfact",
                                description="Coherence evolution toolkit (Bloch picture)")
    p.add_argument("--seed", type=int, default=42, help="base RNG seed (default 42)")
    p.add_argument("--trials", type=int, default=100, help="trial count (default 100)")
    p.add_argument("--tol", type=float, default=1e-9, help="pass tolerance (default 1e-9)")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("coherence", help="print measures of a state file")
    c.add_argument("state")

    v = sub.add_parser("verify", help="batch-verify a factorization relation")
    v.add_argument("kind", choices=["theorem1", "lemma1", "corollary2", "cascade"])
    v.add_argument("--channel", required=True, help="channel JSON file")
    v.add_argument("--measure", choices=["l1", "purity"], default=None,
                   help="measure of lemma1 (default l1); the other kinds take none")
    v.add_argument("--expect-violation", action="store_true",
                   help="succeed iff at least one trial exceeds the tolerance")

    s = sub.add_parser("sweep", help="sweep a one-parameter named channel over a state")
    s.add_argument("channel_name")
    s.add_argument("range", help="a:b:step")
    s.add_argument("--state", required=True)
    s.add_argument("--d", type=int, default=None, help="dimension for d-parameterized channels")

    a = sub.add_parser("construct-aux", help="build the auxiliary channel for a target family")
    a.add_argument("--state", required=True)
    a.add_argument("--target", required=True, help="comma-separated direction components")
    a.add_argument("--chi", type=float, required=True)

    t = sub.add_parser("transfer", help="dump the transfer matrix of a channel")
    t.add_argument("--channel", required=True)

    f = sub.add_parser("freeze-check", help="frozen-coherence decision for a channel")
    f.add_argument("--channel", required=True)
    f.add_argument("--family", default=None, help="optional family JSON {d, n, chi}")
    return p


def _check_tol(tol):
    """Refuse a --tol that is negative or not finite: a NaN tolerance would
    pass no trial and freeze no sweep."""
    if not (np.isfinite(tol) and tol >= 0):
        raise CohfactError(f"--tol must be finite and at least 0, got {tol}")


@contextmanager
def _output(path):
    """The file at ``path``, opened for writing and closed on leaving, or
    the standard output of the moment when no path is given."""
    if not path:
        yield sys.stdout
        return
    with open(path, "w") as fh:
        yield fh


def cmd_coherence(args):
    rho = io.load_state(args.state)
    with _output(args.out) as fh:
        print(f"C_l1 = {l1_from_density(rho):.12f}", file=fh)
        print(f"purity = {purity_measure(rho):.12f}", file=fh)
        if rho.d == 4:
            for k, v in correlation_measures(rho).items():
                print(f"{k} = {v:.12f}", file=fh)
            # D2 and N2 are twice the extremes, which one eigensolve gives with their directions
            extremes = dict(zip(("D2", "N2"), _collapse_extremes(rho.m)))
            for name, (value, _) in extremes.items():
                print(f"{name} = {2.0 * value:.12f}", file=fh)
            print(f"D_H = {hellinger_discord(rho):.12f}", file=fh)
            for name, (_, a) in extremes.items():
                # a and -a give the same measurement: print the one whose
                # largest entry is positive, and no negative zeros
                a = (a if a[np.argmax(np.abs(a))] > 0 else -a) + 0.0
                print(f"{name}_direction = " + ",".join(f"{v:.12f}" for v in a), file=fh)
    return 0


# The trials of a verify run are checked together in chunks of
# CHUNK_TRIALS, whole blocks each drawn once. A chunk's stacks hold at most
# two d x d matrices per trial (states, images or probes), so with d <=
# io.MAX_D = 32 none holds more than 2^21 complex entries (32 MiB).
CHUNK_TRIALS = 1024
# Trials are drawn in blocks: trial i comes from the generator
# default_rng([seed, start]) of its block, start = BLOCK_TRIALS * (i //
# BLOCK_TRIALS). A block draws its uniforms for all of its rows, then its
# normals row by row, so a run draws only the rows it needs and the first t
# records of any run are those of a t-trial run, whatever the chunk size.
BLOCK_TRIALS = 16
# Rounds of new draws for the cascade targets of a block that are not yet
# realizable; round r > 0 draws from default_rng([seed, start, r]).
MAX_TARGET_ROUNDS = 200
# A sweep's grid a:b:step holds at most this many points.
MAX_SWEEP_POINTS = 1_000_000


def _draws(seed, lo, hi, draw):
    """The draws of trials lo..hi-1, a list of arrays with one row per
    trial; ``draw(key, rows)`` gives those of the first ``rows`` trials of
    the block whose generator is default_rng(key)."""
    parts = []
    for start in range(lo - lo % BLOCK_TRIALS, hi, BLOCK_TRIALS):
        got = draw([seed, start], min(hi - start, BLOCK_TRIALS))
        parts.append([a[max(lo - start, 0):] for a in got])
    return [np.concatenate(a) for a in zip(*parts)]


def _chunks(ch, args, draw, verify):
    """One report per chunk of trials: the chunk's draws, checked by one
    ``verify(t, *draws)`` call. The transfer matrix t is built once, after
    the first draw, so that an input the draws reject (such as d < 2) fails
    there first."""
    for lo in range(0, args.trials, CHUNK_TRIALS):
        sample = _draws(args.seed, lo, min(lo + CHUNK_TRIALS, args.trials), draw)
        if lo == 0:
            t = transfer_matrix(ch)
        yield verify(t, *sample)


def _families(measure, ch, args):
    return _chunks(ch, args,
                   lambda key, rows: random_families(ch.d, np.random.default_rng(key), rows, BLOCK_TRIALS),
                   lambda t, n, chi, hi: verify_families(measure, t, n, chi, hi))


def _corollary2(ch, args):
    return _chunks(ch, args, lambda key, rows: [random_state(ch.d, key, rows).m],
                   lambda t, m: verify_corollary2(t, DensityMatrix(m)))


def _cascade(ch, args):
    return _chunks(ch, args, lambda key, rows: _sample_reachable_target(qubit_count(ch.d), key, rows),
                   lambda t, rho, m, chi, eps: verify_cascade(t, DensityMatrix(rho), m, eps))


# Each verify kind yields array reports over consecutive chunks of trials.
_VERIFY = {
    "theorem1": lambda ch, args: _families("l1", ch, args),
    "lemma1": lambda ch, args: _families(args.measure or "l1", ch, args),
    "corollary2": _corollary2,
    "cascade": _cascade,
}


def _record_template(seed, d, label):
    """The format string of one verify record line: the text json.dumps
    writes for the record's dict, with trial, lhs, rhs, abs_err,
    probe_physical and condition_held left as fields."""
    fixed = json.dumps({"seed": seed, "d": d, "channel": label})[1:-1]
    return ('{{"trial": {}, ' + fixed.replace("{", "{{").replace("}", "}}") +
            ', "lhs": {}, "rhs": {}, "abs_err": {}, "probe_physical": {}, "condition_held": {}}}\n')


# The JSON text json.dumps writes for the values whose repr or str differs.
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_JSON_BOOL = {False: "false", True: "true"}


def _json_number(x):
    """The JSON text of io.fmt12(x), as json.dumps writes it."""
    text = repr(io.fmt12(x))
    return _JSON_NONFINITE.get(text, text)


def cmd_verify(args):
    if args.trials < 1:
        raise CohfactError(f"--trials must be at least 1, got {args.trials}")
    if args.seed < 0:
        raise CohfactError(f"--seed must be at least 0, got {args.seed}")
    _check_tol(args.tol)
    if args.measure and args.kind != "lemma1":
        raise CohfactError(f"--measure applies to lemma1 only, not to {args.kind}")
    ch = io.load_channel(args.channel)
    record = _record_template(args.seed, ch.d, ch.label)
    failures = 0
    trial = 0
    with _output(args.out) as fh:
        for rep in _VERIFY[args.kind](ch, args):
            fields = (rep.lhs, rep.rhs, rep.abs_err, rep.probe_physical, rep.condition_held)
            for lhs, rhs, err, physical, held in zip(*(f.tolist() for f in fields)):
                fh.write(record.format(trial, _json_number(lhs), _json_number(rhs), _json_number(err),
                                       _JSON_BOOL[physical], _JSON_BOOL[held]))
                trial += 1
            failures += int(np.count_nonzero(~rep.within(args.tol)))  # NaN fails
    if args.expect_violation:
        return 0 if failures > 0 else 1
    return 0 if failures == 0 else 1


_HALVINGS = 0.5 ** np.arange(60)[:, None]  # chi halved 0..59 times


def _sample_reachable_target(N, key, rows):
    """(rho, m, chi, eps) stacks of the first ``rows`` cascade trials of the
    block with generator key ``key``: every target is reachable, and its
    weights eps, at chi halved at most 59 times, are all >= EPS_TOL.

    Each round draws chi for the whole block, then each row's state and
    unit direction, and each row still open takes its draw of the round if
    that draw is realizable, else waits for the next round (an unreachable
    coordinate does not depend on chi). A row's result so depends only on
    its own draws. One aux_weights call per round gives every halving: q_0
    = 1 and c[:, 0] = 2^(1-N), so eps(chi 2^-k) = 2^(-1-N) + 2^-k (eps(chi)
    - 2^(-1-N)), the weights returned, whose smallest decides. Rounding is
    monotone, so their minimum is the value decided, and verify_cascade
    needs no second solve; chi 2^-k is exactly chi halved k times."""
    d, floor = 2**N, 2.0 ** (-1 - N)
    rho, m, chi = np.empty((rows, d, d), dtype=complex), np.empty((rows, 4**N - 1)), np.empty(rows)
    eps = np.empty((rows, 4**N))
    todo = np.arange(rows)
    for r in range(MAX_TARGET_ROUNDS):
        rng = np.random.default_rng([*key, r] if r else key)
        x = rng.uniform(0.01, 0.3, BLOCK_TRIALS)[todo]
        z = rng.standard_normal((todo[-1] + 1, 2 * d * d + 4**N - 1))[todo]
        states = ginibre_state(z[:, : 2 * d * d].reshape(-1, 2, d, d))
        dirs = z[:, 2 * d * d :] / np.linalg.norm(z[:, 2 * d * d :], axis=-1, keepdims=True)
        w, unreachable = aux_weights(states, dirs, x)
        feasible = floor + _HALVINGS * (w.min(axis=1) - floor) >= EPS_TOL
        ok = feasible.any(axis=0) & ~unreachable.any(axis=1)
        halving = _HALVINGS[np.argmax(feasible, axis=0)]
        rho[todo[ok]], m[todo[ok]], chi[todo[ok]] = states.m[ok], dirs[ok], (x * halving[:, 0])[ok]
        eps[todo[ok]] = (floor + halving * (w - floor))[ok]
        todo = todo[~ok]
        if not todo.size:
            return rho, m, chi, eps
    raise CohfactError("could not sample a realizable auxiliary-channel target")


def _grid_points(a, b, step):
    """Number of points a + i step, i = 0, 1, ..., of the range a:b:step
    that do not pass b. A point past b by at most 1e-9 of b - a counts, so
    that a step dividing b - a reaches b whatever the round-off."""
    return np.floor((b - a) / step * (1 + 1e-9)) + 1


def _sweep_grid(text):
    """The _grid_points(a, b, step) points a + i step of the range
    "a:b:step", the last clipped to b. MAX_SWEEP_POINTS bounds their number
    before the grid is built."""
    try:
        a, b, step = (float(v) for v in text.split(":"))
    except ValueError as exc:
        raise CohfactError(f"invalid range {text!r}, expected a:b:step") from exc
    if not np.all(np.isfinite([a, b, step])) or step <= 0 or b < a:
        raise CohfactError(f"invalid range {text!r}")
    points = _grid_points(a, b, step)
    if points > MAX_SWEEP_POINTS:
        raise CohfactError(f"range {text!r} has {points:.0f} points, "
                           f"more than MAX_SWEEP_POINTS = {MAX_SWEEP_POINTS}")
    return np.minimum(a + step * np.arange(int(points)), b)


def cmd_sweep(args):
    _check_tol(args.tol)
    rho = io.load_state(args.state)
    grid = _sweep_grid(args.range)
    d = rho.d if args.d is None else io.bounded_dimension(args.d, "--d")
    traj = freeze_trajectory(args.channel_name, grid, rho, d=d, tol=args.tol)
    # 12 significant digits, the same text as formatting io.fmt12 of each
    # value (% and str.format share one formatter), in one operation
    table = np.column_stack((traj.params, traj.values, traj.purities))
    with _output(args.out) as fh:
        print("param,c_l1,purity", file=fh)
        fh.write("%.12g,%.12g,%.12g\n" * len(table) % tuple(table.ravel().tolist()))
        print(f"# frozen={str(traj.frozen).lower()} spread={traj.spread:.12g}", file=fh)
    return 0


def cmd_construct_aux(args):
    rho = io.load_state(args.state)
    N = qubit_count(rho.d)
    m = io.unit_direction(args.target.split(","), 4**N - 1, "--target")
    try:
        eps = aux_solve(rho, m, args.chi)
        ch = aux_kraus_channel(eps, args.chi)
    except UnreachableTargetError as exc:
        print(f"error: unreachable coordinate {exc.index}: {exc}", file=sys.stderr)
        return 1
    except NotAChannelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print("eps = " + ",".join(f"{v:.12g}" for v in exc.eps), file=sys.stderr)
        return 1
    print("eps = " + ",".join(f"{v:.12g}" for v in eps))
    if args.out:
        io.save_channel(args.out, ch)
    return 0


def cmd_transfer(args):
    ch = io.load_channel(args.channel)
    t = transfer_matrix(ch)
    doc = json.dumps(io.transfer_to_dict(t))
    with _output(args.out) as fh:
        print(doc, file=fh)
    return 0


def cmd_freeze_check(args):
    ch = io.load_channel(args.channel)
    t = transfer_matrix(ch)
    n = io.load_family(args.family, ch.d)[0] if args.family else None
    try:
        frozen = frozen_condition_check(t, n)
    except NotApplicableError as exc:
        print(f"not applicable: {exc}", file=sys.stderr)
        return 1
    with _output(args.out) as fh:
        print(f"frozen = {str(frozen).lower()}", file=fh)
    return 0


_COMMANDS = {
    "coherence": cmd_coherence,
    "verify": cmd_verify,
    "sweep": cmd_sweep,
    "construct-aux": cmd_construct_aux,
    "transfer": cmd_transfer,
    "freeze-check": cmd_freeze_check,
}


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (CohfactError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
