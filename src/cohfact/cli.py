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
    aux_channel,
    aux_solve,
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
    CHUNK_ENTRIES,
    freeze_trajectory,
    verify_cascade,
    verify_corollary2,
    verify_families,
)
from .measures import correlation_measures, l1_from_density, purity_measure
from .state import StateFamily, random_families, random_state


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
    v.add_argument("--measure", choices=["l1", "purity"], default="l1")
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


def _direction(values, length, what):
    """Parse a user-given direction of ``length`` components and normalise it."""
    if not isinstance(values, list):
        raise CohfactError(f"{what} must be a list of numbers, got {type(values).__name__}")
    try:
        n = np.array([float(v) for v in values])
    except (TypeError, ValueError, OverflowError) as exc:
        raise CohfactError(f"{what} must be a list of numbers: {exc}") from exc
    if n.shape != (length,):
        raise CohfactError(f"{what} needs {length} components, got {n.size}")
    if not np.all(np.isfinite(n)):
        raise CohfactError(f"{what} has non-finite components")
    norm = np.linalg.norm(n)
    if norm == 0.0:
        raise CohfactError(f"{what} is zero")
    return n / norm


@contextmanager
def _output(path):
    """The file at ``path``, opened for writing and closed on leaving, or
    the standard output of the moment when no path is given."""
    if not path:
        yield sys.stdout
        return
    with open(path, "w") as fh:
        yield fh


def _writeln(fh, line):
    fh.write(line + "\n")


def cmd_coherence(args):
    rho = io.load_state(args.state)
    with _output(args.out) as fh:
        _writeln(fh, f"C_l1 = {l1_from_density(rho):.12f}")
        _writeln(fh, f"purity = {purity_measure(rho):.12f}")
        if rho.d == 4:
            for k, v in correlation_measures(rho).items():
                _writeln(fh, f"{k} = {v:.12f}")
    return 0


# Trials of theorem1 and lemma1 are checked together in chunks of at most
# CHUNK_TRIALS, fewer when the (2 * chunk, k, d, d) intermediate of the
# channel product would hold more than CHUNK_ENTRIES complex entries.
CHUNK_TRIALS = 1024
# A sweep's grid a:b:step holds at most this many points.
MAX_SWEEP_POINTS = 1_000_000


def _trial_rngs(seed, trials):
    """The generators of the given trials, each made when it is needed from
    its own (seed, trial) stream."""
    return (np.random.default_rng([seed, trial]) for trial in trials)


def _family_chunks(measure, ch, args):
    """Sample the families of a chunk of trials, then check them with one
    verify_families call."""
    chunk = max(1, min(CHUNK_TRIALS, CHUNK_ENTRIES // (2 * ch.kraus.size)))
    t = None
    for lo in range(0, args.trials, chunk):
        rngs = list(_trial_rngs(args.seed, range(lo, min(lo + chunk, args.trials))))
        n, chi = random_families(ch.d, rngs)
        t = t or transfer_matrix(ch)
        yield verify_families(measure, ch, n, chi, t)


def _verify_corollary2(ch, args):
    t = None
    for rng in _trial_rngs(args.seed, range(args.trials)):
        rho = random_state(ch.d, rng)
        t = t or transfer_matrix(ch)
        yield verify_corollary2(ch, rho, t)


def _verify_cascade(ch, args):
    N = qubit_count(ch.d)
    t = None
    for rng in _trial_rngs(args.seed, range(args.trials)):
        rho, m, chi = _sample_reachable_target(N, rng)
        t = t or transfer_matrix(ch)
        yield verify_cascade(ch, rho, m, chi, t)


# Each verify kind yields reports of consecutive trials, one trial per report
# or an array report over a chunk of trials. A kind builds the transfer
# matrix once, after its first draw, so that an input the draws reject (such
# as d < 2) fails there first, before any transfer matrix is built.
_VERIFY = {
    "theorem1": lambda ch, args: _family_chunks("l1", ch, args),
    "lemma1": lambda ch, args: _family_chunks(args.measure, ch, args),
    "corollary2": _verify_corollary2,
    "cascade": _verify_cascade,
}


def cmd_verify(args):
    if args.trials < 1:
        raise CohfactError(f"--trials must be at least 1, got {args.trials}")
    ch = io.load_channel(args.channel)
    failures = 0
    trial = 0
    with _output(args.out) as fh:
        for rep in _VERIFY[args.kind](ch, args):
            fields = (rep.lhs, rep.rhs, rep.abs_err, rep.probe_physical, rep.condition_held)
            for lhs, rhs, err, physical, held in zip(*(np.atleast_1d(f).tolist() for f in fields)):
                _writeln(fh, json.dumps({
                    "trial": trial, "seed": args.seed, "d": ch.d, "channel": ch.label,
                    "lhs": io.fmt12(lhs), "rhs": io.fmt12(rhs), "abs_err": io.fmt12(err),
                    "probe_physical": physical, "condition_held": held,
                }))
                trial += 1
            failures += int(np.count_nonzero(~np.atleast_1d(rep.within(args.tol))))  # NaN fails
    if args.expect_violation:
        return 0 if failures > 0 else 1
    return 0 if failures == 0 else 1


def _sample_reachable_target(N, rng, max_tries=200):
    """Draw (rho, m, chi) with all source coordinates live and eps >= 0,
    halving chi at most 59 times until every weight eps is >= EPS_TOL; a
    draw with an unreachable coordinate (which does not depend on chi) or
    with no feasible halving moves on to the next draw.

    One aux_solve per draw gives every halving: q_0 = 1 and c[:, 0] =
    2^(1-N), so the weights are affine in chi, eps(chi 2^-k) = 2^(-1-N) +
    2^-k (eps(chi) - 2^(-1-N)), and chi 2^-k is exactly chi halved k times.
    No channel is built here; verify_cascade's aux_channel call confirms
    the choice, and should the two ever disagree at a rounding boundary it
    raises NotAChannelError rather than pass."""
    floor = 2.0 ** (-1 - N)
    for _ in range(max_tries):
        rho = random_state(2**N, rng)
        v = rng.standard_normal(4**N - 1)
        m = v / np.linalg.norm(v)
        chi = rng.uniform(0.01, 0.3)
        try:
            eps = aux_solve(rho, m, chi)
        except UnreachableTargetError:
            continue
        halved = floor + 0.5 ** np.arange(60)[:, None] * (eps - floor)
        feasible = np.all(halved >= EPS_TOL, axis=1)
        if feasible.any():
            return rho, m, chi * 0.5 ** int(np.argmax(feasible))
    raise CohfactError("could not sample a realizable auxiliary-channel target")


def cmd_sweep(args):
    rho = io.load_state(args.state)
    try:
        a, b, step = (float(v) for v in args.range.split(":"))
    except ValueError as exc:
        raise CohfactError(f"invalid range {args.range!r}, expected a:b:step") from exc
    if not np.all(np.isfinite([a, b, step])) or step <= 0 or b < a:
        raise CohfactError(f"invalid range {args.range!r}")
    points = np.ceil((b + step / 2 - a) / step)  # the length of the arange below
    if points > MAX_SWEEP_POINTS:
        raise CohfactError(f"range {args.range!r} has {points:.0f} points, "
                           f"more than MAX_SWEEP_POINTS = {MAX_SWEEP_POINTS}")
    grid = np.arange(a, b + step / 2, step)
    d = rho.d if args.d is None else io.bounded_dimension(args.d, "--d")
    traj = freeze_trajectory(args.channel_name, grid, rho, d=d, tol=args.tol)
    # 12 significant digits, the same text as formatting io.fmt12 of each value
    rows = map("{:.12g},{:.12g},{:.12g}\n".format,
               traj.params.tolist(), traj.values.tolist(), traj.purities.tolist())
    with _output(args.out) as fh:
        _writeln(fh, "param,c_l1,purity")
        fh.write("".join(rows))
        _writeln(fh, f"# frozen={str(traj.frozen).lower()} spread={traj.spread:.12g}")
    return 0


def cmd_construct_aux(args):
    rho = io.load_state(args.state)
    N = qubit_count(rho.d)
    m = _direction(args.target.split(","), 4**N - 1, "--target")
    try:
        eps = aux_solve(rho, m, args.chi)
        ch = aux_channel(rho, m, args.chi)
    except UnreachableTargetError as exc:
        print(f"error: unreachable coordinate {exc.index}: {exc}", file=sys.stderr)
        return 1
    except NotAChannelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print("eps = " + ",".join(f"{v:.12g}" for v in exc.eps), file=sys.stderr)
        return 1
    print("eps = " + ",".join(f"{v:.12g}" for v in eps))
    print(f"all_nonnegative = {str(bool(np.all(eps >= EPS_TOL))).lower()}")
    if args.out:
        io.save_channel(args.out, ch)
    return 0


def cmd_transfer(args):
    ch = io.load_channel(args.channel)
    t = transfer_matrix(ch)
    doc = json.dumps(io.transfer_to_dict(t))
    with _output(args.out) as fh:
        _writeln(fh, doc)
    return 0


def _load_family(path, d):
    """Read a family file {"d", "n", "chi" (default 1)} for a d-dimensional channel."""
    with open(path) as fh:
        spec = json.load(fh)
    if not isinstance(spec, dict):
        raise CohfactError("family file must hold a JSON object {d, n, chi}")
    for key in ("d", "n"):
        if key not in spec:
            raise CohfactError(f"family file has no {key!r} entry")
    if spec["d"] != d:
        raise CohfactError(f"family d={spec['d']} vs channel d={d}")
    # booleans and strings would pass float(); named-channel params refuse them too
    chi, n = spec.get("chi", 1.0), spec["n"]
    if isinstance(chi, (bool, str)):
        raise CohfactError(f"family chi must be a number, got {chi!r}")
    if isinstance(n, list) and any(isinstance(v, (bool, str)) for v in n):
        raise CohfactError("family direction n must hold numbers, not booleans or strings")
    try:
        chi = float(chi)
    except (TypeError, ValueError, OverflowError) as exc:
        raise CohfactError(f"family chi must be a number: {exc}") from exc
    if not np.isfinite(chi):
        raise CohfactError(f"family chi must be finite, got {chi}")
    return StateFamily(d=d, n=_direction(n, d * d - 1, "family direction n"), chi=chi)


def cmd_freeze_check(args):
    ch = io.load_channel(args.channel)
    t = transfer_matrix(ch)
    fam = _load_family(args.family, ch.d) if args.family else None
    try:
        frozen = frozen_condition_check(t, fam)
    except NotApplicableError as exc:
        print(f"not applicable: {exc}", file=sys.stderr)
        return 1
    print(f"frozen = {str(frozen).lower()}")
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
