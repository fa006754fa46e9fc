"""Command-line front end.

Subcommands: coherence, verify, sweep, construct-aux, transfer, freeze-check.
Exit codes: 0 pass, 1 tolerance/feasibility failure, 2 usage or parse error.
"""

import argparse
import json
import sys
from functools import lru_cache

import numpy as np

from . import io
from .basis import gellmann_basis, pauli_tensor_basis
from .channel import (
    aux_channel,
    aux_solve,
    channel_entry,
    frozen_condition_check,
    make_named,
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
    verify_lemma1,
    verify_theorem1,
)
from .measures import correlation_measures, l1_from_density, purity_measure
from .state import StateFamily, random_family, random_state


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
    try:
        n = np.array([float(v) for v in values])
    except (TypeError, ValueError) as exc:
        raise CohfactError(f"{what} must be a list of numbers: {exc}") from exc
    if n.shape != (length,):
        raise CohfactError(f"{what} needs {length} components, got {n.size}")
    if not np.all(np.isfinite(n)):
        raise CohfactError(f"{what} has non-finite components")
    norm = np.linalg.norm(n)
    if norm == 0.0:
        raise CohfactError(f"{what} is zero")
    return n / norm


def _open_out(path):
    return open(path, "w") if path else sys.stdout


def _writeln(fh, line):
    fh.write(line + "\n")


def cmd_coherence(args):
    rho = io.load_state(args.state)
    fh = _open_out(args.out)
    try:
        _writeln(fh, f"C_l1 = {l1_from_density(rho):.12f}")
        _writeln(fh, f"purity = {purity_measure(rho):.12f}")
        if rho.d == 4:
            for k, v in correlation_measures(rho).items():
                _writeln(fh, f"{k} = {v:.12f}")
    finally:
        if fh is not sys.stdout:
            fh.close()
    return 0


def cmd_verify(args):
    if args.trials < 1:
        raise CohfactError(f"--trials must be at least 1, got {args.trials}")
    ch = io.load_channel(args.channel)
    fh = _open_out(args.out)
    failures = 0
    try:
        for trial in range(args.trials):
            rng = np.random.default_rng([args.seed, trial])
            if args.kind == "theorem1":
                fam = random_family(ch.d, rng)
                rep = verify_theorem1(ch, fam)
            elif args.kind == "lemma1":
                fam = random_family(ch.d, rng)
                rep = verify_lemma1(args.measure, ch, fam)
            elif args.kind == "corollary2":
                rho = random_state(ch.d, rng)
                rep = verify_corollary2(ch, rho)
            else:  # cascade
                N = int(np.log2(ch.d))
                if 2**N != ch.d:
                    raise CohfactError(f"cascade requires a 2^N-dimensional channel, got d={ch.d}")
                rho, m, chi = _sample_reachable_target(N, rng)
                rep = verify_cascade(ch, rho, m, chi)
            _writeln(fh, json.dumps({
                "trial": trial, "seed": args.seed, "d": ch.d, "channel": ch.label,
                "lhs": io.fmt12(rep.lhs), "rhs": io.fmt12(rep.rhs),
                "abs_err": io.fmt12(rep.abs_err),
                "probe_physical": rep.probe_physical,
                "condition_held": rep.condition_held,
            }))
            if not rep.within(args.tol):  # a NaN error is a failure
                failures += 1
    finally:
        if fh is not sys.stdout:
            fh.close()
    if args.expect_violation:
        return 0 if failures > 0 else 1
    return 0 if failures == 0 else 1


def _sample_reachable_target(N, rng, max_tries=200):
    """Draw (rho, m, chi) with all source coordinates live and eps >= 0,
    shrinking chi on failure."""
    ybasis = pauli_tensor_basis(N)
    for _ in range(max_tries):
        rho = random_state(2**N, rng)
        v = rng.standard_normal(4**N - 1)
        m = v / np.linalg.norm(v)
        chi = rng.uniform(0.01, 0.3)
        for _ in range(60):
            try:
                aux_channel(rho, m, chi, ybasis)
            except (NotAChannelError, UnreachableTargetError):
                chi *= 0.5
                continue
            return rho, m, chi
    raise CohfactError("could not sample a realizable auxiliary-channel target")


def cmd_sweep(args):
    rho = io.load_state(args.state)
    try:
        a, b, step = (float(v) for v in args.range.split(":"))
    except ValueError as exc:
        raise CohfactError(f"invalid range {args.range!r}, expected a:b:step") from exc
    if not np.all(np.isfinite([a, b, step])) or step <= 0 or b < a:
        raise CohfactError(f"invalid range {args.range!r}")
    grid = np.arange(a, b + step / 2, step)
    name = args.channel_name
    keys = channel_entry(name).keys
    if len(keys) != 1:
        raise CohfactError(f"sweep needs a one-parameter channel; {name!r} takes {list(keys)}")
    d = args.d or rho.d
    traj = freeze_trajectory(lambda q: make_named(name, d=d, params={keys[0]: q}), grid, rho)
    fh = _open_out(args.out)
    try:
        _writeln(fh, "param,c_l1,purity")
        for q, c, pur in zip(traj.params, traj.values, traj.purities):
            _writeln(fh, f"{io.fmt12(q):.12g},{io.fmt12(c):.12g},{io.fmt12(pur):.12g}")
        _writeln(fh, f"# frozen={str(traj.frozen).lower()} spread={traj.spread:.12g}")
    finally:
        if fh is not sys.stdout:
            fh.close()
    return 0


def cmd_construct_aux(args):
    rho = io.load_state(args.state)
    N = int(np.log2(rho.d))
    if 2**N != rho.d:
        raise CohfactError(f"auxiliary channel needs a 2^N-dimensional state, got d={rho.d}")
    m = _direction(args.target.split(","), 4**N - 1, "--target")
    ybasis = pauli_tensor_basis(N)
    try:
        sol = aux_solve(rho, m, args.chi, ybasis)
        ch = aux_channel(rho, m, args.chi, ybasis)
    except UnreachableTargetError as exc:
        print(f"error: unreachable coordinate {exc.index}: {exc}", file=sys.stderr)
        return 1
    except NotAChannelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print("eps = " + ",".join(f"{v:.12g}" for v in exc.eps), file=sys.stderr)
        return 1
    print("eps = " + ",".join(f"{v:.12g}" for v in sol.eps))
    print(f"all_nonnegative = {str(bool(np.min(sol.eps) >= -1e-10)).lower()}")
    if args.out:
        io.save_channel(args.out, ch)
    return 0


def cmd_transfer(args):
    ch = io.load_channel(args.channel)
    t = transfer_matrix(ch, gellmann_basis(ch.d))
    doc = json.dumps(io.transfer_to_dict(t))
    fh = _open_out(args.out)
    try:
        _writeln(fh, doc)
    finally:
        if fh is not sys.stdout:
            fh.close()
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
    try:
        chi = float(spec.get("chi", 1.0))
    except (TypeError, ValueError) as exc:
        raise CohfactError(f"family chi must be a number: {exc}") from exc
    return StateFamily(d=d, n=_direction(spec["n"], d * d - 1, "family direction n"), chi=chi)


def cmd_freeze_check(args):
    ch = io.load_channel(args.channel)
    t = transfer_matrix(ch, gellmann_basis(ch.d))
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
    except (CohfactError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
