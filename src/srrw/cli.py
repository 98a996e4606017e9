"""Experiment runner.

One experiment per invocation: a subcommand, a handful of literals, a seed,
and one artifact (CSV or JSON) on stdout or at --out.  A flat key=value
config file can predefine any flag; explicit flags win.  Outputs embed the
package version, a hash of the effective configuration, and the seed, and
contain nothing time- or thread-dependent, so reruns are byte-comparable.
"""

from __future__ import annotations

import argparse
import ast
import functools
import math
import os
import sys

from . import reports, verify
from . import rng as rngmod
from .elephant import (cycle_distribution, eval_stable, lambda_bounds,
                       lambda_table, z2_return_gap, z2_return_gap_bounds)
from .estimators import ball_curve, point_mass_curve
from .evolving import (doob_step, iso_profile, kernel_seq_from_forest,
                       psi_profile)
from .forest import assign_and_assemble, grow
from .groups import Group, StepDistribution, group_from_literal
from .oracle import exact_distribution
from .sampler import SrrwConfig, transform_from_literal


class CliError(Exception):
    """Raised with a user-facing message naming the offending field."""


def mu_from_cli(text: str, group: Group) -> StepDistribution:
    """Parse a step-law literal: a shorthand name of
    ``StepDistribution.from_literal``, or a Python list of [element, weight]
    pairs.  A refused literal raises ``CliError`` naming ``--mu``."""
    text = text.strip()
    try:
        spec = ast.literal_eval(text) if text.startswith("[") else text
        return StepDistribution.from_literal(spec, group)
    except (ValueError, TypeError, SyntaxError) as ex:
        raise CliError(f"--mu: {ex}")


def _parse_list(text: str, flag: str, kind=int):
    """Comma-separated values of ``kind``; at least one."""
    try:
        out = [kind(t) for t in text.split(",") if t.strip()]
    except ValueError:
        out = []
    if not out:
        raise CliError(f"{flag}: expected comma-separated "
                       f"{'integers' if kind is int else 'reals'}, "
                       f"got {text!r}")
    return out


def _build_config(args) -> SrrwConfig:
    try:
        group = group_from_literal(args.group)
    except (ValueError, TypeError) as ex:
        raise CliError(f"--group: {ex}")
    mu = mu_from_cli(args.mu, group)
    try:
        transform = transform_from_literal(args.transform)
    except (ValueError, TypeError, SyntaxError) as ex:
        raise CliError(f"--transform: {ex}")
    try:
        return SrrwConfig(group=group, alpha=args.alpha, mu=mu,
                          transform=transform)
    except ValueError as ex:
        raise CliError(f"--alpha/--transform: {ex}")


def _meta(args, fields) -> dict:
    eff = {k: getattr(args, k) for k in fields if getattr(args, k) is not None}
    eff["subcommand"] = args.subcommand
    return {"version": reports.VERSION,
            "config": reports.config_hash(eff),
            "seed": getattr(args, "seed", 0)}


def _run_simulate(args) -> bytes:
    cfg = _build_config(args)
    ns = _parse_list(args.n, "--n")
    if (args.target is None) == (args.ball_r is None):
        raise CliError("simulate needs exactly one of --target or --ball-r")
    if args.target is not None:
        try:
            target = cfg.group.parse_element(args.target)
        except (ValueError, TypeError) as ex:
            raise CliError(f"--target: {ex}")
    if args.target is not None:
        pts = point_mass_curve(cfg, ns, target, args.trials, args.seed,
                               threads=args.threads)
    else:
        pts = ball_curve(cfg, ns, args.ball_r, args.trials, args.seed,
                         threads=args.threads)
    rows = [(n, e.value, e.stderr, e.ci_low, e.ci_high, e.trials)
            for n, e in pts]
    meta = _meta(args, ("group", "alpha", "mu", "transform", "n", "trials",
                        "target", "ball_r"))
    return reports.csv_bytes(meta,
                             ("n", "estimate", "stderr", "lo", "hi", "trials"),
                             rows)


def _run_exact(args) -> bytes:
    cfg = _build_config(args)
    ns = _parse_list(args.n, "--n")
    if len(ns) != 1:
        raise CliError("--n: exact takes a single horizon")
    dist = exact_distribution(cfg, ns[0])
    rows = sorted((cfg.group.format_element(x), p)
                  for x, p in dist.mass.items())
    meta = _meta(args, ("group", "alpha", "mu", "transform", "n"))
    return reports.csv_bytes(meta, ("key", "probability"), rows)


def _run_poly(args) -> bytes:
    meta = _meta(args, ("mode", "alpha", "nmax", "n", "L", "x"))
    if args.mode == "lambda":
        table = lambda_table(args.alpha, args.nmax)
        b = lambda_bounds(table)
        rows = zip(b.n.tolist(), b.k.tolist(), table.linear[b.n, b.k].tolist(),
                   map(_from_log, b.log_lower.tolist()),
                   map(_from_log, b.log_upper.tolist()), b.passed.tolist())
        return reports.csv_bytes(
            meta, ("n", "k", "lambda", "lower", "upper", "pass"), rows)
    if args.mode == "eval":
        ns = _parse_list(args.n, "--n")
        xs = _parse_list(args.x, "--x", float)
        rows = [(n, x, eval_stable(args.alpha, n, x)) for n in ns for x in xs]
        return reports.csv_bytes(meta, ("n", "x", "value"), rows)
    if args.mode == "cycle":
        ns = _parse_list(args.n, "--n")
        rows = []
        for n in ns:
            probs = cycle_distribution(args.alpha, args.L, n)
            rows.extend((n, m, float(p)) for m, p in enumerate(probs))
        return reports.csv_bytes(meta, ("n", "m", "probability"), rows)
    ns = _parse_list(args.n, "--n")  # mode "gap"
    rows = []
    for n in ns:
        if n % 2 == 1:
            rows.append((n, 0.0, 0.0, 0.0))
            continue
        lo, hi = z2_return_gap_bounds(args.alpha, n)
        rows.append((n, z2_return_gap(args.alpha, n),
                     _from_log(lo), _from_log(hi)))
    return reports.csv_bytes(meta, ("n", "gap", "lower", "upper"), rows)


def _from_log(logv: float) -> float:
    return 0.0 if logv == -math.inf else math.exp(logv)


def _run_evoset(args) -> bytes:
    if args.mode == "trace":
        cfg = _build_config(args)
        ns = _parse_list(args.n, "--n")
        if len(ns) != 1:
            raise CliError("--n: evoset trace takes a single horizon")
        n = ns[0]
        if n < 1:
            raise CliError(f"--n: evoset trace needs a horizon >= 1, got {n}")
        forest = grow(n, cfg.alpha, rngmod.stream(args.seed, 80))
        trace = assign_and_assemble(forest, cfg, rngmod.stream(args.seed, 81))
        seq = kernel_seq_from_forest(forest, cfg, trace)
        w = {cfg.group.identity()}
        rows = [(0, 1)]
        for j in range(1, n + 1):
            w = doob_step(cfg.group, cfg.mu, w, seq.kernel(j),
                          rngmod.stream(args.seed, 82, j))
            rows.append((j, len(w)))
        meta = _meta(args, ("group", "alpha", "mu", "transform", "n"))
        return reports.csv_bytes(meta, ("j", "size"), rows)
    cfg = _build_config(args)  # mode "profile"
    rows = []
    for r in range(1, args.rmax + 1):
        phi = iso_profile(cfg.group, cfg.mu, r, search_scope=args.scope)
        psi = psi_profile(cfg.group, cfg.mu, r, search_scope=args.scope)
        rows.append((r, phi.value, psi.value))
    meta = _meta(args, ("group", "mu", "rmax", "scope"))
    return reports.csv_bytes(meta, ("r", "phi", "psi"), rows)


def _run_verify(args) -> tuple:
    names = list(verify.SUITES) if args.suite == "all" else [args.suite]
    try:
        results = verify.run_suites(names, seed=args.seed,
                                    threads=args.threads)
    except ValueError as ex:
        raise CliError(str(ex))
    payload = {
        "version": reports.VERSION,
        "seed": args.seed,
        "suites": names,
        "results": [r.as_json() for r in results],
        "pass": all(r.passed for r in results),
    }
    return reports.json_bytes(payload), payload["pass"]


def _add_common(p):
    p.add_argument("--out", default="-", help="output path, '-' for stdout")
    p.add_argument("--threads", type=int, default=None,
                   help="worker threads (default: $SRRW_THREADS, else 1)")
    p.add_argument("--config", default=None,
                   help="key=value file supplying flag defaults")
    p.add_argument("--seed", type=int, default=verify.DEFAULT_SEED)


def _add_walk_flags(p):
    p.add_argument("--group", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--mu", required=True)
    p.add_argument("--transform", default="identity")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process; callers must not modify it."""
    ap = argparse.ArgumentParser(
        prog="srrw",
        description="step-reinforced random walk experiments")
    sub = ap.add_subparsers(dest="subcommand", required=True)

    ps = sub.add_parser("simulate", help="Monte Carlo point or ball masses")
    _add_walk_flags(ps)
    ps.add_argument("--n", required=True, help="comma-separated horizons")
    ps.add_argument("--trials", type=int, required=True)
    ps.add_argument("--target", default=None, help="group element literal")
    ps.add_argument("--ball-r", dest="ball_r", type=float, default=None)
    _add_common(ps)

    pe = sub.add_parser("exact", help="exact endpoint law by enumeration")
    _add_walk_flags(pe)
    pe.add_argument("--n", required=True)
    _add_common(pe)

    pp = sub.add_parser("poly", help="coefficient tables and evaluations")
    pp.add_argument("mode", choices=("lambda", "eval", "cycle", "gap"))
    pp.add_argument("--alpha", type=float, required=True)
    pp.add_argument("--nmax", type=int, default=50)
    pp.add_argument("--n", default="1")
    pp.add_argument("--L", type=int, default=3)
    pp.add_argument("--x", default="0.0")
    _add_common(pp)

    pv = sub.add_parser("evoset", help="evolving-set traces and profiles")
    pv.add_argument("mode", choices=("trace", "profile"))
    pv.add_argument("--group", required=True)
    pv.add_argument("--alpha", type=float, default=0.5)
    pv.add_argument("--mu", required=True)
    pv.add_argument("--transform", default="identity")
    pv.add_argument("--n", default="8")
    pv.add_argument("--rmax", type=int, default=4)
    pv.add_argument("--scope", choices=("connected", "all"),
                    default="connected")
    _add_common(pv)

    pf = sub.add_parser("verify", help="run acceptance suites, emit JSON")
    pf.add_argument("suite",
                    help="suite name or 'all': " + ", ".join(verify.SUITES))
    _add_common(pf)

    return ap


def _apply_config_file(argv):
    """Fold the key=value lines of ``--config PATH`` (or ``--config=PATH``)
    into argv right after the subcommand.  argparse keeps the last value of
    a flag, so every explicit flag, in any spelling, wins over the file."""
    path = None
    for i, tok in enumerate(argv):
        if tok == "--config":
            path = argv[i + 1] if i + 1 < len(argv) else ""
        elif tok.startswith("--config="):
            path = tok.partition("=")[2]
    if path is None:
        return argv
    if not path or path.startswith("-"):
        raise CliError("--config: expected a path")
    extra = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise CliError(f"config line {lineno}: expected key=value, "
                               f"got {line!r}")
            key, _, val = line.partition("=")
            extra.extend([f"--{key.strip().replace('_', '-')}", val.strip()])
    return argv[:1] + extra + argv[1:]


def _parse(argv):
    """The namespace of one invocation, config file folded in; --threads
    falls back to $SRRW_THREADS as it is when the call is made."""
    args = build_parser().parse_args(_apply_config_file(list(argv)))
    if args.threads is None:
        text = os.environ.get("SRRW_THREADS", "1")
        try:
            args.threads = int(text)
        except ValueError:
            raise CliError(f"SRRW_THREADS: expected an integer, got {text!r}")
    return args


_RUNNERS = {"simulate": _run_simulate, "exact": _run_exact,
            "poly": _run_poly, "evoset": _run_evoset}


def _render(args) -> bytes:
    """Run a parsed non-verify invocation; a library ValueError becomes a
    CliError naming the subcommand."""
    try:
        return _RUNNERS[args.subcommand](args)
    except ValueError as ex:
        raise CliError(f"{args.subcommand}: {ex}")


def render_bytes(argv) -> bytes:
    """Run one invocation and return its artifact; used by the determinism
    suite to compare thread counts without touching the filesystem."""
    args = _parse(argv)
    if args.subcommand not in _RUNNERS:
        raise CliError(f"render_bytes does not cover {args.subcommand!r}")
    return _render(args)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _parse(argv)
        if args.subcommand == "verify":
            data, all_pass = _run_verify(args)
            status = 0 if all_pass else 1
        else:
            data, status = _render(args), 0
        if args.out == "-":
            sys.stdout.buffer.write(data)
        else:
            with open(args.out, "wb") as fh:
                fh.write(data)
    except (CliError, OSError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2
    return status


if __name__ == "__main__":
    sys.exit(main())
