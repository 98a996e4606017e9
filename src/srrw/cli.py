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
import math
import os
import sys

from . import reports, verify
from . import rng as rngmod
from .elephant import (cycle_distribution, eval_stable, lambda_bounds_check,
                       lambda_table, z2_return_gap, z2_return_gap_bounds)
from .estimators import ball_curve, point_mass_curve
from .evolving import (doob_step, iso_profile, kernel_seq_from_forest,
                       psi_profile)
from .forest import assign_and_assemble, grow
from .groups import (CycleZL, EuclideanRd, Group, IntegerLatticeZd,
                     LamplighterZ, StepDistribution, Z2, group_from_literal)
from .oracle import exact_distribution
from .sampler import SrrwConfig, transform_from_literal


class CliError(Exception):
    """Raised with a user-facing message naming the offending field."""


def _lazy_support(group: Group):
    if isinstance(group, Z2):
        return [(0, 0.5), (1, 0.5)]
    if isinstance(group, CycleZL):
        return [(0, 0.5), (1 % group.L, 0.25), ((group.L - 1) % group.L, 0.25)]
    if isinstance(group, IntegerLatticeZd):
        d = group.d
        sup = [(tuple([0] * d), 0.5)]
        for i in range(d):
            for s in (1, -1):
                v = [0] * d
                v[i] = s
                sup.append((tuple(v), 1.0 / (4 * d)))
        return sup
    if isinstance(group, LamplighterZ):
        e = (frozenset(), 0)
        return [(e, 0.25), ((frozenset([0]), 0), 0.25),
                ((frozenset(), 1), 0.25), ((frozenset(), -1), 0.25)]
    raise CliError(f"no lazy shorthand for group {group.variant}")


def _gens_support(group: Group):
    gens = group.generators()
    return [(g, 1.0 / len(gens)) for g in gens]


def mu_from_cli(text: str, group: Group) -> StepDistribution:
    """Parse a step-law literal.

    Shorthand names: ``lazy`` (half mass at the identity), ``gens`` (uniform
    on the standard generators), ``letters`` (tree alias of gens), ``pm1``
    (uniform on +-1 for cycles); continuous family names for R^d; otherwise
    a Python list of [element, weight] pairs.
    """
    text = text.strip()
    if text == "lazy":
        return StepDistribution(support=_lazy_support(group)).validate(group)
    if text in ("gens", "letters"):
        return StepDistribution(support=_gens_support(group)).validate(group)
    if text == "pm1":
        if not isinstance(group, (Z2, CycleZL)):
            raise CliError("pm1 shorthand is for cyclic groups")
        L = 2 if isinstance(group, Z2) else group.L
        if L == 2:
            return StepDistribution(support=[(1, 1.0)]).validate(group)
        return StepDistribution(
            support=[(1, 0.5), (L - 1, 0.5)]).validate(group)
    if isinstance(group, EuclideanRd) and text in ("gaussian", "sphere",
                                                   "axis"):
        return StepDistribution(family=text).validate(group)
    if text.startswith("["):
        pairs = ast.literal_eval(text)
        return StepDistribution.from_literal(pairs, group)
    raise ValueError(f"unrecognized step-law literal {text!r}")


def _parse_int_list(text: str):
    try:
        return [int(t) for t in text.split(",") if t.strip()]
    except ValueError:
        raise CliError(f"--n: expected comma-separated integers, got {text!r}")


def _parse_float_list(text: str):
    try:
        return [float(t) for t in text.split(",") if t.strip()]
    except ValueError:
        raise CliError(f"--x: expected comma-separated reals, got {text!r}")


def _build_config(args) -> SrrwConfig:
    try:
        group = group_from_literal(args.group)
    except (ValueError, TypeError) as ex:
        raise CliError(f"--group: {ex}")
    try:
        mu = mu_from_cli(args.mu, group)
    except CliError:
        raise
    except (ValueError, TypeError, SyntaxError) as ex:
        raise CliError(f"--mu: {ex}")
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
    ns = _parse_int_list(args.n)
    if (args.target is None) == (args.ball_r is None):
        raise CliError("simulate needs exactly one of --target or --ball-r")
    if args.target is not None:
        try:
            target = cfg.group.parse_element(args.target)
        except (ValueError, TypeError) as ex:
            raise CliError(f"--target: {ex}")
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
    ns = _parse_int_list(args.n)
    if len(ns) != 1:
        raise CliError("--n: exact takes a single horizon")
    try:
        dist = exact_distribution(cfg, ns[0], n_cap=args.cap)
    except ValueError as ex:
        raise CliError(f"exact: {ex}")
    rows = sorted((cfg.group.format_element(dist.rep[k]), p)
                  for k, p in dist.mass.items())
    meta = _meta(args, ("group", "alpha", "mu", "transform", "n"))
    return reports.csv_bytes(meta, ("key", "probability"), rows)


def _run_poly(args) -> bytes:
    meta = _meta(args, ("mode", "alpha", "nmax", "n", "L", "x"))
    if args.mode == "lambda":
        table = lambda_table(args.alpha, args.nmax)
        rows = []
        for n in range(1, args.nmax + 1):
            for k in range(0, n // 2 + 1):
                chk = lambda_bounds_check(table, n, k)
                rows.append((n, k, table.value(n, k), _from_log(chk.log_lower),
                             _from_log(chk.log_upper), chk.passed))
        return reports.csv_bytes(
            meta, ("n", "k", "lambda", "lower", "upper", "pass"), rows)
    if args.mode == "eval":
        ns = _parse_int_list(args.n)
        xs = _parse_float_list(args.x)
        rows = [(n, x, eval_stable(args.alpha, n, x)) for n in ns for x in xs]
        return reports.csv_bytes(meta, ("n", "x", "value"), rows)
    if args.mode == "cycle":
        ns = _parse_int_list(args.n)
        rows = []
        for n in ns:
            probs = cycle_distribution(args.alpha, args.L, n)
            rows.extend((n, m, float(p)) for m, p in enumerate(probs))
        return reports.csv_bytes(meta, ("n", "m", "probability"), rows)
    if args.mode == "gap":
        ns = _parse_int_list(args.n)
        rows = []
        for n in ns:
            if n % 2 == 1:
                rows.append((n, 0.0, 0.0, 0.0))
                continue
            lo, hi = z2_return_gap_bounds(args.alpha, n)
            rows.append((n, z2_return_gap(args.alpha, n),
                         _from_log(lo), _from_log(hi)))
        return reports.csv_bytes(meta, ("n", "gap", "lower", "upper"), rows)
    raise CliError(f"unknown poly mode {args.mode!r}")


def _from_log(logv: float) -> float:
    return 0.0 if logv == -math.inf else math.exp(logv)


def _run_evoset(args) -> bytes:
    if args.mode == "trace":
        cfg = _build_config(args)
        n = _parse_int_list(args.n)[0]
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
    if args.mode == "profile":
        try:
            group = group_from_literal(args.group)
        except (ValueError, TypeError) as ex:
            raise CliError(f"--group: {ex}")
        try:
            mu = mu_from_cli(args.mu, group)
        except (ValueError, TypeError, SyntaxError) as ex:
            raise CliError(f"--mu: {ex}")
        rows = []
        for r in range(1, args.rmax + 1):
            phi = iso_profile(group, mu, r, search_scope=args.scope)
            psi = psi_profile(group, mu, r, search_scope=args.scope)
            rows.append((r, phi.value, psi.value))
        meta = _meta(args, ("group", "mu", "rmax", "scope"))
        return reports.csv_bytes(meta, ("r", "phi", "psi"), rows)
    raise CliError(f"unknown evoset mode {args.mode!r}")


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


def _add_common(p, with_seed=True):
    p.add_argument("--out", default="-", help="output path, '-' for stdout")
    p.add_argument("--threads", type=int,
                   default=int(os.environ.get("SRRW_THREADS", "1")))
    p.add_argument("--config", default=None,
                   help="key=value file supplying flag defaults")
    if with_seed:
        p.add_argument("--seed", type=int, default=verify.DEFAULT_SEED)


def _add_walk_flags(p):
    p.add_argument("--group", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--mu", required=True)
    p.add_argument("--transform", default="identity")


def build_parser() -> argparse.ArgumentParser:
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
    pe.add_argument("--cap", type=int, default=8,
                    help="horizon cap for path enumeration")
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
    """Fold key=value lines into argv as defaults; explicit flags win."""
    if "--config" not in argv:
        return argv
    path = argv[argv.index("--config") + 1]
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
            key = key.strip().replace("_", "-")
            flag = f"--{key}"
            if flag in argv:
                continue
            extra.extend([flag, val.strip()])
    return argv + extra


def render_bytes(argv) -> bytes:
    """Run one invocation and return its artifact; used by the determinism
    suite to compare thread counts without touching the filesystem."""
    argv = _apply_config_file(list(argv))
    args = build_parser().parse_args(argv)
    if args.subcommand == "simulate":
        return _run_simulate(args)
    if args.subcommand == "exact":
        return _run_exact(args)
    if args.subcommand == "poly":
        return _run_poly(args)
    if args.subcommand == "evoset":
        return _run_evoset(args)
    raise CliError(f"render_bytes does not cover {args.subcommand!r}")


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _apply_config_file(argv)
        args = build_parser().parse_args(argv)
        if args.subcommand == "verify":
            data, all_pass = _run_verify(args)
            status = 0 if all_pass else 1
        else:
            data = render_bytes(argv)
            status = 0
    except CliError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2
    except OSError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2
    if args.out == "-":
        sys.stdout.buffer.write(data)
    else:
        with open(args.out, "wb") as fh:
            fh.write(data)
    return status


if __name__ == "__main__":
    sys.exit(main())
