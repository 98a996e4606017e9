"""The benchmark's four workloads: their sizes, their configs and one round
of calls into srrw.

Every round of a workload makes the same calls; only the srrw seed changes,
derived from the benchmark seed and the round number, so rounds are
independent and their counts can be pooled.  ``verify-light`` is the
exception: the acceptance suites fix their own seed, so its rounds repeat.

Nothing at module level imports srrw.  ``setup`` does, and builds the
configs; the worker times that call as ``setup_s``.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

WORKLOADS = ("lattice-d3", "nonabelian", "transform-generic", "verify-light")

# lattice-d3: lazy walk on Z^3 at alpha = 1/2 through `srrw simulate`, the
# lattice-decay gate's config.  n = 8 and 16 are added for the exact check.
LATTICE_TRIALS = 1 << 14
LATTICE_NS = (8, 16, 64, 128, 256, 512, 1024)
LATTICE_CHECK_NS = (8, 16)

# nonabelian: the elephant walk on the 3-regular tree at p = 0.3 (rotation
# replay, alpha = 0.1), its escape speed, and the S3 x Z walk.  n = 6, 7, 10
# (tree) and n = 4, 8 (S3 x Z) are added for the exact checks.
TREE_P = 0.3
TREE_TRIALS = 1 << 17
TREE_NS = (6, 7, 10, 20, 30, 40, 50, 60)
TREE_CHECK_NS = (6, 10)
TREE_ODD_N = 7
ESCAPE_N = 1000
ESCAPE_TRIALS = 1 << 12
S3Z_TRIALS = 1 << 12
S3Z_NS = (4, 8, 64, 128, 256, 512, 1024)
S3Z_CHECK_NS = (4, 8)

# transform-generic: counterbalanced +-1 walk on Z at alpha = 1/2 through
# `srrw simulate --transform negation`, served by the per-trial route.
GENERIC_TRIALS = 1024
GENERIC_NS = (16, 32, 64, 128, 256)

# verify-light: the fast acceptance suites, at their own fixed seed.
VERIFY_SUITES = ("z2-sandwich", "oracle-agreement", "sampler-triangle",
                 "lambda-bounds", "decay-envelope", "isolated-vertices",
                 "evolving-exact", "psi-bottleneck", "lamplighter")
# The lamplighter suite's horizons and trials, to read its hit counts.
LAMPLIGHTER_NS = (8, 16, 24, 32, 48, 64)
LAMPLIGHTER_TRIALS = 10 ** 6
# Trials x largest horizon of the suites' Monte Carlo calls: sampler-triangle
# 4 x 1e6 x 6, isolated-tails 3 alphas x (50 + 100 + 200) x 1e5,
# isolated-exact-vs-mc 1e5 x 10, evolving-trajectory-law 1e5 x 6,
# lamplighter 1e6 x 64.
VERIFY_TRIAL_STEPS = (4 * 10 ** 6 * 6 + 3 * 350 * 10 ** 5 + 10 ** 5 * 10
                      + 10 ** 5 * 6 + 10 ** 6 * 64)

# Trials x largest horizon over one round's timed calls.
TRIAL_STEPS = {
    "lattice-d3": LATTICE_TRIALS * max(LATTICE_NS),
    "nonabelian": (TREE_TRIALS * max(TREE_NS) + ESCAPE_TRIALS * ESCAPE_N
                   + S3Z_TRIALS * max(S3Z_NS)),
    "transform-generic": GENERIC_TRIALS * max(GENERIC_NS),
    "verify-light": VERIFY_TRIAL_STEPS,
}

# The estimate behind relhw_sqrt_s: (operation, horizon).
DESIGNATED = {
    "lattice-d3": ("simulate", 16),
    "nonabelian": ("tree-return", 40),
    "transform-generic": ("simulate", 64),
    "verify-light": ("lamplighter", 64),
}


class Op(NamedTuple):
    """One timed call: ``call`` runs it, ``summarize`` turns its result into
    JSON outside the timed region."""

    name: str
    call: Callable
    summarize: Callable


def round_seed(seed: int, r: int) -> int:
    return seed * 1000 + r


def _csv_hits(data: bytes) -> dict:
    """Hit counts per horizon from a `srrw simulate` CSV artifact."""
    lines = [ln for ln in data.decode().splitlines()
             if ln and not ln.startswith("#")]
    cols = lines[0].split(",")
    hits, trials = {}, None
    for ln in lines[1:]:
        row = dict(zip(cols, ln.split(",")))
        trials = int(row["trials"])
        hits[row["n"]] = round(float(row["estimate"]) * trials)
    return {"trials": trials, "hits": hits}


def _curve_hits(points) -> dict:
    return {"trials": points[0][1].trials,
            "hits": {str(n): round(e.value * e.trials) for n, e in points}}


def _simulate_argv(group, mu, transform, ns, trials, seed):
    return ["simulate", "--group", group, "--alpha", "0.5", "--mu", mu,
            "--transform", transform, "--n", ",".join(map(str, ns)),
            "--trials", str(trials), "--target", "e", "--seed", str(seed),
            "--threads", "1"]


def _lattice_setup():
    from srrw import cli

    def ops(seed):
        argv = _simulate_argv("lattice:3", "lazy", "identity", LATTICE_NS,
                              LATTICE_TRIALS, seed)
        return [Op("simulate", lambda: cli.render_bytes(argv), _csv_hits)]
    return ops


def _generic_setup():
    from srrw import cli

    def ops(seed):
        argv = _simulate_argv("lattice:1", "gens", "negation", GENERIC_NS,
                              GENERIC_TRIALS, seed)
        return [Op("simulate", lambda: cli.render_bytes(argv), _csv_hits)]
    return ops


def _nonabelian_setup():
    from srrw import estimators, verify
    from srrw.sampler import erw_config

    tree = erw_config(3, TREE_P)
    s3z = verify.s3z_example_config(0.5)
    e = s3z.group.identity()

    def escape_summary(est):
        return {"value": est.value, "stderr": est.stderr,
                "trials": est.trials}

    def ops(seed):
        return [
            Op("tree-return",
               lambda: estimators.point_mass_curve(tree, TREE_NS, (),
                                                   TREE_TRIALS, seed),
               _curve_hits),
            Op("tree-escape",
               lambda: estimators.mc_escape_rate(tree, ESCAPE_N,
                                                 ESCAPE_TRIALS, seed),
               escape_summary),
            Op("s3z-return",
               lambda: estimators.point_mass_curve(s3z, S3Z_NS, e,
                                                   S3Z_TRIALS, seed),
               _curve_hits),
        ]
    return ops


def _verify_setup():
    from srrw import verify

    def rows(results):
        return [{"criterion": r.criterion, "passed": bool(r.passed),
                 "observed": r.observed} for r in results]

    def ops(seed):
        # the suites run at their own fixed seed; `seed` is not used
        return [Op(name, lambda name=name: verify.run_suites([name]), rows)
                for name in VERIFY_SUITES]
    return ops


_SETUP = {
    "lattice-d3": _lattice_setup,
    "nonabelian": _nonabelian_setup,
    "transform-generic": _generic_setup,
    "verify-light": _verify_setup,
}


def setup(name: str):
    """Import srrw and build the workload's configs.  Returns a function
    from a round's srrw seed to that round's list of Ops."""
    return _SETUP[name]()
