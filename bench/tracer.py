"""Per-layer tracing of srrw from outside the package.

``Tracer.install`` wraps the public functions listed in ``TIMED`` and the
per-step functions in ``COUNTED``.  Several srrw modules bind functions with
``from ... import``, so each wrapper replaces the original under every name
that any loaded srrw module (or the package itself) holds for it, and
``uninstall`` puts the originals back.

A timed wrapper records a span (id, parent id, name, start, end) and adds
its duration to the parent span's child time, so a function's self time is
its duration minus that of the traced calls made inside it.  Per-step
functions are only counted: timing them would cost more than they do.
Spans stay in memory until the caller writes them out.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import defaultdict

from workloads import VERIFY_SUITES


def _bound(fn, args, kwargs) -> dict:
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _trials_by_horizon(fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    return a["trials"] * max(int(c) for c in a["checkpoints"])


def _trials_by_n(fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    return a["trials"] * a["n"]


def _walk_steps(fn, args, kwargs, result):
    return len(result.steps)


def _enumerated(fn, args, kwargs, result):
    return result.enumeration_count


def _byte_count(fn, args, kwargs, result):
    return len(result)


# (module, function, work counter or None).  Work feeds the per-layer rates:
# trial-steps for the engines, steps for sample_walk, trial-vertices for
# isolated_counts_batch, enumerated outcomes for exact_distribution, bytes
# for csv_bytes.
TIMED = [
    ("fastpaths", "lattice_target_hits", _trials_by_horizon),
    ("fastpaths", "lattice_ball_hits", None),
    ("fastpaths", "gaussian_ball_hits", None),
    ("fastpaths", "tree_erw_origin_hits", _trials_by_horizon),
    ("fastpaths", "tree_erw_distance_sums", _trials_by_n),
    ("fastpaths", "s3z_target_hits", _trials_by_horizon),
    ("fastpaths", "cyclic_histogram", None),
    ("fastpaths", "lamplighter_origin_hits", None),
    ("fastpaths", "masked_set_walk", None),
    ("sampler", "sample_walk", _walk_steps),
    ("rng", "stream", None),
    ("stats", "binomial_estimate", None),
    ("stats", "mean_estimate", None),
    ("stats", "wilson_interval", None),
    ("forest", "grow", None),
    ("forest", "assign_and_assemble", None),
    ("forest", "isolated_counts_batch", _trials_by_n),
    ("oracle", "exact_distribution", _enumerated),
    ("oracle", "exact_isolated_distribution", None),
    ("elephant", "lambda_table", None),
    ("elephant", "decay_bound_sweep", None),
    ("elephant", "cycle_distribution", None),
    ("evolving", "martingale_defect", None),
    ("evolving", "iso_profile", None),
    ("evolving", "psi_profile", None),
    ("cli", "render_bytes", None),
    ("reports", "csv_bytes", _byte_count),
]

# Every public function of estimators is timed too, for estimators.self_s.
SELF_TIMED_MODULES = ("estimators",)

# Methods counted on every group class that defines them.
COUNTED = [("groups", "multiply")]


class Tracer:
    """Wraps srrw functions while installed; accumulates per-function stats
    and spans until ``take`` hands them over."""

    def __init__(self):
        self._stack: list = []
        self._depth: dict = defaultdict(int)
        self._patches: list = []
        self._clock0 = time.perf_counter()
        self.reset()

    def reset(self):
        self.stats = defaultdict(lambda: {"calls": 0, "busy_s": 0.0,
                                          "self_s": 0.0, "work": 0})
        self.spans: list = []

    def take(self):
        """Return (stats, spans) gathered since the last take, and reset."""
        out = ({k: dict(v) for k, v in self.stats.items()}, self.spans)
        self.reset()
        return out

    def _timed(self, name, fn, work):
        stack, depth, clock0 = self._stack, self._depth, self._clock0

        def wrapper(*args, **kwargs):
            spans = self.spans
            span_id = len(spans)
            parent = stack[-1][0] if stack else -1
            spans.append(None)
            depth[name] += 1
            stack.append([span_id, 0.0])
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                _, child = stack.pop()
                depth[name] -= 1
                dt = t1 - t0
                if stack:
                    stack[-1][1] += dt
                st = self.stats[name]
                st["calls"] += 1
                st["self_s"] += dt - child
                if depth[name] == 0:  # a recursive call is busy time once
                    st["busy_s"] += dt
                spans[span_id] = (span_id, parent, name, t0 - clock0,
                                  t1 - clock0)
            if work is not None:
                st["work"] += work(fn, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name, fn):
        def wrapper(*args, **kwargs):
            self.stats[name]["calls"] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        for mod in {t[0] for t in TIMED} | {t[0] for t in COUNTED}:
            importlib.import_module(f"srrw.{mod}")
        mods = {k: m for k, m in sys.modules.items()
                if (k == "srrw" or k.startswith("srrw.")) and m is not None}
        targets = list(TIMED)
        for mod in SELF_TIMED_MODULES:
            m = mods[f"srrw.{mod}"]
            for fname, obj in vars(m).items():
                if (inspect.isfunction(obj) and not fname.startswith("_")
                        and obj.__module__ == m.__name__):
                    targets.append((mod, fname, None))
        for mod, fname, work in targets:
            orig = getattr(mods[f"srrw.{mod}"], fname)
            wrapped = self._timed(f"{mod}.{fname}", orig, work)
            for m in mods.values():
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        self._patches.append((m, attr, orig))
                        setattr(m, attr, wrapped)
        for mod, meth in COUNTED:
            m = mods[f"srrw.{mod}"]
            for cls in vars(m).values():
                if inspect.isclass(cls) and meth in vars(cls):
                    orig = vars(cls)[meth]
                    self._patches.append((cls, meth, orig))
                    setattr(cls, meth, self._counted(f"{mod}.{meth}", orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches = []


def _rate(work, seconds):
    return work / seconds if seconds > 0 else 0.0


def layer_metrics(stats: dict, op_seconds: dict) -> dict:
    """Per-layer metric values of one traced round.

    ``stats`` comes from ``Tracer.take``; ``op_seconds`` maps each of the
    round's operations to its wall time (the verify suites' times).
    """
    def st(name):
        return stats.get(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                                "work": 0})

    out = {}
    for eng in ("lattice_target_hits", "tree_erw_origin_hits",
                "tree_erw_distance_sums", "s3z_target_hits"):
        s = st(f"fastpaths.{eng}")
        out[f"fastpaths.{eng}.busy_s"] = s["busy_s"]
        out[f"fastpaths.{eng}.trial_steps_per_s"] = _rate(s["work"],
                                                          s["busy_s"])
    for eng in ("cyclic_histogram", "lamplighter_origin_hits",
                "masked_set_walk"):
        out[f"fastpaths.{eng}.busy_s"] = st(f"fastpaths.{eng}")["busy_s"]
    out["estimators.self_s"] = sum(v["self_s"] for k, v in stats.items()
                                   if k.startswith("estimators."))
    walk = st("sampler.sample_walk")
    out["sampler.sample_walk.calls"] = walk["calls"]
    out["sampler.sample_walk.busy_s"] = walk["busy_s"]
    out["sampler.sample_walk.steps_per_s"] = _rate(walk["work"],
                                                   walk["busy_s"])
    mult = st("groups.multiply")["calls"]
    out["groups.multiply.calls"] = mult
    out["groups.multiply.calls_per_step"] = (mult / walk["work"]
                                             if walk["work"] else 0.0)
    out["rng.stream.calls"] = st("rng.stream")["calls"]
    out["rng.stream.busy_s"] = st("rng.stream")["busy_s"]
    iso = st("forest.isolated_counts_batch")
    out["forest.isolated_counts_batch.busy_s"] = iso["busy_s"]
    out["forest.isolated_counts_batch.trial_vertices_per_s"] = _rate(
        iso["work"], iso["busy_s"])
    exact = st("oracle.exact_distribution")
    out["oracle.exact_distribution.busy_s"] = exact["busy_s"]
    out["oracle.exact_distribution.enumeration_count"] = exact["work"]
    for name in ("oracle.exact_isolated_distribution", "elephant.lambda_table",
                 "elephant.decay_bound_sweep", "elephant.cycle_distribution",
                 "evolving.martingale_defect", "evolving.iso_profile",
                 "evolving.psi_profile"):
        out[f"{name}.busy_s"] = st(name)["busy_s"]
    for suite in VERIFY_SUITES:
        out[f"verify.{suite}.s"] = op_seconds.get(suite, 0.0)
    out["cli.render_bytes.self_s"] = st("cli.render_bytes")["self_s"]
    out["reports.csv_bytes.bytes"] = st("reports.csv_bytes")["work"]
    return out
