"""Correctness checks of each workload's outputs against exact references.

Counts from rounds with distinct seeds are pooled, then each checked
horizon must agree with its exact probability within ``Z_MAX`` binomial
standard deviations.  At ``Z_MAX = 4.5`` a correct engine fails one
horizon check in about 150 000, while a count moved by 5 sigma, or drawn
from the alpha = 0 law, fails.  A horizon whose exact probability is 0
must have no hit at all.
"""

from __future__ import annotations

import math
import re

import reference
import workloads as W

Z_MAX = 4.5


def references(name: str) -> dict:
    """Exact probabilities the workload's counts are checked against."""
    if name == "lattice-d3":
        return {"simulate": reference.lattice_return_probs(
            3, 0.5, W.LATTICE_CHECK_NS)}
    if name == "nonabelian":
        tree = reference.tree_elephant_law(3, W.TREE_P, max(W.TREE_CHECK_NS))
        return {"tree-return": {n: tree[n] for n in W.TREE_CHECK_NS},
                "s3z-return": reference.s3z_return_probs(0.5,
                                                         W.S3Z_CHECK_NS)}
    if name == "transform-generic":
        return {"simulate": reference.memory_walk_return(0.5, W.GENERIC_NS)}
    return {}


def z_score(hits: int, trials: int, p: float) -> float:
    return (hits - trials * p) / math.sqrt(trials * p * (1.0 - p))


def pooled(outputs, op: str) -> dict:
    """{"trials": T, "hits": {n: h}} summed over every round's op output."""
    trials, hits = 0, {}
    for out in outputs[op]:
        trials += out["trials"]
        for n, h in out["hits"].items():
            hits[int(n)] = hits.get(int(n), 0) + h
    return {"trials": trials, "hits": hits}


def count_problems(label: str, counts: dict, exact: dict) -> list:
    """Horizons whose pooled count disagrees with the exact probability."""
    out = []
    for n, p in sorted(exact.items()):
        h = counts["hits"][n]
        if p == 0.0:
            if h:
                out.append(f"{label} n={n}: {h} hits where P = 0")
            continue
        z = z_score(h, counts["trials"], p)
        if abs(z) > Z_MAX:
            out.append(f"{label} n={n}: z = {z:.2f} ({h} hits in "
                       f"{counts['trials']}, exact P = {p:.6g})")
    return out


def lamplighter_counts(observed: str) -> list:
    """Hit counts from the lamplighter row's ``counts [...]`` text."""
    m = re.search(r"counts \[([0-9, ]+)\]", observed)
    if m is None:
        raise ValueError(f"no counts in lamplighter row {observed!r}")
    return [int(x) for x in m.group(1).split(",")]


def problems(name: str, outputs: dict, refs: dict) -> list:
    """Every disagreement in a run; empty means the outputs are correct.

    ``outputs`` maps each op name to the list of its outputs over the
    run's rounds (failed ops left out).
    """
    out = []
    if name in ("lattice-d3", "transform-generic"):
        if outputs["simulate"]:
            out += count_problems("simulate", pooled(outputs, "simulate"),
                                  refs["simulate"])
    elif name == "nonabelian":
        if outputs["tree-return"]:
            tree = pooled(outputs, "tree-return")
            out += count_problems("tree", tree, refs["tree-return"])
            out += count_problems("tree", tree, {W.TREE_ODD_N: 0.0})
        for est in outputs["tree-escape"]:
            if not 0.0 < est["value"] <= 1.0:
                out.append(f"escape speed {est['value']} outside (0, 1]")
        if outputs["s3z-return"]:
            out += count_problems("s3z", pooled(outputs, "s3z-return"),
                                  refs["s3z-return"])
    elif name == "verify-light":
        for suite, runs in outputs.items():
            for rows in runs:
                if not rows:
                    out.append(f"{suite}: no rows")
                out += [f"{suite}: {r['criterion']} failed: {r['observed']}"
                        for r in rows if not r["passed"]]
    return out
