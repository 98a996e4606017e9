"""Tests of the benchmark's exact references and workload checks.

    python3 -m pytest bench/tests

Each reference must reduce to the i.i.d. walk at alpha = 0 (p = 1/3 on the
tree), computed here by plain convolution, and match hand-computed values
at n = 2.  Each workload check must accept counts at the exact mean and
reject a count moved by 5 sigma or drawn from the alpha = 0 law.
"""

from __future__ import annotations

import math
import sys
from collections import defaultdict
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402
import reference as R  # noqa: E402
import workloads as W  # noqa: E402


def iid_return(atoms, weights, multiply, identity, ns):
    """P(S_n = e) of the walk with i.i.d. steps, by repeated convolution."""
    law = {identity: 1.0}
    out = {}
    for n in range(1, max(ns) + 1):
        nxt = defaultdict(float)
        for g, p in law.items():
            for a, w in zip(atoms, weights):
                nxt[multiply(g, a)] += p * w
        law = nxt
        if n in ns:
            out[n] = law.get(identity, 0.0)
    return out


def tree_iid_return(d, n_max):
    """Simple random walk on the d-regular tree, by distance from the root."""
    dist = {0: 1.0}
    out = [1.0]
    for _ in range(n_max):
        nxt = defaultdict(float)
        for k, p in dist.items():
            if k == 0:
                nxt[1] += p
            else:
                nxt[k - 1] += p / d
                nxt[k + 1] += p * (d - 1) / d
        dist = nxt
        out.append(dist.get(0, 0.0))
    return out


def add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def test_lattice_reduces_to_iid_at_alpha_zero():
    atoms, weights = R.lazy_lattice_atoms(3)
    ns = (1, 2, 3, 4, 6, 8)
    iid = iid_return(atoms, weights, add, (0, 0, 0), ns)
    got = R.lattice_return_probs(3, 0.0, ns)
    for n in ns:
        assert got[n] == pytest.approx(iid[n], abs=1e-14)


def test_lattice_n2_by_hand_and_both_urn_routes_agree():
    a = 0.5
    # both steps lazy, or a move followed by its opposite
    by_hand = 0.5 * (0.5 + a / 2) + 6 * (1 / 12) * (1 - a) / 12
    assert R.lattice_return_probs(3, a, (2,))[2] == pytest.approx(by_hand)
    atoms, weights = R.lazy_lattice_atoms(3)
    ns = (2, 3, 4, 5, 6)
    full = R.identity_replay_law(a, atoms, weights, add, (0, 0, 0), ns)
    counts = R.lattice_return_probs(3, a, ns)
    for n in ns:
        assert full[n].get((0, 0, 0), 0.0) == pytest.approx(counts[n],
                                                            abs=1e-14)


def test_s3z_reduces_to_iid_at_alpha_zero():
    ns = (2, 4, 6)
    w = [1 / 5] * 5
    iid = iid_return(R.S3Z_GENERATORS, w, R.s3z_multiply, R.S3Z_IDENTITY, ns)
    got = R.s3z_return_probs(0.0, ns)
    for n in ns:
        assert got[n] == pytest.approx(iid[n], abs=1e-14)


def test_s3z_product_applies_left_factor_first():
    s, t = ((1, 0, 2), 0), ((2, 1, 0), 0)  # (01) then (02)
    assert R.s3z_multiply(s, t) == ((1, 2, 0), 0)
    # the three transpositions are involutions: P(S_2 = e) by hand
    a = 0.5
    p2 = 3 * (1 / 5) * ((1 - a) / 5 + a) + 2 * (1 / 5) * (1 - a) / 5
    assert R.s3z_return_probs(a, (2,))[2] == pytest.approx(p2)


def test_tree_reduces_to_iid_at_one_third():
    assert R.tree_elephant_law(3, 1 / 3, 10) == pytest.approx(
        tree_iid_return(3, 10), abs=1e-14)


def test_tree_n2_is_the_memory_parameter_and_odd_n_never_returns():
    law = R.tree_elephant_law(3, 0.3, 11)
    assert law[2] == pytest.approx(0.3)
    assert all(law[n] == 0.0 for n in range(1, 12, 2))


def test_memory_walk_reduces_to_simple_walk_at_alpha_zero():
    ns = (2, 16, 64, 256)
    got = R.memory_walk_return(0.0, ns)
    for n in ns:
        assert got[n] == pytest.approx(math.comb(n, n // 2) / 2 ** n,
                                       rel=1e-12)


def test_memory_walk_n2_by_hand():
    a = 0.5
    # the second step negates the first w.p. alpha, else is a fair coin
    assert R.memory_walk_return(a, (2,))[2] == pytest.approx(0.5 + a / 2)


# --- the workload checks -------------------------------------------------

def counts_from(probs, trials, shift_sigma=0.0):
    """Counts at the exact mean, optionally moved by shift_sigma sigmas."""
    hits = {}
    for n, p in probs.items():
        sd = math.sqrt(trials * p * (1 - p))
        hits[str(n)] = round(trials * p + shift_sigma * sd)
    return {"trials": trials, "hits": hits}


def lattice_outputs(probs):
    return {"simulate": [counts_from(probs, W.LATTICE_TRIALS)]}


def test_lattice_check_accepts_the_law_and_rejects_wrong_counts():
    refs = checks.references("lattice-d3")
    exact = refs["simulate"]
    assert checks.problems("lattice-d3", lattice_outputs(exact), refs) == []
    wrong = R.lattice_return_probs(3, 0.0, W.LATTICE_CHECK_NS)
    assert checks.problems("lattice-d3", lattice_outputs(wrong), refs)
    moved = {"simulate": [counts_from(exact, W.LATTICE_TRIALS, 5.0)]}
    assert checks.problems("lattice-d3", moved, refs)


def nonabelian_outputs(tree, s3z, escape=0.33, odd_hits=0, shift=0.0):
    t = counts_from(tree, W.TREE_TRIALS, shift)
    t["hits"][str(W.TREE_ODD_N)] = odd_hits
    return {"tree-return": [t],
            "tree-escape": [{"value": escape, "stderr": 1e-3,
                             "trials": W.ESCAPE_TRIALS}],
            "s3z-return": [counts_from(s3z, W.S3Z_TRIALS, shift)]}


def test_nonabelian_check_accepts_the_law_and_rejects_wrong_outputs():
    refs = checks.references("nonabelian")
    tree, s3z = refs["tree-return"], refs["s3z-return"]
    ok = nonabelian_outputs(tree, s3z)
    assert checks.problems("nonabelian", ok, refs) == []
    iid = R.tree_elephant_law(3, 1 / 3, max(W.TREE_CHECK_NS))
    iid_tree = {n: iid[n] for n in W.TREE_CHECK_NS}
    assert checks.problems("nonabelian", nonabelian_outputs(iid_tree, s3z),
                           refs)
    iid_s3z = R.s3z_return_probs(0.0, W.S3Z_CHECK_NS)
    assert checks.problems("nonabelian", nonabelian_outputs(tree, iid_s3z),
                           refs)
    assert checks.problems("nonabelian",
                           nonabelian_outputs(tree, s3z, shift=5.0), refs)
    assert checks.problems("nonabelian",
                           nonabelian_outputs(tree, s3z, odd_hits=1), refs)
    for speed in (0.0, 1.5):
        assert checks.problems("nonabelian",
                               nonabelian_outputs(tree, s3z, escape=speed),
                               refs)


def test_generic_check_accepts_the_law_and_rejects_wrong_counts():
    refs = checks.references("transform-generic")
    exact = refs["simulate"]
    out = {"simulate": [counts_from(exact, W.GENERIC_TRIALS)]}
    assert checks.problems("transform-generic", out, refs) == []
    srw = R.memory_walk_return(0.0, W.GENERIC_NS)
    out = {"simulate": [counts_from(srw, W.GENERIC_TRIALS)]}
    assert checks.problems("transform-generic", out, refs)
    out = {"simulate": [counts_from(exact, W.GENERIC_TRIALS, 5.0)]}
    assert checks.problems("transform-generic", out, refs)


def test_pooling_sums_rounds():
    a = {"trials": 10, "hits": {"8": 3}}
    b = {"trials": 20, "hits": {"8": 4}}
    assert checks.pooled({"x": [a, b]}, "x") == {"trials": 30,
                                                 "hits": {8: 7}}


def test_verify_check_rejects_a_failed_row():
    row = {"criterion": "lamplighter-trend", "passed": True,
           "observed": "counts [80087, 24327, 10672, 5915, 2209, 1058], "
                       "slope = -2.23, 7s"}
    ok = {"lamplighter": [[row]]}
    assert checks.problems("verify-light", ok, {}) == []
    bad = {"lamplighter": [[dict(row, passed=False)]]}
    assert checks.problems("verify-light", bad, {})
    assert checks.problems("verify-light", {"lamplighter": [[]]}, {})
    assert checks.lamplighter_counts(row["observed"])[-1] == 1058
