"""The acceptance gate: every shipped claim, one line per criterion.

All suites run once per session at the pinned seed; each criterion then
asserts its own pass flag, so ``pytest -v`` prints a pass/fail line per
claim.  Every fitted decay row (lattice, tree, class-function, lamplighter)
checks the paper's one-sided claim: the 95% CI of the fitted
return-probability slope must lie at or below the row's stated upper edge.
The paper bounds transition probabilities from above only, so no row has a
lower edge; the tree and lamplighter rows check only the sign.

The benchmark reads the lamplighter row's hit counts back out of its text,
so one test here runs its parser on the row.
"""

import os
from pathlib import Path

import pytest

from srrw import verify

BENCH = Path(__file__).resolve().parents[1] / "bench"

CRITERIA = [
    "z2-sandwich",
    "oracle-return-gap",
    "oracle-cycle-inversion",
    "sampler-triangle-L2-sequential",
    "sampler-triangle-L2-forest",
    "sampler-triangle-L3-sequential",
    "sampler-triangle-L3-forest",
    "lambda-bounds",
    "decay-envelope",
    "isolated-tails",
    "isolated-exact-vs-mc",
    "lattice-decay-d1",
    "lattice-decay-d2",
    "lattice-decay-d3",
    "tree-erw-decay-p0",
    "tree-erw-decay-p0.3",
    "tree-erw-decay-p0.6",
    "tree-erw-escape-p0",
    "tree-erw-escape-p0.3",
    "tree-erw-escape-p0.6",
    "evolving-martingale",
    "evolving-trajectory-law",
    "evolving-root-growth",
    "psi-bottleneck-L8",
    "psi-bottleneck-L12",
    "class-function-decay",
    "lamplighter-trend",
    "thread-determinism",
]


@pytest.fixture(scope="session")
def results():
    threads = min(4, os.cpu_count() or 1)
    rows = verify.run_suites(list(verify.SUITES), seed=verify.DEFAULT_SEED,
                             threads=threads)
    return {r.criterion: r for r in rows}


def test_every_criterion_is_reported_once(results):
    assert sorted(results) == sorted(CRITERIA)


@pytest.mark.parametrize("criterion", CRITERIA)
def test_criterion(results, criterion):
    r = results[criterion]
    assert r.passed, (
        f"{criterion}: expected {r.expected}; observed {r.observed} "
        f"(tolerance {r.tolerance}, seed {verify.DEFAULT_SEED})")


def test_lamplighter_counts_parse_for_the_benchmark(results, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import checks

    counts = checks.lamplighter_counts(results["lamplighter-trend"].observed)
    assert len(counts) == 6
    assert all(isinstance(c, int) and c > 0 for c in counts)
