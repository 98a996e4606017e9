"""Verify rows on their own terms: no clock, the fitted-decay rule on
synthetic curves, with no Monte Carlo, and the isolated-tails threshold.

A row must read the same, and reach the same verdict, however fast the host
runs.  Every fitted decay row passes iff the whole 95% CI of its fitted
slope lies at or below the row's upper edge.  The curves here show that the
rule can still fail, on the power-law, exponential and stretched models
alike: a decay too slow for the edge, a curve whose CI straddles the edge
although its point slope sits below it, and a curve with too few informative
horizons to fit.
"""

import math
import time

import numpy as np
import pytest

from srrw import estimators, verify
from srrw.oracle import isolated_log_laws
from srrw.stats import Estimate, binomial_estimate

NS = [64, 128, 256, 512, 1024]
TRIALS = 10 ** 6
EDGES = {1: -0.3, 2: -0.7, 3: -1.1}
X = {"power": math.log, "exp": float, "stretched": lambda n: n ** (1 / 3)}

# (model, horizons, edge): the three lattice rows by dimension, then the
# sign-only edge on the tree rows' and the lamplighter row's horizons
CASES = {"1": ("power", NS, -0.3), "2": ("power", NS, -0.7),
         "3": ("power", NS, -1.1),
         "exp": ("exp", [10, 20, 30, 40, 50, 60], 0.0),
         "stretched": ("stretched", [8, 16, 24, 32, 48, 64], 0.0)}

# hit counts of the three lattice-decay rows at the pinned seed
MEASURED = {1: [34010, 22204, 14608, 9599, 6534],
            2: [3196, 1286, 525, 204, 119],
            3: [485, 94, 31, 6, 3]}


def curve(model, ns, slope, rel_err):
    """Masses exp(slope * (x(n) - x(n_0))) / 100, each with relative
    standard error rel_err."""
    pts = []
    for n in ns:
        p = 1e-2 * math.exp(slope * (X[model](n) - X[model](ns[0])))
        half = 1.959963984540054 * rel_err * p
        pts.append((n, Estimate(p, rel_err * p, p - half, p + half, TRIALS)))
    return pts


def case_slope(case, offset):
    """The slope ``offset`` from the case's edge, in units that span the
    same change of log p over its horizons as 1 does over 64..1024 on the
    power-law model."""
    model, ns, edge = CASES[case]
    unit = math.log(16) / (X[model](ns[-1]) - X[model](ns[0]))
    return edge + offset * unit


def row(case, slope, rel_err):
    model, ns, edge = CASES[case]
    return verify._decay_row("synthetic", curve(model, ns, slope, rel_err),
                             model, edge, "claim", "reason")


def slope_ci(observed):
    """(slope, CI low, CI high) read back from a fitted row's text."""
    head = observed.split(";")[0]
    slope = float(head.split(",")[0].split("= ")[1])
    lo, hi = head.split("CI (")[1].rstrip(")").split(", ")
    return slope, float(lo), float(hi)


def measured_curve(d):
    return [(n, binomial_estimate(h, TRIALS)) for n, h in zip(NS, MEASURED[d])]


def test_edges():
    assert verify._LATTICE_BOUNDS == EDGES
    assert verify._CLASS_EDGE == EDGES[1]
    assert verify._SIGN_EDGE == 0.0


@pytest.mark.parametrize("case", list(CASES))
def test_too_slow_decay_fails(case):
    r = row(case, case_slope(case, 0.2), 0.01)
    assert slope_ci(r.observed)[1] > CASES[case][2]
    assert not r.passed


@pytest.mark.parametrize("case", list(CASES))
def test_ci_straddling_the_edge_fails(case):
    r = row(case, case_slope(case, -0.1), 0.3)
    slope, lo, hi = slope_ci(r.observed)
    assert lo < slope < CASES[case][2] < hi
    assert not r.passed


@pytest.mark.parametrize("case", list(CASES))
def test_decay_steeper_than_the_edge_passes(case):
    # one-sided: any decay faster than the edge is consistent with the bound
    for offset in (-0.1, -0.4, -1.4):
        r = row(case, case_slope(case, offset), 0.01)
        assert slope_ci(r.observed)[2] < CASES[case][2]
        assert r.passed


@pytest.mark.parametrize("d", [1, 2, 3])
def test_measured_curves_pass(d):
    assert verify._decay_row("lattice", measured_curve(d), "power", EDGES[d],
                             "claim", "reason").passed


def test_measured_d3_row_reads_the_same():
    r = verify._decay_row("lattice-decay-d3", measured_curve(3), "power",
                          EDGES[3], "claim", "reason")
    assert r.observed == (
        "slope = -2.0778, CI (-2.2518, -1.9038); counts [485, 94, 31, 6, 3] "
        "in 1000000 trials at n = [64, 128, 256, 512, 1024]; fit used "
        "n = [64, 128, 256, 512, 1024], dropped []")
    assert r.tolerance == "one-sided: 95% CI upper edge <= -1.1 (reason)"


def test_observed_names_dropped_horizons():
    pts = curve("power", NS, -1.5, 0.01) + [(2048,
                                             binomial_estimate(0, TRIALS))]
    text = verify._decay_row("x", pts, "power", -1.1, "claim",
                             "reason").observed
    assert ("counts [10000, 3536, 1250, 442, 156, 0] in 1000000 trials"
            in text)
    assert text.endswith(
        "fit used n = [64, 128, 256, 512, 1024], dropped [2048]")


@pytest.mark.parametrize("model", ["power", "exp", "stretched"])
def test_too_few_informative_horizons_fail_with_their_counts(model):
    # the old tree rule passed a curve whose tail had no hits at all
    hits = [400, 40, 4, 0, 0]
    pts = [(n, binomial_estimate(h, TRIALS)) for n, h in zip(NS, hits)]
    r = verify._decay_row("x", pts, model, 0.0, "claim", "reason")
    assert not r.passed
    assert r.observed == (
        "no fit: rate_fit needs at least 4 informative points, got 3; "
        "counts [400, 40, 4, 0, 0] in 1000000 trials at "
        "n = [64, 128, 256, 512, 1024]")


def _suite_on(monkeypatch, suite, pts):
    """The rows of ``suite`` with every curve replaced by ``pts``."""
    monkeypatch.setattr(estimators, "point_mass_curve",
                        lambda *args, **kwargs: pts)
    return suite()


@pytest.mark.parametrize("slope, passed", [(-0.9, True), (-0.25, False)])
def test_class_function_row_is_one_sided(monkeypatch, slope, passed):
    # -0.9 was outside the former window [-0.7, -0.3] and failed
    [r] = _suite_on(monkeypatch, verify.suite_class_function,
                    curve("power", NS, slope, 0.01))
    assert r.passed is passed
    assert r.tolerance.startswith("one-sided: 95% CI upper edge <= -0.3 (")


def test_lamplighter_row_needs_decreasing_counts(monkeypatch):
    ns = CASES["stretched"][1]
    pts = curve("stretched", ns, -2.0, 0.01)
    [r] = _suite_on(monkeypatch, verify.suite_lamplighter, pts)
    assert r.passed
    # swapped counts at n = 32 and 48: the CI still clears the edge
    pts[3], pts[4] = (ns[3], pts[4][1]), (ns[4], pts[3][1])
    [r] = _suite_on(monkeypatch, verify.suite_lamplighter, pts)
    assert slope_ci(r.observed)[2] < 0
    assert not r.passed


def _rows_under_clock(monkeypatch, step):
    """Rows of two exact suites while every clock read advances by step."""
    now = [0.0]

    def tick():
        now[0] += step
        return now[0]

    with monkeypatch.context() as m:
        m.setattr(time, "time", tick)
        m.setattr(time, "perf_counter", tick)
        return verify.run_suites(["z2-sandwich", "oracle-agreement"])


def test_rows_do_not_depend_on_the_clock(monkeypatch):
    fast = _rows_under_clock(monkeypatch, 0.01)
    slow = _rows_under_clock(monkeypatch, 40.0)
    assert all(r.passed for r in fast + slow)
    assert [r.as_json() for r in fast] == [r.as_json() for r in slow]


@pytest.mark.parametrize("alpha, n, k, tail", [
    # the float product (1 - 0.8) * 200 / 8 is 4.999999999999999, which
    # would leave out I = 5 and read a tail of 1.97e-6
    (0.8, 200, 5, 9.548e-6),
    (0.9, 2000, 25, 3.274e-21)])
def test_isolated_tail_threshold_floors_the_decimal_alpha(alpha, n, k, tail):
    assert verify._tail_threshold(alpha, n) == k
    for _, logs in isolated_log_laws(alpha, n):
        pass
    assert math.isclose(math.exp(np.logaddexp.reduce(logs[:k + 1])), tail,
                        rel_tol=1e-3)
