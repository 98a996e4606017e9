"""Verify rows on their own terms: no clock, and the lattice-decay verdict
on synthetic curves, with no Monte Carlo.

A row must read the same, and reach the same verdict, however fast the host
runs.  A lattice-decay row passes iff the whole 95% CI of the fitted
power-law slope of P(S_n = e) lies at or below the row's upper edge.  The
curves here show that the rule can still fail: a decay too slow for the
edge, and a curve whose CI straddles the edge although its point slope sits
below it.
"""

import time

import pytest

from srrw import verify
from srrw.estimators import rate_fit
from srrw.stats import Estimate, binomial_estimate

NS = [64, 128, 256, 512, 1024]
TRIALS = 10 ** 6
EDGES = {1: -0.3, 2: -0.7, 3: -1.1}

# hit counts of the three lattice-decay rows at the pinned seed
MEASURED = {1: [33726, 22226, 14494, 9738, 6504],
            2: [3121, 1251, 485, 209, 99],
            3: [441, 92, 21, 1, 3]}


def power_curve(slope, rel_err):
    """Exact n^slope masses, each with relative standard error rel_err."""
    pts = []
    for n in NS:
        p = 1e-2 * (n / NS[0]) ** slope
        half = 1.959963984540054 * rel_err * p
        pts.append((n, Estimate(p, rel_err * p, p - half, p + half, TRIALS)))
    return pts


def measured_curve(d):
    return [(n, binomial_estimate(h, TRIALS)) for n, h in zip(NS, MEASURED[d])]


def test_edges():
    assert verify._LATTICE_BOUNDS == EDGES


@pytest.mark.parametrize("d", [1, 2, 3])
def test_too_slow_decay_fails(d):
    fit = rate_fit(power_curve(-d / 2 + 0.6, 0.01), "power")
    assert fit.slope_ci[0] > EDGES[d]
    assert not verify.lattice_decay_verdict(fit, d)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_ci_straddling_the_edge_fails(d):
    fit = rate_fit(power_curve(EDGES[d] - 0.1, 0.3), "power")
    assert fit.slope_ci[0] < fit.slope < EDGES[d] < fit.slope_ci[1]
    assert not verify.lattice_decay_verdict(fit, d)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_decay_steeper_than_the_edge_passes(d):
    # one-sided: any decay faster than the edge is consistent with the bound
    for slope in (EDGES[d] - 0.1, -d / 2, -d / 2 - 1.0):
        fit = rate_fit(power_curve(slope, 0.01), "power")
        assert fit.slope_ci[1] < EDGES[d]
        assert verify.lattice_decay_verdict(fit, d)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_measured_curves_pass(d):
    fit = rate_fit(measured_curve(d), "power")
    assert verify.lattice_decay_verdict(fit, d)


def test_measured_d3_row_reads_the_same():
    pts = measured_curve(3)
    fit = rate_fit(pts, "power")
    assert verify.lattice_decay_observed(pts, fit) == (
        "slope = -2.158, CI (-2.361, -1.955); hits 441/92/21/1/3 in 1000000 "
        "trials at n = 64/128/256/512/1024; fit used n = 64,128,256,512,1024, "
        "dropped none")


def test_observed_names_dropped_horizons():
    pts = power_curve(-1.5, 0.01) + [(2048, binomial_estimate(0, TRIALS))]
    fit = rate_fit(pts, "power")
    text = verify.lattice_decay_observed(pts, fit)
    assert "hits 10000/3536/1250/442/156/0 in 1000000 trials" in text
    assert text.endswith("fit used n = 64,128,256,512,1024, dropped 2048")


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
