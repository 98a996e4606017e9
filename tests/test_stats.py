"""Interval estimates: coverage shape, method selection, and edge counts."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srrw.stats import (Z95, Estimate, binomial_estimate, mean_estimate,
                        wilson_interval)


def test_normal_case_is_symmetric():
    est = binomial_estimate(500, 1000)
    assert est.method == "normal"
    assert est.value == 0.5
    assert math.isclose(est.stderr, math.sqrt(0.25 / 1000), abs_tol=1e-15)
    assert math.isclose(est.ci_high - est.value, est.value - est.ci_low,
                        abs_tol=1e-15)
    assert math.isclose(est.ci_high - est.ci_low, 2 * 1.959964 * est.stderr,
                        rel_tol=1e-5)
    assert est.within(0.5)
    assert not est.within(0.6)
    assert est.ci95 == (est.ci_low, est.ci_high)


def test_rule_of_three_at_edges():
    zero = binomial_estimate(0, 1500)
    assert zero.method == "rule_of_three"
    assert zero.value == 0.0
    assert zero.ci_low == 0.0
    assert math.isclose(zero.ci_high, 3.0 / 1500, abs_tol=1e-15)
    full = binomial_estimate(1500, 1500)
    assert full.method == "rule_of_three"
    assert math.isclose(full.ci_low, 1.0 - 3.0 / 1500, abs_tol=1e-15)
    assert full.ci_high == 1.0


def test_wilson_for_sparse_counts():
    est = binomial_estimate(4, 1000)
    assert est.method == "wilson"
    assert est.ci_low > 0.0
    assert est.ci_low < est.value < est.ci_high
    # symmetric in successes vs failures
    mirror = binomial_estimate(996, 1000)
    assert math.isclose(est.ci_low, 1 - mirror.ci_high, abs_tol=1e-12)
    assert math.isclose(est.ci_high, 1 - mirror.ci_low, abs_tol=1e-12)


def test_method_thresholds():
    assert binomial_estimate(9, 1000).method == "wilson"
    assert binomial_estimate(10, 1000).method == "normal"
    assert binomial_estimate(991, 1000).method == "wilson"
    assert binomial_estimate(990, 1000).method == "normal"


def test_binomial_validation():
    with pytest.raises(ValueError):
        binomial_estimate(1, 0)
    with pytest.raises(ValueError):
        binomial_estimate(-1, 10)
    with pytest.raises(ValueError):
        binomial_estimate(11, 10)


@given(st.integers(min_value=0, max_value=2000),
       st.integers(min_value=1, max_value=2000))
@settings(max_examples=200, deadline=None)
def test_interval_always_brackets_point(successes, trials):
    if successes > trials:
        successes = trials
    est = binomial_estimate(successes, trials)
    assert 0.0 <= est.ci_low <= est.value <= est.ci_high <= 1.0


def test_wilson_interval_against_scipy_reference():
    # scipy's own Wilson implementation is an independent formula
    from scipy.stats._binomtest import _binary_search_for_binom_tst  # noqa: F401
    from scipy.stats import binomtest, norm

    # the quantile constant is the exact double scipy returns
    assert Z95 == norm.ppf(0.975)
    for k, n in ((4, 1000), (17, 120), (60, 61)):
        lo, hi = wilson_interval(k, n)
        ref = binomtest(k, n).proportion_ci(confidence_level=0.95,
                                            method="wilson")
        assert math.isclose(lo, ref.low, abs_tol=1e-10)
        assert math.isclose(hi, ref.high, abs_tol=1e-10)


def test_binomial_coverage_simulation():
    # 95% interval should cover near 95% of the time
    rng = np.random.default_rng(7)
    p, n, reps = 0.3, 400, 2000
    covered = 0
    for k in rng.binomial(n, p, size=reps):
        if binomial_estimate(int(k), n).within(p):
            covered += 1
    assert 0.93 <= covered / reps <= 0.97


def test_mean_estimate():
    xs = [1.0, 2.0, 3.0, 4.0]
    est = mean_estimate(sum(xs), sum(x * x for x in xs), len(xs))
    assert est.value == 2.5
    sample_sd = math.sqrt(np.var(xs, ddof=1) / len(xs))
    assert math.isclose(est.stderr, sample_sd, abs_tol=1e-12)
    assert est.within(2.5)
    with pytest.raises(ValueError):
        mean_estimate(1.0, 1.0, 1)


def test_mean_estimate_degenerate_variance():
    # identical samples: float cancellation must not go negative
    est = mean_estimate(5.0 * 10, 25.0 * 10, 10)
    assert est.stderr == 0.0
    assert est.ci_low == est.ci_high == 5.0


def test_estimate_dataclass_fields():
    est = Estimate(value=0.5, stderr=0.1, ci_low=0.3, ci_high=0.7, trials=42)
    assert est.trials == 42
    assert est.method == "normal"
