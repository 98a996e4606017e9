"""Estimator calibration and the weighted decay fits."""

import math

import pytest

from srrw.estimators import (ball_curve, isolated_tail_check, mc_escape_rate,
                             mc_point_mass, point_mass_curve, rate_fit)
from srrw.groups import IntegerLatticeZd, StepDistribution
from srrw.oracle import exact_distribution
from srrw.sampler import SrrwConfig
from srrw.stats import Estimate, binomial_estimate

WALK1D = SrrwConfig(
    group=IntegerLatticeZd(1), alpha=0.5,
    mu=StepDistribution(support=[((1,), 0.5), ((-1,), 0.5)]))


def test_point_estimates_are_calibrated_across_seeds():
    # the z-scores of 100 independent runs against the exact value should
    # behave like standard normals; more than two 3-sigma events would not
    n, trials = 4, 2000
    p = exact_distribution(WALK1D, n).prob((0,))
    outliers = 0
    zs = []
    for seed in range(100):
        est = mc_point_mass(WALK1D, n, (0,), trials, seed)
        z = (est.value - p) / math.sqrt(p * (1 - p) / trials)
        zs.append(z)
        if abs(z) > 3:
            outliers += 1
    assert outliers <= 2
    mean_z = sum(zs) / len(zs)
    assert abs(mean_z) < 0.5


def test_parity_blocked_return_is_exactly_zero():
    est = mc_point_mass(WALK1D, 7, (0,), 5000, 3)
    assert est.value == 0.0
    assert est.method == "rule_of_three"


def test_curve_sorts_and_dedupes_horizons():
    curve = point_mass_curve(WALK1D, [8, 4, 4], (0,), 2000, 11)
    assert [n for n, _ in curve] == [4, 8]


def test_escape_rate_of_deterministic_drift():
    cfg = SrrwConfig(group=IntegerLatticeZd(1), alpha=0.5,
                     mu=StepDistribution(support=[((1,), 1.0)]))
    est = mc_escape_rate(cfg, 25, 500, 5)
    assert est.value == 1.0
    assert est.stderr == 0.0


def test_rate_fit_recovers_exact_slopes():
    def flat_points(f):
        return [(n, Estimate(value=f(n), stderr=1e-9 * f(n),
                             ci_low=f(n) * 0.999, ci_high=f(n) * 1.001,
                             trials=10 ** 9))
                for n in (8, 16, 32, 64, 128)]

    fit = rate_fit(flat_points(lambda n: 2.0 * n ** -1.5), "power")
    assert math.isclose(fit.slope, -1.5, abs_tol=1e-9)
    assert math.isclose(fit.intercept, math.log(2.0), abs_tol=1e-9)
    assert fit.slope_ci[1] < 0.0
    # residual carries the (value/stderr)^2 weights, so exact data still
    # leaves float noise of order weight * eps^2
    assert fit.residual < 1e-6

    fit = rate_fit(flat_points(lambda n: 0.9 * math.exp(-0.2 * n)), "exp")
    assert math.isclose(fit.slope, -0.2, abs_tol=1e-9)

    fit = rate_fit(
        flat_points(lambda n: math.exp(-0.5 * n ** (1 / 3))), "stretched")
    assert math.isclose(fit.slope, -0.5, abs_tol=1e-9)


def test_rate_fit_drops_uninformative_points():
    good = [(n, binomial_estimate(max(1000 >> i, 20), 10 ** 6))
            for i, n in enumerate((4, 8, 16, 32, 64))]
    zero = (128, binomial_estimate(0, 10 ** 6))
    fit = rate_fit(good + [zero], "power")
    assert fit.dropped == (128,)
    assert len(fit.used) == 5
    with pytest.raises(ValueError, match="at least 4"):
        rate_fit(good[:3] + [zero], "power")
    with pytest.raises(ValueError, match="unknown model"):
        rate_fit(good, "cubic")


def test_rate_fit_weighting_downplays_noisy_points():
    pts = [(n, Estimate(value=n ** -1.0, stderr=1e-8 * n ** -1.0,
                        ci_low=n ** -1.0 * 0.99, ci_high=n ** -1.0 * 1.01,
                        trials=10 ** 8))
           for n in (8, 16, 32, 64)]
    wild = (128, Estimate(value=128 ** -3.0, stderr=50.0 * 128 ** -3.0,
                          ci_low=1e-9, ci_high=1.0, trials=100))
    fit = rate_fit(pts + [wild], "power")
    assert abs(fit.slope + 1.0) < 1e-3


def test_isolated_tail_check_fields_and_pass():
    res = isolated_tail_check(0.5, [400, 600], 20000, seed=17)
    assert [r.n for r in res] == [400, 600]
    for r in res:
        assert r.threshold == 0.5 * r.n / 8
        assert r.bound == min(1.0, 5.0 * math.exp(-3 * 0.5 * r.n / 280))
        assert r.bound < 1.0
        assert r.passed
        # far below the mean isolated count, so nothing should land there
        assert r.estimate.value <= r.bound


def test_class_function_decay_slope_iid_line():
    # alpha = 0 on the line: the return mass falls like n^(-1/2)
    cfg = SrrwConfig(group=IntegerLatticeZd(1), alpha=0.0,
                     mu=StepDistribution(support=[((1,), 0.5), ((-1,), 0.5)]))
    e = cfg.group.identity()
    pts = point_mass_curve(cfg, [8, 16, 32, 64, 128], e, 200000, seed=23)
    fit = rate_fit(pts, "power")
    assert fit.model == "power"
    assert len(fit.used) == 5
    assert -0.62 <= fit.slope <= -0.38


def test_horizons_below_one_are_refused():
    cfg = SrrwConfig(group=IntegerLatticeZd(2), alpha=0.5,
                     mu=StepDistribution.lazy(IntegerLatticeZd(2)))
    for ns in ([], [0, 4], [-1]):
        with pytest.raises(ValueError, match="horizons"):
            point_mass_curve(cfg, ns, (0, 0), 10, 1)
        with pytest.raises(ValueError, match="horizons"):
            ball_curve(cfg, ns, 2.0, 10, 1)
