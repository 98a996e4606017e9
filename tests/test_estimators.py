"""Estimator calibration and the weighted decay fits."""

import math

import numpy as np
import pytest

from srrw import estimators, fastpaths, verify
from srrw.estimators import (ball_curve, mc_escape_rate, mc_histogram,
                             mc_point_mass, point_mass_curve, rate_fit)
from srrw.groups import (CycleZL, EuclideanRd, IntegerLatticeZd, LamplighterZ,
                         RegularTreeFree, StepDistribution)
from srrw.oracle import exact_distribution
from srrw.sampler import (ErwRotation, HistoryDependent, Identity, IidSign,
                          Negation, SrrwConfig, erw_config,
                          transform_from_literal)
from srrw.stats import Estimate, binomial_estimate, mean_estimate

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


def _lazy(group):
    return SrrwConfig(group=group, alpha=0.5,
                      mu=StepDistribution.lazy(group))


def _law(cfg):
    """Atoms and weights of cfg's codes: mu's support under the identity;
    under a table, mu's atoms and then any only a replay reaches."""
    sup = (cfg.mu.support if isinstance(cfg.transform, Identity)
           else cfg.transform.replay_table(cfg.group, cfg.mu)[0])
    return [g for g, _ in sup], [w for _, w in sup]


def _replay(cfg):
    return cfg.transform.replay_table(cfg.group, cfg.mu)[1]


def test_trials_and_horizons_below_one_are_refused_everywhere():
    cyc, lat = _lazy(CycleZL(5)), _lazy(IntegerLatticeZd(1))
    tree = erw_config(3, 0.3)
    for n, trials, reason in ((4, 0, "trials"), (4, -3, "trials"),
                              (0, 10, "horizons")):
        calls = (lambda: point_mass_curve(lat, [n], (0,), trials, 1),
                 lambda: point_mass_curve(cyc, [n], 0, trials, 1),
                 lambda: ball_curve(lat, [n], 2.0, trials, 1),
                 lambda: mc_histogram(cyc, n, trials, 1),
                 lambda: mc_histogram(lat, n, trials, 1),
                 lambda: mc_escape_rate(tree, n, trials, 1),
                 lambda: mc_escape_rate(lat, n, trials, 1))
        for call in calls:
            with pytest.raises(ValueError, match=reason):
                call()


def test_engine_serves_each_matching_config(monkeypatch):
    # with the per-trial route disabled, each entry point returns exactly
    # what its engine returns when called directly
    def refuse(*args, **kwargs):
        raise AssertionError("per-trial route taken")

    monkeypatch.setattr(estimators, "_per_trial", refuse)
    ns, trials, seed = [4, 8], 3000, 7

    def curve(hits):
        return [(n, binomial_estimate(hits[n], trials)) for n in ns]

    z3, z2 = _lazy(IntegerLatticeZd(3)), _lazy(IntegerLatticeZd(2))
    atoms, weights = _law(z3)
    assert point_mass_curve(z3, ns, (0, 0, 0), trials, seed) == curve(
        fastpaths.lattice_target_hits(np.array(atoms), weights, 0.5, ns,
                                      (0, 0, 0), trials, seed))
    atoms, weights = _law(z2)
    assert ball_curve(z2, ns, 2.5, trials, seed) == curve(
        fastpaths.lattice_ball_hits(np.array(atoms), weights, 0.5, ns, 2.5,
                                    trials, seed))
    rd = SrrwConfig(group=EuclideanRd(2), alpha=0.5,
                    mu=StepDistribution(family="gaussian"))
    assert ball_curve(rd, ns, 1.5, trials, seed) == curve(
        fastpaths.gaussian_ball_hits(2, 0.5, ns, 1.5, trials, seed))
    s3z = verify.s3z_example_config(0.5)
    atoms, weights = _law(s3z)
    for target in (s3z.group.identity(), atoms[0]):
        assert point_mass_curve(s3z, ns, target, trials, seed) == curve(
            fastpaths.s3z_target_hits(0.5, atoms, weights, ns, target,
                                      trials, seed))
    lamp = _lazy(LamplighterZ())
    assert point_mass_curve(lamp, ns, lamp.group.identity(), trials,
                            seed) == curve(
        fastpaths.lamplighter_origin_hits(0.5, [0.25] * 4, ns, trials, seed))
    # every transform but the identity replays through the table it builds
    erw = erw_config(3, 0.6)
    trees = [erw_config(3, 0.3), erw] + [
        SrrwConfig(group=erw.group, alpha=0.5, mu=erw.mu, transform=tf)
        for tf in (Negation(), IidSign(0.4))]
    for tree in trees:
        replay = _replay(tree)
        assert (replay is None) == (tree is erw)
        assert point_mass_curve(tree, ns, (), trials, seed) == curve(
            fastpaths.tree_erw_origin_hits(3, tree.alpha, ns, trials, seed,
                                           replay=replay))
        s, s2 = fastpaths.tree_erw_distance_sums(3, tree.alpha, 8, trials,
                                                 seed, replay=replay)
        ref = mean_estimate(float(s), float(s2), trials)
        est = mc_escape_rate(tree, 8, trials, seed)
        assert est.value == pytest.approx(ref.value / 8, rel=1e-12)
        assert est.stderr == pytest.approx(ref.stderr / 8, rel=1e-12)
    lat = _lazy(IntegerLatticeZd(1))
    for tf in (Negation(), IidSign(0.3), IidSign(1.0)):
        cfg = SrrwConfig(group=lat.group, alpha=0.5, mu=lat.mu, transform=tf)
        atoms, weights = _law(cfg)
        replay = _replay(cfg)
        assert point_mass_curve(cfg, ns, (0,), trials, seed) == curve(
            fastpaths.lattice_target_hits(np.array(atoms), weights, 0.5, ns,
                                          (0,), trials, seed, replay=replay))
        assert ball_curve(cfg, ns, 1.5, trials, seed) == curve(
            fastpaths.lattice_ball_hits(np.array(atoms), weights, 0.5, ns,
                                        1.5, trials, seed, replay=replay))
    for cyc in (_lazy(CycleZL(5)), _lazy(CycleZL(2))):
        atoms, weights = _law(cyc)
        for via_forest in (False, True):
            counts = fastpaths.cyclic_histogram(
                cyc.group.L, 0.5, atoms, weights, 6, trials, seed,
                via_forest=via_forest)
            assert mc_histogram(cyc, 6, trials, seed,
                                via_forest=via_forest) == {
                r: int(c) for r, c in enumerate(counts) if c > 0}


def test_engine_refuses_what_no_engine_represents():
    lat, tree = _lazy(IntegerLatticeZd(1)), erw_config(3, 0.6)
    refused = [(lat, "histogram", False), (_lazy(CycleZL(5)), "point", 0),
               (tree, "point", (0,)), (tree, "ball", 2.0)]
    # a map that may change with the step or the history, an orbit past
    # the table's cap, and the forest route, which cannot replay a table
    history = HistoryDependent(lambda j, h, rng: lambda x: x,
                               deterministic=True)
    for cfg, query, arg in ((lat, "point", (0,)), (lat, "ball", 2.0),
                            (tree, "point", ()), (tree, "escape", None)):
        refused.append((SrrwConfig(group=cfg.group, alpha=0.5, mu=cfg.mu,
                                   transform=history), query, arg))
    double = transform_from_literal("echo:[[[[2]],1.0]]")
    refused.append((SrrwConfig(group=lat.group, alpha=0.5, mu=lat.mu,
                               transform=double), "point", (0,)))
    cyc = _lazy(CycleZL(5))
    refused.append((SrrwConfig(group=cyc.group, alpha=0.5, mu=cyc.mu,
                               transform=Negation()), "histogram", True))
    g = RegularTreeFree(3)
    skewed = StepDistribution(support=[((0,), 0.5), ((1,), 0.25),
                                       ((2,), 0.25)])
    skewed_tree = SrrwConfig(group=g, alpha=0.5, mu=skewed)
    refused += [(skewed_tree, "point", ()), (skewed_tree, "escape", None)]
    lamp = _lazy(LamplighterZ())
    refused.append((lamp, "point", (frozenset(), 1)))
    jump = StepDistribution.uniform([(frozenset(), 0), (frozenset([0]), 0),
                                     (frozenset(), 2), (frozenset(), -1)])
    refused.append((SrrwConfig(group=LamplighterZ(), alpha=0.5, mu=jump),
                    "point", (frozenset(), 0)))
    sphere = SrrwConfig(group=EuclideanRd(2), alpha=0.5,
                        mu=StepDistribution(family="sphere"))
    refused.append((sphere, "ball", 1.5))
    # a rotation alphabet short of the engine's first atoms: the stay step
    # off the lamplighter's generators, letter c off a two-letter tree
    lamp_gens = erw_config(3, 0.1, group=LamplighterZ())
    refused.append((lamp_gens, "point", (frozenset(), 1)))
    two = SrrwConfig(group=g, alpha=0.5,
                     mu=StepDistribution.uniform([(0,), (1,)]),
                     transform=ErwRotation())
    refused += [(two, "point", ()), (two, "escape", None)]
    for cfg, query, arg in refused:
        assert estimators._engine(cfg, query, arg) is None, (cfg, query, arg)


def test_point_queries_refused_under_a_continuous_law():
    # every point mass of the Gaussian walk is 0: only balls have an answer
    rd = SrrwConfig(group=EuclideanRd(2), alpha=0.5,
                    mu=StepDistribution(family="gaussian"))
    with pytest.raises(ValueError, match="ball_curve"):
        point_mass_curve(rd, [4], rd.group.identity(), 100, 1)
    with pytest.raises(ValueError, match="ball_curve"):
        mc_histogram(rd, 4, 100, 1)
    # a finite law on R^d has atoms, and they are counted as points
    two = SrrwConfig(group=EuclideanRd(1), alpha=0.5, mu=StepDistribution(
        support=[((0.2,), 0.5), ((0.7,), 0.5)]))
    counts = mc_histogram(two, 1, 1000, 1)
    assert set(counts) == {(0.2,), (0.7,)}
    assert sum(counts.values()) == 1000
