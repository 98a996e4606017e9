"""Vectorized engines against the slow reference paths and the exact
oracles, plus scheduling invariance of the chunked accumulators."""

import math

import numpy as np
import pytest

from srrw import verify
from srrw.estimators import (ball_curve, mc_escape_rate, mc_histogram,
                             mc_point_mass, point_mass_curve)
from srrw.fastpaths import _chunk_map, _chunks
from srrw.groups import (CycleZL, EuclideanRd, IntegerLatticeZd, LamplighterZ,
                         RegularTreeFree, S3xZ, StepDistribution, Z2)
from srrw.oracle import exact_distribution, tv_distance
from srrw.sampler import IidSign, SrrwConfig, erw_config

SEED = 20260822


def lattice_cfg(d, alpha):
    sup = []
    for i in range(d):
        for sgn in (1, -1):
            e = [0] * d
            e[i] = sgn
            sup.append((tuple(e), 0.5 / d))
    return SrrwConfig(group=IntegerLatticeZd(d), alpha=alpha,
                      mu=StepDistribution(support=sup))


def z_score(est, p):
    return (est.value - p) / max(est.stderr, 1e-12)


def test_chunks_partition():
    assert list(_chunks(10000, 4096)) == [4096, 4096, 1808]
    assert list(_chunks(5, 8)) == [5]


def test_chunk_map_thread_invariant_and_ordered():
    def worker(ci, m):
        return [(ci, m)]

    for trials, chunk in ((10, 3), (100, 17), (5, 100)):
        ref = _chunk_map(worker, trials, chunk, 1)
        for threads in (2, 3, 8):
            assert _chunk_map(worker, trials, chunk, threads) == ref
        assert [m for part in ref for _, m in part] == list(
            _chunks(trials, chunk))
        assert [ci for part in ref for ci, _ in part] == list(
            range(len(ref)))


def test_lattice_engine_vs_exact():
    cfg = lattice_cfg(1, 0.5)
    dist = exact_distribution(cfg, 6)
    for target in ((0,), (2,), (6,)):
        est = mc_point_mass(cfg, 6, target, 40000, SEED)
        assert abs(z_score(est, dist.prob(target))) < 4


def test_lattice_engine_vs_generic_sampler():
    # IidSign(1.0) has the identity law but is refused by every engine,
    # so this compares the vectorized pass to the per-trial reference; the
    # second config is the lazy Z^3 walk that the lattice-decay gate fits
    n, trials = 24, 30000
    for cfg in (lattice_cfg(2, 0.4), verify.lazy_lattice_config(3)):
        target = (0,) * cfg.group.d
        slow = SrrwConfig(group=cfg.group, alpha=cfg.alpha, mu=cfg.mu,
                          transform=IidSign(1.0))
        fast = mc_point_mass(cfg, n, target, trials, SEED)
        ref = mc_point_mass(slow, n, target, trials, SEED + 1)
        sd = math.hypot(fast.stderr, ref.stderr)
        assert abs(fast.value - ref.value) < 4 * sd


def test_point_mass_curve_shares_one_pass():
    cfg = lattice_cfg(1, 0.5)
    curve = point_mass_curve(cfg, [4, 6], (0,), 20000, SEED)
    assert [n for n, _ in curve] == [4, 6]
    single = mc_point_mass(cfg, 6, (0,), 20000, SEED)
    assert curve[1][1].value == single.value


def test_cyclic_histogram_engine_vs_exact():
    g = CycleZL(5)
    mu = StepDistribution(support=[(1, 0.5), (4, 0.5)])
    cfg = SrrwConfig(group=g, alpha=0.6, mu=mu)
    dist = exact_distribution(cfg, 7)
    for via_forest in (False, True):
        hist = mc_histogram(cfg, 7, 50000, SEED, via_forest=via_forest)
        assert sum(hist.values()) == 50000
        assert tv_distance(hist, dist) < 0.012
    z2 = SrrwConfig(group=Z2(), alpha=0.5,
                    mu=StepDistribution(support=[(0, 0.5), (1, 0.5)]))
    hist = mc_histogram(z2, 4, 60000, SEED)
    p = hist[0] / 60000
    exact = exact_distribution(z2, 4).prob(0)
    assert abs(p - exact) < 4 * math.sqrt(exact * (1 - exact) / 60000)


def test_generic_histogram_route_matches_engine_law():
    g = CycleZL(4)
    mu = StepDistribution(support=[(1, 0.7), (3, 0.3)])
    fastcfg = SrrwConfig(group=g, alpha=0.3, mu=mu)
    slowcfg = SrrwConfig(group=g, alpha=0.3, mu=mu, transform=IidSign(1.0))
    dist = exact_distribution(fastcfg, 5)
    assert tv_distance(mc_histogram(fastcfg, 5, 40000, SEED), dist) < 0.012
    assert tv_distance(mc_histogram(slowcfg, 5, 40000, SEED), dist) < 0.012


def test_s3z_engine_vs_exact():
    g = S3xZ()
    mu = StepDistribution(support=[(((1, 0, 2), 1), 0.5),
                                   (((1, 0, 2), -1), 0.5)])
    cfg = SrrwConfig(group=g, alpha=0.5, mu=mu)
    dist = exact_distribution(cfg, 5)
    for target in ((((0, 1, 2), 0)), (((1, 0, 2), 1))):
        est = mc_point_mass(cfg, 5, target, 40000, SEED)
        assert abs(z_score(est, dist.prob(g.canonical_key(target)))) < 4


def test_lamplighter_engine_vs_exact():
    g = LamplighterZ()
    e = g.identity()
    mu = StepDistribution(support=[
        ((frozenset(), 0), 0.25), ((frozenset([0]), 0), 0.25),
        ((frozenset(), 1), 0.25), ((frozenset(), -1), 0.25)])
    cfg = SrrwConfig(group=g, alpha=0.4, mu=mu)
    dist = exact_distribution(cfg, 5)
    est = mc_point_mass(cfg, 5, e, 40000, SEED)
    assert abs(z_score(est, dist.prob(g.canonical_key(e)))) < 4


def test_tree_engine_vs_exact():
    for p in (0.2, 0.5, 0.8):
        cfg = erw_config(3, p)
        g = cfg.group
        dist = exact_distribution(cfg, 5)
        est = mc_point_mass(cfg, 5, g.identity(), 40000, SEED)
        assert abs(z_score(est, dist.prob(g.canonical_key(g.identity())))) < 4


def test_tree_escape_engine_vs_generic():
    cfg = erw_config(4, 0.3)
    fast = mc_escape_rate(cfg, 40, 20000, SEED)
    # letters are involutions, so IidSign never changes a step; it only
    # pushes the walk down the per-trial reference path
    slow_cfg = SrrwConfig(group=cfg.group, alpha=cfg.alpha, mu=cfg.mu,
                          transform=IidSign(0.5))
    slow = mc_escape_rate(slow_cfg, 40, 20000, SEED + 3)
    sd = math.hypot(fast.stderr, slow.stderr)
    assert abs(fast.value - slow.value) < 4 * sd


def test_lattice_ball_engine_vs_binomial():
    # d = 1, alpha = 0: |S_n| < r is a binomial event
    cfg = lattice_cfg(1, 0.0)
    n, r = 10, 2.5
    from scipy.stats import binom

    inside = sum(binom.pmf(k, n, 0.5)
                 for k in range(n + 1) if abs(2 * k - n) < r)
    (_, est), = ball_curve(cfg, [n], r, 40000, SEED)
    assert abs(z_score(est, inside)) < 4


def test_gaussian_ball_engine_vs_chi2():
    # alpha = 0 gaussian steps: |S_n|^2 / n is chi-square with d dof
    from scipy.stats import chi2

    d, n, r = 2, 16, 4.0
    cfg = SrrwConfig(group=EuclideanRd(d), alpha=0.0,
                     mu=StepDistribution(family="gaussian"))
    (_, est), = ball_curve(cfg, [n], r, 40000, SEED)
    assert abs(z_score(est, chi2.cdf(r * r / n, d))) < 4


def test_ball_curve_rejects_word_groups():
    cfg = erw_config(3, 0.5)
    with pytest.raises(ValueError):
        ball_curve(cfg, [4], 2.0, 100, SEED)


def test_s3z_engine_indexes_every_atom():
    # 200 atoms do not fit int8 codes; at n = 1 the walk sits on the drawn
    # atom, so P(S_1 = atom 150) is that atom's weight
    heavy = 0.9
    sup = [(((0, 1, 2), z), heavy if z == 150 else (1 - heavy) / 199)
           for z in range(200)]
    cfg = SrrwConfig(group=S3xZ(), alpha=0.5,
                     mu=StepDistribution(support=sup))
    est = mc_point_mass(cfg, 1, ((0, 1, 2), 150), 20000, SEED)
    assert abs(z_score(est, heavy)) < 4


def test_thread_count_never_changes_results():
    lat, tree = lattice_cfg(2, 0.5), erw_config(3, 0.4)
    s3z = SrrwConfig(group=S3xZ(), alpha=0.5, mu=StepDistribution(support=[
        (((1, 0, 2), 1), 0.4), (((1, 0, 2), -1), 0.4),
        (((0, 2, 1), 0), 0.2)]))
    lamp = SrrwConfig(group=LamplighterZ(), alpha=0.4, mu=StepDistribution(
        support=[((frozenset(), 0), 0.25), ((frozenset([0]), 0), 0.25),
                 ((frozenset(), 1), 0.25), ((frozenset(), -1), 0.25)]))
    cyc = SrrwConfig(group=CycleZL(5), alpha=0.6, mu=StepDistribution(
        support=[(1, 0.5), (4, 0.5)]))
    gauss = SrrwConfig(group=EuclideanRd(2), alpha=0.5,
                       mu=StepDistribution(family="gaussian"))
    # IidSign(1.0) keeps the lattice law but takes the per-trial route
    slow = SrrwConfig(group=lat.group, alpha=lat.alpha, mu=lat.mu,
                      transform=IidSign(1.0))
    # the added runs span at least two chunks of their engine
    runs = [
        lambda th: mc_point_mass(lat, 12, (0, 0), 9000, SEED, threads=th),
        lambda th: mc_point_mass(tree, 12, RegularTreeFree(3).identity(),
                                 9000, SEED, threads=th),
        lambda th: mc_histogram(lat, 8, 9000, SEED, threads=th),
        lambda th: point_mass_curve(s3z, [4, 8], S3xZ().identity(), 70000,
                                    SEED, threads=th),
        lambda th: point_mass_curve(lamp, [4, 8], LamplighterZ().identity(),
                                    20000, SEED, threads=th),
        lambda th: mc_histogram(cyc, 6, 70000, SEED, threads=th),
        lambda th: mc_histogram(cyc, 6, 70000, SEED, threads=th,
                                via_forest=True),
        lambda th: ball_curve(lat, [6, 12], 2.5, 70000, SEED, threads=th),
        lambda th: ball_curve(gauss, [4, 8], 2.0, 9000, SEED, threads=th),
        lambda th: mc_escape_rate(tree, 12, 40000, SEED, threads=th),
        lambda th: point_mass_curve(slow, [4, 8], (0, 0), 5000, SEED,
                                    threads=th),
    ]
    for run in runs:
        ref = run(1)
        for threads in (2, 5):
            assert run(threads) == ref


def test_engine_reproducibility_same_seed():
    cfg = lattice_cfg(3, 0.5)
    a = mc_point_mass(cfg, 16, (0, 0, 0), 8000, 99)
    b = mc_point_mass(cfg, 16, (0, 0, 0), 8000, 99)
    c = mc_point_mass(cfg, 16, (0, 0, 0), 8000, 100)
    assert a.value == b.value
    assert a.value != c.value or a.trials != c.trials
