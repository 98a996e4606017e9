"""Exact-law oracles: both enumeration routes, certifying arithmetic, and
the isolated-count brute force they are checked against."""

import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from srrw.elephant import lambda_table, signed_position_law
from srrw.groups import (CycleZL, IntegerLatticeZd, RegularTreeFree,
                         StepDistribution)
from srrw.oracle import (exact_distribution, exact_isolated_distribution,
                         iid_convolution, isolated_distribution_bruteforce,
                         isolated_log_laws, tv_distance)
from srrw.sampler import HistoryDependent, IidSign, Negation, SrrwConfig

Z2_MU = StepDistribution(support=[(0, 0.5), (1, 0.5)])


def test_iid_convolution_simple():
    g = IntegerLatticeZd(1)
    mu = StepDistribution(support=[((1,), 0.5), ((-1,), 0.5)])
    dist = iid_convolution(g, mu, 4).check()
    assert math.isclose(dist.prob((0,)), 6 / 16, abs_tol=1e-15)
    assert math.isclose(dist.prob((4,)), 1 / 16, abs_tol=1e-15)
    assert dist.prob((1,)) == 0.0
    assert dist.prob((9, 9)) == 0.0


def test_routes_agree_on_abelian_groups():
    # IidSign(1.0) never inverts, so its law is the identity transform's,
    # but it forces the generic branching enumeration; in Fractions the
    # type-count urn and the tree give the same masses exactly
    for g, mu in [
        (CycleZL(2), Z2_MU),
        (CycleZL(4), StepDistribution(support=[(1, 0.3), (3, 0.7)])),
        (IntegerLatticeZd(2),
         StepDistribution(support=[((1, 0), 0.25), ((-1, 0), 0.25),
                                   ((0, 1), 0.25), ((0, -1), 0.25)])),
    ]:
        for alpha in (0.0, 0.4, 1.0):
            cfg_fast = SrrwConfig(group=g, alpha=alpha, mu=mu)
            cfg_slow = SrrwConfig(group=g, alpha=alpha, mu=mu,
                                  transform=IidSign(1.0))
            for n, exact in product((1, 3, 6), (False, True)):
                fast = exact_distribution(cfg_fast, n, exact=exact)
                slow = exact_distribution(cfg_slow, n, exact=exact)
                if exact:
                    assert fast.mass == slow.mass
                    continue
                keys = set(fast.mass) | set(slow.mass)
                for k in keys:
                    assert math.isclose(fast.prob(k), slow.prob(k),
                                        abs_tol=1e-13)


def test_urn_matches_the_memory_walk_on_z():
    g = IntegerLatticeZd(1)
    mu = StepDistribution(support=[((1,), 0.5), ((-1,), 0.5)])
    n = 64
    dist = exact_distribution(SrrwConfig(group=g, alpha=0.5, mu=mu), n)
    law = signed_position_law(0.5, n)
    for s in range(-n, n + 1):
        assert math.isclose(dist.prob((s,)), law[s + n], abs_tol=1e-12)


def test_negation_on_z2_equals_identity_route():
    # x = -x in Z2, so the negating walk has the identity walk's law
    cfg = SrrwConfig(group=CycleZL(2), alpha=0.6, mu=Z2_MU, transform=Negation())
    ref = SrrwConfig(group=CycleZL(2), alpha=0.6, mu=Z2_MU)
    for n in (2, 5, 8):
        a = exact_distribution(cfg, n)
        b = exact_distribution(ref, n)
        assert math.isclose(a.prob(0), b.prob(0), abs_tol=1e-13)


def test_alpha_zero_is_iid_even_for_dfs():
    t = RegularTreeFree(3)
    mu = StepDistribution(support=[(t.parse_element(c), Fraction(1, 3))
                                   for c in "abc"])
    cfg = SrrwConfig(group=t, alpha=0.0, mu=mu, transform=IidSign(1.0))
    dist = exact_distribution(cfg, 5)
    conv = iid_convolution(t, mu, 5)
    keys = set(dist.mass) | set(conv.mass)
    for k in keys:
        assert math.isclose(dist.prob(k), conv.prob(k), abs_tol=1e-13)


def test_exact_fractions_certify():
    cfg = SrrwConfig(group=CycleZL(2), alpha=0.5, mu=Z2_MU)
    dist = exact_distribution(cfg, 6, exact=True)
    assert all(isinstance(p, Fraction) for p in dist.mass.values())
    assert sum(dist.mass.values()) == 1
    f = exact_distribution(cfg, 6)
    for k, p in dist.mass.items():
        assert math.isclose(float(p), f.prob(k), abs_tol=1e-15)

    cfg2 = SrrwConfig(group=CycleZL(2), alpha=0.5, mu=Z2_MU, transform=IidSign(1.0))
    dist2 = exact_distribution(cfg2, 5, exact=True)
    assert sum(dist2.mass.values()) == 1


def test_known_return_probabilities():
    for alpha in (0.2, 0.5, 0.9):
        cfg = SrrwConfig(group=CycleZL(2), alpha=alpha, mu=Z2_MU)
        assert math.isclose(exact_distribution(cfg, 2).prob(0),
                            (1 + alpha) / 2, abs_tol=1e-14)
    cfg = SrrwConfig(group=CycleZL(2), alpha=0.5, mu=Z2_MU)
    lam = lambda_table(0.5, 4).value(4, 2)
    assert math.isclose(exact_distribution(cfg, 4).prob(0), (1 + lam) / 2,
                        abs_tol=1e-13)


def test_isolated_law_consistency():
    for alpha in (0.0, 0.25, 0.7, 1.0):
        for n in (1, 2, 4, 6):
            markov = exact_isolated_distribution(alpha, n)
            brute = isolated_distribution_bruteforce(alpha, n)
            for k in set(markov) | set(brute):
                assert math.isclose(markov.get(k, 0.0), brute.get(k, 0.0),
                                    abs_tol=1e-12)


def test_isolated_law_exact_sums_to_one():
    law = exact_isolated_distribution(Fraction(2, 7), 15, exact=True)
    assert sum(law.values()) == 1
    # parity: I(n) has the parity of n only when every non-singleton is...
    # not a constraint; instead check the extremes
    assert law[15] == Fraction(5, 7) ** 14
    assert min(law) == 0


def test_isolated_log_route_matches_the_fraction_route():
    for alpha in (0.0, 0.25, 0.5, 0.7, 1.0):
        for n, logs in isolated_log_laws(alpha, 40):
            law = exact_isolated_distribution(alpha, n, exact=True)
            assert len(logs) == n + 1
            for i, log_p in enumerate(logs):
                if i not in law:
                    assert log_p == -math.inf, (alpha, n, i)
                else:
                    assert math.isclose(math.exp(log_p), law[i],
                                        rel_tol=1e-12), (alpha, n, i)


def test_isolated_log_tail_at_alpha_half_n_500():
    # P(I(500) <= 31) at alpha = 1/2, the cell (1 - alpha) n / 8 = 31.25
    for _, logs in isolated_log_laws(0.5, 500):
        pass
    tail = math.exp(np.logaddexp.reduce(logs[:32]))
    assert math.isclose(tail, 2.488e-42, rel_tol=1e-3)
    with pytest.raises(ValueError):
        next(isolated_log_laws(0.5, 0))


def test_isolated_law_degenerate_alphas():
    assert exact_isolated_distribution(0.0, 9) == {9: 1.0}
    law = exact_isolated_distribution(1.0, 9)
    assert set(law) == {0}
    assert math.isclose(law[0], 1.0, abs_tol=1e-15)


def test_bruteforce_cap():
    with pytest.raises(ValueError):
        isolated_distribution_bruteforce(0.5, 9)


def test_dfs_cap_and_validation():
    cfg = SrrwConfig(group=CycleZL(2), alpha=0.5, mu=Z2_MU, transform=IidSign(1.0))
    with pytest.raises(ValueError, match="capped"):
        exact_distribution(cfg, 9)
    with pytest.raises(ValueError):
        exact_distribution(cfg, 0)

    def law(j, history, rng):
        return rng.choice(len(history))

    rnd = SrrwConfig(group=CycleZL(2), alpha=0.5, mu=Z2_MU,
                     transform=HistoryDependent(law, deterministic=False))
    with pytest.raises(ValueError, match="enumerable"):
        exact_distribution(rnd, 3)


def test_tv_distance():
    cfg = SrrwConfig(group=CycleZL(2), alpha=0.5, mu=Z2_MU)
    dist = exact_distribution(cfg, 4)
    as_counts = {k: round(p * 1_000_000) for k, p in dist.mass.items()}
    assert tv_distance(as_counts, dist) < 1e-6
    assert tv_distance({0: 3, 1: 1}, dist) == tv_distance(
        {0: 0.75, 1: 0.25}, dist)
    assert math.isclose(tv_distance({"far": 10}, dist), 1.0, abs_tol=1e-15)
    with pytest.raises(ValueError):
        tv_distance({}, dist)
