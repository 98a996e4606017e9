"""Exact-law oracles: the layered chain against an unmerged enumeration,
certifying arithmetic, and the isolated-count brute force."""

import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from srrw import oracle
from srrw.elephant import lambda_table, signed_position_law
from srrw.groups import (CycleZL, IntegerLatticeZd, LamplighterZ,
                         RegularTreeFree, S3xZ, StepDistribution)
from srrw.oracle import (exact_distribution, exact_isolated_distribution,
                         iid_convolution, isolated_distribution_bruteforce,
                         isolated_log_laws, tv_distance)
from srrw.sampler import (EchoLawLinear, ErwRotation, HistoryDependent,
                          Identity, IidSign, Negation, SrrwConfig, WalkTrace,
                          erw_config)

Z2_MU = StepDistribution(support=[(0, 0.5), (1, 0.5)])


def test_iid_convolution_simple():
    g = IntegerLatticeZd(1)
    mu = StepDistribution(support=[((1,), 0.5), ((-1,), 0.5)])
    dist = iid_convolution(g, mu, 4).check()
    assert math.isclose(dist.prob((0,)), 6 / 16, abs_tol=1e-15)
    assert math.isclose(dist.prob((4,)), 1 / 16, abs_tol=1e-15)
    assert dist.prob((1,)) == 0.0
    assert dist.prob((9, 9)) == 0.0


# The identity as a map that may read the history: the chain keeps each
# step sequence apart instead of merging multisets.
SEQUENCE_IDENTITY = HistoryDependent(lambda j, history, rng: lambda x: x,
                                     deterministic=True)


def test_routes_agree_on_abelian_groups():
    # the multiset past and the step-sequence past are two keys for the
    # same chain; in Fractions they give the same masses exactly
    for g, mu in [
        (CycleZL(2), Z2_MU),
        (CycleZL(4), StepDistribution(support=[(1, 0.3), (3, 0.7)])),
        (IntegerLatticeZd(2),
         StepDistribution(support=[((1, 0), 0.25), ((-1, 0), 0.25),
                                   ((0, 1), 0.25), ((0, -1), 0.25)])),
    ]:
        for alpha in (0.0, 0.4, 1.0):
            by_multiset = SrrwConfig(group=g, alpha=alpha, mu=mu)
            by_sequence = SrrwConfig(group=g, alpha=alpha, mu=mu,
                                     transform=SEQUENCE_IDENTITY)
            for n, exact in product((1, 3, 6), (False, True)):
                fast = exact_distribution(by_multiset, n, exact=exact)
                slow = exact_distribution(by_sequence, n, exact=exact)
                if exact:
                    assert fast.mass == slow.mass
                    continue
                keys = set(fast.mass) | set(slow.mass)
                for k in keys:
                    assert math.isclose(fast.prob(k), slow.prob(k),
                                        abs_tol=1e-13)


def brute_force(config, n):
    """The endpoint law in Fractions from every coin, pick, fresh atom and
    transform branch of the walk, one leaf per outcome, nothing merged."""
    g, mu, tf = config.group, config.mu, config.transform
    alpha = Fraction(config.alpha)
    law = {}

    def walk(steps, positions, w):
        j = len(steps) + 1
        if j > n:
            law[positions[-1]] = law.get(positions[-1], 0) + w
            return
        outcomes = []
        if j > 1:
            history = WalkTrace(group=g, steps=steps, positions=positions,
                                reinforcement_flags=[], picks=[])
            for u in range(j - 1):
                outcomes += [(y, alpha / (j - 1) * Fraction(pw))
                             for y, pw in tf.push_point(g, mu, j, steps[u],
                                                        history=history)]
        fresh = 1 - alpha if j > 1 else 1
        outcomes += [(e, fresh * Fraction(pw)) for e, pw in mu.support]
        for y, p in outcomes:
            walk(steps + [y], positions + [g.multiply(positions[-1], y)],
                 w * p)

    walk([], [g.identity()], Fraction(1))
    return {x: p for x, p in law.items() if p}


def _brute_force_cases():
    """(name, group, mu, transform): every transform class on groups it
    acts on."""
    c4, z, z2 = CycleZL(4), IntegerLatticeZd(1), IntegerLatticeZd(2)
    tree, s3z, lamp = RegularTreeFree(3), S3xZ(), LamplighterZ()
    c4_mu = StepDistribution(support=[(1, 0.3), (3, 0.5), (0, 0.2)])
    z_mu = StepDistribution(support=[((1,), 0.25), ((-1,), 0.75)])
    z2_axis = StepDistribution.uniform(z2.generators())
    letters = StepDistribution.uniform(tree.generators())
    s3z_gens = StepDistribution.uniform(s3z.generators())
    lamp_lazy = StepDistribution.lazy(lamp)

    def back_at_first(j, history, rng):
        # invert a replay while the walk is back where its first step took
        # it, keep it elsewhere
        if history.positions[-1] == history.positions[1]:
            return history.group.inverse
        return lambda x: x

    # a shear moves (0, 1) to (1, 1), (2, 1), ...: the orbit is infinite
    shear = EchoLawLinear([([[1, 1], [0, 1]], 0.5), ([[1, 0], [0, 1]], 0.5)])
    return [
        ("identity C4", c4, c4_mu, Identity()),
        ("identity tree", tree, letters, Identity()),
        ("identity S3xZ", s3z, s3z_gens, Identity()),
        ("identity lamplighter", lamp, lamp_lazy, Identity()),
        ("negation Z", z, z_mu, Negation()),
        ("negation S3xZ", s3z, s3z_gens, Negation()),
        ("negation lamplighter", lamp, lamp_lazy, Negation()),
        ("iid_sign 0.25 Z2", z2, z2_axis, IidSign(0.25)),
        ("iid_sign 1.0 tree", tree, letters, IidSign(1.0)),
        ("history S3xZ", s3z, s3z_gens,
         HistoryDependent(back_at_first, deterministic=True)),
        ("history lamplighter", lamp, lamp_lazy,
         HistoryDependent(back_at_first, deterministic=True)),
        ("rotation tree", tree, letters, ErwRotation(3)),
        ("echo Z2", z2, z2_axis, shear),
    ]


@pytest.mark.parametrize("case", _brute_force_cases(), ids=lambda c: c[0])
def test_chain_equals_the_unmerged_enumeration(case):
    _, g, mu, tf = case
    n = 5
    for alpha in (0.0, 0.4, 1.0):
        cfg = SrrwConfig(group=g, alpha=alpha, mu=mu, transform=tf)
        law = exact_distribution(cfg, n, exact=True)
        assert law.mass == brute_force(cfg, n), alpha
        floats = exact_distribution(cfg, n)
        assert floats.mass.keys() == law.mass.keys()
        for x, p in law.mass.items():
            assert abs(floats.mass[x] - p) <= 1e-15, (alpha, x)


@pytest.mark.parametrize("p", (0.1, 0.2, 0.5, 0.8))
def test_chain_equals_the_unmerged_enumeration_for_the_elephant(p):
    # p < 1/3 rotates replayed letters, p >= 1/3 keeps them
    cfg = erw_config(3, p)
    assert exact_distribution(cfg, 5, exact=True).mass == brute_force(cfg, 5)


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


def test_alpha_zero_is_iid_under_any_transform():
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


def test_isolated_log_laws_over_an_alpha_vector_equal_the_single_laws():
    alphas = [0.0, 0.1, 0.25, 0.5, 0.7, 0.9, 1.0]
    singles = [isolated_log_laws(a, 300) for a in alphas]
    for (n, laws), *rows in zip(isolated_log_laws(alphas, 300), *singles):
        assert laws.shape == (len(alphas), n + 1)
        for law, (m, single) in zip(laws, rows):
            assert m == n and single.shape == (n + 1,)
            assert law.tobytes() == single.tobytes(), n


def test_isolated_log_laws_over_an_alpha_vector_keep_the_fraction_zeros():
    alphas = [0.0, 0.25, 0.5, 0.7, 1.0]
    for n, laws in isolated_log_laws(alphas, 40):
        for alpha, logs in zip(alphas, laws):
            law = exact_isolated_distribution(alpha, n, exact=True)
            impossible = [i not in law for i in range(n + 1)]
            assert (logs == -math.inf).tolist() == impossible, (alpha, n)
    with pytest.raises(ValueError):
        next(isolated_log_laws([[0.5]], 3))


def test_isolated_law_degenerate_alphas():
    assert exact_isolated_distribution(0.0, 9) == {9: 1.0}
    law = exact_isolated_distribution(1.0, 9)
    assert set(law) == {0}
    assert math.isclose(law[0], 1.0, abs_tol=1e-15)


def test_bruteforce_cap():
    with pytest.raises(ValueError):
        isolated_distribution_bruteforce(0.5, 9)


def test_state_cap_and_validation(monkeypatch):
    # no horizon cap, only one on the states a layer holds: after 9 steps,
    # 10 counts of two step values, each with its one position
    cfg = SrrwConfig(group=CycleZL(2), alpha=0.5, mu=Z2_MU, transform=IidSign(1.0))
    monkeypatch.setattr(oracle, "STATE_CAP", 10)
    assert exact_distribution(cfg, 9).enumeration_count == 10
    monkeypatch.setattr(oracle, "STATE_CAP", 9)
    with pytest.raises(ValueError, match="STATE_CAP = 9"):
        exact_distribution(cfg, 9)
    monkeypatch.undo()
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
