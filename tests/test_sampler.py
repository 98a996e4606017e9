"""Direct sampler: trace structure, step marginals, transforms, and the
elephant-walk embedding."""

import dataclasses
import math

import pytest

from srrw.groups import (CycleZL, EuclideanRd, IntegerLatticeZd,
                         RegularTreeFree, StepDistribution)
from srrw.oracle import exact_distribution
from srrw.rng import stream
from srrw.sampler import (EchoLawLinear, ErwRotation, HistoryDependent,
                          Identity, IidSign, Negation, SrrwConfig, erw_config,
                          next_step_distribution, sample_walk,
                          transform_from_literal)

PM1 = StepDistribution(support=[(1, 0.5), (2, 0.5)])  # +-1 on Z_3


def z3_config(alpha, transform=None):
    return SrrwConfig(group=CycleZL(3), alpha=alpha, mu=PM1,
                      transform=transform or Identity())


def test_trace_structure():
    cfg = z3_config(0.6)
    for n in (1, 2, 7):
        trace = sample_walk(cfg, n, stream(1, n)).check()
        assert trace.n == n
        assert len(trace.positions) == n + 1
        assert trace.final == trace.positions[-1]


def test_rejects_bad_parameters():
    with pytest.raises(ValueError):
        sample_walk(z3_config(0.5), 0, stream(1))
    with pytest.raises(ValueError):
        SrrwConfig(group=CycleZL(3), alpha=1.5, mu=PM1)
    with pytest.raises(ValueError):
        SrrwConfig(group=CycleZL(3), alpha=-0.1, mu=PM1)


def test_alpha_zero_steps_are_iid():
    # with no reinforcement each step index is a fresh mu draw
    cfg = z3_config(0.0)
    trials = 20_000
    n = 5
    counts = [0] * n
    for t in range(trials):
        trace = sample_walk(cfg, n, stream(7, 100, t))
        for j, x in enumerate(trace.steps):
            counts[j] += x == 1
        assert not any(trace.reinforcement_flags)
    sigma = math.sqrt(0.25 / trials)
    for c in counts:
        assert abs(c / trials - 0.5) <= 3 * sigma


def test_alpha_one_identity_replays_first_step():
    cfg = SrrwConfig(group=CycleZL(2), alpha=1.0,
                     mu=StepDistribution(support=[(0, 0.5), (1, 0.5)]))
    for t in range(50):
        trace = sample_walk(cfg, 6, stream(8, t))
        assert all(x == trace.steps[0] for x in trace.steps)
        assert all(trace.reinforcement_flags)


def test_return_probability_small_case():
    # P(S_2 = e) = (1 + alpha) / 2 on the two-element group
    alpha = 0.5
    cfg = SrrwConfig(group=CycleZL(2), alpha=alpha,
                     mu=StepDistribution(support=[(0, 0.5), (1, 0.5)]))
    trials = 40_000
    hits = sum(sample_walk(cfg, 2, stream(9, t)).final == 0
               for t in range(trials))
    p = (1 + alpha) / 2
    assert abs(hits / trials - p) <= 3 * math.sqrt(p * (1 - p) / trials)


def test_conditional_law_matches_observed_frequencies():
    # group walks by prefix and compare next-step frequencies per history
    cfg = z3_config(0.6)
    trials = 30_000
    by_history = {}
    for t in range(trials):
        trace = sample_walk(cfg, 4, stream(10, t))
        key = tuple(trace.steps[:3])
        nxt = trace.steps[3]
        bucket = by_history.setdefault(key, {})
        bucket[nxt] = bucket.get(nxt, 0) + 1
    checked = 0
    for history, bucket in by_history.items():
        seen = sum(bucket.values())
        if seen < 1500:
            continue
        law = next_step_distribution(cfg, list(history))
        for elem, w in law.support:
            phat = bucket.get(elem, 0) / seen
            assert abs(phat - w) <= 3 * math.sqrt(w * (1 - w) / seen)
            checked += 1
    assert checked >= 8


def test_next_step_distribution_base_cases():
    cfg = z3_config(0.5)
    assert next_step_distribution(cfg, []) is cfg.mu
    # history (1, 1): half fresh mu, half replay of a past step equal to 1
    law = next_step_distribution(cfg, [1, 1])
    masses = {e: w for e, w in law.support}
    assert math.isclose(masses[1], 0.5 * 0.5 + 0.5, rel_tol=1e-12)
    assert math.isclose(masses[2], 0.25, rel_tol=1e-12)


def test_next_step_distribution_keeps_nearby_reals_apart():
    # 0.2 and 0.4 share a unit cell of R^1 but are different steps
    g = EuclideanRd(1)
    mu = StepDistribution(support=[((0.2,), 0.5), ((1.7,), 0.5)])
    cfg = SrrwConfig(group=g, alpha=0.5, mu=mu)
    law = next_step_distribution(cfg, [(0.2,), (0.4,)])
    assert law.support == [((0.2,), 0.5), ((1.7,), 0.25), ((0.4,), 0.25)]
    law.validate(g)


def test_next_step_distribution_rejects_randomized_callback():
    tf = HistoryDependent(lambda j, h, rng: {1: 1, 2: 2}, deterministic=False)
    cfg = SrrwConfig(group=CycleZL(3), alpha=0.5, mu=PM1, transform=tf)
    with pytest.raises(ValueError):
        next_step_distribution(cfg, [1])


def test_erw_config_parameter_map():
    cfg = erw_config(4, 0.5)
    assert math.isclose(cfg.alpha, 1 / 3)
    assert isinstance(cfg.transform, Identity)

    cfg = erw_config(4, 0.1)
    assert math.isclose(cfg.alpha, 0.6)
    assert isinstance(cfg.transform, ErwRotation)

    cfg = erw_config(3, 1 / 3)
    assert cfg.alpha == 0.0
    assert isinstance(cfg.transform, Identity)

    with pytest.raises(ValueError):
        erw_config(1, 0.5)
    with pytest.raises(ValueError):
        erw_config(3, 1.0)
    with pytest.raises(ValueError):
        erw_config(3, 0.5, mu=StepDistribution(
            support=[((0,), 0.5), ((1,), 0.5)]))


def test_erw_step_reproduces_memory_parameter():
    # P(X_j = X_{u_j}) must equal p for the low-memory branch
    p = 0.2
    cfg = erw_config(3, p)
    trials = 20_000
    repeats = 0
    total = 0
    for t in range(trials):
        trace = sample_walk(cfg, 6, stream(12, t))
        for j, u in zip(range(2, 7), trace.picks):
            total += 1
            repeats += trace.steps[j - 1] == trace.steps[u - 1]
    sigma = math.sqrt(p * (1 - p) / total)
    assert abs(repeats / total - p) <= 3 * sigma


def test_erw_exact_two_step_law():
    # the embedding and raw enumeration agree at n = 2 for p on both branches
    for p in (0.15, 0.6):
        cfg = erw_config(3, p)
        dist = exact_distribution(cfg, 2)
        # P(S_2 = e) = P(second step cancels the first) = p
        assert math.isclose(dist.prob(()), p, abs_tol=1e-12)


def test_negation_and_iid_sign():
    g = CycleZL(5)
    mu = StepDistribution(support=[(1, 0.5), (4, 0.5)])
    assert Negation().apply(g, mu, 2, 1, None) == 4
    assert Negation().push_point(g, mu, 2, 2) == [(3, 1.0)]
    tf = IidSign(0.75)
    law = dict(tf.push_point(g, mu, 2, 1))
    assert law == {1: 0.75, 4: 0.25}
    with pytest.raises(ValueError):
        IidSign(1.2)


def test_erw_rotation_covers_other_letters():
    g = RegularTreeFree(4)
    mu = StepDistribution.uniform(g.generators())
    tf = ErwRotation(4)
    tf.validate(g, mu)
    pushed = dict(tf.push_point(g, mu, 3, (1,)))
    assert set(pushed) == {(0,), (2,), (3,)}
    assert all(math.isclose(w, 1 / 3) for w in pushed.values())
    with pytest.raises(ValueError):
        tf.push_point(g, mu, 3, (0, 1))  # not a single letter
    with pytest.raises(ValueError):
        ErwRotation(3).validate(g, mu)


def test_one_rotation_serves_configs_with_different_alphabets():
    # the rotation reads its alphabet from the mu it is handed, so building
    # a second config leaves the first one's law alone
    g, tf = CycleZL(3), ErwRotation()
    laws = [StepDistribution.uniform(atoms) for atoms in ([0, 1], [1, 2])]
    cfgs = [SrrwConfig(group=g, alpha=0.5, mu=mu, transform=tf)
            for mu in laws]
    alone = SrrwConfig(group=g, alpha=0.5, mu=laws[0],
                       transform=ErwRotation())
    assert (exact_distribution(cfgs[0], 4).mass
            == exact_distribution(alone, 4).mass)
    assert dict(tf.push_point(g, laws[0], 2, 1)) == {0: 1.0}
    assert dict(tf.push_point(g, laws[1], 2, 1)) == {2: 1.0}
    assert sample_walk(cfgs[0], 8, stream(4)).steps == sample_walk(
        alone, 8, stream(4)).steps
    # equality is the constructor's: validation sets nothing
    assert ErwRotation() != ErwRotation(3)
    SrrwConfig(group=g, alpha=0.5, mu=PM1, transform=tf)
    assert tf == ErwRotation() and tf.d is None


def test_config_is_frozen():
    cfg = z3_config(0.5)
    for name, value in (("alpha", 1.5), ("alpha", -0.5), ("mu", PM1),
                        ("transform", Negation())):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, name, value)
    assert cfg.alpha == 0.5


def test_echo_law_validation():
    g = IntegerLatticeZd(2)
    mu = StepDistribution.uniform(g.generators())
    flip = ((-1, 0), (0, -1))
    keep = ((1, 0), (0, 1))
    tf = EchoLawLinear([(keep, 0.5), (flip, 0.5)])
    tf.validate(g, mu)
    law = dict(tf.push_point(g, mu, 2, (1, 0)))
    assert law == {(1, 0): 0.5, (-1, 0): 0.5}
    with pytest.raises(ValueError):
        EchoLawLinear([(keep, 0.7), (flip, 0.5)]).validate(g, mu)
    with pytest.raises(ValueError):
        EchoLawLinear([(((0.5, 0), (0, 1)), 1.0)]).validate(g, mu)
    with pytest.raises(ValueError):
        EchoLawLinear([(keep, 1.0)]).validate(CycleZL(4), PM1)


def test_transform_literal_round_trip():
    for text, tf in [("identity", Identity()), ("negation", Negation()),
                     ("iid_sign:0.25", IidSign(0.25)),
                     ("erw_rotation", ErwRotation()),
                     ("erw_rotation:4", ErwRotation(4))]:
        assert transform_from_literal(text) == tf
    assert transform_from_literal("iid_sign:0.25") != IidSign(0.5)
    assert transform_from_literal("erw_rotation:4") != ErwRotation(3)
    echo = transform_from_literal("echo:[[[[1,0],[0,1]],0.5],[[[-1,0],[0,-1]],0.5]]")
    assert isinstance(echo, EchoLawLinear)
    assert echo == EchoLawLinear([(((1, 0), (0, 1)), 0.5),
                                  (((-1, 0), (0, -1)), 0.5)])
    with pytest.raises(ValueError):
        transform_from_literal("reverse")


def test_history_dependent_deterministic_law():
    # callback that always sends a step to the inverse of the last position
    g = CycleZL(5)

    def fn(j, history, rng):
        return lambda x: g.inverse(x)

    tf = HistoryDependent(fn, deterministic=True)
    cfg = SrrwConfig(group=g, alpha=0.5,
                     mu=StepDistribution(support=[(1, 0.5), (4, 0.5)]),
                     transform=tf)
    trace = sample_walk(cfg, 5, stream(13, 0)).check()
    assert trace.n == 5
    assert tf.push_point(g, cfg.mu, 2, 1) == [(4, 1.0)]
