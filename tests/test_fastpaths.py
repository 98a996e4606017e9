"""Vectorized engines against the slow reference paths and the exact
oracles, plus scheduling invariance of the chunked accumulators."""

import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from srrw import estimators, fastpaths, forest, verify
from srrw import rng as rngmod
from srrw.estimators import (ball_curve, mc_escape_rate, mc_histogram,
                             mc_point_mass, point_mass_curve)
from srrw.evolving import DeterministicStep, KernelSeq, MuStep, mask_tables
from srrw.fastpaths import _chunk_map, _chunks
from srrw.groups import (CycleZL, EuclideanRd, IntegerLatticeZd, LamplighterZ,
                         RegularTreeFree, S3xZ, StepDistribution)
from srrw.oracle import exact_distribution, tv_distance
from srrw.sampler import (EchoLawLinear, HistoryDependent, IidSign,
                          Negation, SrrwConfig, erw_config)

SEED = 20260822
BENCH = Path(__file__).resolve().parents[1] / "bench"

# The identity as a transform no engine serves: a config under it keeps
# its law and takes the per-trial route.
PER_TRIAL = HistoryDependent(lambda j, history, rng: lambda x: x,
                             deterministic=True)


def _replay(cfg):
    """The replay table the engines take for cfg."""
    return cfg.transform.replay_table(cfg.group, cfg.mu)[1]


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
    # PER_TRIAL compares the vectorized pass to the per-trial reference;
    # the second config is the lazy Z^3 walk that the lattice-decay gate fits
    n, trials = 24, 30000
    for cfg in (lattice_cfg(2, 0.4), verify.lazy_lattice_config(3)):
        target = (0,) * cfg.group.d
        slow = SrrwConfig(group=cfg.group, alpha=cfg.alpha, mu=cfg.mu,
                          transform=PER_TRIAL)
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
    z2 = SrrwConfig(group=CycleZL(2), alpha=0.5,
                    mu=StepDistribution(support=[(0, 0.5), (1, 0.5)]))
    hist = mc_histogram(z2, 4, 60000, SEED)
    p = hist[0] / 60000
    exact = exact_distribution(z2, 4).prob(0)
    assert abs(p - exact) < 4 * math.sqrt(exact * (1 - exact) / 60000)


def test_generic_histogram_route_matches_engine_law():
    g = CycleZL(4)
    mu = StepDistribution(support=[(1, 0.7), (3, 0.3)])
    fastcfg = SrrwConfig(group=g, alpha=0.3, mu=mu)
    slowcfg = SrrwConfig(group=g, alpha=0.3, mu=mu, transform=PER_TRIAL)
    dist = exact_distribution(fastcfg, 5)
    assert tv_distance(mc_histogram(fastcfg, 5, 40000, SEED), dist) < 0.012
    assert tv_distance(mc_histogram(slowcfg, 5, 40000, SEED), dist) < 0.012


def test_s3z_engine_vs_exact():
    g = S3xZ()
    mu = StepDistribution(support=[(((1, 0, 2), 1), 0.5),
                                   (((1, 0, 2), -1), 0.5)])
    cfg = SrrwConfig(group=g, alpha=0.5, mu=mu)
    # the Z part moves +-1 every step, so e is reachable at even n only
    e = g.identity()
    for n, target in ((4, e), (5, ((1, 0, 2), 1))):
        est = mc_point_mass(cfg, n, target, 40000, SEED)
        exact = exact_distribution(cfg, n).prob(target)
        assert abs(z_score(est, exact)) < 4
    assert mc_point_mass(cfg, 5, e, 40000, SEED).value == 0.0
    # with a 3-cycle atom the product order shows: a table multiplying in
    # reverse puts 0.094 on (23)|0 at n = 3, against the exact 0.0625
    cfg = SrrwConfig(group=g, alpha=0.5, mu=StepDistribution(
        support=[(((1, 0, 2), 0), 0.5), (((1, 2, 0), 0), 0.5)]))
    target = ((0, 2, 1), 0)
    est = mc_point_mass(cfg, 3, target, 40000, SEED)
    exact = exact_distribution(cfg, 3).prob(target)
    assert abs(z_score(est, exact)) < 4


def test_lamplighter_engine_vs_exact():
    # a toggle-heavy law lights lamps away from home, so the window's
    # gather and scatter are checked at every horizon of one pass
    g = LamplighterZ()
    e = g.identity()
    mu = StepDistribution(support=[
        (e, 0.15), ((frozenset([0]), 0), 0.55),
        ((frozenset(), 1), 0.15), ((frozenset(), -1), 0.15)])
    for alpha in (0.0, 0.4):
        cfg = SrrwConfig(group=g, alpha=alpha, mu=mu)
        for n, est in point_mass_curve(cfg, [2, 4, 6, 8], e, 40000, SEED):
            exact = exact_distribution(cfg, n).prob(e)
            assert abs(z_score(est, exact)) < 4, (alpha, n)
    uniform = SrrwConfig(group=g, alpha=0.4, mu=StepDistribution.lazy(g))
    est = mc_point_mass(uniform, 5, e, 40000, SEED)
    assert abs(z_score(est, exact_distribution(uniform, 5).prob(e))) < 4


def test_lamplighter_engine_reads_its_atoms():
    # the engine takes mu's atoms in mu's order, so a law listed as t, e,
    # -1, +1 is served, and agrees in law with the per-trial route
    g = LamplighterZ()
    e = g.identity()
    mu = StepDistribution(support=[
        ((frozenset([0]), 0), 0.55), (e, 0.15), ((frozenset(), -1), 0.2),
        ((frozenset(), 1), 0.1)])
    cfg = SrrwConfig(group=g, alpha=0.4, mu=mu)
    assert estimators._engine(cfg, "point", e) is not None
    slow = SrrwConfig(group=g, alpha=0.4, mu=mu, transform=PER_TRIAL)
    fast = point_mass_curve(cfg, [4, 6], e, 40000, SEED)
    for (n, f), (_, s) in zip(fast, point_mass_curve(slow, [4, 6], e, 10000,
                                                      SEED + 1)):
        assert abs(f.value - s.value) < 4 * math.hypot(f.stderr,
                                                       s.stderr), n


def test_tree_engine_vs_exact():
    # a tree walk is back at e only after an even number of steps, so at
    # odd n the law fixes the count exactly; even n is checked below
    for p in (0.2, 0.5, 0.8):
        cfg = erw_config(3, p)
        e = cfg.group.identity()
        assert exact_distribution(cfg, 5).prob(e) == 0.0
        for n, est in point_mass_curve(cfg, [1, 3, 5], e, 40000, SEED):
            assert est.value == 0.0


def _past_eight_steps(name):
    """(config, horizons) of an engine at horizons past 8 steps, with its
    law at e in reach of the exact chain."""
    s3z, lamp = S3xZ(), LamplighterZ()
    return {
        "tree-rotation": (erw_config(3, 0.1), [10, 12]),
        "s3z": (SrrwConfig(group=s3z, alpha=0.5, mu=StepDistribution.uniform(
            s3z.generators())), [12]),
        "lamplighter": (SrrwConfig(group=lamp, alpha=0.5,
                                   mu=StepDistribution.lazy(lamp)), [12]),
    }[name]


@pytest.mark.parametrize("name", ["tree-rotation", "s3z", "lamplighter"])
def test_engines_vs_exact_past_eight_steps(monkeypatch, name):
    cfg, ns = _past_eight_steps(name)
    monkeypatch.setattr(estimators, "_per_trial", None)  # engines only
    e = cfg.group.identity()
    for n, est in point_mass_curve(cfg, ns, e, 200_000, SEED):
        exact = exact_distribution(cfg, n).prob(e)
        assert abs(z_score(est, exact)) < 4, n


def test_tree_escape_engine_vs_generic():
    cfg = erw_config(4, 0.3)
    fast = mc_escape_rate(cfg, 40, 20000, SEED)
    slow_cfg = SrrwConfig(group=cfg.group, alpha=cfg.alpha, mu=cfg.mu,
                          transform=PER_TRIAL)
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
    slow = SrrwConfig(group=lat.group, alpha=lat.alpha, mu=lat.mu,
                      transform=PER_TRIAL)
    neg = SrrwConfig(group=IntegerLatticeZd(1), alpha=0.5,
                     mu=StepDistribution.uniform([(1,), (-1,)]),
                     transform=Negation())
    sets = mask_tables(KernelSeq(group=cyc.group, mu=cyc.mu, tags=[
        MuStep(), DeterministicStep(1), MuStep()]), list(range(5)))
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
        lambda th: point_mass_curve(neg, [4, 8], (0,), 70000, SEED,
                                    threads=th),
        lambda th: fastpaths.masked_set_walk(sets, 1, 5, 70000, SEED,
                                             threads=th).tolist(),
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


class _CountingRng:
    """A generator that logs (method name, result) of every call made on
    it."""

    def __init__(self, rng, log):
        self._rng, self._log = rng, log

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def call(*args, **kwargs):
            out = method(*args, **kwargs)
            self._log.append((name, out))
            return out

        return call


def _engine_calls(n, trials=250):
    lazy = verify.lazy_lattice_config(3)
    disps = np.array([g for g, _ in lazy.mu.support], dtype=np.int64)
    weights = [w for _, w in lazy.mu.support]
    gens = S3xZ().generators()
    lamp = [a for a, _ in StepDistribution.lazy(LamplighterZ()).support]
    sign = IidSign(0.3).replay_table(lazy.group, lazy.mu)[1]
    rotation = _replay(erw_config(3, 0.1))
    return {
        "cyclic": lambda th: fastpaths.cyclic_histogram(
            5, 0.6, [1, 4], [0.5, 0.5], n, trials, SEED, th).tolist(),
        "lattice": lambda th: fastpaths.lattice_target_hits(
            disps, weights, 0.5, [2, n], (0, 0, 0), trials, SEED, th),
        "lattice-ball": lambda th: fastpaths.lattice_ball_hits(
            disps, weights, 0.5, [2, n], 1.5, trials, SEED, th),
        "gaussian": lambda th: fastpaths.gaussian_ball_hits(
            2, 0.5, [2, n], 1.0, trials, SEED, th),
        "lattice-table": lambda th: fastpaths.lattice_target_hits(
            disps, weights, 0.5, [2, n], (0, 0, 0), trials, SEED, th,
            replay=sign),
        "tree": lambda th: fastpaths.tree_erw_origin_hits(
            3, 0.4, [2, n], trials, SEED, th, replay=rotation),
        "tree-distance": lambda th: fastpaths.tree_erw_distance_sums(
            3, 0.4, n, trials, SEED, th, replay=rotation),
        "s3z": lambda th: fastpaths.s3z_target_hits(
            0.5, gens, [1 / len(gens)] * len(gens), [2, n],
            S3xZ().identity(), trials, SEED, th),
        "lamplighter": lambda th: fastpaths.lamplighter_origin_hits(
            0.4, lamp, [0.25] * 4, [2, n], trials, SEED, th),
    }


def _sized_calls(n, trials):
    """``_engine_calls`` plus the forest route, a lattice target out of
    reach, and the set chain, which takes no horizon."""
    calls = _engine_calls(n, trials)
    disps = np.array([[1], [-1]])
    calls["cyclic-forest"] = lambda th: fastpaths.cyclic_histogram(
        5, 0.6, [1, 4], [0.5, 0.5], n, trials, SEED, th, via_forest=True)
    calls["lattice-far"] = lambda th: fastpaths.lattice_target_hits(
        disps, [0.5, 0.5], 0.5, [2, n], (99,), trials, SEED, th)
    calls["masked-set"] = lambda th: fastpaths.masked_set_walk(
        [], 1, 1, trials, SEED, th)
    return calls


@pytest.mark.parametrize("engine", list(_sized_calls(4, 1)))
def test_engines_refuse_sizes_below_one(monkeypatch, engine):
    # refused before any work: no stream is ever opened
    def no_stream(*key):
        raise AssertionError("a stream was opened")

    monkeypatch.setattr(rngmod, "stream", no_stream)
    for n, trials, reason in ((4, 0, "trials"), (4, -3, "trials"),
                              (0, 250, "horizons")):
        if engine == "masked-set" and reason == "horizons":
            continue
        with pytest.raises(ValueError, match=reason):
            _sized_calls(n, trials)[engine](1)


def test_masked_set_walk_refuses_more_than_sixteen_points(monkeypatch):
    # refused before any stream is opened or a 2^17 histogram allocated
    def no_stream(*key):
        raise AssertionError("a stream was opened")

    monkeypatch.setattr(rngmod, "stream", no_stream)
    with pytest.raises(ValueError, match="17 points"):
        fastpaths.masked_set_walk([], 1, 17, 10, SEED)


def test_every_engine_draws_one_uniform_per_step(monkeypatch):
    # a budget of 40 steps x 100 trials forces chunks of at most 100 rows
    # (6 rows for the Gaussian engine's 16-byte steps); per stream, the
    # uniforms number n per row of its chunk, however many calls draw them
    n, trials = 40, 250
    monkeypatch.setattr(forest, "_CODE_BUDGET", 100 * n)
    real = rngmod.stream
    for name, run in _engine_calls(n, trials).items():
        logs = []

        def stream(*key, _logs=logs):
            _logs.append([])
            return _CountingRng(real(*key), _logs[-1])

        monkeypatch.setattr(rngmod, "stream", stream)
        run(1)
        assert len(logs) >= 3, name
        rows = []
        for log in logs:
            assert {call for call, _ in log} <= (
                {"random", "standard_normal"} if name == "gaussian"
                else {"random"}), name
            v = np.concatenate([out for call, out in log
                                if call == "random"])
            assert v.size % n == 0, name
            m = v.size // n
            rows.append(m)
            # the Gaussian engine's alpha is 1/2: one normal row for each
            # row of step 1 and each later uniform at or above alpha
            normals = sum(len(out) for call, out in log
                          if call == "standard_normal")
            assert normals == (m + np.count_nonzero(v[m:] >= 0.5)
                               if name == "gaussian" else 0), name
        assert rows == _chunks(trials, max(rows)), name


def test_over_budget_codes_run_in_smaller_chunks(monkeypatch):
    n = 40
    monkeypatch.setattr(forest, "_CODE_BUDGET", 100 * n)
    for name, run in _engine_calls(n).items():
        assert run(2) == run(1), name
    # not even one trial's codes fit
    monkeypatch.setattr(forest, "_CODE_BUDGET", n - 1)
    for name, run in _engine_calls(n).items():
        with pytest.raises(ValueError):
            run(1)


def test_horizon_sized_state_counts_against_the_budget(monkeypatch):
    # 40 one-byte codes per trial, plus 2n + 1 lamp bytes or n + 2 letter
    # stack bytes: 4000 bytes hold 100 trials of codes, 33 or 48 with state
    n = 40
    real = rngmod.stream
    engines = _engine_calls(n)
    for name, state in (("lamplighter", 2 * n + 1), ("tree", n + 2),
                        ("tree-distance", n + 2)):
        monkeypatch.setattr(forest, "_CODE_BUDGET", 100 * n)
        keys = []
        monkeypatch.setattr(rngmod, "stream",
                            lambda *key: keys.append(key) or real(*key))
        engines[name](1)
        rows = 100 * n // (n + state)
        assert len(keys) == math.ceil(250 / rows) > math.ceil(250 / 100), name
        monkeypatch.setattr(rngmod, "stream", real)
        # one trial's codes fit, its codes and state do not
        monkeypatch.setattr(forest, "_CODE_BUDGET", n + state - 1)
        with pytest.raises(ValueError, match="state included"):
            engines[name](1)


def test_forest_route_counts_against_the_budget(monkeypatch):
    # 40 steps take 24 * 40 = 960 bytes per trial (a uniform and the two
    # arrays that turn it into a code, each): a budget of 100 trials cuts
    # 250 trials into 3 chunks
    n, per_trial = 40, 960
    real = rngmod.stream
    keys = []
    monkeypatch.setattr(rngmod, "stream",
                        lambda *key: keys.append(key) or real(*key))
    monkeypatch.setattr(forest, "_CODE_BUDGET", 100 * per_trial)
    hist = fastpaths.cyclic_histogram(5, 0.6, [1, 4], [0.5, 0.5], n, 250,
                                      SEED, via_forest=True)
    assert keys == [(SEED, 11, c) for c in range(3)]
    assert hist.sum() == 250
    # not even one trial fits: refused before any stream is opened
    keys.clear()
    monkeypatch.setattr(forest, "_CODE_BUDGET", per_trial - 1)
    with pytest.raises(ValueError, match="forest steps"):
        fastpaths.cyclic_histogram(5, 0.6, [1, 4], [0.5, 0.5], n, 250, SEED,
                                   via_forest=True)
    assert keys == []


def forest_histogram_trial_major(L, alpha, atoms, weights, n, sizes):
    """The forest route as it was built before it went step-major: values
    and roots in (trials, n) matrices, one chunk of ``sizes`` per stream."""
    law = fastpaths._atom_law(weights)
    atoms = np.asarray(atoms, dtype=np.int64)
    total = np.zeros(L, dtype=np.int64)
    for ci, m in enumerate(sizes):
        rng = rngmod.stream(SEED, 11, ci)
        vals = atoms[law.fresh(rng, rng.random(m * n)).reshape(m, n)]
        root = np.zeros((m, n + 1), dtype=np.int32)
        root[:, 1] = 1
        for j, _, kept, past in forest._attachments(n, alpha, m, rng):
            root[:, j] = j
            root[kept, j] = root[kept, past + 1]
        pos = np.take_along_axis(vals, root[:, 1:] - 1, axis=1).sum(axis=1)
        total += np.bincount(pos % L, minlength=L)
    return total


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("n", [1, 2, 6, 20])
@pytest.mark.parametrize("L, atoms, weights", [
    (2, [0, 1], [0.5, 0.5]), (3, [1, 2], [0.5, 0.5]),
    # no small slot table: codes come from searchsorted
    (5, [1, 4, 2], [0.5, 0.3141, 0.1859])])
def test_forest_route_equals_the_trial_major_reference(monkeypatch, L, atoms,
                                                       weights, n, alpha):
    hist = fastpaths.cyclic_histogram(L, alpha, atoms, weights, n, 300, SEED,
                                      via_forest=True)
    assert np.array_equal(hist, forest_histogram_trial_major(
        L, alpha, atoms, weights, n, [300]))
    # a budget of 100 trials cuts 250 trials into chunks of 100, 100 and 50
    monkeypatch.setattr(forest, "_CODE_BUDGET", 100 * 24 * n)
    hist = fastpaths.cyclic_histogram(L, alpha, atoms, weights, n, 250, SEED,
                                      threads=2, via_forest=True)
    assert np.array_equal(hist, forest_histogram_trial_major(
        L, alpha, atoms, weights, n, [100, 100, 50]))


def test_lattice_positions_past_the_packing_limit():
    # d coordinates of |x| <= reach pack into one int64 while d * bits <= 64
    assert fastpaths._pack_bits((1 << 20) - 1, 3) == 21
    assert fastpaths._pack_bits(1 << 20, 3) is None
    assert fastpaths._pack_bits((1 << 15) - 1, 4) == 16
    assert fastpaths._pack_bits(1 << 15, 4) is None
    assert fastpaths._pack_bits(0, 65) is None
    # steps of 2^15 in d = 3 pack up to n = 31 and take rows of coordinates
    # from n = 32; the draws do not depend on the horizon, so the counts at
    # the shared horizons agree across the two representations
    big = 1 << 15
    d3 = np.array([[big, 0, 0], [-big, 0, 0], [0, 0, 1]], dtype=np.int64)
    w = [0.25, 0.25, 0.5]
    for run in (
            lambda cps: fastpaths.lattice_target_hits(d3, w, 0.5, cps,
                                                      (0, 0, 2), 3000, SEED),
            lambda cps: fastpaths.lattice_ball_hits(d3, w, 0.5, cps, 3.0,
                                                    3000, SEED)):
        packed, rows = run([2, 31]), run([2, 31, 32])
        assert packed[2] > 0
        assert rows == {**packed, 32: rows[32]}
    # a target beyond reach is never hit, however far it is; (32, -1, 0)
    # packs like the origin in the 5 bits that unit steps to n = 10 need
    unit = np.vstack([np.eye(3, dtype=np.int64), -np.eye(3, dtype=np.int64)])
    for target in ((32, -1, 0), (10 ** 6, 0, 0), (-(1 << 40), 0, 0)):
        assert fastpaths.lattice_target_hits(unit, [1 / 6] * 6, 0.5, [2, 10],
                                             target, 1000, SEED) == {2: 0,
                                                                     10: 0}
    # at alpha = 1 every step repeats the first, so S_256 = +-256 e_i, which
    # 8 bits per coordinate in Z^8 would read as a neighbour of the origin
    unit8 = np.vstack([np.eye(8, dtype=np.int64), -np.eye(8, dtype=np.int64)])
    assert fastpaths.lattice_ball_hits(unit8, [1 / 16] * 16, 1.0, [1, 256],
                                       1.5, 1000, SEED) == {1: 1000, 256: 0}
    with pytest.raises(ValueError):
        fastpaths.lattice_target_hits(d3 << 40, w, 0.5, [2, 1 << 8],
                                      (0, 0, 0), 10, SEED)


def test_lattice_engine_past_the_packing_limit_vs_generic_sampler():
    # Z^8 to n = 256 needs 10 bits per coordinate, too many for one int64
    cfg = lattice_cfg(8, 0.3)
    slow = SrrwConfig(group=cfg.group, alpha=cfg.alpha, mu=cfg.mu,
                      transform=PER_TRIAL)
    (_, fast), = ball_curve(cfg, [256], 25.0, 1500, SEED)
    (_, ref), = ball_curve(slow, [256], 25.0, 1500, SEED + 1)
    assert 0.2 < ref.value < 0.8
    assert abs(fast.value - ref.value) < 4 * math.hypot(fast.stderr,
                                                         ref.stderr)


def test_pack_round_trip_at_the_edges():
    rng = np.random.default_rng(SEED)
    for d in (1, 2, 3, 4, 7):
        bits = 64 // d
        edge = (1 << (bits - 1)) - 1
        pts = rng.integers(-edge, edge, size=(200, d), endpoint=True)
        pts[:2 * d] = 0
        for i in range(d):
            pts[2 * i, i], pts[2 * i + 1, i] = edge, -edge
        packed = np.array(fastpaths._pack(pts.tolist(), bits), dtype=np.int64)
        coords = fastpaths._unpack(packed, d, bits)
        assert np.array_equal(np.stack(coords, axis=1), pts)


def test_tree_engine_vs_exact_at_even_horizons():
    # a tree walk is never back at e after an odd number of steps, so only
    # even horizons show its law; p < 1/3 rotates replayed letters
    for p in (0.1, 0.2, 0.5, 0.8):
        cfg = erw_config(3, p)
        e = cfg.group.identity()
        for n, est in point_mass_curve(cfg, [2, 4, 6], e, 40000, SEED):
            exact = exact_distribution(cfg, n).prob(e)
            assert abs(z_score(est, exact)) < 4


def test_alpha_edges_give_the_exact_law():
    lazy = verify.lazy_lattice_config(1)
    cases = [(lazy, 0.0, (0,)), (lazy, 1.0, (0,)), (lazy, 1.0, (6,)),
             (erw_config(3, 0.0), None, ()),        # alpha = 1, rotation
             (erw_config(3, 1 / 3), None, ())]      # alpha = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for cfg, alpha, target in cases:
            if alpha is not None:
                cfg = SrrwConfig(group=cfg.group, alpha=alpha, mu=cfg.mu)
            dist = exact_distribution(cfg, 6)
            est = mc_point_mass(cfg, 6, target, 40000, SEED)
            assert abs(z_score(est, dist.prob(target))) < 4
        # alpha = 1 without rotation repeats one letter: back at e on even n
        assert fastpaths.tree_erw_origin_hits(3, 1.0, [1, 2, 3, 4], 1000,
                                              SEED) == {
            1: 0, 2: 1000, 3: 0, 4: 1000}


def replay_columns_per_step(rng, m, n, alpha, law, hook=None):
    """The replay kernel as it was before it drew steps in blocks: one
    ``rng.random(m)`` per step, through ``forest._attachments``."""
    codes = np.empty((n, m) + law.row, dtype=law.dtype)
    flat = codes.reshape((n * m,) + law.row)
    codes[0] = law.fresh(rng, rng.random(m))
    yield 1, codes[0]
    for j, v, kept, past in forest._attachments(n, alpha, m, rng):
        col = codes[j - 1]
        new = np.flatnonzero(v >= alpha)
        if new.size:
            col[new] = law.fresh(rng, (v[new] - alpha) / (1 - alpha))
        if kept.size:
            src = flat[past * m + kept]
            if hook is not None:
                src = hook(src, v[kept] * ((j - 1) / alpha))
            col[kept] = src
        yield j, col


# The widest chunk that still draws blocks of three steps or more.
_EDGE = fastpaths._BLOCK // 3


@pytest.mark.parametrize("alpha", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("m", [1, _EDGE - 1, _EDGE, _EDGE + 1])
def test_block_kernel_equals_the_per_step_reference(m, alpha):
    # every column, as the engine sees it when it is yielded, at horizons
    # on both sides of a block edge: n = 1, 2, b, b + 1, b + 2 and 2b + 3,
    # b being the chunk's block length (3 at _EDGE, 1 above it)
    b = fastpaths._BLOCK // m if m <= _EDGE else 1
    ns = [1, 2, b, b + 1, b + 2, 2 * b + 3]
    laws = [fastpaths._atom_law([0.5, 0.25, 1 / 12, 1 / 6]),
            # no small slot table: codes come from searchsorted
            fastpaths._atom_law([0.5, 0.3141, 0.1859])]
    rows = [[(c + 1) % 4, (c + 2) % 4] for c in range(4)]
    hooks = [None, fastpaths._table_hook(rows, [0.3, 0.7]),
             fastpaths._table_hook(rows, [0.3141, 0.6859])]
    for law in laws:
        for hook in hooks:
            ref = np.array([col.copy() for _, col in replay_columns_per_step(
                rngmod.stream(SEED, m), m, max(ns), alpha, law, hook)])
            for n in ns:
                got = [(j, col.copy()) for j, col in fastpaths._replay_columns(
                    rngmod.stream(SEED, m), m, n, alpha, law, hook)]
                assert [j for j, _ in got] == list(range(1, n + 1))
                differ = (np.array([c for _, c in got]) != ref[:n]).any(axis=1)
                assert not differ.any(), (n, np.flatnonzero(differ) + 1)


def test_slot_table_and_searchsorted_agree(monkeypatch):
    u = rngmod.stream(SEED, 1).random(100000)
    weights = [0.5, 0.25, 1 / 12, 1 / 6]
    table = fastpaths._atom_law(weights).fresh(None, u)
    monkeypatch.setattr(fastpaths, "_MAX_SLOTS", 1)
    assert np.array_equal(fastpaths._atom_law(weights).fresh(None, u), table)
    monkeypatch.undo()
    # no Q <= _MAX_SLOTS makes these weights multiples of 1/Q
    g = CycleZL(3)
    cfg = SrrwConfig(group=g, alpha=0.5, mu=StepDistribution(
        support=[(0, 0.5), (1, 0.3141), (2, 0.1859)]))
    assert tv_distance(mc_histogram(cfg, 6, 60000, SEED),
                       exact_distribution(cfg, 6)) < 0.01


def test_a_fresh_uniform_rounded_up_to_one_reads_the_last_atom():
    # v < 1 can still give a fresh uniform (v - alpha) / (1 - alpha) of 1.0
    v = 1 - 2.0 ** -53
    assert (v - 0.3) / (1 - 0.3) == 1.0
    for weights in ([0.5, 0.25, 1 / 12, 1 / 6], [0.5, 0.3141, 0.1859]):
        law = fastpaths._atom_law(weights)
        assert law.fresh(None, np.array([1.0])).tolist() == [len(weights) - 1]


def _table_cases():
    """(config, horizon, targets) for each transform a replay table serves,
    each at a horizon the exact enumeration reaches quickly."""
    z1 = SrrwConfig(group=IntegerLatticeZd(1), alpha=0.5,
                    mu=StepDistribution.uniform([(1,), (-1,)]),
                    transform=Negation())
    lazy2 = verify.lazy_lattice_config(2)
    sign = SrrwConfig(group=lazy2.group, alpha=0.6, mu=lazy2.mu,
                      transform=IidSign(0.3))
    quarter = EchoLawLinear([([[0, -1], [1, 0]], 1.0)])
    echo = SrrwConfig(group=IntegerLatticeZd(2), alpha=0.5,
                      mu=StepDistribution.uniform(
                          IntegerLatticeZd(2).generators()),
                      transform=quarter)
    # a 3-cycle and a drift: negation replays (132) and z - 1, which mu
    # never draws
    s3z = SrrwConfig(group=S3xZ(), alpha=0.5, mu=StepDistribution(
        support=[(((1, 2, 0), 1), 0.5), (((1, 0, 2), 0), 0.5)]),
        transform=Negation())
    # no marker -1 among the fresh steps: only a negated replay brings the
    # marker back
    lamp = SrrwConfig(group=LamplighterZ(), alpha=0.5, mu=StepDistribution(
        support=[((frozenset(), 0), 0.25), ((frozenset([0]), 0), 0.25),
                 ((frozenset(), 1), 0.5)]), transform=Negation())
    # the rotation on the lamplighter's generators, with no stay atom
    lamp_gens = erw_config(3, 0.1, group=LamplighterZ())
    return [(z1, 7, [(1,), (3,), (-5,)]), (sign, 5, [(0, 0), (1, -1)]),
            (echo, 6, [(0, 0), (2, 0), (1, 1)]),
            (s3z, 6, [S3xZ().identity(), ((1, 2, 0), 2)]),
            (lamp, 6, [LamplighterZ().identity()]),
            (lamp_gens, 6, [LamplighterZ().identity()])]


@pytest.mark.parametrize("case", range(6))
def test_table_engines_vs_exact(monkeypatch, case):
    cfg, n, targets = _table_cases()[case]
    assert _replay(cfg) is not None
    monkeypatch.setattr(estimators, "_per_trial", None)
    dist = exact_distribution(cfg, n)
    for target in targets:
        est = mc_point_mass(cfg, n, target, 40000, SEED)
        assert dist.prob(target) > 0.01
        assert abs(z_score(est, dist.prob(target))) < 4, target


def test_table_branch_rules_agree_in_law(monkeypatch):
    # IidSign(0.3) splits into 10 slots; with no slot table its branch is
    # x - floor(x) inverted through (0.3, 0.7), with the same law
    cfg, n, targets = _table_cases()[1]
    dist = exact_distribution(cfg, n)
    monkeypatch.setattr(fastpaths, "_MAX_SLOTS", 1)
    for target in targets:
        est = mc_point_mass(cfg, n, target, 40000, SEED)
        assert abs(z_score(est, dist.prob(target))) < 4, target


def test_rotation_is_a_replay_table():
    # the elephant walk's rotation moves letter c to c + 1 + b mod d, b
    # uniform on 0..d-2
    for d in (2, 3, 5):
        rows, weights = _replay(erw_config(d, 0.0))
        assert rows == [[(c + 1 + b) % d for b in range(d - 1)]
                        for c in range(d)]
        assert weights == [1 / (d - 1)] * (d - 1)


def test_negation_engine_vs_memory_walk(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import reference

    cfg, _, _ = _table_cases()[0]
    ns, trials = [64, 128, 256], 100000
    exact = reference.memory_walk_return(cfg.alpha, ns)
    for n, est in point_mass_curve(cfg, ns, (0,), trials, SEED):
        assert abs(z_score(est, exact[n])) < 4, n
