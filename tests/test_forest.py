"""Percolated forests: growth, cluster labeling, and the assembled walk."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srrw import forest
from srrw.forest import (PercolatedForest, all_clusters_even_probability,
                         assign_and_assemble, clusters, grow,
                         isolated_counts_batch)
from srrw.groups import CycleZL, StepDistribution
from srrw.rng import stream
from srrw.sampler import Identity, SrrwConfig

forests = st.integers(min_value=1, max_value=40).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.integers(min_value=0, max_value=10 ** 6),
                 min_size=max(0, n - 1), max_size=max(0, n - 1)),
        st.lists(st.booleans(), min_size=max(0, n - 1),
                 max_size=max(0, n - 1)),
    ))


def build(n, raw_parents, raw_keeps):
    parent = [0, 0] + [1 + r % (j - 1) for j, r in
                       zip(range(2, n + 1), raw_parents)]
    retained = [0, 0] + [1 if k else 0 for k in raw_keeps]
    return PercolatedForest(n=n, parent=parent[: n + 1],
                            retained=retained[: n + 1]).check()


def naive_clusters(forest):
    # reference labeling: walk kept edges upward until a dropped one
    roots = []
    for j in range(1, forest.n + 1):
        v = j
        while forest.retained[v]:
            v = forest.parent[v]
        roots.append(v)
    sizes = {}
    for r in roots:
        sizes[r] = sizes.get(r, 0) + 1
    return roots, sizes


@given(forests)
@settings(max_examples=300, deadline=None)
def test_cluster_labeling_matches_reference(data):
    forest = build(*data)
    stats = clusters(forest)
    roots, sizes = naive_clusters(forest)
    assert stats.root_of[1:] == roots
    assert stats.sizes == sizes
    assert sum(stats.sizes.values()) == forest.n
    assert set(stats.sizes) == {j for j in range(1, forest.n + 1)
                                if not forest.retained[j]}
    assert stats.isolated_count == sum(1 for s in sizes.values() if s == 1)


@given(forests)
@settings(max_examples=200, deadline=None)
def test_odd_vertex_count_forces_an_odd_cluster(data):
    forest = build(*data)
    if forest.n % 2 == 1:
        assert any(s % 2 == 1 for s in clusters(forest).sizes.values())


def test_grow_structure_and_degenerate_alphas():
    forest = grow(30, 0.6, stream(21, 0)).check()
    assert forest.n == 30

    none_kept = grow(25, 0.0, stream(21, 1))
    assert clusters(none_kept).isolated_count == 25

    all_kept = grow(25, 1.0, stream(21, 2))
    stats = clusters(all_kept)
    assert stats.sizes == {1: 25}
    assert stats.isolated_count == 0

    with pytest.raises(ValueError):
        grow(0, 0.5, stream(21, 3))


def test_worked_seven_vertex_example():
    forest = PercolatedForest(n=7, parent=[0, 0, 1, 1, 2, 3, 4, 5],
                              retained=[0, 0, 1, 0, 0, 1, 1, 1]).check()
    stats = clusters(forest)
    assert stats.sizes == {1: 2, 3: 3, 4: 2}
    assert stats.root_of[1:] == [1, 1, 3, 4, 3, 4, 3]
    assert stats.isolated_count == 0


def test_assemble_positions_consistent():
    g = CycleZL(2)
    cfg = SrrwConfig(group=g, alpha=0.5,
                     mu=StepDistribution(support=[(0, 0.5), (1, 0.5)]),
                     transform=Identity())
    forest = grow(12, 0.5, stream(22, 0))
    trace = assign_and_assemble(forest, cfg, stream(22, 1)).check()
    assert trace.n == 12
    assert trace.reinforcement_flags == forest.retained[2:]
    assert trace.picks == forest.parent[2:]


def test_assemble_identity_abelian_is_cluster_weighted_sum():
    # with identity transforms every vertex in a cluster carries the root draw
    g = CycleZL(2)
    cfg = SrrwConfig(group=g, alpha=0.5,
                     mu=StepDistribution(support=[(0, 0.5), (1, 0.5)]))
    for t in range(30):
        forest = grow(10, 0.5, stream(23, t, 0))
        trace = assign_and_assemble(forest, cfg, stream(23, t, 1))
        stats = clusters(forest)
        total = 0
        for root, size in stats.sizes.items():
            total += size * trace.steps[root - 1]
        assert trace.final == total % 2
        for j in range(1, 11):
            assert trace.steps[j - 1] == trace.steps[stats.root_of[j] - 1]


def test_all_clusters_even_probability():
    assert all_clusters_even_probability(0.7, 9, 100, stream(26, 0)).value == 0.0

    est = all_clusters_even_probability(0.6, 2, 20_000, stream(26, 1))
    assert abs(est.value - 0.6) <= 3 * est.stderr + 1e-9

    # n = 4: the central coefficient alpha^2 (2 + alpha) / 3
    alpha = 0.5
    expected = alpha ** 2 * (2 + alpha) / 3
    est = all_clusters_even_probability(alpha, 4, 40_000, stream(26, 2))
    assert abs(est.value - expected) <= 3 * est.stderr


def test_isolated_counts_batch_matches_exact_law():
    from srrw.oracle import exact_isolated_distribution

    n, trials = 6, 40_000
    counts = isolated_counts_batch(n, 0.5, trials, stream(27, 0))
    law = exact_isolated_distribution(0.5, n)
    for i, p in law.items():
        phat = float((counts == i).mean())
        assert abs(phat - p) <= 3 * math.sqrt(p * (1 - p) / trials) + 1e-9
    assert set(np.unique(counts)) <= set(law)


def test_forest_batches_count_against_the_budget(monkeypatch):
    # 20 vertices: 42 bytes of flags per trial for the isolated counts, 400
    # of roots, their bincount copy and sizes for the all-even test; a
    # budget of 100 trials cuts 250 trials into chunks of 100, 100 and 50,
    # drawn in turn
    n, alpha = 20, 0.5
    ref = stream(28, 0)
    parts = [isolated_counts_batch(n, alpha, m, ref) for m in (100, 100, 50)]
    monkeypatch.setattr(forest, "_CODE_BUDGET", 100 * 42)
    assert np.array_equal(isolated_counts_batch(n, alpha, 250, stream(28, 0)),
                          np.concatenate(parts))
    sizes = []
    real = forest.all_even_indicator
    monkeypatch.setattr(forest, "all_even_indicator",
                        lambda n, a, m, rng: sizes.append(m) or real(n, a, m,
                                                                     rng))
    monkeypatch.setattr(forest, "_CODE_BUDGET", 100 * 400)
    all_clusters_even_probability(alpha, n, 250, stream(28, 1))
    assert sizes == [100, 100, 50]
    # not even one trial fits: refused before any draw
    rng = stream(28, 2)
    monkeypatch.setattr(forest, "_CODE_BUDGET", 41)
    with pytest.raises(ValueError, match="42 bytes of flags"):
        isolated_counts_batch(n, alpha, 250, rng)
    monkeypatch.setattr(forest, "_CODE_BUDGET", 399)
    with pytest.raises(ValueError, match="400 bytes of roots"):
        all_clusters_even_probability(alpha, n, 250, rng)
    assert rng.random() == stream(28, 2).random()


# Trial-major references: the (trials, n + 1) root and flag matrices the
# step-major code replaced, fed by the same attachment draws.
def roots_trial_major(n, alpha, trials, rng):
    root_of = np.zeros((trials, n + 1), dtype=np.int32)
    root_of[:, 1] = 1
    for j, _, kept, past in forest._attachments(n, alpha, trials, rng):
        root_of[:, j] = j
        root_of[kept, j] = root_of[kept, past + 1]
    return root_of


def isolated_trial_major(n, alpha, trials, rng):
    own_dropped = np.ones((trials, n + 1), dtype=bool)
    has_kept_child = np.zeros((trials, n + 1), dtype=bool)
    for j, _, kept, past in forest._attachments(n, alpha, trials, rng):
        own_dropped[kept, j] = False
        has_kept_child[kept, past + 1] = True
    return (own_dropped[:, 1:] & ~has_kept_child[:, 1:]).sum(axis=1)


def all_even_trial_major(n, alpha, trials, rng):
    root_of = roots_trial_major(n, alpha, trials, rng)
    counts = np.zeros((trials, n + 1), dtype=np.int32)
    np.add.at(counts, (np.broadcast_to(np.arange(trials)[:, None],
                                       root_of[:, 1:].shape),
                       root_of[:, 1:]), 1)
    return (counts % 2 == 0).all(axis=1)


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("n", [1, 2, 6, 20])
def test_step_major_forest_equals_the_trial_major_reference(alpha, n):
    m = 300
    roots = forest._root_matrix(n, alpha, m, stream(29, n, 0))
    ref = roots_trial_major(n, alpha, m, stream(29, n, 0))
    assert roots.shape == (n, m) and roots.dtype == np.int32
    # each entry is the flat offset of its root in a (trials, n) array
    assert np.array_equal(roots.T, np.arange(m)[:, None] * n + ref[:, 1:] - 1)
    assert np.array_equal(isolated_counts_batch(n, alpha, m, stream(29, n, 1)),
                          isolated_trial_major(n, alpha, m, stream(29, n, 1)))
    assert np.array_equal(
        forest.all_even_indicator(n, alpha, m, stream(29, n, 2)),
        all_even_trial_major(n, alpha, m, stream(29, n, 2)))


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("n", [1, 2, 6, 20])
def test_chunked_forest_batches_equal_the_trial_major_reference(
        monkeypatch, alpha, n):
    # a budget of 100 trials draws 250 as 100, 100 and 50 in turn
    ref = stream(30, n, 0)
    parts = [isolated_trial_major(n, alpha, m, ref) for m in (100, 100, 50)]
    monkeypatch.setattr(forest, "_CODE_BUDGET", 100 * 2 * (n + 1))
    assert np.array_equal(isolated_counts_batch(n, alpha, 250,
                                                stream(30, n, 0)),
                          np.concatenate(parts))
    ref = stream(30, n, 1)
    hits = sum(int(all_even_trial_major(n, alpha, m, ref).sum())
               for m in (100, 100, 50))
    monkeypatch.setattr(forest, "_CODE_BUDGET", 100 * 20 * n)
    est = all_clusters_even_probability(alpha, n, 250, stream(30, n, 1))
    assert est.value == hits / 250
