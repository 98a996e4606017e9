"""Percolated random recursive forests and the walks assembled from them.

Vertices arrive one at a time; vertex j attaches to a uniform earlier vertex
and the new edge is kept with probability ``alpha``, independently.  Deleting
the dropped edges splits the recursive tree into clusters, each rooted at its
smallest label; the roots are exactly the vertices whose own edge was dropped
(vertex 1 has no edge and is always a root).

Assigning every root a fresh step draw and pushing values down the kept edges
through the per-vertex transformations reproduces, jointly in law, the steps
of the reinforced walk; ordered multiplication of the values assembles the
walk itself.  This is the package's second, structurally different sampler
for the same process and the basis of several exact identities (with identity
transforms on an abelian group the position is the cluster-size-weighted sum
of the root draws).

The batched routines grow many forests at once and hold them step-major: a
matrix has one row per vertex and one column per trial, so each arriving
vertex reads and writes whole contiguous rows, and a row's kept entries
gather from earlier rows by flat offset, as the engines' replay does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng as rngmod
from .sampler import SrrwConfig, WalkTrace, draw_step
from .stats import Estimate, binomial_estimate

# Bytes of horizon-sized arrays one chunk of trials may hold: the forest
# matrices here, step codes and walk state in ``fastpaths``; 2^16 trials x
# 1024 one-byte steps.
_CODE_BUDGET = 64 << 20


def _budget_rows(chunk: int, per_trial: int, need: str) -> int:
    """``chunk`` cut to the trials whose ``per_trial`` bytes fit in
    ``_CODE_BUDGET``; raises when not even one trial's do, with ``need``
    saying what the bytes hold."""
    if per_trial > _CODE_BUDGET:
        raise ValueError(f"{need}, over the {_CODE_BUDGET}-byte budget")
    return min(chunk, _CODE_BUDGET // per_trial)


@dataclass
class PercolatedForest:
    """Attachment targets and edge-retention flags, 1-based.

    ``parent[j]`` is the attachment target of vertex j (0 for vertex 1, which
    has none) and ``retained[j]`` is 1 iff the edge was kept; index 0 of both
    arrays is padding.
    """

    n: int
    parent: list
    retained: list

    def check(self) -> "PercolatedForest":
        assert len(self.parent) == self.n + 1
        assert len(self.retained) == self.n + 1
        assert self.retained[1] == 0
        for j in range(2, self.n + 1):
            assert 1 <= self.parent[j] <= j - 1
            assert self.retained[j] in (0, 1)
        return self


@dataclass
class ClusterStats:
    """Cluster labeling of a forest: per-vertex root, root -> size, and the
    number of singleton clusters."""

    root_of: list
    sizes: dict
    isolated_count: int


def grow(n: int, alpha: float, rng_seed) -> PercolatedForest:
    """Grow an n-vertex forest: uniform attachment, Bernoulli(alpha) retention."""
    if n < 1:
        raise ValueError("need at least one vertex")
    rng = rngmod.as_generator(rng_seed)
    parent = [0] * (n + 1)
    retained = [0] * (n + 1)
    for j in range(2, n + 1):
        parent[j] = int(rng.integers(1, j))
        retained[j] = 1 if rng.random() < alpha else 0
    return PercolatedForest(n=n, parent=parent, retained=retained)


def clusters(forest: PercolatedForest) -> ClusterStats:
    """Label clusters in one forward pass.

    A vertex whose edge was dropped roots a new cluster; otherwise it joins
    its parent's cluster.  Parents always have smaller labels, so the root
    found this way is automatically the smallest label in its cluster.
    """
    n = forest.n
    root_of = [0] * (n + 1)
    sizes: dict = {}
    for j in range(1, n + 1):
        if forest.retained[j]:
            r = root_of[forest.parent[j]]
        else:
            r = j
        root_of[j] = r
        sizes[r] = sizes.get(r, 0) + 1
    isolated = sum(1 for s in sizes.values() if s == 1)
    return ClusterStats(root_of=root_of, sizes=sizes, isolated_count=isolated)


def assign_and_assemble(forest: PercolatedForest, config: SrrwConfig,
                        rng_seed) -> WalkTrace:
    """Assign root values and push them down kept edges, then multiply up.

    Root j draws a fresh step; a non-root's value is its parent's value put
    through the vertex's own transformation.  A single forward pass suffices
    because a vertex's value depends only on its parent's.
    """
    rng = rngmod.as_generator(rng_seed)
    g, mu, tf = config.group, config.mu, config.transform
    n = forest.n
    value = [None] * (n + 1)
    trace = WalkTrace(group=g, steps=[], positions=[g.identity()],
                      reinforcement_flags=[], picks=[])
    for j in range(1, n + 1):
        if forest.retained[j]:
            value[j] = tf.apply(g, mu, j, value[forest.parent[j]], rng,
                                history=trace)
        else:
            value[j] = draw_step(g, mu, rng)
        trace.steps.append(value[j])
        trace.positions.append(g.multiply(trace.positions[-1], value[j]))
        if j >= 2:
            trace.reinforcement_flags.append(forest.retained[j])
            trace.picks.append(forest.parent[j])
    return trace


def _attachments(n: int, alpha: float, trials: int, rng):
    """Yield (j, v, kept, past) for vertices j = 2..n of ``trials`` forests
    at once.

    One uniform v per forest decides vertex j: its edge is kept iff
    v < alpha, and a kept edge attaches to vertex past + 1, where
    past = floor(v / alpha * (j - 1)) is uniform on 0..j-2 given v < alpha.
    ``kept`` lists the rows that keep their edge and ``past`` their picks;
    nothing is computed for the other rows.  The replay engines read the
    same draw as the walk's step j (``fastpaths``).
    """
    for j in range(2, n + 1):
        v = rng.random(trials)
        kept = np.flatnonzero(v < alpha)
        past = kept
        if kept.size:
            past = (v[kept] * ((j - 1) / alpha)).astype(np.intp)
            np.minimum(past, j - 2, out=past)  # v / alpha can round up to 1
        yield j, v, kept, past


def _root_matrix(n: int, alpha: float, trials: int, rng) -> np.ndarray:
    """(n, trials) int32 matrix of cluster roots, step-major.

    Row j - 1 is vertex j.  An entry is the flat offset, t * n + r - 1, of
    trial t's root r in a trial-major (trials, n) array, the layout of
    ``trials * n`` codes drawn at once; offsets differ across trials, so
    they also key one ``bincount`` over all trials.  Roots are decided at
    attachment time and never change, so one pass over the vertices, one
    contiguous row each, vectorizes across trials.
    """
    if trials * n >= 1 << 31:
        raise ValueError(f"{trials} forests of {n} vertices overflow int32 "
                         f"root offsets")
    base = np.arange(trials, dtype=np.int32) * np.int32(n)
    root = np.empty((n, trials), dtype=np.int32)
    flat = root.reshape(-1)
    root[0] = base
    for j, _, kept, past in _attachments(n, alpha, trials, rng):
        np.add(base, j - 1, out=root[j - 1])
        if kept.size:
            root[j - 1, kept] = flat.take(past * trials + kept)
    return root


def all_even_indicator(n: int, alpha: float, trials: int, rng) -> np.ndarray:
    """Boolean vector: per trial, are all cluster sizes even?"""
    sizes = np.bincount(_root_matrix(n, alpha, trials, rng).reshape(-1),
                        minlength=trials * n)
    np.bitwise_and(sizes, 1, out=sizes)
    return ~sizes.reshape(trials, n).any(axis=1)


def all_clusters_even_probability(alpha: float, n: int, trials: int,
                                  rng_seed) -> Estimate:
    """Monte Carlo probability that every cluster has even size.

    Zero whenever n is odd (sizes sum to n); the even-n values match the
    central coefficients of the elephant polynomials.  Chunks of at most
    2^14 trials hold, per vertex, an int32 root, its intp copy inside
    ``bincount`` and an int64 size, charged to ``_CODE_BUDGET``.
    """
    rng = rngmod.as_generator(rng_seed)
    per_trial = 20 * n
    chunk = _budget_rows(1 << 14, per_trial, f"{n} forest vertices need "
                         f"{per_trial} bytes of roots and sizes per trial")
    hits = 0
    done = 0
    while done < trials:
        m = min(chunk, trials - done)
        hits += int(all_even_indicator(n, alpha, m, rng).sum())
        done += m
    return binomial_estimate(hits, trials)


def isolated_counts_batch(n: int, alpha: float, trials: int, rng) -> np.ndarray:
    """Vectorized isolated-cluster counts over many grown forests.

    A vertex is isolated iff its own edge was dropped and no later vertex
    kept an edge to it.  The two flags are (n + 1, trials) boolean
    matrices, step-major with row j for vertex j, combined in place.
    Trials run in chunks, one after another on ``rng``, whose flags fit in
    ``_CODE_BUDGET``.
    """
    per_trial = 2 * (n + 1)
    rows = _budget_rows(max(trials, 1), per_trial, f"{n} forest vertices "
                        f"need {per_trial} bytes of flags per trial")
    out = np.empty(trials, dtype=np.intp)
    for lo in range(0, trials, rows):
        m = min(rows, trials - lo)
        own_dropped = np.ones((n + 1, m), dtype=bool)
        has_kept_child = np.zeros((n + 1, m), dtype=bool)
        child = has_kept_child.reshape(-1)
        for j, _, kept, past in _attachments(n, alpha, m, rng):
            own_dropped[j, kept] = False
            child[(past + 1) * m + kept] = True
        isolated = np.logical_not(has_kept_child, out=has_kept_child)
        isolated &= own_dropped
        isolated[1:].sum(axis=0, out=out[lo:lo + m])
    return out
