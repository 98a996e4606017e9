"""Evolving sets for the time-inhomogeneous kernels of a forest realization.

Conditionally on a forest, the per-step transition kernels of the walk are
either the one-step kernel of the step distribution (at vertices that end up
as singleton clusters, where the root draw stays unrevealed) or deterministic
right translations by the already-determined step value.  The evolving-set
process thresholds the incoming-mass profile of the current set against a
uniform variable; its set sizes form a martingale, and the size-biased Doob
transform of the process never dies out.

``step_pieces`` is the one definition of a step: the unit interval cut into
exact pieces, each yielding one next set.  Everything else reads it: psi and
the martingale defect integrate over it, ``doob_step`` size-biases it,
``set_tree`` enumerates it, and ``mask_tables`` tabulates it for the one
Monte Carlo sampler of the chain, ``fastpaths.masked_set_walk``.

The pieces are exact: step weights are floats, floats are dyadic rationals,
and the mass profile is computed in integers over their common power-of-two
denominator, so the martingale identity sum_i len_i |A_i| = |W| holds to
machine equality rather than within a tolerance.  ``step_pieces`` hands the
lengths out as Fractions; psi and the martingale defect read the integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

import numpy as np

from . import rng as rngmod
from .fastpaths import MAX_SET_POINTS
from .forest import PercolatedForest, clusters
from .groups import Group, StepDistribution, bfs_ball
from .sampler import SrrwConfig, WalkTrace


@dataclass
class MuStep:
    """One step by the step distribution: kernel (x, y) -> mu(x^-1 y)."""

    def __repr__(self):
        return "MuStep"


@dataclass
class DeterministicStep:
    """Right translation by a fixed, already-revealed step value."""

    g: object

    def __repr__(self):
        return f"DeterministicStep({self.g!r})"


@dataclass
class KernelSeq:
    """Per-step kernel tags for steps 1..n, with their group and step law."""

    group: Group
    mu: StepDistribution
    tags: list

    @property
    def n(self) -> int:
        return len(self.tags)

    def kernel(self, j: int):
        if not 1 <= j <= self.n:
            raise IndexError(f"step {j} outside 1..{self.n}")
        return self.tags[j - 1]


def kernel_seq_from_forest(forest: PercolatedForest, config: SrrwConfig,
                           trace: WalkTrace) -> KernelSeq:
    """Tag each step of an assembled walk.

    A vertex that is a singleton cluster keeps its fresh-draw randomness, so
    its step kernel is the step distribution; every other vertex's value is
    pinned by the revealed root draws and transformations, leaving a
    deterministic translation.
    """
    if config.mu.is_continuous:
        raise ValueError("kernel sequences need a finite-support mu")
    stats = clusters(forest)
    isolated = {j for j, s in stats.sizes.items() if s == 1}
    tags = []
    for j in range(1, forest.n + 1):
        if j in isolated:
            tags.append(MuStep())
        else:
            tags.append(DeterministicStep(trace.steps[j - 1]))
    return KernelSeq(group=config.group, mu=config.mu, tags=tags)


def mass_profile(group: Group, mu: StepDistribution, W) -> tuple:
    """Q(y) = sum over x in W of mu(x^-1 y), exact, as ``(den, q)``: q maps
    each element to the integer Q(y) * den.

    Float weights are dyadic rationals, so den, the least common multiple
    of their denominators, is the largest of them, a power of two.
    """
    ratios = [(s, w.as_integer_ratio()) for s, w in mu.support]
    den = math.lcm(*(d for _, (_, d) in ratios))
    steps = [(s, p * (den // d)) for s, (p, d) in ratios]
    q: dict = {}
    for x in W:
        for s, p in steps:
            y = group.multiply(x, s)
            q[y] = q.get(y, 0) + p
    return den, q


def _mu_pieces(group: Group, mu: StepDistribution, W) -> tuple:
    """The mu-step of ``step_pieces`` from a nonempty W as ``(den,
    [(numerator, set)])``: each length is numerator / den."""
    den, q = mass_profile(group, mu, W)
    levels = sorted(set(q.values()), reverse=True)
    pieces = [(lvl - nxt, {y for y, v in q.items() if v >= lvl})
              for lvl, nxt in zip(levels, levels[1:] + [0])]
    return den, pieces + [(den - levels[0], set())]


def step_pieces(group: Group, mu: StepDistribution, W, kernel) -> list:
    """One evolving-set step from W as ``[(length, set)]``, Fraction
    lengths summing to 1: a uniform in the i-th length yields the i-th set.

    The empty set stays empty and a translation is one piece.  A mu-step
    thresholds the exact mass profile: one piece per distinct level, in
    strictly decreasing order (so the sets are nested decreasing), each as
    long as the gap to the next level, and then the empty set above the top
    level.
    """
    if not W:
        return [(Fraction(1), set())]
    if isinstance(kernel, DeterministicStep):
        return [(Fraction(1), {group.multiply(x, kernel.g) for x in W})]
    den, pieces = _mu_pieces(group, mu, W)
    return [(Fraction(n, den), a) for n, a in pieces]


def martingale_defect(group: Group, mu: StepDistribution, W) -> Fraction:
    """sum_i len_i |A_i| - |W| over one mu-step; exactly zero for every
    valid decomposition."""
    if not W:
        raise ValueError("empty current set")
    den, pieces = _mu_pieces(group, mu, W)
    return Fraction(sum(n * len(a) for n, a in pieces) - len(W) * den, den)


def psi(group: Group, mu: StepDistribution, W) -> float:
    """One minus the expected root of the relative size after one mu-step.

    Exact integration over ``step_pieces``: the uniform variable lands in
    piece i with probability equal to its length, producing the piece's
    set; the empty tail contributes zero.  Each length is one correctly
    rounded integer division, as ``float`` of its Fraction is.
    """
    if not W:
        raise ValueError("empty current set")
    den, pieces = _mu_pieces(group, mu, W)
    total = sum(n / den * math.sqrt(len(a)) for n, a in pieces)
    return 1.0 - total / math.sqrt(len(W))


def bottleneck(group: Group, mu: StepDistribution, A) -> float:
    """Mass flowing out of A per element of A under one mu-step."""
    if not A:
        raise ValueError("empty set")
    inside = set(A)
    out = 0.0
    for x in inside:
        for s, w in mu.support:
            if group.multiply(x, s) not in inside:
                out += w
    return out / len(A)


def enumerate_group(group: Group, cap: int = 100_000) -> list:
    """All elements of a finite group, via saturation of generator balls."""
    prev = -1
    radius = 4
    while True:
        ball = bfs_ball(group, radius)
        if len(ball) == prev:
            return list(ball)
        if len(ball) > cap:
            raise ValueError(f"group enumeration exceeded cap {cap}")
        prev = len(ball)
        radius *= 2


def connected_sets(group: Group, moves, r: int, seed_elem=None,
                   max_sets: int = 2_000_000) -> list:
    """All connected subsets containing the seed element, sizes 1..r.

    Connectivity is with respect to right moves by ``moves``.  Every subset
    is produced exactly once (standard fixed-root connected-subgraph
    enumeration: each candidate is either taken or permanently excluded).
    """
    if seed_elem is None:
        seed_elem = group.identity()
    results: list = []

    def neighbors(x):
        return [group.multiply(x, s) for s in moves]

    def extend(S, frontier, excluded):
        results.append(S)
        if len(results) > max_sets:
            raise ValueError(f"enumeration exceeded cap {max_sets}")
        if len(S) == r:
            return
        cand = [v for v in frontier if v not in S and v not in excluded]
        for i, v in enumerate(cand):
            new_frontier = list(frontier) + [y for y in neighbors(v)
                                             if y not in S]
            extend(S | {v}, new_frontier, excluded | set(cand[:i]))

    extend(frozenset([seed_elem]), neighbors(seed_elem), frozenset())
    return results


@dataclass
class ProfileValue:
    """A profile point: the best ratio found at size cap r.

    ``restricted`` is set when the search ranged only over connected sets
    containing a fixed base point (an upper bound on the true infimum);
    complete enumeration over a finite group clears it.
    """

    r: int
    value: float
    best_set: frozenset
    restricted: bool


def _candidate_sets(group: Group, mu: StepDistribution, r: int,
                    search_scope: str):
    if mu.support is None:
        raise ValueError("profile searches need a finite step law")
    if search_scope == "connected":
        moves = [s for s, _ in mu.support if s != group.identity()]
        return connected_sets(group, moves, r), True
    if search_scope == "all":
        from itertools import combinations

        elems = enumerate_group(group)
        if len(elems) > 24:
            raise ValueError("complete subset enumeration needs a small group")
        sets = []
        for size in range(1, min(r, len(elems)) + 1):
            sets.extend(frozenset(c) for c in combinations(elems, size))
        return sets, False
    raise ValueError(f"unknown search scope {search_scope!r}")


def _profile(group: Group, mu: StepDistribution, r: int, scope: str,
             ratio) -> ProfileValue:
    """Smallest ``ratio(group, mu, A)`` over the candidate sets of size at
    most r; the first set reaching the minimum wins."""
    sets, restricted = _candidate_sets(group, mu, r, scope)
    best, best_set = math.inf, frozenset()
    for a in sets:
        v = ratio(group, mu, a)
        if v < best:
            best, best_set = v, a
    return ProfileValue(r=r, value=best, best_set=best_set,
                        restricted=restricted)


def iso_profile(group: Group, mu: StepDistribution, r: int,
                search_scope: str = "connected") -> ProfileValue:
    """Smallest bottleneck ratio over candidate sets of size at most r."""
    return _profile(group, mu, r, search_scope, bottleneck)


def psi_profile(group: Group, mu: StepDistribution, r: int,
                search_scope: str = "connected") -> ProfileValue:
    """Smallest one-step psi over the same candidate sets as iso_profile."""
    return _profile(group, mu, r, search_scope, psi)


def doob_step(group: Group, mu: StepDistribution, W, kernel, rng_seed):
    """One step of the size-biased evolving-set chain.

    Nonempty piece i of ``step_pieces`` is drawn with probability
    len_i |A_i| / |W|; the weights sum to one by the martingale identity, so
    the resulting set is never empty.  A step with a single piece (a
    translation) is certain and draws nothing.
    """
    if not W:
        raise ValueError("empty current set")
    pieces = step_pieces(group, mu, W, kernel)
    if len(pieces) == 1:
        return pieces[0][1]
    pieces = [(l, a) for l, a in pieces if a]
    u = rngmod.as_generator(rng_seed).random()
    acc = 0.0
    for l, a in pieces:
        acc += float(l) * len(a) / len(W)
        if u < acc:
            return a
    return pieces[-1][1]


def kernel_matrix(seq: KernelSeq, j: int, elements: list) -> np.ndarray:
    """Dense matrix of step j over an enumerated state list (row: from)."""
    g = seq.group
    index = {x: i for i, x in enumerate(elements)}
    m = np.zeros((len(elements), len(elements)))
    tag = seq.kernel(j)
    for i, x in enumerate(elements):
        if isinstance(tag, DeterministicStep):
            m[i, index[g.multiply(x, tag.g)]] = 1.0
        else:
            for s, w in seq.mu.support:
                m[i, index[g.multiply(x, s)]] += w
    return m


def compose_matrices(seq: KernelSeq, elements: list, k: int,
                     l: int) -> np.ndarray:
    """Product of the dense step matrices for steps k+1..l."""
    m = np.eye(len(elements))
    for j in range(k + 1, l + 1):
        m = m @ kernel_matrix(seq, j, elements)
    return m


def set_tree(seq: KernelSeq, start, k: int, l: int) -> list:
    """Exact law of the evolving set after steps k+1..l from a start set.

    Full enumeration over ``step_pieces`` (the empty set included),
    probabilities exact.  Exponential in l - k; meant for the small horizons
    where closed identities are certified.
    """
    states = [(frozenset(start), Fraction(1))]
    for j in range(k + 1, l + 1):
        nxt: dict = {}
        for w, p in states:
            for length, a in step_pieces(seq.group, seq.mu, w, seq.kernel(j)):
                if length:
                    a = frozenset(a)
                    nxt[a] = nxt.get(a, Fraction(0)) + p * length
        states = list(nxt.items())
    return states


def mask_tables(seq: KernelSeq, elements: list) -> list:
    """Per-step ``(cums, succs)`` tables over subset bitmasks of a group
    of at most ``MAX_SET_POINTS`` elements, the input of
    ``fastpaths.masked_set_walk``.

    Bit i of a mask stands for ``elements[i]``.  For each mask, ``cums``
    are the cumulative float lengths of its ``step_pieces``, the last set to
    exactly 1.0, and ``succs`` the masks of the pieces' sets.
    """
    if len(elements) > MAX_SET_POINTS:
        raise ValueError(f"mask tables over {len(elements)} points exceed "
                         f"{MAX_SET_POINTS}")
    g = seq.group
    bit = {x: 1 << i for i, x in enumerate(elements)}
    subsets = [{x for i, x in enumerate(elements) if mask >> i & 1}
               for mask in range(1 << len(elements))]
    tables = []
    for j in range(1, seq.n + 1):
        cums, succs = [], []
        for w in subsets:
            pieces = step_pieces(g, seq.mu, w, seq.kernel(j))
            cu = list(accumulate(float(length) for length, _ in pieces))
            cu[-1] = 1.0
            cums.append(np.array(cu))
            succs.append(np.array([sum(bit[y] for y in a)
                                   for _, a in pieces], dtype=np.int32))
        tables.append((cums, succs))
    return tables
