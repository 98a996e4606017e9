"""Brute-force exact distributions at small horizons.

Ground truth for everything else: enumerate all of the walk's randomness
(retention flags, past picks, fresh draws, transformation coins) with exact
probability weights and accumulate the law of the endpoint.  The rest of a
walk depends only on its steps so far, so all outcomes that give the same
next step merge into one branch before the enumeration descends.  With the
identity transform on an abelian group the endpoint depends only on how many
steps took each atom of mu, and those counts form an urn, so a polynomial
chain over count vectors reaches horizons the raw tree cannot.  The
forest's isolated-vertex count is a Markov chain, run in the log domain.

Float masses are accumulated with compensated summation; an exact-rational
mode reruns the same enumeration in Fraction arithmetic (on the exact binary
values of the float inputs) to certify the double-precision results.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .groups import Group, StepDistribution
from .sampler import Identity, SrrwConfig, WalkTrace

DFS_CAP = 8


class _MassMap:
    """Endpoint masses by element: exact sums for Fractions, compensated
    sums for floats."""

    def __init__(self, exact: bool):
        self.exact = exact
        self.sums: dict = {}
        self._comp: dict = {}

    def add(self, x, w):
        s = self.sums.get(x, 0)
        if self.exact:
            self.sums[x] = s + w
            return
        y = w - self._comp.get(x, 0.0)
        t = s + y
        self._comp[x] = (t - s) - y
        self.sums[x] = t

    def law(self, n: int, count: int) -> "ExactDistribution":
        mass = {x: p for x, p in self.sums.items() if p > 0}
        return ExactDistribution(n=n, mass=mass,
                                 enumeration_count=count).check()


@dataclass
class ExactDistribution:
    """Exact law of the walk endpoint: group element -> probability."""

    n: int
    mass: dict
    enumeration_count: int = 0

    def check(self) -> "ExactDistribution":
        total = sum(self.mass.values())
        assert abs(float(total) - 1.0) <= 1e-12, total
        assert all(p > 0 for p in self.mass.values())
        return self

    def prob(self, x) -> float:
        return float(self.mass.get(x, 0))


def iid_convolution(group: Group, mu: StepDistribution, n: int,
                    exact: bool = False) -> ExactDistribution:
    """Law of a product of n independent mu-draws.

    Deliberately independent of the enumeration below; the reinforcement-free
    walk must match it.
    """
    mu.validate(group)
    one = Fraction(1) if exact else 1.0
    cur = {group.identity(): one}
    for _ in range(n):
        nxt: dict = {}
        for x, p in cur.items():
            for e, w in mu.support:
                y = group.multiply(x, e)
                nxt[y] = nxt.get(y, 0) + p * (Fraction(w) if exact else w)
        cur = nxt
    return ExactDistribution(n=n, mass=cur,
                             enumeration_count=len(cur)).check()


def exact_distribution(config: SrrwConfig, n: int,
                       exact: bool = False) -> ExactDistribution:
    """Exact endpoint law by full enumeration, keyed by group element.

    Identity transforms on an abelian group run the type-count urn, whose
    state count grows like n^(k-1) for k atoms, and take any modest n;
    everything else walks the tree of step sequences, one branch per
    distinct next step, and is capped at ``DFS_CAP`` (8) steps;
    ``enumeration_count`` counts its leaves.  With ``exact=True`` all
    weights are Fractions built from the exact binary values of the float
    parameters, certifying the float accumulation.
    """
    if config.mu.is_continuous:
        raise ValueError("exact law needs a finite-support mu")
    if not config.transform.enumerable:
        raise ValueError("exact law needs an enumerable transform")
    if n < 1:
        raise ValueError("need n >= 1")
    if isinstance(config.transform, Identity) and config.group.is_abelian:
        return _exact_identity_abelian(config, n, exact)
    if n > DFS_CAP:
        raise ValueError(
            f"full enumeration capped at n = {DFS_CAP}; got n = {n} "
            "(only the identity-transform abelian case avoids the tree)")
    return _exact_dfs(config, n, exact)


def _exact_dfs(config: SrrwConfig, n: int, exact: bool) -> ExactDistribution:
    g, mu, tf = config.group, config.mu, config.transform
    alpha = Fraction(config.alpha) if exact else config.alpha
    one = Fraction(1) if exact else 1.0
    mu_atoms = [(e, Fraction(w) if exact else w) for e, w in mu.support]
    acc = _MassMap(exact)
    count = 0

    steps: list = []
    positions = [g.identity()]

    def record(w):
        nonlocal count
        count += 1
        acc.add(positions[-1], w)

    def branch(j, w):
        if j > n:
            record(w)
            return
        law: dict = {}  # step j's value -> its weight, picks and atoms merged
        if j >= 2 and alpha > 0:
            history = WalkTrace(group=g, steps=steps, positions=positions,
                                reinforcement_flags=[], picks=[])
            for x, k in Counter(steps).items():
                for y, pw in tf.push_point(g, mu, j, x, history=history):
                    pw = Fraction(pw) if exact else pw
                    law[y] = law.get(y, 0) + alpha * k * pw / (j - 1)
        fresh = one - alpha if j >= 2 else one
        if fresh > 0:
            for e, pw in mu_atoms:
                law[e] = law.get(e, 0) + fresh * pw
        for y, p in law.items():
            if p > 0:
                descend(j, y, w * p)

    def descend(j, x, w):
        steps.append(x)
        positions.append(g.multiply(positions[-1], x))
        branch(j + 1, w)
        steps.pop()
        positions.pop()

    branch(1, one)
    return acc.law(n, count)


def _exact_identity_abelian(config: SrrwConfig, n: int,
                            exact: bool) -> ExactDistribution:
    """Type-count urn: with identity replay, step j + 1 has the type of
    atom i with probability (1 - alpha) w_i + alpha c_i / j, where c counts
    the earlier steps of each type; on an abelian group c fixes the
    position."""
    g = config.group
    alpha = Fraction(config.alpha) if exact else config.alpha
    atoms = [e for e, _ in config.mu.support]
    weights = [Fraction(w) if exact else w for _, w in config.mu.support]
    k = len(atoms)
    states = {tuple(int(i == m) for i in range(k)): w
              for m, w in enumerate(weights)}
    fresh = [(1 - alpha) * w for w in weights]
    for j in range(1, n):
        nxt: dict = {}
        for c, p in states.items():
            for i in range(k):
                q = fresh[i] + alpha * c[i] / j
                if q > 0:
                    d = c[:i] + (c[i] + 1,) + c[i + 1:]
                    nxt[d] = nxt.get(d, 0) + p * q
        states = nxt

    powers = []
    for e in atoms:
        row = [g.identity()]
        for _ in range(n):
            row.append(g.multiply(row[-1], e))
        powers.append(row)
    acc = _MassMap(exact)
    for c, p in states.items():
        x = g.identity()
        for row, ci in zip(powers, c):
            if ci:
                x = g.multiply(x, row[ci])
        acc.add(x, p)
    return acc.law(n, len(states))


def exact_isolated_distribution(alpha, n: int, exact: bool = False) -> dict:
    """Exact law of the number of singleton clusters after n vertices.

    The count is Markov as vertices arrive: it goes up by one when the new
    edge is dropped, down by one when the new vertex attaches to a current
    singleton (probability proportional to the singleton count), and is
    unchanged otherwise.  Floats come from ``isolated_log_laws``; with
    ``exact=True`` the same recursion runs in Fractions and certifies it.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if not exact:
        for _, logs in isolated_log_laws(alpha, n):
            pass
        return {i: float(p) for i, p in enumerate(np.exp(logs)) if p != 0}
    a = Fraction(alpha)
    law = {1: Fraction(1)}
    for j in range(1, n):
        nxt: dict = {}
        for i, p in law.items():
            for k, q in ((i + 1, 1 - a), (i - 1, a * i / j),
                         (i, a * (j - i) / j)):
                if q:
                    nxt[k] = nxt.get(k, 0) + p * q
        law = nxt
    return law


def isolated_log_laws(alpha, n_max: int):
    """Yield (n, log P(I(n) = i) for i = 0..n) for n = 1..n_max.

    The isolated-count recursion in floats, in the log domain so that tails
    below double range keep their size; it holds one law at a time, never
    the (n x n) table.  An impossible count reads -inf.
    """
    if n_max < 1:
        raise ValueError("need n >= 1")
    a = float(alpha)
    with np.errstate(divide="ignore"):
        log_keep, log_a = np.log(1.0 - a), np.log(a)
        log_int = np.log(np.arange(n_max + 1.0))
    logs = np.array([-np.inf, 0.0])
    yield 1, logs
    for j in range(1, n_max):
        per_count = log_a - log_int[j]
        # i -> i: the new vertex keeps an edge to one of j - i clustered ones
        nxt = np.append(logs + log_int[j::-1] + per_count, -np.inf)
        # i -> i + 1: its edge is dropped
        nxt[1:] = np.logaddexp(nxt[1:], logs + log_keep)
        # i -> i - 1: it keeps an edge to one of the i singletons
        nxt[:j] = np.logaddexp(nxt[:j], logs[1:] + log_int[1:j + 1] + per_count)
        logs = nxt
        yield j + 1, logs


def isolated_distribution_bruteforce(alpha, n: int, cap: int = 8) -> dict:
    """Certifying oracle for the isolated-count law: enumerate every
    attachment vector and retention pattern.  Factorially expensive; capped."""
    from itertools import product

    from .forest import PercolatedForest, clusters

    if n > cap:
        raise ValueError(f"brute force capped at n = {cap}")
    if n == 1:
        return {1: 1.0}
    a = float(alpha)
    out: dict = {}
    u_space = product(*[range(1, j) for j in range(2, n + 1)])
    for us in u_space:
        for bits in product((0, 1), repeat=n - 1):
            w = 1.0
            for b in bits:
                w *= a if b else (1 - a)
            w /= math.factorial(n - 1)
            parent = [0, 0] + list(us)
            retained = [0, 0] + list(bits)
            retained[1] = 0
            f = PercolatedForest(n=n, parent=parent, retained=retained)
            i = clusters(f).isolated_count
            out[i] = out.get(i, 0.0) + w
    return out


def tv_distance(empirical: dict, exact: ExactDistribution) -> float:
    """Total variation between a histogram (counts or frequencies) and an
    exact law, over the union of keys."""
    total = sum(empirical.values())
    if total <= 0:
        raise ValueError("empty histogram")
    keys = set(empirical) | set(exact.mass)
    return 0.5 * sum(abs(empirical.get(k, 0) / total - exact.prob(k))
                     for k in keys)
