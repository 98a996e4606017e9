"""Exact distributions at small horizons.

Ground truth for everything else.  The walk's next step depends on its past
only through the multiset of its past steps: step j replays each earlier
step with weight alpha / (j - 1), through the transform, and is a fresh
mu-draw with weight 1 - alpha.  So one layered chain over states (past,
position) gives the endpoint law of every enumerable transform; only a
``HistoryDependent`` map, which may read the history, keeps the whole step
sequence as its past.  The forest's isolated-vertex count is a Markov
chain, run in the log domain.

Endpoint masses are summed with compensated summation; an exact-rational
mode reruns the same chain in Fraction arithmetic (on the exact binary
values of the float inputs) to certify the double-precision results.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

import numpy as np

from .groups import Group, StepDistribution
from .sampler import HistoryDependent, SrrwConfig, WalkTrace, step_law

# Most (past, position) states one layer of the exact chain may hold, and
# the largest n the isolated-count brute force enumerates.
STATE_CAP, BRUTE_CAP = 1 << 18, 8


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
    """Exact law of the walk endpoint: group element -> probability, with
    ``enumeration_count`` states in the layer (or support) it came from."""

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

    Deliberately independent of the chain below; the reinforcement-free
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
    """Exact endpoint law by the layered chain, keyed by group element.

    Layer j maps each state (past, position) after j steps to its mass;
    the past is the multiset of the steps taken, or their sequence under a
    ``HistoryDependent`` map, which may read the history.  A state moves to
    (past + y, position * y) with y's weight in the next-step law, and
    equal states merge.  A layer holding more than ``STATE_CAP`` states
    raises ``ValueError``; ``enumeration_count`` counts the last layer's.
    With ``exact=True`` all weights are Fractions built from the exact
    binary values of the float parameters, certifying the float sums.
    """
    if config.mu.is_continuous:
        raise ValueError("exact law needs a finite-support mu")
    if not config.transform.enumerable:
        raise ValueError("exact law needs an enumerable transform")
    if n < 1:
        raise ValueError("need n >= 1")
    g = config.group
    one = Fraction(1) if exact else 1.0
    by_sequence = isinstance(config.transform, HistoryDependent)
    step = step_law(config, exact)
    values: list = []  # a multiset past counts step values by code
    codes: dict = {}

    def replays(past):
        if by_sequence:
            return Counter(past).items()
        return [(values[c], k) for c, k in enumerate(past) if k]

    def extend(past, y):
        if by_sequence:
            return past + (y,)
        c = codes.setdefault(y, len(codes))
        if c == len(values):
            values.append(y)
        past += (0,) * (c + 1 - len(past))
        return past[:c] + (past[c] + 1,) + past[c + 1:]

    layer = {(): {g.identity(): one}}  # past -> position -> mass
    for j in range(1, n + 1):
        nxt, size = {}, 0  # size: states in nxt
        for past, at in layer.items():
            history = _trace(g, past) if by_sequence else None
            law = step(j, replays(past), history)
            for y, q in law.items():
                if q <= 0:
                    continue
                dest = nxt.setdefault(extend(past, y), {})
                size -= len(dest)
                for x, p in at.items():
                    z = g.multiply(x, y)
                    dest[z] = dest.get(z, 0) + p * q
                size += len(dest)
                if size > STATE_CAP:
                    raise ValueError(
                        f"exact chain holds more than STATE_CAP = {STATE_CAP}"
                        f" states at step {j} of {n}")
        layer = nxt
    acc = _MassMap(exact)
    for at in layer.values():
        for x, p in at.items():
            acc.add(x, p)
    return acc.law(n, sum(map(len, layer.values())))


def _trace(g: Group, steps: tuple) -> WalkTrace:
    """The history a ``HistoryDependent`` map reads after ``steps``."""
    positions = list(accumulate(steps, g.multiply, initial=g.identity()))
    return WalkTrace(group=g, steps=list(steps), positions=positions,
                     reinforcement_flags=[], picks=[])


# Pivot of a log-sum-exp whose terms are all -inf: every term minus it is
# still -inf, and no log-probability lies below it.
_LOG_FLOOR = np.finfo(float).min


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
    below double range keep their size.  ``alpha`` is one value, giving 1-D
    laws, or a 1-D sequence, giving (len(alpha), n + 1) arrays with one law
    per row; a row equals the law of its alpha alone, bit for bit.  Each
    entry is a three-term log-sum-exp, pivoted at its largest term: stay
    (the new vertex keeps an edge into a non-singleton cluster), arrive (its
    edge is dropped) and leave (it keeps an edge to a singleton).  An
    impossible count reads -inf.

    The laws are stored count-major, (n_max + 2, len(alpha)), so every step
    is a few whole-array passes over contiguous memory, and a shift by one
    count is a shift by one row.  Two such buffers take turns: a yielded law
    is a view that stays valid until two more are drawn, so copy it to keep
    it.
    """
    if n_max < 1:
        raise ValueError("need n >= 1")
    a = np.asarray(alpha, dtype=float)
    if a.ndim > 1:
        raise ValueError("alpha must be a number or a 1-D sequence")
    width = a.size
    with np.errstate(divide="ignore"):
        log_keep, log_a = np.log(1.0 - a), np.log(a)
        log_int = np.log(np.arange(n_max + 1.0))
    rows = n_max + 2
    # row t of ``up_log`` holds log t; row t of ``down_log`` holds
    # log(n_max - t), -inf past t = n_max; both repeat across alphas
    up_log = np.repeat(np.append(log_int, -np.inf), width)
    down_log = np.repeat(np.append(log_int[::-1], -np.inf), width)
    keep, alphas = np.tile(log_keep, rows), np.tile(log_a, rows)
    per_count = np.empty(rows * width)
    stay, arrive, leave, pivot = (np.empty(rows * width) for _ in range(4))
    cur, nxt = np.full(rows * width, -np.inf), np.full(rows * width, -np.inf)
    cur[width:2 * width] = 0.0

    def law(buf, n):
        view = buf[:(n + 1) * width].reshape(n + 1, width)
        return view[:, 0] if a.ndim == 0 else view.T

    yield 1, law(cur, 1)
    for j in range(1, n_max):
        size = (j + 2) * width  # counts 0..j + 1 after the new vertex
        pc, s, u, d, m = (x[:size] for x in (per_count, stay, arrive, leave,
                                             pivot))
        np.subtract(alphas[:size], log_int[j], out=pc)
        # i -> i: one of the j - i clustered vertices, weight alpha / j each
        np.add(cur[:size], down_log[(n_max - j) * width:][:size], out=s)
        s += pc
        # i -> i + 1: the new edge is dropped
        u[:width] = -np.inf
        np.add(cur[:size - width], keep[:size - width], out=u[width:])
        # i -> i - 1: one of the i singletons
        np.add(cur[width:size], up_log[width:size], out=d[:size - width])
        d[:size - width] += pc[:size - width]
        d[size - width:] = -np.inf
        np.maximum(s, u, out=m)
        np.maximum(m, d, out=m)
        np.maximum(m, _LOG_FLOOR, out=m)  # a finite pivot for -inf cells
        for t in (s, u, d):
            t -= m
            np.exp(t, out=t)
        s += u
        s += d
        with np.errstate(divide="ignore"):
            np.log(s, out=nxt[:size])
        nxt[:size] += m
        cur, nxt = nxt, cur
        yield j + 1, law(cur, j + 1)


def isolated_distribution_bruteforce(alpha, n: int) -> dict:
    """Certifying oracle for the isolated-count law: enumerate every
    attachment vector and retention pattern.  Factorially expensive; capped."""
    from itertools import product

    from .forest import PercolatedForest, clusters

    if n > BRUTE_CAP:
        raise ValueError(f"brute force capped at n = {BRUTE_CAP}")
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
