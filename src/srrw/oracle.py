"""Brute-force exact distributions at small horizons.

Ground truth for everything else: enumerate all of the walk's randomness
(retention flags, past picks, fresh draws, transformation coins) with exact
probability weights and accumulate the law of the endpoint.  A memoized route
covers the identity-transform abelian case, where the endpoint law only
depends on the multiset of percolation cluster sizes, letting the exact
computation reach horizons the raw tree cannot.

Float masses are accumulated with compensated summation; an exact-rational
mode reruns the same enumeration in Fraction arithmetic (on the exact binary
values of the float inputs) to certify the double-precision results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .groups import Group, StepDistribution
from .sampler import Identity, SrrwConfig, WalkTrace

DFS_CAP = 8


class _KahanMap:
    """Per-key compensated float accumulation."""

    def __init__(self):
        self.sums: dict = {}
        self._comp: dict = {}

    def add(self, key, w):
        s = self.sums.get(key, 0.0)
        c = self._comp.get(key, 0.0)
        y = w - c
        t = s + y
        self._comp[key] = (t - s) - y
        self.sums[key] = t


@dataclass
class ExactDistribution:
    """Exact law of the walk endpoint: canonical key -> probability."""

    n: int
    mass: dict
    rep: dict = field(repr=False, default_factory=dict)
    enumeration_count: int = 0

    def check(self) -> "ExactDistribution":
        total = sum(self.mass.values())
        assert abs(float(total) - 1.0) <= 1e-12, total
        assert all(p > 0 for p in self.mass.values())
        return self

    def prob(self, key) -> float:
        return float(self.mass.get(key, 0))


def element_power(group: Group, g, s: int):
    out = group.identity()
    for _ in range(s):
        out = group.multiply(out, g)
    return out


def iid_convolution(group: Group, mu: StepDistribution, n: int,
                    exact: bool = False) -> ExactDistribution:
    """Law of a product of n independent mu-draws.

    Deliberately independent of the enumeration below; the reinforcement-free
    walk must match it.
    """
    mu.validate(group)
    one = Fraction(1) if exact else 1.0
    cur = {group.canonical_key(group.identity()): (group.identity(), one)}
    for _ in range(n):
        nxt: dict = {}
        for key, (x, p) in cur.items():
            for e, w in mu.support:
                ww = Fraction(w) if exact else w
                y = group.multiply(x, e)
                ky = group.canonical_key(y)
                if ky in nxt:
                    nxt[ky] = (y, nxt[ky][1] + p * ww)
                else:
                    nxt[ky] = (y, p * ww)
        cur = nxt
    mass = {k: p for k, (_, p) in cur.items()}
    rep = {k: x for k, (x, _) in cur.items()}
    return ExactDistribution(n=n, mass=mass, rep=rep,
                             enumeration_count=len(mass)).check()


def exact_distribution(config: SrrwConfig, n: int, exact: bool = False,
                       n_cap: int = DFS_CAP) -> ExactDistribution:
    """Exact endpoint law by full enumeration.

    Identity transforms on an abelian group route through the cluster-size
    memoization and support any modest n; everything else walks the full
    branching tree and is capped at ``n_cap`` (default 8) steps.  With
    ``exact=True`` all weights are Fractions built from the exact binary
    values of the float parameters, certifying the float accumulation.
    """
    if config.mu.is_continuous:
        raise ValueError("exact law needs a finite-support mu")
    if not config.transform.enumerable:
        raise ValueError("exact law needs an enumerable transform")
    if n < 1:
        raise ValueError("need n >= 1")
    if isinstance(config.transform, Identity) and config.group.is_abelian:
        return _exact_identity_abelian(config, n, exact)
    if n > n_cap:
        raise ValueError(
            f"full enumeration capped at n = {n_cap}; got n = {n} "
            "(only the identity-transform abelian case is memoized)")
    return _exact_dfs(config, n, exact)


def _exact_dfs(config: SrrwConfig, n: int, exact: bool) -> ExactDistribution:
    g, mu, tf = config.group, config.mu, config.transform
    alpha = Fraction(config.alpha) if exact else config.alpha
    one = Fraction(1) if exact else 1.0
    mu_atoms = [(e, Fraction(w) if exact else w) for e, w in mu.support]
    acc = {} if exact else _KahanMap()
    rep: dict = {}
    count = 0

    steps: list = []
    positions = [g.identity()]

    def record(w):
        nonlocal count
        key = g.canonical_key(positions[-1])
        rep.setdefault(key, positions[-1])
        count += 1
        if exact:
            acc[key] = acc.get(key, 0) + w
        else:
            acc.add(key, w)

    def branch(j, w):
        if j > n:
            record(w)
            return
        if j >= 2 and alpha > 0:
            for u in range(1, j):
                history = WalkTrace(group=g, steps=steps,
                                    positions=positions,
                                    reinforcement_flags=[], picks=[])
                pushed = tf.push_point(g, mu, j, steps[u - 1], history=history)
                for y, pw in pushed:
                    pw = Fraction(pw) if exact else pw
                    descend(j, y, w * alpha * pw / (j - 1))
        fresh = one - alpha if j >= 2 else one
        if fresh > 0:
            for e, pw in mu_atoms:
                descend(j, e, w * fresh * pw)

    def descend(j, x, w):
        steps.append(x)
        positions.append(g.multiply(positions[-1], x))
        branch(j + 1, w)
        steps.pop()
        positions.pop()

    branch(1, one)
    mass = acc if exact else acc.sums
    mass = {k: p for k, p in mass.items() if p > 0}
    return ExactDistribution(n=n, mass=mass, rep=rep,
                             enumeration_count=count).check()


def cluster_multiset_law(alpha, n: int, exact: bool = False) -> dict:
    """Law of the sorted tuple of cluster sizes after n vertices.

    Markov in the multiset: a new vertex starts a fresh singleton with
    probability 1 - alpha, otherwise it joins an existing cluster with
    probability proportional to the cluster's size.
    """
    a = Fraction(alpha) if exact else float(alpha)
    one = Fraction(1) if exact else 1.0
    states = {(1,): one}
    for j in range(1, n):
        nxt: dict = {}

        def add(sizes, p):
            nxt[sizes] = nxt.get(sizes, p * 0) + p

        for sizes, p in states.items():
            if a < 1:
                add(tuple(sorted(sizes + (1,))), p * (one - a))
            if a > 0:
                seen = set()
                for i, s in enumerate(sizes):
                    if s in seen:
                        continue
                    seen.add(s)
                    mult = sizes.count(s)
                    grown = list(sizes)
                    grown[i] = s + 1
                    add(tuple(sorted(grown)), p * a * s * mult / j)
        states = nxt
    return states


def _exact_identity_abelian(config: SrrwConfig, n: int,
                            exact: bool) -> ExactDistribution:
    g, mu = config.group, config.mu
    sizes_law = cluster_multiset_law(config.alpha, n, exact=exact)
    mu_atoms = [(e, Fraction(w) if exact else w) for e, w in mu.support]
    one = Fraction(1) if exact else 1.0

    power_law_cache: dict = {}

    def power_law(s: int) -> dict:
        # law of g^s for g ~ mu, as key -> (element, prob)
        if s not in power_law_cache:
            law: dict = {}
            for e, w in mu_atoms:
                y = element_power(g, e, s)
                ky = g.canonical_key(y)
                if ky in law:
                    law[ky] = (y, law[ky][1] + w)
                else:
                    law[ky] = (y, w)
            power_law_cache[s] = law
        return power_law_cache[s]

    acc = {} if exact else _KahanMap()
    rep: dict = {}
    count = 0
    for sizes, p_sizes in sizes_law.items():
        cur = {g.canonical_key(g.identity()): (g.identity(), one)}
        for s in sizes:
            nxt: dict = {}
            for _, (x, p) in cur.items():
                for y, w in power_law(s).values():
                    z = g.multiply(x, y)
                    kz = g.canonical_key(z)
                    if kz in nxt:
                        nxt[kz] = (z, nxt[kz][1] + p * w)
                    else:
                        nxt[kz] = (z, p * w)
            cur = nxt
        for key, (x, p) in cur.items():
            rep.setdefault(key, x)
            count += 1
            if exact:
                acc[key] = acc.get(key, 0) + p_sizes * p
            else:
                acc.add(key, p_sizes * p)
    mass = acc if exact else acc.sums
    mass = {k: p for k, p in mass.items() if p > 0}
    return ExactDistribution(n=n, mass=mass, rep=rep,
                             enumeration_count=count).check()


def exact_isolated_distribution(alpha, n: int, exact: bool = False) -> dict:
    """Exact law of the number of singleton clusters after n vertices.

    The count is Markov as vertices arrive: it goes up by one when the new
    edge is dropped, down by one when the new vertex attaches to a current
    singleton (probability proportional to the singleton count), and is
    unchanged otherwise.  Quadratic in n; no enumeration involved.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    a = Fraction(alpha) if exact else float(alpha)
    one = Fraction(1) if exact else 1.0
    zero = one * 0
    probs = [zero] * (n + 1)
    probs[1] = one
    for j in range(1, n):
        nxt = [zero] * (n + 1)
        for i, p in enumerate(probs):
            if p == 0:
                continue
            nxt[i + 1] += p * (one - a)
            if i > 0:
                nxt[i - 1] += p * a * i / j
            nxt[i] += p * a * (j - i) / j
        probs = nxt
    return {i: p for i, p in enumerate(probs) if p != 0}


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
            w /= _u_count(n)
            parent = [0, 0] + list(us)
            retained = [0, 0] + list(bits)
            retained[1] = 0
            f = PercolatedForest(n=n, parent=parent, retained=retained)
            i = clusters(f).isolated_count
            out[i] = out.get(i, 0.0) + w
    return out


def _u_count(n: int) -> int:
    c = 1
    for j in range(2, n + 1):
        c *= j - 1
    return c


def tv_distance(empirical: dict, exact: ExactDistribution) -> float:
    """Total variation between a histogram (counts or frequencies) and an
    exact law, over the union of keys."""
    total = sum(empirical.values())
    if total <= 0:
        raise ValueError("empty histogram")
    keys = set(empirical) | set(exact.mass)
    return 0.5 * sum(abs(empirical.get(k, 0) / total - exact.prob(k))
                     for k in keys)
