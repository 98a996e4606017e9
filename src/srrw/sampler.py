"""Direct sampling of step-reinforced random walks.

The walk starts at the identity and draws its first step from the step
distribution.  From the second step on, a coin with success probability
``alpha`` decides whether the step is a reinforcement: on success a uniformly
chosen past step is replayed through the current step transformation, on
failure a fresh step is drawn.  Positions are left-to-right products of steps.

The module also hosts the step transformations and the embedding of the
elephant random walk with memory parameter p as a reinforced walk on the
d-letter alphabet (identity transform for p >= 1/d, cyclic rotation below).
"""

from __future__ import annotations

import ast
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate

import numpy as np

from . import rng as rngmod
from .groups import (Group, IntegerLatticeZd, EuclideanRd, RegularTreeFree,
                     StepDistribution)


def pick(rng, pairs):
    """One draw from a finite law given as ``(value, weight)`` pairs: the
    first value whose cumulative weight exceeds a uniform, or the last when
    rounding leaves the total below it.  A law with one outcome draws
    nothing."""
    if len(pairs) == 1:
        return pairs[0][0]
    r = rng.random()
    acc = 0.0
    for x, w in pairs:
        acc += w
        if r < acc:
            return x
    return pairs[-1][0]


def draw_step(group: Group, mu: StepDistribution, rng) -> object:
    """One draw from ``mu`` (finite support or continuous family)."""
    if mu.is_continuous:
        v = rng.standard_normal(group.d)
        if mu.family == "sphere":
            v = v / np.linalg.norm(v)
        return tuple(float(x) for x in v)
    return pick(rng, mu.support)


# Most atoms a replay table may add to those of the step law.
TABLE_CAP = 256


class Transform:
    """A step transformation applied to replayed past steps.

    ``push_point`` defines it: the exact conditional law of the transformed
    value as ``[(element, weight)]`` pairs.  ``apply`` samples that law and
    ``replay_table`` tabulates it.
    """

    def validate(self, group: Group, mu: StepDistribution) -> "Transform":
        return self

    def replay_table(self, group, mu):
        """Replay on mu as integer codes, from ``push_point``: a pair
        (support, replay), or None when no table represents it.

        Code c is atom c of ``support``, a list of (atom, weight) pairs:
        mu's atoms in its order, then those only a replay reaches, with
        weight 0.  ``replay`` is a pair (rows, weights): code c replays as
        ``rows[c][b]``, branch b taken with probability ``weights[b]``; the
        identity, which keeps every code, has None.
        None for a continuous mu, a closure that adds more than
        ``TABLE_CAP`` atoms to mu's, or branch weights that differ between
        atoms.
        """
        if mu.is_continuous:
            return None
        atoms = [x for x, _ in mu.support]
        code = {x: c for c, x in enumerate(atoms)}

        def code_of(x):
            if x not in code:
                code[x] = len(atoms)
                atoms.append(x)
            return code[x]

        # push each atom in code order; replays may reach new atoms
        cap, rows, branches = len(atoms) + TABLE_CAP, [], None
        while len(rows) < len(atoms) <= cap:
            pushed = self.push_point(group, mu, None, atoms[len(rows)])
            if branches not in (None, [w for _, w in pushed]):
                return None
            branches = [w for _, w in pushed]
            rows.append([code_of(y) for y, _ in pushed])
        if len(atoms) > cap:
            return None
        reached = [(x, 0.0) for x in atoms[len(mu.support):]]
        return [*mu.support, *reached], (rows, branches)

    def apply(self, group, mu, j, x, rng, history=None):
        return pick(rng, self.push_point(group, mu, j, x, history))

    def push_point(self, group, mu, j, x, history=None):
        raise NotImplementedError

    def __eq__(self, other):
        return type(self) is type(other) and self.__dict__ == other.__dict__

    def __repr__(self):
        return type(self).__name__


class Identity(Transform):
    """Replay past steps unchanged."""

    def replay_table(self, group, mu):
        # a kept code needs no table, and a continuous mu no atoms
        if mu.is_continuous:
            return None, None
        return super().replay_table(group, mu)[0], None

    def push_point(self, group, mu, j, x, history=None):
        return [(x, 1.0)]


class Negation(Transform):
    """Replay the inverse of the past step (counterbalanced walk)."""

    def push_point(self, group, mu, j, x, history=None):
        return [(group.inverse(x), 1.0)]


class IidSign(Transform):
    """Keep the step with probability q, invert it otherwise, fresh coin each step."""

    def __init__(self, q: float):
        if not 0 <= q <= 1:
            raise ValueError(f"q must be in [0, 1], got {q}")
        self.q = q

    def push_point(self, group, mu, j, x, history=None):
        return [(x, self.q), (group.inverse(x), 1.0 - self.q)]

    def __repr__(self):
        return f"IidSign({self.q})"


class EchoLawLinear(Transform):
    """Apply a random linear map drawn i.i.d. from a finite list (echo law).

    Only meaningful on the integer lattice and on R^d; lattice use requires
    integer matrices so values stay in the group.
    """

    def __init__(self, components):
        self.components = [(tuple(tuple(row) for row in m), float(w))
                           for m, w in components]

    def validate(self, group, mu):
        if not isinstance(group, (IntegerLatticeZd, EuclideanRd)):
            raise ValueError("echo law needs a lattice or Euclidean group")
        total = 0.0
        for m, w in self.components:
            if len(m) != group.d or any(len(row) != group.d for row in m):
                raise ValueError(f"matrix shape must be {group.d}x{group.d}")
            if isinstance(group, IntegerLatticeZd):
                if any(not isinstance(v, int) for row in m for v in row):
                    raise ValueError("lattice echo law needs integer matrices")
            if not w > 0:  # NaN fails too
                raise ValueError("echo weights must be positive")
            total += w
        if not abs(total - 1.0) <= 1e-12:
            raise ValueError(f"echo weights sum to {total}, not 1")
        return self

    def _apply_matrix(self, m, x):
        return tuple(sum(row[k] * x[k] for k in range(len(x))) for row in m)

    def push_point(self, group, mu, j, x, history=None):
        return [(self._apply_matrix(m, x), w) for m, w in self.components]

    def __repr__(self):
        return f"EchoLawLinear({len(self.components)} maps)"


class ErwRotation(Transform):
    """Replace a support element by a uniform pick among the other d-1.

    Realized as a power of the cyclic shift on mu's support, with the
    exponent uniform on 1..d-1; this is the low-memory branch of the elephant
    walk embedding.  The alphabet is that of the mu each call is handed, and
    ``d``, when given, only checks its size.
    """

    def __init__(self, d: int | None = None):
        self.d = d

    def validate(self, group, mu):
        if mu.is_continuous:
            raise ValueError("rotation transform needs a finite support")
        d = len(mu.support)
        if self.d not in (None, d):
            raise ValueError(f"rotation arity {self.d} != support size {d}")
        if d < 2:
            raise ValueError("rotation needs at least two support elements")
        return self

    @staticmethod
    def _index(mu, x):
        for i, (e, _) in enumerate(mu.support):
            if e == x:
                return i
        raise ValueError(f"step {x!r} outside the transform alphabet")

    def push_point(self, group, mu, j, x, history=None):
        d, i = len(mu.support), self._index(mu, x)
        return [(mu.support[(i + s) % d][0], 1.0 / (d - 1))
                for s in range(1, d)]

    def __repr__(self):
        return f"ErwRotation({self.d})"


class HistoryDependent(Transform):
    """Transformation chosen by a callback from the step index and the history.

    The callback receives ``(j, history, rng)``, the history being the walk
    so far as a ``WalkTrace``, and returns either a dict mapping step values
    to step values or a one-argument callable; it never sees randomness
    drawn after step j.  Pass ``deterministic=True`` when the callback
    ignores ``rng``; only then can the exact one-step law be formed, and a
    randomized callback, which has no law, samples through its own
    ``apply``.
    """

    def __init__(self, fn, deterministic: bool = False):
        self.fn = fn
        self.deterministic = deterministic

    def _resolve(self, mapping, x):
        if callable(mapping):
            return mapping(x)
        return mapping[x]

    def apply(self, group, mu, j, x, rng, history=None):
        return self._resolve(self.fn(j, history, rng), x)

    def replay_table(self, group, mu):
        return None  # the map may change with the step and the history

    def push_point(self, group, mu, j, x, history=None):
        if not self.deterministic:
            raise ValueError("exact law unavailable for a randomized callback")
        return [(self._resolve(self.fn(j, history, None), x), 1.0)]


@dataclass(frozen=True)
class SrrwConfig:
    """A reinforced-walk specification: group, reinforcement strength, step
    distribution, and step transformation; frozen once validated.

    ``alpha`` may be 1 (every step after the first is a reinforcement, as in
    the zero-memory elephant embedding); the decay results verified elsewhere
    in the package all concern ``alpha < 1`` and check that themselves.
    """

    group: Group
    alpha: float
    mu: StepDistribution
    transform: Transform = field(default_factory=Identity)

    def __post_init__(self):
        if not 0 <= self.alpha <= 1:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        self.mu.validate(self.group)
        self.transform.validate(self.group, self.mu)


@dataclass
class WalkTrace:
    """A walk: steps X_1..X_n and positions S_0..S_n, the history a
    ``HistoryDependent`` map reads on every route."""

    group: Group
    steps: list
    positions: list

    @classmethod
    def of(cls, group: Group, steps) -> "WalkTrace":
        """The walk that takes ``steps`` from the identity."""
        positions = list(accumulate(steps, group.multiply,
                                    initial=group.identity()))
        return cls(group=group, steps=list(steps), positions=positions)

    @property
    def n(self) -> int:
        return len(self.steps)

    @property
    def final(self):
        return self.positions[-1]

    def check(self) -> "WalkTrace":
        g = self.group
        assert len(self.positions) == self.n + 1
        assert self.positions[0] == g.identity()
        for j in range(1, self.n + 1):
            prod = g.multiply(self.positions[j - 1], self.steps[j - 1])
            assert prod == self.positions[j]
        return self


def sample_walk(config: SrrwConfig, n: int, rng_seed) -> WalkTrace:
    """Sample a length-n walk.

    The first step is a fresh draw; step j >= 2 replays a uniformly chosen
    past step through the transformation with probability ``alpha`` and is a
    fresh draw otherwise.
    """
    if n < 1:
        raise ValueError("walk length must be >= 1")
    rng = rngmod.as_generator(rng_seed)
    g, mu, tf = config.group, config.mu, config.transform
    trace = WalkTrace(group=g, steps=[], positions=[g.identity()])
    x = draw_step(g, mu, rng)
    trace.steps.append(x)
    trace.positions.append(g.multiply(trace.positions[-1], x))
    for j in range(2, n + 1):
        reinforce = rng.random() < config.alpha
        # drawn on fresh steps too: the seeded walks' draw protocol
        u = int(rng.integers(1, j))
        if reinforce:
            x = tf.apply(g, mu, j, trace.steps[u - 1], rng, history=trace)
        else:
            x = draw_step(g, mu, rng)
        trace.steps.append(x)
        trace.positions.append(g.multiply(trace.positions[-1], x))
    return trace


def erw_config(d: int, p: float, group: Group | None = None,
               mu: StepDistribution | None = None) -> SrrwConfig:
    """Elephant random walk with memory p on a d-letter alphabet, as a
    reinforced walk.

    For p >= 1/d the replayed step is kept as is and the reinforcement
    strength is (d p - 1)/(d - 1); for p < 1/d the replayed step is rotated
    to a uniform pick among the other letters and the strength is 1 - d p.
    Defaults to the d-regular tree with the uniform letter distribution.
    """
    if d < 2:
        raise ValueError("need at least two letters")
    if not 0 <= p < 1:
        raise ValueError(f"memory parameter must be in [0, 1), got {p}")
    if group is None:
        group = RegularTreeFree(d)
    if mu is None:
        mu = StepDistribution.uniform(group.generators())
    if len(mu.support) != d:
        raise ValueError(f"support size {len(mu.support)} != {d}")
    if p * d >= 1:
        alpha = max(0.0, (d * p - 1) / (d - 1))
        transform: Transform = Identity()
    else:
        alpha = 1 - d * p
        transform = ErwRotation(d)
    return SrrwConfig(group=group, alpha=alpha, mu=mu, transform=transform)


def step_law(config: SrrwConfig, exact: bool = False):
    """Step j's law as a function ``law(j, replays, history=None)`` giving
    {element: weight}, zero weights included: a fresh mu-draw weighted
    1 - alpha (1 at j = 1), and each (step, count) of ``replays`` replayed
    with weight alpha count / (j - 1) through the transform, which sees
    ``history``.  ``exact=True`` gives Fractions of the exact binary float
    values; alpha and mu's weights are converted once, here."""
    num = Fraction if exact else (lambda v: v)
    g, mu, tf = config.group, config.mu, config.transform
    alpha, one = num(config.alpha), num(1.0)
    atoms = [(e, num(w)) for e, w in mu.support]

    def law(j, replays, history=None):
        fresh = one - alpha if j > 1 else one
        out = {e: fresh * w for e, w in atoms} if fresh > 0 else {}
        if j > 1 and alpha > 0:
            for x, k in replays:
                for y, pw in tf.push_point(g, mu, j, x, history=history):
                    out[y] = out.get(y, 0) + alpha * k * num(pw) / (j - 1)
        return out

    return law


def next_step_distribution(config: SrrwConfig, history) -> StepDistribution:
    """Exact conditional law of the next step given a walk prefix.

    With n past steps the law is (1 - alpha) mu plus alpha/n times the
    transformed law of each past step (``step_law``).  Needs a
    finite-support mu.  ``history`` is a ``WalkTrace`` or the steps of one,
    and a ``HistoryDependent`` map reads it as a ``WalkTrace`` either way.
    """
    if config.mu.is_continuous:
        raise ValueError("exact one-step law needs a finite-support mu")
    if not isinstance(history, WalkTrace):
        history = WalkTrace.of(config.group, history)
    if not history.steps:
        return config.mu
    law = step_law(config)(history.n + 1, Counter(history.steps).items(),
                           history)
    return StepDistribution(support=[(e, w) for e, w in law.items() if w > 0])


def transform_from_literal(text: str) -> Transform:
    """Parse a transform literal: ``identity``, ``negation``, ``iid_sign:q``,
    ``erw_rotation`` (optionally ``erw_rotation:d``), or ``echo:[[matrix, w], ...]``."""
    text = text.strip()
    head, _, arg = text.partition(":")
    head = head.lower()
    if head == "identity":
        return Identity()
    if head == "negation":
        return Negation()
    if head == "iid_sign":
        return IidSign(float(arg))
    if head == "erw_rotation":
        return ErwRotation(int(arg) if arg else None)
    if head == "echo":
        pairs = ast.literal_eval(arg)
        return EchoLawLinear([(m, w) for m, w in pairs])
    raise ValueError(f"unknown transform literal: {text!r}")
