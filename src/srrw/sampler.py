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
from dataclasses import dataclass, field

import numpy as np

from . import rng as rngmod
from .groups import (Group, IntegerLatticeZd, EuclideanRd, RegularTreeFree,
                     StepDistribution)


def draw_step(group: Group, mu: StepDistribution, rng) -> object:
    """One draw from ``mu`` (finite support or continuous family)."""
    if mu.is_continuous:
        v = rng.standard_normal(group.d)
        if mu.family == "sphere":
            v = v / np.linalg.norm(v)
        return tuple(float(x) for x in v)
    r = rng.random()
    acc = 0.0
    for elem, w in mu.support:
        acc += w
        if r < acc:
            return elem
    return mu.support[-1][0]


# Most atoms a replay table may add to those of the step law.
TABLE_CAP = 256


class Transform:
    """A step transformation applied to replayed past steps.

    ``apply`` samples the transformed value; ``push_point`` returns the exact
    conditional law of the transformed value as ``[(element, weight)]`` pairs,
    available when ``enumerable``.
    """

    enumerable = True

    def validate(self, group: Group, mu: StepDistribution) -> "Transform":
        return self

    def replay_table(self, group, mu, atoms=()):
        """Replay on mu as integer codes, from ``push_point``: a pair
        (support, replay), or None when no table represents it.

        Code c is atom c of ``support``, a list of (atom, weight) pairs:
        ``atoms``, then mu's other atoms, then those only a replay reaches,
        with weight 0.  ``replay`` is a pair (rows, weights): code c replays
        as ``rows[c][b]``, branch b taken with probability ``weights[b]``;
        the identity, which keeps every code, has None.  Only the codes mu
        draws or a replay reaches are pushed; any other atom of ``atoms``
        is never drawn, and its row keeps it.
        None for a continuous mu, a closure that adds more than
        ``TABLE_CAP`` atoms to mu's, or branch weights that differ between
        atoms.
        """
        if mu.is_continuous:
            return None
        atoms = list(atoms)
        code = {x: c for c, x in enumerate(atoms)}

        def code_of(x):
            if x not in code:
                code[x] = len(atoms)
                atoms.append(x)
            return code[x]

        # push only what mu or a replay reaches, lowest code first; replays
        # may reach new atoms
        todo = sorted({code_of(x) for x, _ in mu.support})
        cap, rows, branches = len(atoms) + TABLE_CAP, {}, None
        while todo and len(atoms) <= cap:
            c = todo.pop(0)
            pushed = self.push_point(group, mu, None, atoms[c])
            if branches not in (None, [w for _, w in pushed]):
                return None
            branches = [w for _, w in pushed]
            rows[c] = [code_of(y) for y, _ in pushed]
            todo = sorted(set(todo) | set(rows[c]) - rows.keys())
        if len(atoms) > cap:
            return None
        mass = dict(mu.support)
        rows = [rows.get(c, [c] * len(branches)) for c in range(len(atoms))]
        return [(x, mass.get(x, 0.0)) for x in atoms], (rows, branches)

    def apply(self, group, mu, j, x, rng, history=None):
        raise NotImplementedError

    def push_point(self, group, mu, j, x, history=None):
        raise NotImplementedError

    def __eq__(self, other):
        return type(self) is type(other) and self.__dict__ == other.__dict__

    def __repr__(self):
        return type(self).__name__


class Identity(Transform):
    """Replay past steps unchanged."""

    def replay_table(self, group, mu, atoms=()):
        # a kept code needs no table, and a continuous mu no atoms
        if mu.is_continuous:
            return None, None
        return super().replay_table(group, mu, atoms)[0], None

    def apply(self, group, mu, j, x, rng, history=None):
        return x

    def push_point(self, group, mu, j, x, history=None):
        return [(x, 1.0)]


class Negation(Transform):
    """Replay the inverse of the past step (counterbalanced walk)."""

    def apply(self, group, mu, j, x, rng, history=None):
        return group.inverse(x)

    def push_point(self, group, mu, j, x, history=None):
        return [(group.inverse(x), 1.0)]


class IidSign(Transform):
    """Keep the step with probability q, invert it otherwise, fresh coin each step."""

    def __init__(self, q: float):
        if not 0 <= q <= 1:
            raise ValueError(f"q must be in [0, 1], got {q}")
        self.q = q

    def apply(self, group, mu, j, x, rng, history=None):
        return x if rng.random() < self.q else group.inverse(x)

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
            if w <= 0:
                raise ValueError("echo weights must be positive")
            total += w
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"echo weights sum to {total}, not 1")
        return self

    def _apply_matrix(self, m, x):
        return tuple(sum(row[k] * x[k] for k in range(len(x))) for row in m)

    def apply(self, group, mu, j, x, rng, history=None):
        r = rng.random()
        acc = 0.0
        for m, w in self.components:
            acc += w
            if r < acc:
                return self._apply_matrix(m, x)
        return self._apply_matrix(self.components[-1][0], x)

    def push_point(self, group, mu, j, x, history=None):
        return [(self._apply_matrix(m, x), w) for m, w in self.components]

    def __repr__(self):
        return f"EchoLawLinear({len(self.components)} maps)"


class ErwRotation(Transform):
    """Replace a support element by a uniform pick among the other d-1.

    Realized as a power of the cyclic shift on the indexed support, with the
    exponent uniform on 1..d-1; this is the low-memory branch of the elephant
    walk embedding.
    """

    def __init__(self, d: int | None = None):
        self.d = d
        self._index = None
        self._alphabet = None

    def validate(self, group, mu):
        if mu.is_continuous:
            raise ValueError("rotation transform needs a finite support")
        d = len(mu.support)
        if self.d is None:
            self.d = d
        if self.d != d:
            raise ValueError(f"rotation arity {self.d} != support size {d}")
        if self.d < 2:
            raise ValueError("rotation needs at least two support elements")
        self._alphabet = [e for e, _ in mu.support]
        self._index = {e: i for i, e in enumerate(self._alphabet)}
        return self

    def _idx(self, group, mu, x):
        if self._index is None:
            self.validate(group, mu)
        i = self._index.get(x)
        if i is None:
            raise ValueError(f"step {x!r} outside the transform alphabet")
        return i

    def apply(self, group, mu, j, x, rng, history=None):
        i = self._idx(group, mu, x)
        shift = int(rng.integers(1, self.d))
        return self._alphabet[(i + shift) % self.d]

    def push_point(self, group, mu, j, x, history=None):
        i = self._idx(group, mu, x)
        w = 1.0 / (self.d - 1)
        return [(self._alphabet[(i + s) % self.d], w) for s in range(1, self.d)]

    def __eq__(self, other):
        return type(self) is type(other) and self.d == other.d

    def __repr__(self):
        return f"ErwRotation({self.d})"


class HistoryDependent(Transform):
    """Transformation chosen by a callback from the step index and the history.

    The callback receives ``(j, history, rng)`` and returns either a dict
    mapping step values to step values or a one-argument callable; it never
    sees randomness drawn after step j.  Pass ``deterministic=True`` when the
    callback ignores ``rng``; only then can the exact one-step law be formed.
    """

    def __init__(self, fn, deterministic: bool = False):
        self.fn = fn
        self.deterministic = deterministic

    @property
    def enumerable(self):
        return self.deterministic

    def _resolve(self, mapping, x):
        if callable(mapping):
            return mapping(x)
        return mapping[x]

    def apply(self, group, mu, j, x, rng, history=None):
        return self._resolve(self.fn(j, history, rng), x)

    def replay_table(self, group, mu, atoms=()):
        return None  # the map may change with the step and the history

    def push_point(self, group, mu, j, x, history=None):
        if not self.deterministic:
            raise ValueError("exact law unavailable for a randomized callback")
        return [(self._resolve(self.fn(j, history, None), x), 1.0)]


@dataclass
class SrrwConfig:
    """A reinforced-walk specification: group, reinforcement strength, step
    distribution, and step transformation.

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
    """A sampled walk: steps X_1..X_n, positions S_0..S_n, and for each step
    j >= 2 the reinforcement flag and the picked past index u_j in [1, j-1]."""

    group: Group
    steps: list
    positions: list
    reinforcement_flags: list
    picks: list

    @property
    def n(self) -> int:
        return len(self.steps)

    @property
    def final(self):
        return self.positions[-1]

    def check(self) -> "WalkTrace":
        g = self.group
        assert len(self.positions) == self.n + 1
        assert len(self.reinforcement_flags) == max(0, self.n - 1)
        assert len(self.picks) == max(0, self.n - 1)
        assert self.positions[0] == g.identity()
        for j in range(1, self.n + 1):
            prod = g.multiply(self.positions[j - 1], self.steps[j - 1])
            assert prod == self.positions[j]
        for j, u in zip(range(2, self.n + 1), self.picks):
            assert 1 <= u <= j - 1
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
    trace = WalkTrace(group=g, steps=[], positions=[g.identity()],
                      reinforcement_flags=[], picks=[])
    x = draw_step(g, mu, rng)
    trace.steps.append(x)
    trace.positions.append(g.multiply(trace.positions[-1], x))
    for j in range(2, n + 1):
        reinforce = rng.random() < config.alpha
        u = int(rng.integers(1, j))
        if reinforce:
            x = tf.apply(g, mu, j, trace.steps[u - 1], rng, history=trace)
        else:
            x = draw_step(g, mu, rng)
        trace.steps.append(x)
        trace.positions.append(g.multiply(trace.positions[-1], x))
        trace.reinforcement_flags.append(1 if reinforce else 0)
        trace.picks.append(u)
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


def next_step_distribution(config: SrrwConfig, history) -> StepDistribution:
    """Exact conditional law of the next step given a walk prefix.

    With n past steps the law is (1 - alpha) mu plus alpha/n times the
    transformed law of each past step.  Needs a finite-support mu and an
    enumerable transformation.
    """
    if config.mu.is_continuous:
        raise ValueError("exact one-step law needs a finite-support mu")
    if not config.transform.enumerable:
        raise ValueError("exact one-step law needs an enumerable transform")
    steps = history.steps if isinstance(history, WalkTrace) else list(history)
    n = len(steps)
    if n == 0:
        return config.mu
    g, mu, alpha = config.group, config.mu, config.alpha
    law: dict = {}

    def add(elem, w):
        if w:
            law[elem] = law.get(elem, 0) + w

    for elem, w in mu.support:
        add(elem, (1 - alpha) * w)
    for x in steps:
        for elem, w in config.transform.push_point(g, mu, n + 1, x,
                                                   history=history):
            add(elem, alpha / n * w)
    return StepDistribution(support=list(law.items()))


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
