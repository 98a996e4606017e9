"""Concrete groups, canonical element forms, and step distributions.

Every walk in this package takes values in one of the groups below.  Elements
are plain hashable Python values in a canonical form unique per group element,
so ``==`` on values is group equality and histograms can key on them directly:

* ``CycleZL(L)``     -- residue in ``[0, L)``; ``z2`` is ``CycleZL(2)``
* ``IntegerLatticeZd(d)`` -- tuple of ints
* ``EuclideanRd(d)`` -- tuple of finite floats; its walks are asked about balls,
  since every point mass of a continuous step law is 0
* ``RegularTreeFree(d)``  -- reduced word over d involutive letters; the
  Cayley graph is the d-regular tree
* ``LamplighterZ``   -- (frozenset of lit lamp positions, marker position)
* ``S3xZ``           -- (permutation of {0,1,2} as an image tuple, integer)

Each group declares a standard symmetric generating set used for word
distances.  Permutations compose left to right: ``mul(s, t)`` applies ``s``
first, so ``(12)*(13) = (123)``.
"""

from __future__ import annotations

import math
import re
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional


class Group:
    """Base interface: identity/multiply/inverse plus parsing."""

    def identity(self):
        raise NotImplementedError

    def multiply(self, a, b):
        raise NotImplementedError

    def inverse(self, a):
        raise NotImplementedError

    def generators(self) -> list:
        """Standard symmetric generating set used for word distances."""
        raise NotImplementedError(
            f"{type(self).__name__} has no declared generating set")

    def word_distance(self, a) -> int:
        raise NotImplementedError(f"{type(self).__name__} has no word metric")

    def parse_element(self, text: str):
        raise NotImplementedError

    def format_element(self, a) -> str:
        raise NotImplementedError

    def check_element(self, a):
        """Validate that ``a`` is canonical for this group; return it unchanged."""
        raise NotImplementedError

    @property
    def is_abelian(self) -> bool:
        return False

    def __eq__(self, other):
        return type(self) is type(other) and self.__dict__ == other.__dict__

    def __hash__(self):
        return hash((type(self).__name__, tuple(sorted(self.__dict__.items()))))

    def __repr__(self):
        args = ", ".join(f"{k}={v!r}" for k, v in self.__dict__.items())
        return f"{type(self).__name__}({args})"


class CycleZL(Group):
    """Cyclic group of order L, residues 0..L-1, generators +-1 (+1 alone
    at L = 2)."""

    def __init__(self, L: int):
        if L < 2:
            raise ValueError(f"cycle order must be >= 2, got {L}")
        self.L = L

    def identity(self):
        return 0

    def multiply(self, a, b):
        return (a + b) % self.L

    def inverse(self, a):
        return (-a) % self.L

    def generators(self):
        return [1] if self.L == 2 else [1, self.L - 1]

    def word_distance(self, a):
        return min(a, self.L - a)

    def parse_element(self, text):
        text = text.strip()
        if text == "e":
            return 0
        if text == "+1":
            return 1
        if text == "-1":
            return self.L - 1
        return self.check_element(int(text))

    def format_element(self, a):
        return str(a)

    def check_element(self, a):
        if not isinstance(a, int) or not 0 <= a < self.L:
            raise ValueError(f"not a residue mod {self.L}: {a!r}")
        return a

    @property
    def is_abelian(self):
        return True


class IntegerLatticeZd(Group):
    """Z^d under addition; generators +-e_i, word distance is the L1 norm."""

    def __init__(self, d: int):
        if d < 1:
            raise ValueError(f"lattice dimension must be >= 1, got {d}")
        self.d = d

    def identity(self):
        return (0,) * self.d

    def multiply(self, a, b):
        if len(a) != self.d or len(b) != self.d:
            raise ValueError("lattice dimension mismatch")
        return tuple(x + y for x, y in zip(a, b))

    def inverse(self, a):
        return tuple(-x for x in a)

    def generators(self):
        gens = []
        for i in range(self.d):
            e = [0] * self.d
            e[i] = 1
            gens.append(tuple(e))
            e[i] = -1
            gens.append(tuple(e))
        return gens

    def word_distance(self, a):
        return sum(abs(x) for x in a)

    def parse_element(self, text):
        text = text.strip()
        if text == "e":
            return self.identity()
        m = re.fullmatch(r"e(\d+)(\^-1)?", text)
        if m:
            i = int(m.group(1))
            if not 1 <= i <= self.d:
                raise ValueError(f"generator index out of range: {text!r}")
            v = [0] * self.d
            v[i - 1] = -1 if m.group(2) else 1
            return tuple(v)
        if text.startswith("(") and text.endswith(")"):
            parts = [int(p) for p in text[1:-1].split(",")]
            return self.check_element(tuple(parts))
        raise ValueError(f"cannot parse lattice element: {text!r}")

    def format_element(self, a):
        return "(" + ",".join(str(x) for x in a) + ")"

    def check_element(self, a):
        if not (isinstance(a, tuple) and len(a) == self.d
                and all(isinstance(x, int) for x in a)):
            raise ValueError(f"not a Z^{self.d} element: {a!r}")
        return a

    @property
    def is_abelian(self):
        return True


class EuclideanRd(Group):
    """R^d under addition.  Elements are tuples of finite floats, equal iff
    their coordinates are; under a continuous step law every point mass is
    0, so the questions asked are about balls."""

    def __init__(self, d: int):
        if d < 1:
            raise ValueError(f"dimension must be >= 1, got {d}")
        self.d = d

    def identity(self):
        return (0.0,) * self.d

    def multiply(self, a, b):
        if len(a) != self.d or len(b) != self.d:
            raise ValueError("dimension mismatch")
        return tuple(x + y for x, y in zip(a, b))

    def inverse(self, a):
        return tuple(-x for x in a)

    def parse_element(self, text):
        text = text.strip()
        if text == "e":
            return self.identity()
        if text.startswith("(") and text.endswith(")"):
            return self.check_element(tuple(float(p) for p in text[1:-1].split(",")))
        raise ValueError(f"cannot parse R^d element: {text!r}")

    def format_element(self, a):
        return "(" + ",".join(repr(x) for x in a) + ")"

    def check_element(self, a):
        if not (isinstance(a, tuple) and len(a) == self.d):
            raise ValueError(f"not an R^{self.d} element: {a!r}")
        out = tuple(float(x) for x in a)
        if not all(math.isfinite(x) for x in out):
            raise ValueError(f"non-finite R^{self.d} coordinate: {a!r}")
        return out

    @property
    def is_abelian(self):
        return True


_LETTERS = "abcdefghijklmnopqrstuvwxyz"


class RegularTreeFree(Group):
    """Free product of d copies of the two-element group.

    The d letters are involutions, so a reduced word never repeats a letter in
    adjacent positions, and the Cayley graph with respect to the letters is the
    d-regular tree.  Elements are tuples of letter indices.
    """

    def __init__(self, d: int):
        if not 2 <= d <= len(_LETTERS):
            raise ValueError(f"tree degree must be in [2, {len(_LETTERS)}], got {d}")
        self.d = d

    def identity(self):
        return ()

    def multiply(self, a, b):
        # Free reduction at the seam only: both inputs are already reduced.
        a = list(a)
        i = 0
        while a and i < len(b) and a[-1] == b[i]:
            a.pop()
            i += 1
        return tuple(a) + tuple(b[i:])

    def inverse(self, a):
        return tuple(reversed(a))

    def generators(self):
        return [(i,) for i in range(self.d)]

    def word_distance(self, a):
        return len(a)

    def parse_element(self, text):
        text = text.strip()
        if text == "e":
            return ()
        word = []
        # Letters may carry a redundant ^-1 marker (each letter is its own inverse).
        for m in re.finditer(r"([a-z])(\^-1)?|(.)", text):
            if m.group(3) is not None:
                if m.group(3).isspace():
                    continue
                raise ValueError(f"bad letter {m.group(3)!r} in word {text!r}")
            idx = _LETTERS.index(m.group(1))
            if idx >= self.d:
                raise ValueError(f"letter {m.group(1)!r} outside degree-{self.d} alphabet")
            word.append(idx)
        out = ()
        for w in word:
            out = self.multiply(out, (w,))
        return out

    def format_element(self, a):
        return "".join(_LETTERS[i] for i in a) if a else "e"

    def check_element(self, a):
        if not isinstance(a, tuple) or not all(0 <= x < self.d for x in a):
            raise ValueError(f"not a word over {self.d} letters: {a!r}")
        if any(a[i] == a[i + 1] for i in range(len(a) - 1)):
            raise ValueError(f"word not reduced: {a!r}")
        return a


class LamplighterZ(Group):
    """Wreath product of the two-element group with Z.

    Elements are ``(lamps, marker)`` with ``lamps`` a frozenset of lit
    positions.  Generators: toggle the lamp at the marker, move the marker by
    one.  ``(A, k) * (B, m) = (A xor (B + k), k + m)``.
    """

    def identity(self):
        return (frozenset(), 0)

    def multiply(self, a, b):
        (A, k), (B, m) = a, b
        return (A ^ frozenset(p + k for p in B), k + m)

    def inverse(self, a):
        A, k = a
        return (frozenset(p - k for p in A), -k)

    def generators(self):
        return [(frozenset([0]), 0), (frozenset(), 1), (frozenset(), -1)]

    def word_distance(self, a):
        """Toggle count plus the shorter of the two sweeps over the lit range.

        The marker starts at 0, must visit every lit position once to switch
        it off, and must end at the marker coordinate; on a line the optimal
        route covers ``[lo, hi]`` going either left-first or right-first.
        """
        A, k = a
        pts = set(A) | {0, k}
        lo, hi = min(pts), max(pts)
        left_first = -lo + (hi - lo) + (hi - k)
        right_first = hi + (hi - lo) + (k - lo)
        return len(A) + min(left_first, right_first)

    def parse_element(self, text):
        text = text.strip()
        if text == "e":
            return self.identity()
        if text == "t":
            return (frozenset([0]), 0)
        if text in ("+1", "R"):
            return (frozenset(), 1)
        if text in ("-1", "L"):
            return (frozenset(), -1)
        m = re.fullmatch(r"\{([-\d,\s]*)\}\|(-?\d+)", text)
        if m:
            body = m.group(1).strip()
            lamps = frozenset(int(p) for p in body.split(",")) if body else frozenset()
            return (lamps, int(m.group(2)))
        raise ValueError(f"cannot parse lamplighter element: {text!r}")

    def format_element(self, a):
        A, k = a
        return "{" + ",".join(str(p) for p in sorted(A)) + "}|" + str(k)

    def check_element(self, a):
        if not (isinstance(a, tuple) and len(a) == 2
                and isinstance(a[0], frozenset) and isinstance(a[1], int)
                and all(isinstance(p, int) for p in a[0])):
            raise ValueError(f"not a lamplighter element: {a!r}")
        return a


_S3_NAMES = {
    (0, 1, 2): "id",
    (1, 0, 2): "(12)",
    (2, 1, 0): "(13)",
    (0, 2, 1): "(23)",
    (1, 2, 0): "(123)",
    (2, 0, 1): "(132)",
}
_S3_BY_NAME = {v: k for k, v in _S3_NAMES.items()}
# transposition count: 0 for id, 1 for transpositions, 2 for 3-cycles
_S3_LENGTH = {p: (0 if n == "id" else 1 if len(n) == 4 else 2)
              for p, n in _S3_NAMES.items()}


class S3xZ(Group):
    """Direct product of the symmetric group on three objects with Z.

    Permutations are image tuples ``p`` with ``p[i]`` the image of ``i``,
    composed left to right.  Generators: the three transpositions (paired with
    0) and a unit shift of the integer part.
    """

    def identity(self):
        return ((0, 1, 2), 0)

    def multiply(self, a, b):
        (p, k), (q, m) = a, b
        return ((q[p[0]], q[p[1]], q[p[2]]), k + m)

    def inverse(self, a):
        p, k = a
        inv = [0, 0, 0]
        for i in range(3):
            inv[p[i]] = i
        return (tuple(inv), -k)

    def generators(self):
        return [((1, 0, 2), 0), ((2, 1, 0), 0), ((0, 2, 1), 0),
                ((0, 1, 2), 1), ((0, 1, 2), -1)]

    def word_distance(self, a):
        # Generators act on one factor each, so distances add across factors.
        p, k = a
        return _S3_LENGTH[p] + abs(k)

    def parse_element(self, text):
        text = text.strip()
        if text == "z+1":
            return ((0, 1, 2), 1)
        if text == "z-1":
            return ((0, 1, 2), -1)
        if text == "e":
            return self.identity()
        name, _, z = text.partition("|")
        if name not in _S3_BY_NAME:
            raise ValueError(f"unknown permutation {name!r}")
        return (_S3_BY_NAME[name], int(z) if z else 0)

    def format_element(self, a):
        p, k = a
        return f"{_S3_NAMES[p]}|{k}"

    def check_element(self, a):
        if not (isinstance(a, tuple) and len(a) == 2 and a[0] in _S3_NAMES
                and isinstance(a[1], int)):
            raise ValueError(f"not an S3xZ element: {a!r}")
        return a


_SIMPLE = {"z2": lambda: CycleZL(2), "lamplighter": LamplighterZ,
           "s3z": S3xZ}
_SIZED = {"cycle": CycleZL, "lattice": IntegerLatticeZd,
          "tree": RegularTreeFree, "rd": EuclideanRd}


def group_from_literal(text: str) -> Group:
    """Build a group from a config literal.

    Accepted forms: ``z2``, ``cycle:L``, ``lattice:d``, ``rd:d``, ``tree:d``,
    ``lamplighter``, ``s3z``; ``z2`` is ``cycle:2``.  Each parameterized
    form takes exactly one integer.
    """
    parts = text.strip().lower().split(":")
    head, args = parts[0], parts[1:]
    if head in _SIMPLE:
        if args:
            raise ValueError(f"{head} takes no parameters: {text!r}")
        return _SIMPLE[head]()
    if head in _SIZED:
        if len(args) != 1:
            raise ValueError(f"{head} takes one parameter: {text!r}")
        return _SIZED[head](int(args[0]))
    raise ValueError(f"unknown group literal: {text!r}")


_CONTINUOUS_FAMILIES = ("gaussian", "sphere")


class StepDistribution:
    """A step distribution: finite weighted support, or a continuous family on R^d.

    Finite support is a list of ``(element, weight)`` pairs with positive
    weights summing to 1 and pairwise distinct elements.  On R^d the families
    ``gaussian`` (standard normal) and ``sphere`` (uniform on the unit
    sphere) are available instead; a finite law on R^d has atoms.
    """

    def __init__(self, support=None, family: Optional[str] = None):
        if (support is None) == (family is None):
            raise ValueError("give exactly one of support / family")
        if family is not None and family not in _CONTINUOUS_FAMILIES:
            raise ValueError(f"unknown continuous family {family!r}")
        self.support = list(support) if support is not None else None
        self.family = family

    @property
    def is_continuous(self) -> bool:
        return self.family is not None

    def validate(self, group: Group) -> "StepDistribution":
        if self.is_continuous:
            if not isinstance(group, EuclideanRd):
                raise ValueError(f"family {self.family!r} needs a Euclidean group")
            return self
        total = 0.0
        seen = set()
        for elem, w in self.support:
            group.check_element(elem)
            if w <= 0:
                raise ValueError(f"weight must be strictly positive, got {w}")
            if elem in seen:
                raise ValueError(f"duplicate support element {group.format_element(elem)}")
            seen.add(elem)
            total += w
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"weights sum to {total}, not 1")
        return self

    def lazy_mass(self, group: Group) -> float:
        """Mass at the identity."""
        if self.is_continuous:
            return 0.0
        return self.mass(group, group.identity())

    def mass(self, group: Group, elem) -> float:
        return sum(w for s, w in self.support if s == elem)

    @classmethod
    def uniform(cls, elements: Iterable) -> "StepDistribution":
        elems = list(elements)
        return cls(support=[(e, 1.0 / len(elems)) for e in elems])

    @classmethod
    def lazy(cls, group: Group) -> "StepDistribution":
        """Half the mass at the identity and the rest uniform on the
        standard generators; on the lamplighter, uniform on the identity and
        its three generators."""
        e = group.identity()
        if isinstance(group, LamplighterZ):
            return cls.uniform([e] + group.generators())
        if not isinstance(group, (CycleZL, IntegerLatticeZd)):
            raise ValueError(
                f"no lazy shorthand for group {type(group).__name__}")
        gens = group.generators()
        return cls(support=[(e, 0.5)] + [(g, 0.5 / len(gens)) for g in gens])

    @classmethod
    def from_literal(cls, spec, group: Group) -> "StepDistribution":
        """Parse ``[["a", 0.5], ["b", 0.5]]`` pairs, or a shorthand name.

        Shorthands: ``lazy`` (``StepDistribution.lazy``), ``gens`` (uniform
        on the standard generators), ``letters`` (tree alias of gens),
        ``pm1`` (uniform on +-1, cycles only); on R^d, ``axis`` (uniform on
        the 2d atoms +-e_i) and the continuous families ``gaussian`` and
        ``sphere``.  A shorthand that does not fit the group raises
        ``ValueError``.
        """
        if isinstance(spec, str):
            if spec not in _SHORTHANDS:
                raise ValueError(f"unrecognized step-law literal {spec!r}")
            return _SHORTHANDS[spec](group).validate(group)
        support = [(group.parse_element(token), float(w)) for token, w in spec]
        return cls(support=support).validate(group)

    def __repr__(self):
        if self.is_continuous:
            return f"StepDistribution(family={self.family!r})"
        return f"StepDistribution({len(self.support)} atoms)"


def _uniform_generators(group: Group) -> StepDistribution:
    try:
        return StepDistribution.uniform(group.generators())
    except NotImplementedError as ex:
        raise ValueError(str(ex)) from None


def _pm1(group: Group) -> StepDistribution:
    if not isinstance(group, CycleZL):
        raise ValueError("pm1 shorthand is for cyclic groups")
    return StepDistribution.uniform(group.generators())


def _axis(group: Group) -> StepDistribution:
    if not isinstance(group, EuclideanRd):
        raise ValueError("axis shorthand is for R^d")
    units = IntegerLatticeZd(group.d).generators()
    return StepDistribution.uniform([tuple(map(float, u)) for u in units])


# The step-law shorthands of ``StepDistribution.from_literal``.
_SHORTHANDS = {
    "lazy": StepDistribution.lazy,
    "gens": _uniform_generators,
    "letters": _uniform_generators,
    "pm1": _pm1,
    "axis": _axis,
    "gaussian": lambda group: StepDistribution(family="gaussian"),
    "sphere": lambda group: StepDistribution(family="sphere"),
}


@dataclass
class ClassFunctionCheck:
    """Outcome of a conjugation-invariance check.

    ``holds`` is meaningful only when ``conclusive``; ``witness`` is a triple
    ``(x, g, image)`` with unequal masses when the check fails.
    """
    conclusive: bool
    holds: bool
    witness: Optional[tuple] = None

    def __bool__(self):
        return self.conclusive and self.holds


# Most elements the conjugation closure of ``is_class_function`` may reach.
ORBIT_CAP = 20000


def is_class_function(group: Group,
                      mu: StepDistribution) -> ClassFunctionCheck:
    """Decide whether ``mu`` is constant on conjugacy classes.

    Checks ``mu(g^-1 x g) == mu(x)`` for every ``x`` in the closure of the
    support under conjugation by the standard generators; this suffices since
    conjugation by arbitrary elements is generated.  The closure is explored
    breadth first and capped at ``ORBIT_CAP`` elements, beyond which the
    result is reported as inconclusive rather than guessed.
    """
    if mu.is_continuous:
        return ClassFunctionCheck(conclusive=True, holds=True)
    if group.is_abelian:
        return ClassFunctionCheck(conclusive=True, holds=True)
    mu.validate(group)
    masses = dict(mu.support)
    gens = group.generators()
    frontier = deque(masses)
    seen = set(masses)
    while frontier:
        x = frontier.popleft()
        mx = masses.get(x, 0.0)
        for g in gens:
            y = group.multiply(group.multiply(group.inverse(g), x), g)
            if abs(masses.get(y, 0.0) - mx) > 1e-12:
                return ClassFunctionCheck(conclusive=True, holds=False,
                                          witness=(x, g, y))
            if y not in seen:
                seen.add(y)
                if len(seen) > ORBIT_CAP:
                    return ClassFunctionCheck(conclusive=False, holds=False)
                frontier.append(y)
    return ClassFunctionCheck(conclusive=True, holds=True)


def bfs_ball(group: Group, radius: int) -> dict:
    """Map ``element -> distance`` for the ball around e.

    Plain breadth-first search over the Cayley graph; intended as a
    cross-check for the closed-form word distances and for enumerating small
    balls.  Raises ``ValueError`` if the ball grows past ten million
    elements.
    """
    gens = group.generators()
    e = group.identity()
    ball = {e: 0}
    frontier = [e]
    for r in range(1, radius + 1):
        nxt = []
        for x in frontier:
            for g in gens:
                y = group.multiply(x, g)
                if y not in ball:
                    ball[y] = r
                    nxt.append(y)
                    if len(ball) > 10_000_000:
                        raise ValueError(
                            f"ball of radius {radius} exceeds enumeration budget")
        frontier = nxt
    return ball
