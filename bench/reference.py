"""Exact laws the benchmark checks srrw's Monte Carlo counts against.

Nothing here imports srrw: each law is derived from the walk's definition
and computed by its own recursion, so an engine fault cannot hide in a
shared helper.

* ``type_count_laws`` and ``identity_replay_law``: with identity replay the
  step types form an urn.  After j steps with c_k steps of type k, the next
  step has type k with probability (1 - alpha) w_k + alpha c_k / j.  On Z^3
  the type counts fix the position; on S3 x Z the chain also carries the
  position, which sums exactly over ordered sequences.
* ``tree_elephant_law``: the elephant walk with memory p on the d-regular
  tree.  After j letters with c_k copies of letter k, the next letter is k
  with probability p c_k / j + (1 - p) (1 - c_k / j) / (d - 1); positions
  are words reduced by cancelling equal neighbouring letters.
* ``memory_walk_return``: the +-1 walk whose next step is +1 with
  probability 1/2 - alpha S / (2 j) after j steps at position S.  This is
  the counterbalanced walk (replay the negation of a uniform past step with
  probability alpha, draw a fair +-1 otherwise).
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np


def _next_type_probs(alpha: float, weights, j: int, counts):
    """Law of the next step's type after j steps with these type counts."""
    if j == 0:
        return list(weights)
    return [(1.0 - alpha) * w + alpha * c / j for w, c in zip(weights, counts)]


def type_count_laws(alpha: float, weights, ns) -> dict:
    """{n: {type counts: probability}} of the identity-replay urn.

    For an abelian group the position is the sum of count times atom, so
    this is all the walk's law needs.  Counts are packed base n_max + 1 into
    one integer while the chain runs.
    """
    k = len(weights)
    base = max(ns) + 1
    unit = [base ** i for i in range(k)]
    state = {0: 1.0}
    out = {}
    for j in range(max(ns)):
        # _next_type_probs inlined: this loop visits ~250k states at n = 16
        fresh = [(1.0 - alpha) * w if j else w for w in weights]
        replay = alpha / j if j else 0.0
        nxt: dict = defaultdict(float)
        for key, prob in state.items():
            for i in range(k):
                q = fresh[i] + replay * (key // unit[i] % base)
                if q:
                    nxt[key + unit[i]] += prob * q
        state = nxt
        if j + 1 in ns:
            out[j + 1] = {tuple(key // u % base for u in unit): prob
                          for key, prob in state.items()}
    return out


def identity_replay_law(alpha: float, atoms, weights, multiply, identity,
                        ns) -> dict:
    """{n: {position: probability}} of the identity-replay walk on any group.

    ``multiply(a, b)`` is the group product with a applied first; the chain
    runs on (type counts, position) and sums over ordered step sequences.
    """
    k = len(atoms)
    state = {((0,) * k, identity): 1.0}
    out = {}
    for j in range(max(ns)):
        nxt: dict = defaultdict(float)
        for (counts, pos), prob in state.items():
            for i, q in enumerate(_next_type_probs(alpha, weights, j, counts)):
                if q:
                    c = counts[:i] + (counts[i] + 1,) + counts[i + 1:]
                    nxt[(c, multiply(pos, atoms[i]))] += prob * q
        state = nxt
        if j + 1 in ns:
            law: dict = defaultdict(float)
            for (_, pos), prob in state.items():
                law[pos] += prob
            out[j + 1] = dict(law)
    return out


def lazy_lattice_atoms(d: int):
    """The lazy walk on Z^d: stay with probability 1/2, else move to one of
    the 2d neighbours uniformly."""
    atoms = [(0,) * d]
    weights = [0.5]
    for i in range(d):
        for s in (1, -1):
            v = [0] * d
            v[i] = s
            atoms.append(tuple(v))
            weights.append(1.0 / (4 * d))
    return atoms, weights


def lattice_return_probs(d: int, alpha: float, ns) -> dict:
    """{n: P(S_n = 0)} for the lazy identity-replay walk on Z^d."""
    atoms, weights = lazy_lattice_atoms(d)
    out = {}
    for n, law in type_count_laws(alpha, weights, ns).items():
        out[n] = sum(prob for counts, prob in law.items()
                     if not any(sum(c * a[x] for c, a in zip(counts, atoms))
                                for x in range(d)))
    return out


# S3 x Z: a permutation of {0, 1, 2} as its image tuple, times an integer.
# The product applies the left factor first: (s t)(i) = t[s[i]].
S3Z_IDENTITY = ((0, 1, 2), 0)
S3Z_GENERATORS = [((1, 0, 2), 0), ((2, 1, 0), 0), ((0, 2, 1), 0),
                  ((0, 1, 2), 1), ((0, 1, 2), -1)]


def s3z_multiply(a, b):
    (s, x), (t, y) = a, b
    return ((t[s[0]], t[s[1]], t[s[2]]), x + y)


def s3z_return_probs(alpha: float, ns) -> dict:
    """{n: P(S_n = e)} for identity replay of the uniform generator law."""
    w = [1.0 / len(S3Z_GENERATORS)] * len(S3Z_GENERATORS)
    laws = identity_replay_law(alpha, S3Z_GENERATORS, w, s3z_multiply,
                               S3Z_IDENTITY, ns)
    return {n: law.get(S3Z_IDENTITY, 0.0) for n, law in laws.items()}


def tree_elephant_law(d: int, p: float, n_max: int) -> list:
    """P(S_n = empty word) for n = 0..n_max, elephant walk on the d-tree."""
    out = [1.0]
    state = {((0,) * d, ()): 1.0}
    for j in range(n_max):
        nxt: dict = defaultdict(float)
        for (counts, word), prob in state.items():
            for i in range(d):
                if j == 0:
                    q = 1.0 / d
                else:
                    f = counts[i] / j
                    q = p * f + (1.0 - p) * (1.0 - f) / (d - 1)
                if q == 0.0:
                    continue
                c = counts[:i] + (counts[i] + 1,) + counts[i + 1:]
                w = word[:-1] if word and word[-1] == i else word + (i,)
                nxt[(c, w)] += prob * q
        state = nxt
        out.append(sum(pr for (_, w), pr in state.items() if not w))
    return out


def memory_walk_return(alpha: float, ns) -> dict:
    """{n: P(S_n = 0)} for the +-1 walk with P(+1) = 1/2 - alpha S / (2 j)."""
    n_max = max(ns)
    offs = n_max
    law = np.zeros(2 * n_max + 1)
    law[offs] = 1.0
    s = np.arange(-n_max, n_max + 1, dtype=float)
    out = {}
    for j in range(n_max):
        up = np.full_like(s, 0.5) if j == 0 else 0.5 - alpha * s / (2 * j)
        nxt = np.zeros_like(law)
        nxt[1:] += (law * up)[:-1]
        nxt[:-1] += (law * (1.0 - up))[1:]
        law = nxt
        if j + 1 in ns:
            out[j + 1] = float(law[offs])
    return out
