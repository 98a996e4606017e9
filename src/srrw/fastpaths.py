"""Vectorized Monte Carlo engines for the walk families the decay criteria
run at scale.

Each engine simulates one (group, transform, step-law) family with numpy
column operations, one row per trial.  All of them share one replay kernel,
``_replay_columns``, and differ only in a small per-chunk state: how a step
column moves the positions, and what is counted at a checkpoint.

Draw protocol.  Work is cut into fixed-size chunks, and chunk c of a run
draws every number from the stream (seed, tag, c), in this order:

- step 1: a fresh column;
- step j >= 2: ``u = rng.integers(0, j-1, m)`` picks a past step per row
  and its code is gathered; the engine's replay hook, if any, transforms it
  (the tree's rotation draws ``rng.integers(1, d, m)`` here whenever d > 1,
  rotating or not); then a fresh column; then ``keep = rng.random(m) <
  alpha``.  Step j is the replayed code where ``keep`` holds and the fresh
  one elsewhere.

Results are merged in chunk order, so counts are identical for any thread
count and any scheduling.  Changing this order changes every count.

Everything here returns integer counts (or integer sums); turning counts into
estimates with intervals happens one level up.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import forest
from . import rng as rngmod


def _chunks(trials: int, chunk: int):
    out = []
    done = 0
    while done < trials:
        out.append(min(chunk, trials - done))
        done += chunk
    return out


def _chunk_map(worker, trials: int, chunk: int, threads: int):
    """Run worker(chunk_index, chunk_trials) for every chunk, in order."""
    sizes = _chunks(trials, chunk)
    if threads <= 1:
        return [worker(i, m) for i, m in enumerate(sizes)]
    with ThreadPoolExecutor(max_workers=threads) as ex:
        return list(ex.map(worker, range(len(sizes)), sizes))


def _code_dtype(atoms: int):
    """Smallest unsigned integer dtype that holds step codes 0..atoms-1."""
    return np.min_scalar_type(max(atoms - 1, 0))


def _atom_law(weights):
    """(fresh, dtype) for a finite step law: one uniform per row, inverted
    through the cumulative weights, gives the atom's code."""
    cum = np.cumsum(np.asarray(weights, dtype=float))
    return ((lambda rng, m: np.searchsorted(cum, rng.random(m), side="right")),
            _code_dtype(len(cum)))


def _replay_columns(rng, m: int, n: int, alpha: float, law, hook=None):
    """Yield (j, column) for j = 1..n in the module's draw protocol.

    ``law`` is ``(fresh, dtype)``: ``fresh(rng, m)`` draws m fresh steps
    (codes, or rows of coordinates) and ``dtype`` stores them.
    ``hook(rng, past)`` transforms the replayed codes.
    """
    fresh, dtype = law
    col = fresh(rng, m).astype(dtype, copy=False)
    codes = np.empty((m, n) + col.shape[1:], dtype=dtype)
    codes[:, 0] = col
    yield 1, col
    rows = np.arange(m)
    for j in range(2, n + 1):
        past = codes[rows, rng.integers(0, j - 1, size=m)]
        if hook is not None:
            past = hook(rng, past)
        new = fresh(rng, m).astype(dtype, copy=False)
        keep = rng.random(m) < alpha
        if new.ndim > 1:
            keep = keep[:, None]
        col = np.where(keep, past, new)
        codes[:, j - 1] = col
        yield j, col


def _replay_sums(law, alpha: float, checkpoints, start, trials: int,
                 seed: int, threads: int, tag: int, chunk: int,
                 hook=None) -> dict:
    """{checkpoint: observation summed over all trials}, in one pass.

    ``start(m)`` builds the state of a chunk of m trials and returns its
    ``(apply, observe)`` pair: ``apply(col)`` takes one step column and
    ``observe()`` counts (or sums) over the chunk's current positions.
    """
    cps = sorted(set(int(c) for c in checkpoints))
    marks = set(cps)

    def worker(ci: int, m: int) -> np.ndarray:
        rng = rngmod.stream(seed, tag, ci)
        apply, observe = start(m)
        out = []
        for j, col in _replay_columns(rng, m, cps[-1], alpha, law, hook):
            apply(col)
            if j in marks:
                out.append(observe())
        return np.array(out)

    total = np.sum(_chunk_map(worker, trials, chunk, threads), axis=0)
    return dict(zip(cps, total))


def _counts(sums: dict) -> dict:
    return {c: int(v) for c, v in sums.items()}


def cyclic_histogram(L: int, alpha: float, atoms, weights, n: int,
                     trials: int, seed: int, threads: int = 1,
                     via_forest: bool = False) -> np.ndarray:
    """Endpoint histogram of the identity-replay walk on the L-cycle.

    ``via_forest=True`` draws the percolated forest and sums cluster-size
    blocks of root draws instead of replaying steps; the two routes have the
    same law and give the distributional triangle its second corner.
    """
    atoms = np.asarray(atoms, dtype=np.int64)
    law = _atom_law(weights)
    if via_forest:
        fresh = law[0]

        def worker(ci: int, m: int) -> np.ndarray:
            rng = rngmod.stream(seed, 11, ci)
            vals = atoms[fresh(rng, m * n).reshape(m, n)]
            root = forest._root_matrix(n, alpha, m, rng)
            pos = np.take_along_axis(vals, root[:, 1:] - 1, axis=1).sum(axis=1)
            return np.bincount(pos % L, minlength=L)

        return np.sum(_chunk_map(worker, trials, 1 << 16, threads), axis=0)

    def start(m):
        pos = np.zeros(m, dtype=np.int64)

        def apply(col):
            nonlocal pos
            pos += atoms[col]

        return apply, lambda: np.bincount(pos % L, minlength=L)

    return _replay_sums(law, alpha, [n], start, trials, seed, threads, 10,
                        1 << 16)[n]


def _lattice_hits(disps, weights, alpha, checkpoints, inside, trials, seed,
                  threads, tag) -> dict:
    """Counts of rows whose lattice position is ``inside`` at each horizon."""
    disps = np.asarray(disps, dtype=np.int64)

    def start(m):
        pos = np.zeros((m, disps.shape[1]), dtype=np.int64)

        def apply(col):
            nonlocal pos
            pos += disps[col]

        return apply, lambda: inside(pos).sum()

    return _counts(_replay_sums(_atom_law(weights), alpha, checkpoints, start,
                                trials, seed, threads, tag, 1 << 16))


def _in_ball(radius: float):
    r2 = radius * radius
    return lambda pos: (pos * pos).sum(axis=1) < r2


def lattice_target_hits(disps: np.ndarray, weights, alpha: float,
                        checkpoints, target, trials: int, seed: int,
                        threads: int = 1) -> dict:
    """Hit counts of a fixed lattice target at several horizons, one pass.

    ``disps`` is the (atoms, d) displacement table of the finite step law.
    The pass runs to max(checkpoints) and tests the position at each listed
    horizon, so the per-horizon counts share trials (fine for point
    estimates, deliberate for the runtime budget).
    """
    tgt = np.asarray(target, dtype=np.int64)
    return _lattice_hits(disps, weights, alpha, checkpoints,
                         lambda pos: (pos == tgt).all(axis=1), trials, seed,
                         threads, 20)


def lattice_ball_hits(disps: np.ndarray, weights, alpha: float, checkpoints,
                      radius: float, trials: int, seed: int,
                      threads: int = 1) -> dict:
    """Counts of |position| < radius (Euclidean norm) at several horizons."""
    return _lattice_hits(disps, weights, alpha, checkpoints, _in_ball(radius),
                         trials, seed, threads, 21)


def gaussian_ball_hits(d: int, alpha: float, checkpoints, radius: float,
                       trials: int, seed: int, threads: int = 1) -> dict:
    """Counts of |position| < radius for standard-normal steps with identity
    replay in d continuous coordinates."""
    inside = _in_ball(radius)

    def start(m):
        pos = np.zeros((m, d), dtype=np.float64)

        def apply(col):
            nonlocal pos
            pos += col

        return apply, lambda: inside(pos).sum()

    law = (lambda rng, m: rng.standard_normal((m, d))), np.float64
    return _counts(_replay_sums(law, alpha, checkpoints, start, trials, seed,
                                threads, 22, 1 << 12))


def _erw_params(d: int, p: float):
    if p * d >= 1:
        return (d * p - 1) / (d - 1), False
    return 1 - d * p, True


def _tree_sums(d: int, p: float, checkpoints, observe, trials: int,
               seed: int, threads: int, tag: int, chunk: int) -> dict:
    """Sums of ``observe(depth)`` for the elephant walk on the d-regular tree.

    Words live on a per-trial stack of letters; a step either cancels the
    top letter or pushes, so the word length is the stack depth.
    """
    alpha, rotate = _erw_params(d, p)
    n_max = max(int(c) for c in checkpoints)
    dtype = _code_dtype(d)

    def rotation(rng, past):
        shift = rng.integers(1, d, size=len(past))
        return (past + shift) % d if rotate else past

    def start(m):
        rows = np.arange(m)
        stack = np.zeros((m, n_max + 1), dtype=dtype)
        depth = np.zeros(m, dtype=np.int32)

        def apply(letter):
            nonlocal depth
            top = stack[rows, np.maximum(depth - 1, 0)]
            cancel = (depth > 0) & (top == letter)
            depth = depth + np.where(cancel, -1, 1)
            push = ~cancel
            stack[rows[push], depth[push] - 1] = letter[push]

        return apply, lambda: observe(depth)

    law = (lambda rng, m: rng.integers(0, d, size=m)), dtype
    return _replay_sums(law, alpha, checkpoints, start, trials, seed,
                        threads, tag, chunk,
                        hook=rotation if d > 1 else None)


def tree_erw_origin_hits(d: int, p: float, checkpoints, trials: int,
                         seed: int, threads: int = 1) -> dict:
    """Counts of returns to the empty word for the elephant walk on the
    d-regular tree, at several horizons in one pass."""
    return _counts(_tree_sums(d, p, checkpoints,
                              lambda depth: (depth == 0).sum(), trials, seed,
                              threads, 30, 1 << 17))


def tree_erw_distance_sums(d: int, p: float, n: int, trials: int, seed: int,
                           threads: int = 1) -> tuple:
    """(sum, sum of squares) of the word distance after n steps."""

    def moments(depth):
        dd = depth.astype(np.int64)
        return np.array([dd.sum(), (dd * dd).sum()], dtype=np.int64)

    s, s2 = _tree_sums(d, p, [n], moments, trials, seed, threads, 31,
                       1 << 15)[n]
    return int(s), int(s2)


# S3 permutations as image tuples, indexed; composition is left to right.
_S3_ORDER = [(0, 1, 2), (1, 0, 2), (2, 1, 0), (0, 2, 1), (1, 2, 0), (2, 0, 1)]
_S3_INDEX = {p: i for i, p in enumerate(_S3_ORDER)}


def _s3_mult_table() -> np.ndarray:
    t = np.zeros((6, 6), dtype=np.int8)
    for i, p in enumerate(_S3_ORDER):
        for j, q in enumerate(_S3_ORDER):
            t[i, j] = _S3_INDEX[(q[p[0]], q[p[1]], q[p[2]])]
    return t


_S3_MULT = _s3_mult_table()


def s3z_target_hits(alpha: float, atom_perms, atom_zs, weights, checkpoints,
                    target_perm: int, target_z: int, trials: int, seed: int,
                    threads: int = 1) -> dict:
    """Hit counts of a fixed element of the permutation-times-integers group
    under identity replay, several horizons per pass.

    Atoms are given as (permutation index, integer shift) pairs; the walk
    state is one permutation index and one integer per trial.
    """
    ap = np.asarray(atom_perms, dtype=np.int8)
    az = np.asarray(atom_zs, dtype=np.int64)

    def start(m):
        perm = np.zeros(m, dtype=np.int8)
        z = np.zeros(m, dtype=np.int64)

        def apply(col):
            nonlocal perm, z
            perm = _S3_MULT[perm, ap[col]]
            z = z + az[col]

        return apply, lambda: ((perm == target_perm) & (z == target_z)).sum()

    return _counts(_replay_sums(_atom_law(weights), alpha, checkpoints, start,
                                trials, seed, threads, 40, 1 << 16))


def masked_set_walk(step_tables, start_mask: int, n_states: int, trials: int,
                    seed: int, threads: int = 1) -> np.ndarray:
    """Final-set counts for an evolving-set chain on a small state space.

    Sets are bitmasks over at most 16 points.  ``step_tables[j]`` maps each
    mask to (cumulative piece lengths, successor masks): one uniform draw per
    step picks the successor by cumulative threshold, which is exactly the
    level-set dynamics.  Returns counts over final masks.
    """
    n_masks = 1 << n_states

    def worker(ci: int, m: int) -> np.ndarray:
        rng = rngmod.stream(seed, 70, ci)
        state = np.full(m, start_mask, dtype=np.int32)
        for cums, succs in step_tables:
            u = rng.random(m)
            nxt = np.empty(m, dtype=np.int32)
            for mask in np.unique(state):
                rows = state == mask
                idx = np.searchsorted(cums[mask], u[rows], side="left")
                nxt[rows] = succs[mask][idx]
            state = nxt
        return np.bincount(state, minlength=n_masks)

    parts = _chunk_map(worker, trials, 1 << 16, threads)
    return np.sum(parts, axis=0)


def lamplighter_origin_hits(alpha: float, weights, checkpoints, trials: int,
                            seed: int, threads: int = 1) -> dict:
    """Identity-return counts for the lamplighter walk under identity replay.

    Atom order is fixed: stay, toggle, marker +1, marker -1 with the given
    weights.  Lamp states live in a boolean window wide enough for the
    horizon, so every configuration is tracked exactly.
    """
    off = max(int(c) for c in checkpoints)  # marker stays within +-off

    def start(m):
        rows = np.arange(m)
        lamps = np.zeros((m, 2 * off + 1), dtype=bool)
        marker = np.zeros(m, dtype=np.int64)

        def apply(col):
            nonlocal marker
            t = col == 1
            lamps[rows[t], marker[t] + off] ^= True
            marker = marker + (col == 2) - (col == 3)

        return apply, lambda: ((marker == 0) & ~lamps.any(axis=1)).sum()

    return _counts(_replay_sums(_atom_law(weights), alpha, checkpoints, start,
                                trials, seed, threads, 50, 1 << 14))
