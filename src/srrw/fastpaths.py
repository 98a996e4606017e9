"""Vectorized Monte Carlo engines for the walk families the decay criteria
run at scale.

Each engine simulates one (group, transform, step-law) family with numpy
column operations, one row per trial.  All of them share one replay kernel,
``_replay_columns``, and differ only in a small per-chunk state: how a step
column moves the positions, and what is counted at a checkpoint.

Draw protocol.  Work is cut into chunks, and chunk c of a run draws every
number from the stream (seed, tag, c).  Each step j draws exactly one
uniform per row, ``v = rng.random(m)``, and that v decides the whole step:

- step 1 is fresh, and its atom comes from v;
- at step j >= 2, a row with v < alpha replays step ``1 + floor(x)`` with
  ``x = v / alpha * (j - 1)``, uniform on 1..j-1 given v < alpha; unless
  replay keeps codes, the replayed code c becomes ``T[c, b]`` of the
  config's replay table (``sampler.Transform.replay_table``), with branch b
  read from x: slot ``floor(x * Q) mod Q`` when every branch weight is a
  multiple of 1/Q for a small Q, else ``x - floor(x)`` inverted through the
  cumulative branch weights.  Both read only the fractional part of x,
  which is independent of the pick.  The tree's rotation is the table
  ``T[c, b] = (c + 1 + b) mod d``;
- a row with v >= alpha is fresh, and its atom comes from
  ``(v - alpha) / (1 - alpha)``, uniform on [0, 1) given v >= alpha.

A fresh uniform w picks slot ``floor(w * Q)`` of a Q-slot table when every
weight is a multiple of 1/Q for a small Q (the lazy lattice has Q = 12, the
lamplighter Q = 4, a uniform law Q = #atoms), and is inverted through the
cumulative weights otherwise.  The Gaussian engine ignores w and draws
``rng.standard_normal`` for its fresh rows only, after v.  At alpha = 0
nothing is replayed and at alpha = 1 nothing is fresh, so neither edge
divides by zero.  The forest's attachments (``forest._attachments``) use the
same rule: one uniform keeps the edge and picks its target.

Step codes are stored step-major, (n, m), in the smallest unsigned dtype
that holds them, and a chunk holds at most ``forest._CODE_BUDGET`` bytes of
them and of the walk state that grows with the horizon (the lamplighter's
lamp window, the tree's letter stack); a longer horizon runs in smaller
chunks, and one that does not fit a single trial raises.  Results are
merged in chunk order, so counts are identical for any thread count and any
scheduling.  Changing this protocol changes every count, and so does
changing the bit generator behind ``rng.stream``: the same protocol over
other bits gives other counts.

Everything here returns integer counts (or integer sums); turning counts into
estimates with intervals happens one level up.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np

from . import forest
from . import rng as rngmod
from .groups import S3xZ, _S3_NAMES

# Largest slot table a finite law is looked up in; beyond it, searchsorted.
_MAX_SLOTS = 1024


def _chunks(trials: int, chunk: int):
    out = []
    done = 0
    while done < trials:
        out.append(min(chunk, trials - done))
        done += chunk
    return out


def _horizons(checkpoints, trials) -> list:
    """Distinct horizons in increasing order; at least one, each >= 1, over
    at least one trial."""
    ns = sorted(set(int(n) for n in checkpoints))
    if not ns or ns[0] < 1:
        raise ValueError(f"horizons must be integers >= 1, got {ns}")
    if trials < 1:
        raise ValueError(f"trials must be an integer >= 1, got {trials}")
    return ns


def _chunk_map(worker, trials: int, chunk: int, threads: int):
    """Run worker(chunk_index, chunk_trials) for every chunk, in order."""
    if trials < 1:
        raise ValueError(f"trials must be an integer >= 1, got {trials}")
    sizes = _chunks(trials, chunk)
    if threads <= 1:
        return [worker(i, m) for i, m in enumerate(sizes)]
    with ThreadPoolExecutor(max_workers=threads) as ex:
        return list(ex.map(worker, range(len(sizes)), sizes))


def _code_dtype(atoms: int):
    """Smallest unsigned integer dtype that holds step codes 0..atoms-1."""
    return np.min_scalar_type(max(atoms - 1, 0))


class _Law(NamedTuple):
    """A fresh-step law: ``fresh(rng, w)`` maps uniforms w in [0, 1) to one
    step each, stored as ``dtype`` with per-step shape ``row``."""

    fresh: Callable
    dtype: object
    row: tuple = ()


def _slots(weights):
    """The Q-slot table of ``_atom_law``, or None when it has none."""
    frac = [Fraction(x).limit_denominator(_MAX_SLOTS) for x in weights]
    q = math.lcm(*(f.denominator for f in frac))
    if (q <= _MAX_SLOTS and sum(frac) == 1
            and all(abs(f - x) <= 1e-12 for f, x in zip(frac, weights))):
        return np.repeat(np.arange(len(weights)), [int(f * q) for f in frac])
    return None


def _cumulative(weights) -> np.ndarray:
    cum = np.cumsum(weights)
    return cum[:-1] / cum[-1]


def _atom_law(weights) -> _Law:
    """Atom codes of a finite step law, one uniform per step.

    If every weight is a multiple of 1/Q for some Q <= ``_MAX_SLOTS``, atom
    a fills Q * w_a consecutive slots of a Q-slot table and w picks slot
    floor(w * Q); otherwise w is inverted through the cumulative weights.
    Either way atom a comes out with probability w_a.
    """
    w = np.asarray(weights, dtype=float)
    dtype = _code_dtype(len(w))
    slots = _slots(w.tolist())
    if slots is not None:
        slots, q = slots.astype(dtype), len(slots)
        return _Law(lambda rng, u: np.take(slots, (u * q).astype(np.intp),
                                           mode="clip"), dtype)
    cum = _cumulative(w)
    return _Law(lambda rng, u: np.searchsorted(cum, u, side="right")
                .astype(dtype), dtype)


def _table_hook(rows, weights):
    """``hook(past, x)`` replaying code c as ``rows[c][b]``.

    Branch b is read from x, whose fractional part is uniform on [0, 1)
    given the pick, by the rules of ``_atom_law``: slot floor(x * Q) mod Q
    of the weights' slot table, else x - floor(x) inverted through their
    cumulative weights.
    """
    table = np.array(rows, dtype=_code_dtype(len(rows)))
    slots = _slots(weights)
    if slots is not None:
        table = table[:, slots]
    width, flat = table.shape[1], table.ravel()
    if width == 1:
        return lambda past, x: flat.take(past)
    if slots is not None:
        return lambda past, x: flat.take(past.astype(np.intp) * width
                                         + (x * width).astype(np.intp) % width)
    cum = _cumulative(weights)
    return lambda past, x: flat.take(past.astype(np.intp) * width
                                     + np.searchsorted(cum, x - np.floor(x),
                                                       side="right"))


def _replay_columns(rng, m: int, n: int, alpha: float, law: _Law, hook=None):
    """Yield (j, column) for j = 1..n in the module's draw protocol.

    ``hook(past, x)`` transforms the replayed codes, given the position
    x = v / alpha * (j - 1) of each replaying row's pick.
    """
    codes = np.empty((n, m) + law.row, dtype=law.dtype)
    flat = codes.reshape((n * m,) + law.row)
    codes[0] = law.fresh(rng, rng.random(m))
    yield 1, codes[0]
    for j, v, kept, past in forest._attachments(n, alpha, m, rng):
        col = codes[j - 1]
        new = np.flatnonzero(v >= alpha)
        if new.size:
            col[new] = law.fresh(rng, (v[new] - alpha) / (1 - alpha))
        if kept.size:
            src = flat[past * m + kept]
            if hook is not None:
                src = hook(src, v[kept] * ((j - 1) / alpha))
            col[kept] = src
        yield j, col


def _replay_sums(law: _Law, alpha: float, checkpoints, start, trials: int,
                 seed: int, threads: int, tag: int, chunk: int,
                 replay=None, state: int = 0) -> dict:
    """{checkpoint: observation summed over all trials}, in one pass.

    ``start(m)`` builds the state of a chunk of m trials and returns its
    ``(apply, observe)`` pair: ``apply(col)`` takes one step column and
    ``observe()`` counts (or sums) over the chunk's current positions.
    ``replay``, a (rows, weights) table as ``_table_hook`` takes it, moves
    each replayed code; without it a replayed code is kept.
    Chunks hold at most ``chunk`` trials and ``forest._CODE_BUDGET`` bytes
    of codes plus ``state``, each trial's bytes of horizon-sized walk state.
    """
    cps = _horizons(checkpoints, trials)
    marks = set(cps)
    per_trial = (cps[-1] * np.dtype(law.dtype).itemsize * math.prod(law.row)
                 + state)
    chunk = forest._budget_rows(chunk, per_trial,
                                f"{cps[-1]} steps need {per_trial} bytes of "
                                f"codes per trial (state included)")
    hook = None if replay is None else _table_hook(*replay)

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
                     via_forest: bool = False, replay=None) -> np.ndarray:
    """Endpoint histogram of the walk on the L-cycle.

    ``via_forest=True`` draws the percolated forest and sums cluster-size
    blocks of root draws instead of replaying steps; the two routes have the
    same law and give the distributional triangle its second corner.  A
    cluster shares its root's draw only under identity replay, so the
    forest route refuses a ``replay`` table.  It draws every code of a
    chunk at once, trial-major, then the forest, and adds up each vertex's
    root code step by step (``forest._root_matrix``); its (trials x n)
    uniforms, codes and roots count against ``forest._CODE_BUDGET`` as
    the engines' codes do.
    """
    atoms = np.asarray(atoms, dtype=np.int64)
    law = _atom_law(weights)
    if via_forest:
        if replay is not None:
            raise ValueError("the forest route replays steps unchanged")
        _horizons([n], trials)
        # the peak is the code draw: per step, a float64 uniform and the
        # float64 and intp arrays that turn it into a code; the codes and
        # int32 roots held after it take less
        per_trial = 24 * n
        chunk = forest._budget_rows(1 << 16, per_trial,
                                    f"{n} forest steps need {per_trial} "
                                    f"bytes per trial")

        def worker(ci: int, m: int) -> np.ndarray:
            rng = rngmod.stream(seed, 11, ci)
            codes = law.fresh(rng, rng.random(m * n))
            pos = np.zeros(m, dtype=np.int64)
            for row in forest._root_matrix(n, alpha, m, rng):
                pos += atoms.take(codes.take(row))
            return np.bincount(pos % L, minlength=L)

        return np.sum(_chunk_map(worker, trials, chunk, threads), axis=0)

    def start(m):
        pos = np.zeros(m, dtype=np.int64)

        def apply(col):
            nonlocal pos
            pos += atoms[col]

        return apply, lambda: np.bincount(pos % L, minlength=L)

    return _replay_sums(law, alpha, [n], start, trials, seed, threads, 10,
                        1 << 16, replay)[n]


def _lattice_hits(disps, weights, alpha, checkpoints, target, radius,
                  trials, seed, threads, tag, replay) -> dict:
    """Counts of rows at ``target``, or else inside the Euclidean ball of
    ``radius``, at each horizon.

    A target coordinate beyond the walk's reach has 0 hits.  While the reach
    fits ``_pack_bits``, a position is packed into one int64, so a step is
    one add and a target test one compare; otherwise it is a row of d int64
    coordinates.  Both hold the same positions from the same draws, so the
    counts do not depend on the choice.
    """
    disps = np.asarray(disps, dtype=np.int64)
    d = disps.shape[1]
    n = _horizons(checkpoints, trials)[-1]
    reach = [n * int(r) for r in np.abs(disps).max(axis=0)]
    if target is not None and any(abs(int(t)) > r
                                  for t, r in zip(target, reach)):
        return {int(c): 0 for c in checkpoints}
    if max(reach) >= 1 << 63:
        raise ValueError(f"lattice coordinates over {n} steps could leave "
                         f"int64")
    bits = _pack_bits(max(reach), d)
    if bits is None:
        step, row, tgt = disps, (d,), target
    else:
        step, row = np.array(_pack(disps.tolist(), bits), dtype=np.int64), ()
        tgt = None if target is None else _pack([target], bits)[0]

    def observe(pos):
        if target is None:
            coords = pos.T if bits is None else _unpack(pos, d, bits)
            return _in_ball(coords, radius).sum()
        hit = pos == tgt
        return (hit if bits is not None else hit.all(axis=1)).sum()

    def start(m):
        pos = np.zeros((m,) + row, dtype=np.int64)

        def apply(col):
            nonlocal pos
            pos += step.take(col, axis=0)

        return apply, lambda: observe(pos)

    return _counts(_replay_sums(_atom_law(weights), alpha, checkpoints, start,
                                trials, seed, threads, tag, 1 << 16, replay))


def _pack_bits(reach: int, d: int):
    """Bits per coordinate that pack d coordinates of absolute value at most
    ``reach`` into one int64, or None when they do not fit."""
    bits = reach.bit_length() + 1
    return bits if d * bits <= 64 else None


def _pack(rows, bits: int) -> list:
    """Integer vectors as sums x_i * 2^(bits * i): one int64 each, exact
    and one-to-one while every |x_i| < 2^(bits - 1)."""
    return [sum(int(x) << (bits * i) for i, x in enumerate(r)) for r in rows]


def _unpack(pos: np.ndarray, d: int, bits: int) -> list:
    """Coordinate arrays of packed positions, lowest coordinate first."""
    if d == 1:
        return [pos]
    half, mask = 1 << (bits - 1), (1 << bits) - 1
    out = []
    for _ in range(d):
        x = ((pos + half) & mask) - half
        out.append(x)
        pos = (pos - x) >> bits
    return out


def _in_ball(coords, radius: float) -> np.ndarray:
    return sum(x.astype(np.float64) ** 2 for x in coords) < radius * radius


def lattice_target_hits(disps: np.ndarray, weights, alpha: float,
                        checkpoints, target, trials: int, seed: int,
                        threads: int = 1, replay=None) -> dict:
    """Hit counts of a fixed lattice target at several horizons, one pass.

    ``disps`` is the (atoms, d) displacement table of the finite step law.
    The pass runs to max(checkpoints) and tests the position at each listed
    horizon, so the per-horizon counts share trials (fine for point
    estimates, deliberate for the runtime budget).  ``replay`` moves
    replayed codes as in ``_replay_sums``; so does every engine's.
    """
    return _lattice_hits(disps, weights, alpha, checkpoints,
                         np.asarray(target, dtype=np.int64).tolist(), None,
                         trials, seed, threads, 20, replay)


def lattice_ball_hits(disps: np.ndarray, weights, alpha: float, checkpoints,
                      radius: float, trials: int, seed: int,
                      threads: int = 1, replay=None) -> dict:
    """Counts of |position| < radius (Euclidean norm) at several horizons."""
    return _lattice_hits(disps, weights, alpha, checkpoints, None, radius,
                         trials, seed, threads, 21, replay)


def gaussian_ball_hits(d: int, alpha: float, checkpoints, radius: float,
                       trials: int, seed: int, threads: int = 1) -> dict:
    """Counts of |position| < radius for standard-normal steps with identity
    replay in d continuous coordinates; normals are drawn for fresh rows
    only."""

    def start(m):
        pos = np.zeros((m, d), dtype=np.float64)

        def apply(col):
            nonlocal pos
            pos += col

        return apply, lambda: _in_ball(pos.T, radius).sum()

    law = _Law(lambda rng, u: rng.standard_normal((len(u), d)), np.float64,
               (d,))
    return _counts(_replay_sums(law, alpha, checkpoints, start, trials, seed,
                                threads, 22, 1 << 12))


def _tree_sums(d: int, alpha: float, checkpoints, observe, trials: int,
               seed: int, threads: int, tag: int, chunk: int, replay) -> dict:
    """Sums of ``observe(depth)`` for the elephant walk on the d-regular tree.

    Steps are uniform letters, code c being letter c, and a replayed letter
    moves by ``replay``.  Words live on a per-trial stack of letters,
    step-major, above a bottom row that matches no letter; a step either
    cancels the top letter or pushes, so the word length is the stack depth.
    """
    n_max = max(int(c) for c in checkpoints)

    def start(m):
        rows = np.arange(m)
        stack = np.full((n_max + 2) * m, d, dtype=_code_dtype(d + 1))
        depth = np.zeros(m, dtype=np.intp)

        def apply(letter):
            nonlocal depth
            top = depth * m + rows
            cancel = stack[top] == letter
            # written above the top: a push keeps it, a cancel leaves it
            # above the new top, where nothing reads it
            stack[top + m] = letter
            depth += 1
            depth -= 2 * cancel

        return apply, lambda: observe(depth)

    return _replay_sums(_atom_law([1.0 / d] * d), alpha, checkpoints, start,
                        trials, seed, threads, tag, chunk, replay,
                        state=(n_max + 2) * _code_dtype(d + 1).itemsize)


def tree_erw_origin_hits(d: int, alpha: float, checkpoints, trials: int,
                         seed: int, threads: int = 1, replay=None) -> dict:
    """Counts of returns to the empty word for the elephant walk on the
    d-regular tree, at several horizons in one pass."""
    return _counts(_tree_sums(d, alpha, checkpoints,
                              lambda depth: (depth == 0).sum(), trials, seed,
                              threads, 30, 1 << 17, replay))


def tree_erw_distance_sums(d: int, alpha: float, n: int, trials: int,
                           seed: int, threads: int = 1,
                           replay=None) -> tuple:
    """(sum, sum of squares) of the word distance after n steps."""

    def moments(depth):
        dd = depth.astype(np.int64)
        return np.array([dd.sum(), (dd * dd).sum()], dtype=np.int64)

    s, s2 = _tree_sums(d, alpha, [n], moments, trials, seed, threads, 31,
                       1 << 15, replay)[n]
    return int(s), int(s2)


# S3 permutations in the order of groups._S3_NAMES, and their products.
_S3_INDEX = {p: i for i, p in enumerate(_S3_NAMES)}
_S3_MULT = np.array([[_S3_INDEX[S3xZ().multiply((p, 0), (q, 0))[0]]
                      for q in _S3_INDEX] for p in _S3_INDEX], dtype=np.int8)


def s3z_target_hits(alpha: float, atoms, weights, checkpoints, target,
                    trials: int, seed: int, threads: int = 1,
                    replay=None) -> dict:
    """Hit counts of a fixed element of the permutation-times-integers group,
    several horizons per pass.

    Atoms and the target are S3xZ elements, (permutation image tuple,
    integer) pairs; the walk state is one permutation index and one integer
    per trial.
    """
    ap = [_S3_INDEX[g[0]] for g in atoms]
    az = np.array([g[1] for g in atoms], dtype=np.int64)
    target_perm, target_z = _S3_INDEX[target[0]], target[1]
    # mult[p * width + c]: the index of permutation p times atom c's
    width = len(ap)
    mult = _S3_MULT[:, ap].astype(np.intp).ravel()

    def start(m):
        perm = np.zeros(m, dtype=np.intp)
        z = np.zeros(m, dtype=np.int64)

        def apply(col):
            nonlocal perm, z
            perm = mult.take(perm * width + col)
            z += az.take(col)

        return apply, lambda: ((perm == target_perm) & (z == target_z)).sum()

    return _counts(_replay_sums(_atom_law(weights), alpha, checkpoints, start,
                                trials, seed, threads, 40, 1 << 16, replay))


# Most points a set chain may range over: 2^16 masks per table and per
# final histogram.
MAX_SET_POINTS = 16


def masked_set_walk(step_tables, start_mask: int, n_states: int, trials: int,
                    seed: int, threads: int = 1) -> np.ndarray:
    """Final-set counts for an evolving-set chain on a small state space.

    Sets are bitmasks over at most ``MAX_SET_POINTS`` points.
    ``step_tables[j]`` maps each mask to (cumulative piece lengths,
    successor masks): one uniform draw per step picks the successor by
    cumulative threshold, which is exactly the level-set dynamics.  Returns
    counts over final masks.
    """
    if n_states > MAX_SET_POINTS:
        raise ValueError(f"a set chain over {n_states} points exceeds "
                         f"{MAX_SET_POINTS}")
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
                            seed: int, threads: int = 1, replay=None) -> dict:
    """Identity-return counts for the lamplighter walk.

    Atom order is fixed: stay, toggle, marker +1, marker -1 with the given
    weights.  Lamp states live in a boolean window wide enough for the
    horizon, so every configuration is tracked exactly.  The window is
    stored site-major and flat, lamp (site, row) at ``site * m + row``, as
    the tree's letter stack is, and each row's marker is the flat index of
    the lamp under it: a step moves it by a multiple of m, and a toggle
    flips the lamps of the toggling rows with one gather and one scatter.
    """
    off = max(int(c) for c in checkpoints)  # marker stays within +-off

    def start(m):
        rows = np.arange(m)
        lamps = np.zeros((2 * off + 1) * m, dtype=bool)
        home = off * m + rows
        marker = home.copy()
        move = np.array([0, 0, m, -m], dtype=np.intp)

        def apply(col):
            nonlocal marker
            lit = marker.compress(col == 1)
            lamps.put(lit, ~lamps.take(lit))
            marker = marker + move.take(col)

        def observe():
            dark = ~lamps.reshape(2 * off + 1, m).any(axis=0)
            return (dark & (marker == home)).sum()

        return apply, observe

    return _counts(_replay_sums(_atom_law(weights), alpha, checkpoints, start,
                                trials, seed, threads, 50, 1 << 14, replay,
                                state=2 * off + 1))
