"""Monte Carlo estimators and decay-rate fits for reinforced walks.

The entry points take an SrrwConfig and dispatch: configurations matching one
of the vectorized engines run there, everything else falls back to a generic
per-trial loop over sample_walk.  Both routes chunk their trials and derive
one substream per chunk, so every estimate is reproducible bit for bit
independent of thread count.

Rates are fitted by weighted least squares on log probabilities; a point
enters the fit only when its interval excludes zero, since log of an estimate
compatible with zero carries no information about the decay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import fastpaths
from . import rng as rngmod
from .forest import grow, assign_and_assemble, isolated_counts_batch
from .groups import (CycleZL, EuclideanRd, IntegerLatticeZd, LamplighterZ,
                     RegularTreeFree, S3xZ, Z2)
from .sampler import ErwRotation, Identity, SrrwConfig, sample_walk
from .stats import Z95, Estimate, binomial_estimate, mean_estimate

_GENERIC_CHUNK = 2048


def _finite_support(mu):
    if mu.support is None:
        return None
    return list(mu.support)


def _uniform_letters(config) -> bool:
    sup = _finite_support(config.mu)
    if sup is None:
        return False
    d = config.group.d
    if len(sup) != d:
        return False
    letters = set()
    for g, w in sup:
        if len(g) != 1 or abs(w - 1.0 / d) > 1e-12:
            return False
        letters.add(g[0])
    return letters == set(range(d))


def _tree_erw(config):
    """(d, alpha, rotate) of an elephant walk on the tree, or None."""
    if not isinstance(config.group, RegularTreeFree):
        return None
    if not isinstance(config.transform, (Identity, ErwRotation)):
        return None
    if not _uniform_letters(config):
        return None
    return (config.group.d, config.alpha,
            isinstance(config.transform, ErwRotation))


def _fast_curve(config, n_list, target, trials, seed, threads):
    """Counts per horizon from a vectorized engine, or None."""
    group = config.group
    key = group.canonical_key(target)
    if isinstance(group, RegularTreeFree):
        erw = _tree_erw(config)
        if erw is None or key != group.canonical_key(group.identity()):
            return None
        return fastpaths.tree_erw_origin_hits(*erw, n_list, trials, seed,
                                              threads=threads)
    if not isinstance(config.transform, Identity):
        return None
    sup = _finite_support(config.mu)
    if sup is None:
        return None
    weights = [w for _, w in sup]
    if isinstance(group, IntegerLatticeZd):
        disps = np.array([g for g, _ in sup], dtype=np.int64)
        return fastpaths.lattice_target_hits(disps, weights, config.alpha,
                                             n_list, np.asarray(target),
                                             trials, seed, threads=threads)
    if isinstance(group, S3xZ):
        return fastpaths.s3z_target_hits(config.alpha, [g for g, _ in sup],
                                         weights, n_list, target, trials,
                                         seed, threads=threads)
    if isinstance(group, LamplighterZ):
        if key != group.canonical_key(group.identity()):
            return None
        order = {(frozenset(), 0): 0, (frozenset([0]), 0): 1,
                 (frozenset(), 1): 2, (frozenset(), -1): 3}
        w4 = [0.0, 0.0, 0.0, 0.0]
        for g, w in sup:
            k = (frozenset(g[0]), g[1])
            if k not in order:
                return None
            w4[order[k]] = w
        return fastpaths.lamplighter_origin_hits(config.alpha, w4, n_list,
                                                 trials, seed,
                                                 threads=threads)
    return None


def point_mass_curve(config: SrrwConfig, n_list, target, trials: int,
                     seed: int, threads: int = 1):
    """P(S_n = target) estimates at each horizon in n_list.

    One vectorized pass serves all horizons when an engine matches, so the
    per-horizon estimates share underlying trials; horizons are then
    correlated but each estimate is individually unbiased.
    """
    n_list = sorted(set(int(n) for n in n_list))
    hits = _fast_curve(config, n_list, target, trials, seed, threads)
    if hits is None:
        key = config.group.canonical_key
        tkey = key(target)
        hits = _per_trial_hits(config, n_list, lambda pos: key(pos) == tkey,
                               60, trials, seed, threads)
    return [(n, binomial_estimate(hits[n], trials)) for n in n_list]


def _per_trial(config, n, tag, trials, seed, threads, observe,
               via_forest=False) -> dict:
    """{key: sum over trials of observe(trace)[key]}.

    Trial t of chunk c samples one length-n walk from the stream
    (seed, tag, c, t), sequentially or through a grown forest, and
    ``observe`` maps its trace to {key: value}.  Sums run in trial order and
    then in chunk order, so they do not depend on the thread count.
    """

    def worker(ci, m):
        out = {}
        for t in range(m):
            rng = rngmod.stream(seed, tag, ci, t)
            if via_forest:
                trace = assign_and_assemble(grow(n, config.alpha, rng),
                                            config, rng)
            else:
                trace = sample_walk(config, n, rng)
            for k, v in observe(trace).items():
                out[k] = out.get(k, 0) + v
        return out

    total = {}
    for part in fastpaths._chunk_map(worker, trials, _GENERIC_CHUNK, threads):
        for k, v in part.items():
            total[k] = total.get(k, 0) + v
    return total


def _per_trial_hits(config, n_list, hit, tag, trials, seed, threads) -> dict:
    """{n: number of trials with hit(S_n)} over the per-trial route."""
    total = _per_trial(config, n_list[-1], tag, trials, seed, threads,
                       lambda trace: {n: 1 for n in n_list
                                      if hit(trace.positions[n])})
    return {n: total.get(n, 0) for n in n_list}


def mc_point_mass(config: SrrwConfig, n: int, target, trials: int, seed: int,
                  threads: int = 1) -> Estimate:
    """Estimate P(S_n = target)."""
    return point_mass_curve(config, [n], target, trials, seed, threads)[0][1]


def mc_histogram(config: SrrwConfig, n: int, trials: int, seed: int,
                 threads: int = 1, via_forest: bool = False) -> dict:
    """Empirical endpoint counts {canonical key: hits} after n steps.

    via_forest routes sampling through the percolated forest instead of the
    sequential walk; the two agree in law, which is exactly what the
    distributional tests compare.
    """
    group = config.group
    sup = _finite_support(config.mu)
    if (isinstance(group, (Z2, CycleZL)) and sup is not None
            and isinstance(config.transform, Identity)):
        L = 2 if isinstance(group, Z2) else group.L
        atoms = [g for g, _ in sup]
        weights = [w for _, w in sup]
        counts = fastpaths.cyclic_histogram(L, config.alpha, atoms, weights,
                                            n, trials, seed, threads=threads,
                                            via_forest=via_forest)
        return {r: int(c) for r, c in enumerate(counts) if c > 0}

    return _per_trial(config, n, 61, trials, seed, threads,
                      lambda trace: {group.canonical_key(trace.final): 1},
                      via_forest=via_forest)


def ball_curve(config: SrrwConfig, n_list, radius: float, trials: int,
               seed: int, threads: int = 1):
    """P(|S_n| < radius) estimates at each horizon, Euclidean norm."""
    group = config.group
    if not isinstance(group, (IntegerLatticeZd, EuclideanRd)):
        raise ValueError("ball estimates need coordinate positions")
    n_list = sorted(set(int(n) for n in n_list))
    hits = None
    if isinstance(config.transform, Identity):
        sup = _finite_support(config.mu)
        if isinstance(group, IntegerLatticeZd) and sup is not None:
            disps = np.array([g for g, _ in sup], dtype=np.int64)
            weights = [w for _, w in sup]
            hits = fastpaths.lattice_ball_hits(disps, weights, config.alpha,
                                               n_list, radius, trials, seed,
                                               threads=threads)
        elif isinstance(group, EuclideanRd) and config.mu.family == "gaussian":
            hits = fastpaths.gaussian_ball_hits(group.d, config.alpha,
                                                n_list, radius, trials, seed,
                                                threads=threads)
    if hits is None:
        hits = _per_trial_hits(
            config, n_list,
            lambda pos: math.sqrt(sum(x * x for x in pos)) < radius, 62,
            trials, seed, threads)
    return [(n, binomial_estimate(hits[n], trials)) for n in n_list]


def mc_ball(config: SrrwConfig, n: int, radius: float, trials: int,
            seed: int, threads: int = 1) -> Estimate:
    """Estimate P(|S_n| < radius) in the Euclidean norm of the ambient
    lattice or continuous coordinates."""
    return ball_curve(config, [n], radius, trials, seed, threads)[0][1]


def mc_escape_rate(config: SrrwConfig, n: int, trials: int, seed: int,
                   threads: int = 1) -> Estimate:
    """Estimate E[d(e, S_n) / n], the normalized escape speed."""
    erw = _tree_erw(config)
    if erw is not None:
        s, s2 = fastpaths.tree_erw_distance_sums(*erw, n, trials, seed,
                                                 threads=threads)
        est = mean_estimate(float(s), float(s2), trials)
    else:
        word_distance = config.group.word_distance

        def moments(trace):
            dd = float(word_distance(trace.final))
            return {1: dd, 2: dd * dd}

        total = _per_trial(config, n, 63, trials, seed, threads, moments)
        est = mean_estimate(total[1], total[2], trials)
    scale = 1.0 / n
    return Estimate(value=est.value * scale, stderr=est.stderr * scale,
                    ci_low=est.ci_low * scale, ci_high=est.ci_high * scale,
                    trials=trials, method=est.method)


_MODEL_X = {
    "power": lambda n: math.log(n),
    "exp": lambda n: float(n),
    "stretched": lambda n: float(n) ** (1.0 / 3.0),
}


@dataclass(frozen=True)
class DecayFit:
    """Weighted least squares fit of log p against a function of n."""

    model: str
    slope: float
    intercept: float
    slope_stderr: float
    slope_ci: tuple
    residual: float
    used: tuple = field(default=())
    dropped: tuple = field(default=())

    def slope_excludes_zero(self) -> bool:
        return self.slope_ci[0] > 0.0 or self.slope_ci[1] < 0.0


def rate_fit(points, model: str) -> DecayFit:
    """Fit log p = intercept + slope * x(n) over (n, Estimate) pairs.

    x is log n ("power"), n ("exp") or n^(1/3) ("stretched").  Weights are
    inverse variances of log p via the delta method, (stderr / p)^-2.  Points
    whose interval touches zero are dropped; at least four must survive.
    """
    if model not in _MODEL_X:
        raise ValueError(f"unknown model {model!r}")
    xfun = _MODEL_X[model]
    used, dropped = [], []
    for n, est in points:
        if est.value > 0.0 and est.ci_low > 0.0 and est.stderr > 0.0:
            used.append((n, est))
        else:
            dropped.append(n)
    if len(used) < 4:
        raise ValueError(
            f"rate_fit needs at least 4 informative points, got {len(used)}")
    xs = np.array([xfun(n) for n, _ in used])
    ys = np.array([math.log(est.value) for _, est in used])
    ws = np.array([(est.value / est.stderr) ** 2 for _, est in used])
    sw = ws.sum()
    sx = (ws * xs).sum()
    sy = (ws * ys).sum()
    sxx = (ws * xs * xs).sum()
    sxy = (ws * xs * ys).sum()
    det = sw * sxx - sx * sx
    slope = (sw * sxy - sx * sy) / det
    intercept = (sy - slope * sx) / sw
    var_slope = sw / det
    se = math.sqrt(var_slope)
    resid = float((ws * (ys - intercept - slope * xs) ** 2).sum())
    return DecayFit(model=model, slope=float(slope),
                    intercept=float(intercept), slope_stderr=se,
                    slope_ci=(slope - Z95 * se, slope + Z95 * se),
                    residual=resid, used=tuple(used),
                    dropped=tuple(dropped))


@dataclass(frozen=True)
class IsolatedTail:
    """One observed tail probability against its exponential bound."""

    n: int
    alpha: float
    threshold: float
    estimate: Estimate
    bound: float
    passed: bool


def isolated_tail_check(alpha: float, n_list, trials: int, seed: int,
                        threads: int = 1):
    """Check P(I(n) <= (1-alpha) n / 8) against 5 exp(-3(1-alpha)n/280).

    Passes when the empirical tail stays below bound plus three standard
    errors; the bound holds in expectation for every n, so an excess beyond
    noise is a real violation.
    """
    results = []
    for n in sorted(set(int(x) for x in n_list)):
        thr = (1 - alpha) * n / 8.0

        def worker(ci, m, n=n, thr=thr):
            rng = rngmod.stream(seed, 64, ci, n)
            counts = isolated_counts_batch(n, alpha, m, rng)
            return int((counts <= thr).sum())

        parts = fastpaths._chunk_map(worker, trials, 1 << 14, threads)
        est = binomial_estimate(sum(parts), trials)
        bound = 5.0 * math.exp(-3 * (1 - alpha) * n / 280.0)
        ok = est.value <= bound + 3 * est.stderr
        results.append(IsolatedTail(n=n, alpha=alpha, threshold=thr,
                                    estimate=est, bound=min(bound, 1.0),
                                    passed=ok))
    return results


def class_function_decay(config: SrrwConfig, n_list, trials: int, seed: int,
                         model: str = "power", threads: int = 1) -> DecayFit:
    """Fit the identity return probability decay over a horizon grid."""
    e = config.group.identity()
    pts = point_mass_curve(config, n_list, e, trials, seed, threads=threads)
    return rate_fit(pts, model)
