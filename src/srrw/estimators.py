"""Monte Carlo estimators and decay-rate fits for reinforced walks.

Each entry point validates its input and asks ``_engine``, the one place
that picks a vectorized engine for a config and a query; when none serves
it, the estimate runs on the per-trial loop over sample_walk.  Both routes
chunk their trials and derive one substream per chunk, so every estimate is
reproducible bit for bit independent of thread count.

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
from .forest import grow, assign_and_assemble
from .groups import (CycleZL, EuclideanRd, IntegerLatticeZd, LamplighterZ,
                     RegularTreeFree, S3xZ)
from .sampler import SrrwConfig, sample_walk
from .stats import Z95, Estimate, binomial_estimate, mean_estimate

_GENERIC_CHUNK = 2048


def _engine(config, query, arg=None):
    """The vectorized engine serving ``query`` on config, or None.

    ``query`` is "point" (arg: the target), "ball" (arg: the radius),
    "histogram" (arg: via_forest) or "escape".  The engine comes back as a
    call ``(horizons or n, trials, seed, threads) -> counts``; None sends the
    estimate to the per-trial route, as it does for every transform that
    has no replay table (``Transform.replay_table``).  Engines are looked up
    in ``fastpaths`` when called, so a wrapped module attribute is the one
    that runs.
    """
    group, alpha = config.group, config.alpha
    at_e = query == "point" and arg == group.identity()
    table = config.transform.replay_table(group, config.mu)
    if table is None:
        return None
    sup, replay = table
    if (isinstance(group, EuclideanRd) and query == "ball"
            and config.mu.family == "gaussian"):
        return lambda ns, t, s, th: fastpaths.gaussian_ball_hits(
            group.d, alpha, ns, arg, t, s, threads=th)
    if sup is None:
        return None
    atoms, weights = [g for g, _ in sup], [w for _, w in sup]
    if isinstance(group, RegularTreeFree):
        # the letter stack needs codes in bijection with the d letters
        d = group.d
        if (not (at_e or query == "escape")
                or sorted(atoms) != group.generators()
                or any(abs(w - 1.0 / d) > 1e-12 for w in weights)):
            return None
        if at_e:
            return lambda ns, t, s, th: fastpaths.tree_erw_origin_hits(
                d, alpha, ns, t, s, threads=th, replay=replay)
        return lambda n, t, s, th: fastpaths.tree_erw_distance_sums(
            d, alpha, n, t, s, threads=th, replay=replay)
    if isinstance(group, IntegerLatticeZd) and query == "point":
        return lambda ns, t, s, th: fastpaths.lattice_target_hits(
            atoms, weights, alpha, ns, arg, t, s, threads=th, replay=replay)
    if isinstance(group, IntegerLatticeZd) and query == "ball":
        return lambda ns, t, s, th: fastpaths.lattice_ball_hits(
            atoms, weights, alpha, ns, arg, t, s, threads=th, replay=replay)
    if isinstance(group, S3xZ) and query == "point":
        return lambda ns, t, s, th: fastpaths.s3z_target_hits(
            alpha, atoms, weights, ns, arg, t, s, threads=th, replay=replay)
    if (isinstance(group, LamplighterZ) and at_e
            and set(atoms) <= {group.identity(), *group.generators()}):
        return lambda ns, t, s, th: fastpaths.lamplighter_origin_hits(
            alpha, atoms, weights, ns, t, s, threads=th, replay=replay)
    if (isinstance(group, CycleZL) and query == "histogram"
            and not (arg and replay)):
        return lambda n, t, s, th: fastpaths.cyclic_histogram(
            group.L, alpha, atoms, weights, n, t, s, threads=th,
            via_forest=arg, replay=replay)
    return None


def point_mass_curve(config: SrrwConfig, n_list, target, trials: int,
                     seed: int, threads: int = 1):
    """P(S_n = target) estimates at each horizon in n_list.

    One vectorized pass serves all horizons when an engine matches, so the
    per-horizon estimates share underlying trials; horizons are then
    correlated but each estimate is individually unbiased.
    """
    _no_point_masses(config)
    return _curve(config, "point", target, n_list,
                  lambda pos: pos == target, 60, trials, seed, threads)


def _no_point_masses(config):
    """Refuse a point query under a continuous step law, whose point masses
    are all 0."""
    if config.mu.is_continuous:
        raise ValueError("every point mass of a continuous step law is 0; "
                         "ask for a ball (ball_curve, --ball-r)")


def _curve(config, query, arg, n_list, hit, tag, trials, seed, threads):
    """[(n, estimate of P(hit(S_n)))] at each horizon, counted by the engine
    serving (query, arg), else by per-trial walks on stream ``tag``."""
    n_list = fastpaths._horizons(n_list, trials)
    run = _engine(config, query, arg)
    if run is not None:
        hits = run(n_list, trials, seed, threads)
    else:
        total = _per_trial(config, n_list[-1], tag, trials, seed, threads,
                           lambda trace: {n: 1 for n in n_list
                                          if hit(trace.positions[n])})
        hits = {n: total.get(n, 0) for n in n_list}
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


def mc_point_mass(config: SrrwConfig, n: int, target, trials: int, seed: int,
                  threads: int = 1) -> Estimate:
    """Estimate P(S_n = target)."""
    return point_mass_curve(config, [n], target, trials, seed, threads)[0][1]


def mc_histogram(config: SrrwConfig, n: int, trials: int, seed: int,
                 threads: int = 1, via_forest: bool = False) -> dict:
    """Empirical endpoint counts {element: hits} after n steps.

    via_forest routes sampling through the percolated forest instead of the
    sequential walk; the two agree in law, which is exactly what the
    distributional tests compare.
    """
    _no_point_masses(config)
    fastpaths._horizons([n], trials)
    run = _engine(config, "histogram", via_forest)
    if run is not None:
        counts = run(n, trials, seed, threads)
        return {r: int(c) for r, c in enumerate(counts) if c > 0}
    return _per_trial(config, n, 61, trials, seed, threads,
                      lambda trace: {trace.final: 1},
                      via_forest=via_forest)


def ball_curve(config: SrrwConfig, n_list, radius: float, trials: int,
               seed: int, threads: int = 1):
    """P(|S_n| < radius) estimates at each horizon, Euclidean norm."""
    if not isinstance(config.group, (IntegerLatticeZd, EuclideanRd)):
        raise ValueError("ball estimates need coordinate positions")
    if not 0 < radius < math.inf:
        raise ValueError(f"ball radius must be finite and positive, got "
                         f"{radius} (--ball-r)")
    return _curve(config, "ball", radius, n_list,
                  lambda pos: math.sqrt(sum(x * x for x in pos)) < radius, 62,
                  trials, seed, threads)


def mc_ball(config: SrrwConfig, n: int, radius: float, trials: int,
            seed: int, threads: int = 1) -> Estimate:
    """Estimate P(|S_n| < radius) in the Euclidean norm of the ambient
    lattice or continuous coordinates."""
    return ball_curve(config, [n], radius, trials, seed, threads)[0][1]


def mc_escape_rate(config: SrrwConfig, n: int, trials: int, seed: int,
                   threads: int = 1) -> Estimate:
    """Estimate E[d(e, S_n) / n], the normalized escape speed."""
    fastpaths._horizons([n], trials)
    run = _engine(config, "escape")
    if run is not None:
        s, s2 = run(n, trials, seed, threads)
    else:
        word_distance = config.group.word_distance

        def moments(trace):
            dd = float(word_distance(trace.final))
            return {1: dd, 2: dd * dd}

        total = _per_trial(config, n, 63, trials, seed, threads, moments)
        s, s2 = total[1], total[2]
    est = mean_estimate(float(s), float(s2), trials)
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
