"""How fast does the reinforced lattice walk come home?

An unreinforced walk returns with probability of order n^(-d/2).  With
reinforcement the variance picks up a logarithmic factor at alpha = 1/2
(clusters born early grow like (n/j)^alpha, and the sum of squared cluster
sizes is then n times a harmonic sum), so measured return-decay slopes sit
a bit below -d/2.  This script shows both effects at desk budgets.
"""

import numpy as np

from srrw import (EuclideanRd, IntegerLatticeZd, SrrwConfig, StepDistribution,
                  mc_ball, point_mass_curve, rate_fit, sample_walk, stream)

SEED = 1729
ALPHA = 0.5


def lazy_walk(d):
    group = IntegerLatticeZd(d)
    return SrrwConfig(group=group, alpha=ALPHA,
                      mu=StepDistribution.lazy(group))


def decay_slopes(trials=100_000):
    # higher d loses returns fast, so each dimension gets a grid its
    # counts can support at this budget
    grids = {1: [64, 128, 256, 512, 1024], 2: [32, 64, 128, 256, 512],
             3: [8, 16, 32, 64, 128]}
    print(f"return decay on Z^d, alpha = {ALPHA}, {trials} walks per grid")
    for d in (1, 2, 3):
        cfg = lazy_walk(d)
        pts = point_mass_curve(cfg, grids[d], tuple([0] * d), trials, SEED)
        fit = rate_fit(pts, "power")
        lo, hi = fit.slope_ci
        print(f" d = {d}: slope {fit.slope:+.3f}  (CI {lo:+.3f}..{hi:+.3f}, "
              f"unreinforced would give {-d / 2:+.2f})")


def variance_log_factor(trials=1500):
    print("\nvariance against n log n (d = 1)")
    cfg = lazy_walk(1)
    for n in (64, 256, 1024):
        acc = 0.0
        for t in range(trials):
            tr = sample_walk(cfg, n, stream(SEED, 7, n, t))
            acc += tr.final[0] ** 2
        var = acc / trials
        print(f" n = {n:5d}: Var(S_n) / n = {var / n:6.2f}   "
              f"log n = {np.log(n):.2f}")


def continuous_cousin(trials=40_000):
    cfg = SrrwConfig(group=EuclideanRd(2), alpha=ALPHA,
                     mu=StepDistribution(family="gaussian"))
    est = mc_ball(cfg, 64, radius=4.0, trials=trials, seed=SEED)
    print(f"\ngaussian steps in R^2: P(|S_64| < 4) = {est.value:.4f} "
          f"+- {2 * est.stderr:.4f}")


if __name__ == "__main__":
    decay_slopes()
    variance_log_factor()
    continuous_cousin()
