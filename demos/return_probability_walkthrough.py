"""Return probabilities on the small cyclic groups, four independent ways.

The point of this walkthrough is that the package never has to trust a
single computation: the sequential sampler, the exact enumeration, the
coefficient recursion and the Fourier inversion all produce the same
numbers, and each pair's agreement is checked by the test suite at tighter
tolerances than shown here.
"""

from srrw import (CycleZL, SrrwConfig, StepDistribution, cycle_distribution,
                  exact_distribution, mc_point_mass, z2_return_gap,
                  z2_return_gap_bounds)

ALPHA = 0.5
SEED = 1729


def two_point_story():
    print("== two-point group, alpha = %.2f ==" % ALPHA)
    mu = StepDistribution(support=[(0, 0.5), (1, 0.5)])
    cfg = SrrwConfig(group=CycleZL(2), alpha=ALPHA, mu=mu)
    print(" n   exact P(S_n=e)   via gap      monte carlo")
    for n in (2, 4, 6, 8):
        exact = exact_distribution(cfg, n).prob(0)
        gap = (1 + z2_return_gap(ALPHA, n)) / 2
        est = mc_point_mass(cfg, n, 0, 50_000, SEED)
        print(f" {n}   {exact:.6f}        {gap:.6f}    "
              f"{est.value:.4f} +- {2 * est.stderr:.4f}")
    import math
    lo, hi = z2_return_gap_bounds(ALPHA, 8)
    print("log-domain sandwich at n=8: "
          f"{lo:.4f} <= log gap = {math.log(z2_return_gap(ALPHA, 8)):.4f}"
          f" <= {hi:.4f}")


def cycle_story(L=5):
    print(f"\n== cycle of length {L}, alpha = {ALPHA} ==")
    mu = StepDistribution(support=[(1, 0.5), (L - 1, 0.5)])
    cfg = SrrwConfig(group=CycleZL(L), alpha=ALPHA, mu=mu)
    n = 6
    probs = cycle_distribution(ALPHA, L, n)
    dist = exact_distribution(cfg, n)
    print(f" position   fourier      enumeration   (n = {n})")
    for m in range(L):
        print(f" {m}          {probs[m]:.6f}     {dist.prob(m):.6f}")


if __name__ == "__main__":
    two_point_story()
    cycle_story()
