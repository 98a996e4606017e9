"""The recursive-forest view of a reinforced walk.

Each new vertex attaches to a uniform earlier one; the attachment edge
survives with the reinforcement probability.  Surviving edges mean "copy
that step", so a cluster is a block of steps sharing one fresh draw, and
the walk is assembled from cluster sizes and root draws alone.  Singleton
clusters are where fresh randomness survives; their count stays of order n
and its lower tail is exponentially thin.
"""

import math

from srrw import (CycleZL, StepDistribution, SrrwConfig, assign_and_assemble,
                  clusters, exact_isolated_distribution, grow,
                  isolated_counts_batch, stream)

ALPHA = 0.5
SEED = 1729


def one_forest(n=12):
    forest = grow(n, ALPHA, stream(SEED, 1))
    stats = clusters(forest)
    print(f"one forest on n = {n} vertices, alpha = {ALPHA}")
    print(" parent:  ", forest.parent[2:])
    print(" retained:", forest.retained[2:])
    sizes = sorted(stats.sizes.values(), reverse=True)
    print(f" clusters: {len(sizes)} with sizes {sizes}, "
          f"{stats.isolated_count} isolated")

    mu = StepDistribution(support=[(0, 0.5), (1, 0.5)])
    cfg = SrrwConfig(group=CycleZL(2), alpha=ALPHA, mu=mu)
    trace = assign_and_assemble(forest, cfg, stream(SEED, 2))
    picked = sum(s * trace.steps[r - 1]
                 for r, s in stats.sizes.items()) % 2
    print(f" assembled endpoint {trace.final} = "
          f"cluster-weighted root sum {picked} (identity holds)\n")


def tail_concentration(n=400, trials=100_000):
    thr = (1 - ALPHA) * n / 8
    counts = isolated_counts_batch(n, ALPHA, trials, stream(SEED, 3))
    hit = int((counts <= thr).sum())
    bound = 5 * math.exp(-3 * (1 - ALPHA) * n / 280)
    mean = counts.mean()
    # a dropped edge alone is not enough: nobody may attach to the vertex
    # later, which thins the mean to about (1-alpha) n / (1+alpha)
    print(f"isolated count at n = {n}: mean {mean:.1f} "
          f"(about {(1 - ALPHA) * n / (1 + ALPHA):.0f})")
    print(f"P(I <= {thr:.0f}) empirical {hit / trials:.2e} over {trials} "
          f"runs; exponential bound {bound:.2e}")
    exact = exact_isolated_distribution(ALPHA, n)
    exact_tail = sum(p for i, p in exact.items() if i <= thr)
    print(f"exact tail by the Markov recursion: {exact_tail:.3e}")


if __name__ == "__main__":
    one_forest()
    tail_concentration()
