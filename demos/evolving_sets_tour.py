"""Evolving sets in five short scenes.

A set grows or shrinks by thresholding the mass its current members push
onto each point against one shared uniform draw: one step cuts the unit
interval into pieces, each yielding one next set (``step_pieces``).  Size
is a martingale, membership probabilities reproduce the transition kernel
exactly (and the vectorized set-chain sampler estimates them), and the
square-root growth of the conditioned chain is controlled from below by
the bottleneck ratio.  Everything here is small enough to verify exactly.
"""

import math
from fractions import Fraction

from srrw import (CycleZL, KernelSeq, MuStep, StepDistribution,
                  binomial_estimate, doob_step, fastpaths, iso_profile,
                  martingale_defect, psi, psi_profile, set_tree, step_pieces)
from srrw.evolving import compose_matrices, enumerate_group, mask_tables

SEED = 1729


def scene_pieces(g, mu):
    print("step pieces of {0} under the lazy step law "
          "(the empty set above the top level):")
    for length, a in step_pieces(g, mu, {0}, MuStep()):
        print(f"  length {length} -> {sorted(a)}")
    print(f"psi({{0}}) = {psi(g, mu, {0}):.10f} "
          f"(closed form 1 - (1+sqrt 3)/4 = {1 - (1 + math.sqrt(3)) / 4:.10f})")


def scene_martingale(g, mu):
    defect = martingale_defect(g, mu, {0, 1, 5})
    print(f"\nsize-martingale defect on {{0,1,5}}: {defect} "
          f"(exact {Fraction(0)})")


def scene_doob(g, mu, steps=12):
    w = {0}
    sizes = [1]
    for j in range(steps):
        w = doob_step(g, mu, w, MuStep(), (SEED, j))
        sizes.append(len(w))
    print(f"\nconditioned set sizes over {steps} steps: {sizes}")
    print("(the conditioned chain never dies; raw evolution would)")


def scene_duality(g, mu):
    seq = KernelSeq(group=g, mu=mu, tags=[MuStep()] * 4)
    elems = sorted(enumerate_group(g))
    exact = compose_matrices(seq, elems, 0, 4)[0, 2]
    states = set_tree(seq, {0}, 0, 4)
    via_sets = sum(p for w, p in states if 2 in w)
    # bit i of a final mask says whether elems[i] is in the set
    trials = 40_000
    counts = fastpaths.masked_set_walk(mask_tables(seq, elems), 1 << 0,
                                       len(elems), trials, SEED)
    hits = int(sum(c for mask, c in enumerate(counts) if mask >> 2 & 1))
    est = binomial_estimate(hits, trials)
    print(f"\nP(S_4 = 2 from 0): kernel power {exact:.6f}, "
          f"exact set law {float(via_sets):.6f}, "
          f"set-membership estimate {est.value:.4f} +- {2 * est.stderr:.4f}")


def scene_profiles(g, mu):
    print("\nprofile of the cycle (connected sets through the identity):")
    print(" r   bottleneck   root-growth   quadratic floor")
    for r in range(1, 5):
        phi = iso_profile(g, mu, r).value
        ps = psi_profile(g, mu, r).value
        floor = phi ** 2 / 2
        print(f" {r}   {phi:.4f}       {ps:.4f}        {floor:.4f}")


if __name__ == "__main__":
    g = CycleZL(8)
    mu = StepDistribution(support=[(0, 0.5), (1, 0.25), (7, 0.25)])
    scene_pieces(g, mu)
    scene_martingale(g, mu)
    scene_doob(g, mu)
    scene_duality(g, mu)
    scene_profiles(g, mu)
