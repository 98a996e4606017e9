"""Monte Carlo point estimates with confidence intervals."""

from __future__ import annotations

import math
from dataclasses import dataclass

# The two-sided 95% normal quantile, norm.ppf(0.975), to the last bit.
Z95 = 1.959963984540054


@dataclass
class Estimate:
    """A point estimate with its trial count and a confidence interval.

    ``method`` records how the interval was formed: "normal" for the usual
    z-interval, "wilson" when the success count is too small for the normal
    approximation, "rule_of_three" when no successes (or no failures) were
    observed at all.
    """

    value: float
    stderr: float
    ci_low: float
    ci_high: float
    trials: int
    method: str = "normal"

    def within(self, target: float) -> bool:
        return self.ci_low <= target <= self.ci_high

    @property
    def ci95(self):
        return (self.ci_low, self.ci_high)


def wilson_interval(successes: int, trials: int):
    z = Z95
    p = successes / trials
    denom = 1 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def binomial_estimate(successes: int, trials: int) -> Estimate:
    """Estimate a probability from a success count.

    Falls back to the Wilson interval when fewer than 10 successes or
    failures were seen, and to the rule of three when the count is exactly
    0 or exactly n (the plug-in interval would collapse to a point).
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError(f"successes {successes} outside [0, {trials}]")
    p = successes / trials
    stderr = math.sqrt(p * (1 - p) / trials)
    if successes == 0 or successes == trials:
        bound = min(1.0, 3.0 / trials)
        lo, hi = (0.0, bound) if successes == 0 else (1.0 - bound, 1.0)
        return Estimate(p, stderr, lo, hi, trials, method="rule_of_three")
    if min(successes, trials - successes) < 10:
        lo, hi = wilson_interval(successes, trials)
        return Estimate(p, stderr, lo, hi, trials, method="wilson")
    return Estimate(p, stderr, p - Z95 * stderr, p + Z95 * stderr, trials)


def mean_estimate(total: float, total_sq: float, trials: int) -> Estimate:
    """z-interval for a sample mean given running sums of x and x^2."""
    if trials < 2:
        raise ValueError("need at least two trials for a mean interval")
    mean = total / trials
    var = max(0.0, total_sq / trials - mean * mean) * trials / (trials - 1)
    stderr = math.sqrt(var / trials)
    return Estimate(mean, stderr, mean - Z95 * stderr, mean + Z95 * stderr,
                    trials)
