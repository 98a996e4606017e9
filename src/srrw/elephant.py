"""Elephant polynomials: exact recursions, coefficient tables, bounds, and
exact walk distributions on the two-element group and on cycles.

The polynomial sequence starts at R_1(x) = x and obeys

    R_{n+1}(x) = x R_n(x) - (alpha/n) (1 - x^2) R_n'(x),

with ``alpha`` the reinforcement strength.  On the unit interval the values
are moments of the +-1 memory walk: R_n(cos t) is the expected cosine of t
times the walk position after n steps, which is what ties the sequence to
return probabilities mod 2 and mod L.

Numerics: the alternating basis expansion sum_k (-1)^k lam_{n,k} x^{n-2k}
(1-x^2)^k cancels catastrophically in doubles once n is large (terms reach
~(|x| + sqrt(alpha(1-x^2)))^n), so everything that needs R_n values at large n
goes through the walk's exact position law instead, a sum of nonnegative
terms.  The coefficient recursions themselves are cancellation free and run
in linear double precision to the supported cap of n = 500, as long as no
coefficient underflows; ``lambda_table`` refuses a table where one does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# Largest n of a coefficient table, and how far below a bound a
# coefficient's log may fall and still pass.
N_CAP, BOUND_TOL = 500, 1e-12


@dataclass
class ElephantPoly:
    """R_n in the monomial basis; coeffs[i] multiplies x^i.

    Only coefficients with the parity of n are nonzero, exactly: the
    recursion preserves parity term by term.
    """

    n: int
    coeffs: list

    def check(self) -> "ElephantPoly":
        assert len(self.coeffs) == self.n + 1
        for i, c in enumerate(self.coeffs):
            if (i - self.n) % 2 != 0:
                assert c == 0
        return self

    def eval(self, x):
        """Horner evaluation; exact when coeffs and x are exact rationals."""
        acc = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * x + c
        return acc


def poly_sequence(alpha, n_max: int) -> list:
    """R_1..R_{n_max} by the exact recursion in monomial coefficients.

    Coefficient arithmetic follows the type of ``alpha``: floats give float
    polynomials, ``fractions.Fraction`` gives exact ones.
    """
    if n_max < 1:
        raise ValueError("need n_max >= 1")
    zero = alpha * 0
    polys = [ElephantPoly(1, [zero, zero + 1])]
    for n in range(1, n_max):
        r = polys[-1].coeffs
        out = [zero] * (n + 2)
        for i, c in enumerate(r):
            out[i + 1] += c
        # -(alpha/n) (1 - x^2) R_n'
        for i, c in enumerate(r[1:], start=1):
            d = i * c
            out[i - 1] -= alpha * d / n
            out[i + 1] += alpha * d / n
        polys.append(ElephantPoly(n + 1, out))
    return polys


def lambda_rows(alpha, n_max: int) -> np.ndarray:
    """Coefficients lam[n, k] for n = 1..n_max, k = 0..n//2, in an
    (n_max + 1, n_max // 2 + 1) array, zero elsewhere (row 0 is padding).

    Recursion: lam_{n+1,k} = (1 + 2 alpha k / n) lam_{n,k}
                           + alpha (1 - 2(k-1)/n) lam_{n,k-1},
    base lam_{1,0} = 1.  Each row is one vector step in k, its float
    operations in the scalar recursion's order.  A Fraction alpha gives an
    object array of exact Fractions.
    """
    if n_max < 1:
        raise ValueError("need n_max >= 1")
    dtype = float if isinstance(alpha, (int, float)) else object
    lam = np.zeros((n_max + 1, n_max // 2 + 1), dtype)
    lam[1, 0] = alpha * 0 + 1
    ks = np.arange(n_max // 2 + 1).astype(dtype)
    for n in range(1, n_max):
        m, q = n // 2 + 1, (n + 1) // 2 + 1  # lengths of rows n and n + 1
        lam[n + 1, :m] = lam[n, :m] * (1 + alpha * 2 * ks[:m] / n)
        lam[n + 1, 1:q] += alpha * (n - 2 * ks[:q - 1]) * lam[n, :q - 1] / n
    return lam


@dataclass
class LambdaTable:
    """lam_{n,k} for 1 <= n <= n_max in linear and log domain.

    Arrays are zero / -inf padded outside 0 <= k <= n//2; row 0 is padding.
    Every in-range entry of a valid table is strictly positive for alpha > 0
    (and exactly lam_{n,0} = 1 in every row).
    """

    alpha: float
    n_max: int
    linear: np.ndarray
    log: np.ndarray

    def value(self, n: int, k: int) -> float:
        self._bounds(n, k)
        return float(self.linear[n, k])

    def log_value(self, n: int, k: int) -> float:
        self._bounds(n, k)
        return float(self.log[n, k])

    def _bounds(self, n, k):
        if not (1 <= n <= self.n_max and 0 <= k <= n // 2):
            raise IndexError(f"(n, k) = ({n}, {k}) outside the table")

    def check(self) -> "LambdaTable":
        for n in range(1, self.n_max + 1):
            assert self.linear[n, 0] == 1.0
            row = self.linear[n, : n // 2 + 1]
            if self.alpha > 0:
                assert (row > 0).all()
            assert (self.linear[n, n // 2 + 1:] == 0).all()
        return self


def _entries(n_max: int):
    """(n, k) index arrays of a table's entries, 1 <= n <= n_max and
    0 <= k <= n // 2, in row order."""
    ns = np.arange(n_max + 1)[:, None]
    return np.nonzero((ns >= 1) & (np.arange(n_max // 2 + 1) <= ns // 2))


def lambda_table(alpha: float, n_max: int) -> LambdaTable:
    """Fill the coefficient table in linear doubles, to n = ``N_CAP``.

    A small alpha drives coefficients towards alpha^(n/2) and out of double
    range (at alpha = 0.01 the first one leaves it at n = 282 and the first
    zero comes at n = 296).  A table with any entry below the smallest
    normal double is refused, since its logs would be wrong and its bound
    checks would fail on positive coefficients.
    """
    if not 0 <= alpha <= 1:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    if n_max > N_CAP:
        raise ValueError(f"n_max {n_max} exceeds the supported cap {N_CAP}")
    linear = lambda_rows(float(alpha), n_max)
    if alpha > 0:
        n, k = _entries(n_max)
        tiny = linear[n, k] < np.finfo(float).tiny
        if tiny.any():
            i = int(tiny.argmax())
            raise ValueError(
                f"lambda coefficients at alpha = {alpha} fall below the "
                f"smallest normal double at (n, k) = ({n[i]}, {k[i]}), so "
                f"n_max = {n_max} is out of reach")
    with np.errstate(divide="ignore"):
        log = np.where(linear > 0, np.log(np.where(linear > 0, linear, 1.0)),
                       -np.inf)
    return LambdaTable(alpha=float(alpha), n_max=n_max, linear=linear, log=log)


@dataclass
class LambdaBounds:
    """The two-sided bound at every entry of a table, one slot per (n, k)
    in ``_entries`` order; a slack >= -BOUND_TOL means that side holds."""

    n: np.ndarray
    k: np.ndarray
    log_lower: np.ndarray
    log_upper: np.ndarray
    slack_lower: np.ndarray
    slack_upper: np.ndarray
    passed: np.ndarray


def lambda_bounds(table: LambdaTable) -> LambdaBounds:
    """Check the two-sided coefficient bound at every entry, in log domain.

    The bound sandwiches lam_{n,k} between binom(n,2k) alpha^k scaled down by
    e^{-(1-alpha) n / (3+alpha)} and the unscaled product.  Binomials come
    from a table of lgamma(i + 1), as lgamma(n+1) - lgamma(2k+1) -
    lgamma(n-2k+1), so nothing overflows.  At alpha = 0 an entry with
    k >= 1 and both its bounds vanish together; it passes with zero slacks.
    """
    n, k = _entries(table.n_max)
    a = table.alpha
    log_fact = np.array([math.lgamma(i + 1) for i in range(table.n_max + 1)])
    if a > 0:
        log_ak = k * math.log(a)
    else:
        log_ak = np.where(k == 0, 0.0, -np.inf)
    upper = log_fact[n] - log_fact[2 * k] - log_fact[n - 2 * k] + log_ak
    lower = upper - (1 - a) * n / (3 + a)
    lv = table.log[n, k]
    with np.errstate(invalid="ignore"):
        slack_lower, slack_upper = lv - lower, upper - lv
    vanish = (lv == -np.inf) & (upper == -np.inf)
    slack_lower[vanish] = slack_upper[vanish] = 0.0
    passed = (slack_lower >= -BOUND_TOL) & (slack_upper >= -BOUND_TOL)
    return LambdaBounds(n, k, lower, upper, slack_lower, slack_upper, passed)


def basis_eval(table, n: int, x):
    """Evaluate R_n from coefficient rows in the signed two-term basis.

    Accepts a LambdaTable or the array from ``lambda_rows``; with Fraction
    rows and a Fraction x the result is exact.  Alternating signs make this
    numerically useless in doubles at large n; prefer ``eval_stable`` there.
    """
    if isinstance(table, LambdaTable):
        row = [table.value(n, k) for k in range(n // 2 + 1)]
    else:
        row = table[n, : n // 2 + 1]
    t = 1 - x * x
    acc = x * 0
    for k in range(len(row) - 1, -1, -1):
        sign = -1 if k % 2 else 1
        acc = acc + sign * row[k] * x ** (n - 2 * k) * t ** k
    return acc


@lru_cache(maxsize=256)
def signed_position_law(alpha: float, n: int) -> np.ndarray:
    """Exact law of the n-step +-1 memory walk; index s + n holds P(S_n = s).

    The walk is Markov in (position, step count): from position s after m
    steps the next step is +1 with probability (1 + alpha s / m) / 2.  Valid
    for alpha in [-1, 1]; every update is a convex combination, so the law
    is exact to rounding.  The cached array is shared, so it is read-only.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if not -1 <= alpha <= 1:
        raise ValueError(f"alpha must be in [-1, 1], got {alpha}")
    law = np.zeros(2 * n + 1)
    law[n - 1] = law[n + 1] = 0.5
    s = np.arange(-n, n + 1, dtype=float)
    for m in range(1, n):
        law = _position_step(law, s, alpha, m)
    law.flags.writeable = False
    return law


def _position_step(law, s, alpha: float, m: int) -> np.ndarray:
    """The position law after m + 1 steps from the law after m steps, on the
    position grid s."""
    up = law * (1 + alpha * s / m) / 2
    down = law * (1 - alpha * s / m) / 2
    nxt = np.zeros_like(law)
    nxt[2:] += up[1:-1]
    nxt[:-2] += down[1:-1]
    return nxt


def eval_stable(alpha: float, n: int, x: float) -> float:
    """R_n(x) for |x| <= 1 as a nonnegative mixture of cosines.

    Writes R_n(cos t) as the expected cosine of t times the walk position;
    the mixture weights are the exact position law, so no cancellation
    between large terms occurs at any n.
    """
    if not -1 <= x <= 1:
        raise ValueError(f"stable evaluation needs |x| <= 1, got {x}")
    law = signed_position_law(float(alpha), n)
    theta = math.acos(x)
    s = np.arange(-n, n + 1)
    return float(np.cos(s * theta) @ law)


def z2_return_gap(alpha: float, n: int) -> float:
    """The gap 2 P(S_n = 0) - 1 for the walk on the two-element group.

    Zero at odd n (the return probability is exactly one half there); at
    even n = 2m it equals the central coefficient lam_{2m,m}, which is also
    the probability that every percolation cluster has even size.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if n % 2 == 1:
        return 0.0
    return float(lambda_rows(float(alpha), n)[n, n // 2])


def z2_return_gap_bounds(alpha: float, n: int) -> tuple:
    """Log-domain (lower, upper) sandwich for the even-n return gap:
    the central coefficient lies between e^{-2(1-alpha)m/(3+alpha)} alpha^m
    and alpha^m at n = 2m."""
    if n % 2 == 1:
        raise ValueError("the sandwich concerns even n")
    m = n // 2
    log_am = m * math.log(alpha) if alpha > 0 else -math.inf
    return log_am - (1 - alpha) * n / (3 + alpha), log_am


def cycle_distribution(alpha: float, L: int, n: int) -> np.ndarray:
    """Exact distribution of the +-1 reinforced walk on the L-cycle.

    Inverts the character identity: the expected character at frequency k is
    R_n evaluated at cos(2 pi k / L), and the real inversion sum recovers
    P(S_n = m).  Needs L >= 3 (the two-point case is the separate
    ``z2_return_gap`` route).  The result is checked nonnegative to 1e-10
    and renormalization-free (sums to 1 within 1e-12).
    """
    if L < 3:
        raise ValueError("cycle distributions need L >= 3")
    r = np.array([eval_stable(alpha, n, math.cos(2 * math.pi * k / L))
                  for k in range(L)])
    m = np.arange(L)
    k = np.arange(L)
    cos_mat = np.cos(2 * math.pi * np.outer(k, m) / L)
    probs = (r @ cos_mat) / L
    if probs.min() < -1e-10:
        raise AssertionError(f"negative inversion mass {probs.min()}")
    if abs(probs.sum() - 1.0) > 1e-12:
        raise AssertionError(f"inversion masses sum to {probs.sum()}")
    return probs


@dataclass
class DecayCheck:
    """One decay-bound verdict: |R_n(x)| against the exponential envelope."""

    passed: bool
    lhs: float
    rhs: float
    slack: float


def decay_envelope(alpha: float, n: int, x: float) -> float:
    return abs(x) ** ((1 - alpha) * n / 8) + 5 * math.exp(
        -3 * (1 - alpha) * n / 280)


def decay_bound_check(alpha: float, n: int, x: float) -> DecayCheck:
    """Check |R_n(x)| <= |x|^{(1-alpha)n/8} + 5 e^{-3(1-alpha)n/280}.

    Needs alpha < 1 and |x| < 1; the left side is evaluated through the
    cancellation-free route, which is what makes the check meaningful at
    n in the hundreds.
    """
    if not 0 <= alpha < 1:
        raise ValueError(f"decay bound needs alpha in [0, 1), got {alpha}")
    if not -1 < x < 1:
        raise ValueError(f"decay bound needs |x| < 1, got {x}")
    lhs = abs(eval_stable(alpha, n, x))
    rhs = decay_envelope(alpha, n, x)
    return DecayCheck(lhs <= rhs, lhs, rhs, rhs - lhs)


def decay_bound_sweep(alpha: float, xs, n_max: int) -> np.ndarray:
    """Slack of the decay bound for all n = 1..n_max and each x, vectorized.

    Grows the position law incrementally and takes the cosine mixture at
    every step, so the whole sweep costs one law evolution instead of one
    per (n, x) pair.  Returns slack[n-1, i]; nonnegative everywhere means
    no violations.
    """
    if not 0 <= alpha < 1:
        raise ValueError(f"decay bound needs alpha in [0, 1), got {alpha}")
    xs = np.asarray(xs, dtype=float)
    if np.any(np.abs(xs) >= 1):
        raise ValueError("decay bound needs |x| < 1")
    thetas = np.arccos(xs)
    law = np.zeros(2 * n_max + 1)
    law[n_max - 1] = law[n_max + 1] = 0.5
    s = np.arange(-n_max, n_max + 1, dtype=float)
    cos_grid = np.cos(np.outer(s, thetas))
    slack = np.empty((n_max, xs.size))
    for n in range(1, n_max + 1):
        if n > 1:
            law = _position_step(law, s, alpha, n - 1)
        lhs = np.abs(law @ cos_grid)
        slack[n - 1] = decay_envelope(alpha, n, xs) - lhs
    return slack
