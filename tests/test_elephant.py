"""Polynomial recursions, coefficient bounds, and exact cyclic distributions."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srrw.elephant import (basis_eval, cycle_distribution, decay_bound_check,
                           decay_bound_sweep, decay_envelope, eval_stable,
                           lambda_bounds, lambda_rows,
                           lambda_table, poly_sequence, signed_position_law,
                           z2_return_gap, z2_return_gap_bounds)
from srrw.groups import StepDistribution, CycleZL
from srrw.oracle import exact_distribution
from srrw.sampler import SrrwConfig


def test_first_polynomials_exact():
    a = Fraction(1, 3)
    polys = poly_sequence(a, 3)
    assert polys[0].coeffs == [0, 1]
    # R_2 = (1 + a) x^2 - a
    assert polys[1].coeffs == [-a, 0, 1 + a]
    # R_3 = x R_2 - (a/2)(1 - x^2) R_2'
    x = Fraction(3, 7)
    r2 = polys[1]
    expected = x * r2.eval(x) - a / 2 * (1 - x * x) * Fraction(2) * (1 + a) * x
    assert polys[2].eval(x) == expected
    for p in polys:
        p.check()


def test_monomial_and_two_term_basis_agree_exactly():
    # same polynomial from two unrelated recursions, in exact arithmetic
    a = Fraction(2, 5)
    polys = poly_sequence(a, 40)
    rows = lambda_rows(a, 40)
    for n in (1, 2, 3, 7, 16, 33, 40):
        for x in (Fraction(0), Fraction(1, 2), Fraction(-3, 4), Fraction(1)):
            assert basis_eval(rows, n, x) == polys[n - 1].eval(x)


def test_float_basis_agreement_moderate_degree():
    # monomial coefficients alternate in sign, so stay away from |x| = 1
    # where their cancellation costs ~8 digits by degree 30
    for alpha in (0.2, 0.5, 0.8):
        polys = poly_sequence(alpha, 30)
        table = lambda_table(alpha, 30)
        for n in (5, 18, 30):
            for x in np.linspace(-0.7, 0.7, 8):
                direct = polys[n - 1].eval(float(x))
                via_basis = basis_eval(table, n, float(x))
                assert math.isclose(direct, via_basis,
                                    rel_tol=1e-8, abs_tol=1e-11)


def test_lambda_rows_at_alpha_one_are_binomials():
    rows = lambda_rows(Fraction(1), 24)
    for n in range(1, 25):
        for k in range(n // 2 + 1):
            assert rows[n][k] == math.comb(n, 2 * k)


def test_chebyshev_degeneration():
    # alpha = 1 keeps the full memory: R_n(cos t) = cos(n t)
    for n in (5, 50, 200):
        for theta in np.linspace(0.1, 3.0, 7):
            assert math.isclose(eval_stable(1.0, n, math.cos(theta)),
                                math.cos(n * theta), abs_tol=1e-9)


def test_alpha_zero_is_plain_power():
    for n in (1, 4, 9):
        for x in (-0.8, -0.3, 0.5, 0.9):
            assert math.isclose(eval_stable(0.0, n, x), x ** n, abs_tol=1e-12)


@given(st.floats(min_value=0.01, max_value=0.99),
       st.integers(min_value=1, max_value=80))
@settings(max_examples=60, deadline=None)
def test_lambda_bounds_property(alpha, n_max):
    bounds = lambda_bounds(lambda_table(alpha, n_max))
    assert bounds.passed.size == sum(n // 2 + 1 for n in range(1, n_max + 1))
    assert bounds.passed.all()


def entry_bound_check(table, n, k, tol=1e-12):
    """The bound at one entry, in Python floats: (passed, slack_lower,
    slack_upper, log_lower, log_upper)."""
    lv = table.log_value(n, k)
    a = table.alpha
    log_ak = k * math.log(a) if a > 0 else (0.0 if k == 0 else -math.inf)
    upper = (math.lgamma(n + 1) - math.lgamma(2 * k + 1)
             - math.lgamma(n - 2 * k + 1)) + log_ak
    lower = upper - (1 - a) * n / (3 + a)
    if lv == -math.inf and upper == -math.inf:
        return True, 0.0, 0.0, lower, upper
    slack_lower, slack_upper = lv - lower, upper - lv
    return (slack_lower >= -tol and slack_upper >= -tol, slack_lower,
            slack_upper, lower, upper)


@pytest.mark.parametrize("alpha", [0.0, 0.1, 0.5, 0.9, 1.0])
def test_lambda_bounds_equal_the_per_entry_rule(alpha):
    table = lambda_table(alpha, 200)
    b = lambda_bounds(table)
    entries = [(n, k) for n in range(1, 201) for k in range(n // 2 + 1)]
    assert list(zip(b.n.tolist(), b.k.tolist())) == entries
    got = zip(b.passed.tolist(), b.slack_lower.tolist(),
              b.slack_upper.tolist(), b.log_lower.tolist(),
              b.log_upper.tolist())
    for (n, k), row in zip(entries, got):
        want = entry_bound_check(table, n, k)
        assert row[0] == want[0], (n, k)
        assert [x.hex() for x in row[1:]] == [x.hex() for x in want[1:]], (
            n, k)
    if alpha == 0.0:
        # the entry and both bounds vanish together off k = 0
        vanish = b.k > 0
        assert (b.log_upper[vanish] == -math.inf).all()
        assert b.passed.all()


def test_lambda_table_refuses_coefficients_below_double_range():
    # at n_max = 500 these alphas drive a positive coefficient to zero; a
    # refusal names alpha and n_max, and a table that is built passes
    for alpha in (0.01, 0.02, 0.05, 0.07):
        with pytest.raises(ValueError, match=f"alpha = {alpha} .* "
                                             f"n_max = 500"):
            lambda_table(alpha, 500)
    for alpha, n_max in ((0.1, 500), (0.01, 200), (0.01, 281)):
        table = lambda_table(alpha, n_max).check()
        assert lambda_bounds(table).passed.all()
    with pytest.raises(ValueError, match=r"\(n, k\) = \(282, 141\)"):
        lambda_table(0.01, 282)


def test_lambda_table_shape_and_errors():
    table = lambda_table(0.4, 50).check()
    assert table.value(10, 0) == 1.0
    assert table.log_value(10, 0) == 0.0
    with pytest.raises(IndexError):
        table.value(10, 6)
    with pytest.raises(IndexError):
        table.value(51, 0)
    with pytest.raises(ValueError):
        lambda_table(0.5, 501)
    with pytest.raises(ValueError):
        lambda_table(1.2, 10)


def test_signed_position_law_basics():
    for alpha in (0.0, 0.3, 0.9):
        for n in (1, 2, 5, 40):
            law = signed_position_law(alpha, n)
            assert law.shape == (2 * n + 1,)
            assert math.isclose(law.sum(), 1.0, abs_tol=1e-12)
            assert np.allclose(law, law[::-1], atol=1e-15)
            # only positions with the parity of n are reachable
            s = np.arange(-n, n + 1)
            assert (law[(s + n) % 2 == 1] == 0).all()
    law = signed_position_law(0.6, 2)
    assert math.isclose(law[2], (1 - 0.6) / 2, abs_tol=1e-15)
    assert math.isclose(law[0], (1 + 0.6) / 4, abs_tol=1e-15)


def test_stable_eval_matches_polynomial_at_small_degree():
    for alpha in (0.25, 0.7):
        polys = poly_sequence(alpha, 20)
        for n in (2, 9, 20):
            for x in (-0.9, -0.2, 0.0, 0.4, 1.0):
                assert math.isclose(eval_stable(alpha, n, x),
                                    polys[n - 1].eval(x), abs_tol=1e-10)
    with pytest.raises(ValueError):
        eval_stable(0.5, 4, 1.5)


def test_z2_return_gap():
    assert z2_return_gap(0.7, 5) == 0.0
    # n = 4 central coefficient: alpha^2 (2 + alpha) / 3
    alpha = 0.5
    assert math.isclose(z2_return_gap(alpha, 4), alpha ** 2 * (2 + alpha) / 3,
                        rel_tol=1e-12)
    mu = StepDistribution(support=[(0, 0.5), (1, 0.5)])
    for m in (1, 2, 3, 4):
        cfg = SrrwConfig(group=CycleZL(2), alpha=alpha, mu=mu)
        dist = exact_distribution(cfg, 2 * m)
        assert math.isclose(z2_return_gap(alpha, 2 * m),
                            2 * dist.prob(0) - 1, abs_tol=1e-12)


def test_z2_return_gap_bounds():
    lo, hi = z2_return_gap_bounds(0.5, 10)
    gap = math.log(z2_return_gap(0.5, 10))
    assert lo - 1e-12 <= gap <= hi + 1e-12
    with pytest.raises(ValueError):
        z2_return_gap_bounds(0.5, 7)


def test_cycle_distribution_against_oracle():
    for L, ns in ((3, (1, 3, 6)), (4, (1, 3, 6)), (5, (1, 3, 6, 40))):
        g = CycleZL(L)
        mu = StepDistribution(support=[(1, 0.5), (L - 1, 0.5)])
        for n in ns:
            cfg = SrrwConfig(group=g, alpha=0.6, mu=mu)
            dist = exact_distribution(cfg, n)
            probs = cycle_distribution(0.6, L, n)
            assert math.isclose(probs.sum(), 1.0, abs_tol=1e-12)
            for m in range(L):
                assert math.isclose(probs[m], dist.prob(m), abs_tol=1e-10)
    with pytest.raises(ValueError):
        cycle_distribution(0.5, 2, 4)


def test_cycle_distribution_alpha_zero_is_iid():
    from srrw.oracle import iid_convolution

    L, n = 5, 8
    g = CycleZL(L)
    mu = StepDistribution(support=[(1, 0.5), (L - 1, 0.5)])
    conv = iid_convolution(g, mu, n)
    probs = cycle_distribution(0.0, L, n)
    for m in range(L):
        assert math.isclose(probs[m], conv.prob(m), abs_tol=1e-12)


def test_decay_bound_pointwise_and_sweep_agree():
    xs = [-0.9, -0.5, -0.1, 0.3, 0.7]
    alpha = 0.5
    slack = decay_bound_sweep(alpha, xs, 60)
    for n in (1, 13, 37, 60):
        for i, x in enumerate(xs):
            chk = decay_bound_check(alpha, n, x)
            assert chk.passed
            assert math.isclose(chk.slack, slack[n - 1, i], abs_tol=1e-10)
            assert math.isclose(chk.rhs, decay_envelope(alpha, n, x),
                                rel_tol=1e-15)


def test_decay_bound_domain_errors():
    with pytest.raises(ValueError):
        decay_bound_check(1.0, 10, 0.5)
    with pytest.raises(ValueError):
        decay_bound_check(0.5, 10, 1.0)
    with pytest.raises(ValueError):
        decay_bound_sweep(0.5, [0.5, 1.0], 10)


@given(st.floats(min_value=0.0, max_value=0.95),
       st.integers(min_value=1, max_value=120),
       st.floats(min_value=-0.99, max_value=0.99))
@settings(max_examples=80, deadline=None)
def test_decay_bound_property(alpha, n, x):
    assert decay_bound_check(alpha, n, x).passed
