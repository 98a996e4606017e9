"""Evolving-set machinery: exact threshold pieces, the size martingale,
profiles, and duality with the transition kernel."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srrw import evolving
from srrw.evolving import (DeterministicStep, KernelSeq, MuStep, bottleneck,
                           compose_matrices, connected_sets, doob_step,
                           enumerate_group, iso_profile, kernel_matrix,
                           kernel_seq_from_forest, martingale_defect,
                           mask_tables, mass_profile, psi, psi_profile,
                           set_tree, step_pieces)
from srrw.forest import PercolatedForest
from srrw.groups import CycleZL, IntegerLatticeZd, StepDistribution
from srrw.rng import stream
from srrw.sampler import SrrwConfig, WalkTrace

Z = IntegerLatticeZd(1)
LAZY = StepDistribution(support=[((0,), 0.5), ((1,), 0.25), ((-1,), 0.25)])


def lazy_on(L):
    return CycleZL(L), StepDistribution(support=[(0, 0.5), (1, 0.25),
                                                 (L - 1, 0.25)])


def test_mass_profile_values():
    # integer numerators over the weights' common denominator
    den, q = mass_profile(Z, LAZY, {(0,), (1,)})
    assert den == 4
    assert q == {(0,): 3, (1,): 3, (-1,): 1, (2,): 1}
    den, q = mass_profile(Z, StepDistribution(support=[((1,), 0.3),
                                                       ((-1,), 0.7)]),
                          {(0,)})
    assert den == 2 ** 54
    assert [Fraction(q[x], den) for x in ((1,), (-1,))] == [Fraction(0.3),
                                                             Fraction(0.7)]


def fraction_pieces(group, mu, W):
    """Reference mu-step: every weight lifted to a Fraction and the mass
    profile summed, leveled and cut in Fraction arithmetic."""
    q = {}
    for x in W:
        for s, w in mu.support:
            y = group.multiply(x, s)
            q[y] = q.get(y, Fraction(0)) + Fraction(w)
    levels = sorted(set(q.values()), reverse=True)
    pieces = [(lvl - nxt, {y for y, v in q.items() if v >= lvl})
              for lvl, nxt in zip(levels, levels[1:] + [Fraction(0)])]
    return pieces + [(1 - levels[0], set())]


NON_DYADIC = ([0.1, 0.2, 0.7], [0.3, 0.7], [1 / 3, 1 / 3, 1 / 3],
              [0.5, 0.25, 0.25])


@given(st.integers(min_value=3, max_value=12), st.data())
@settings(max_examples=200, deadline=None)
def test_integer_step_matches_the_fraction_reference(L, data):
    # pieces, martingale defect and psi equal the Fraction route bit for bit
    weights = data.draw(st.sampled_from(NON_DYADIC))
    moves = data.draw(st.lists(st.integers(0, L - 1), min_size=len(weights),
                               max_size=len(weights), unique=True))
    W = data.draw(st.sets(st.integers(0, L - 1), min_size=1))
    g = CycleZL(L)
    mu = StepDistribution(support=list(zip(moves, weights)))
    ref = fraction_pieces(g, mu, W)
    pieces = step_pieces(g, mu, W, MuStep())
    assert pieces == ref
    assert all(type(length) is Fraction for length, _ in pieces)
    defect = sum((l * len(a) for l, a in ref), Fraction(0)) - len(W)
    assert martingale_defect(g, mu, W) == defect
    root = sum(float(l) * math.sqrt(len(a)) for l, a in ref)
    assert psi(g, mu, W).hex() == (1.0 - root / math.sqrt(len(W))).hex()


def test_psi_singleton_value():
    # 1 - 1/4 - sqrt(3)/4
    assert math.isclose(psi(Z, LAZY, {(0,)}), 1 - (math.sqrt(3) + 1) / 4,
                        abs_tol=1e-15)
    with pytest.raises(ValueError):
        psi(Z, LAZY, set())
    with pytest.raises(ValueError):
        martingale_defect(Z, LAZY, set())


def test_martingale_defect_dyadic_exact_zero():
    # dyadic weights make every threshold length exactly representable
    mu = StepDistribution(support=[((0,), 0.5), ((1,), 0.375),
                                   ((-1,), 0.125)])
    for W in ({(0,)}, {(0,), (1,)}, {(-2,), (0,), (3,)}):
        assert martingale_defect(Z, mu, W) == Fraction(0)


def test_martingale_defect_tracks_float_mass_gap():
    # 0.3 + 0.7 is only 1 after rounding; the defect is |W| times the
    # exact rational gap, not zero
    mu = StepDistribution(support=[((1,), 0.3), ((-1,), 0.7)])
    gap = Fraction(0.3) + Fraction(0.7) - 1
    for W in ({(0,)}, {(0,), (4,)}):
        d = martingale_defect(Z, mu, W)
        assert d == len(W) * gap
        assert d != 0
        assert abs(d) < Fraction(1, 10 ** 15)


@given(st.sets(st.integers(min_value=-6, max_value=6), min_size=1,
               max_size=5),
       st.lists(st.integers(min_value=1, max_value=64), min_size=2,
                max_size=4))
@settings(max_examples=60, deadline=None)
def test_martingale_defect_property(points, raw_weights):
    # arbitrary sets, arbitrary dyadic step law on moves {-1, 0, 1, 2}
    total = sum(raw_weights)
    scale = 1
    while scale < total:
        scale *= 2
    raw_weights[0] += scale - total
    moves = [(-1,), (0,), (1,), (2,)][:len(raw_weights)]
    mu = StepDistribution(support=[(m, w / scale)
                                   for m, w in zip(moves, raw_weights)])
    W = {(p,) for p in points}
    assert martingale_defect(Z, mu, W) == Fraction(0)


def test_bottleneck_cycle_values():
    g, mu = lazy_on(8)
    assert bottleneck(g, mu, {0}) == 0.5
    assert bottleneck(g, mu, {0, 1, 2, 3}) == 0.125
    with pytest.raises(ValueError):
        bottleneck(g, mu, set())


def test_edge_boundary_bound():
    # each of the k directed +-1 edges leaving A carries mass 0.25
    g, mu = lazy_on(8)
    for a, k in (({0}, 2), ({0, 1, 2, 3}, 2), ({0, 2, 4}, 6), ({1, 2, 5}, 4)):
        assert bottleneck(g, mu, a) == 0.25 * k / len(a)


def test_enumerate_group(monkeypatch):
    elems = enumerate_group(CycleZL(8))
    assert sorted(elems) == list(range(8))
    monkeypatch.setattr(evolving, "GROUP_CAP", 1000)
    with pytest.raises(ValueError):
        enumerate_group(Z)


def test_connected_sets_on_line():
    sets = connected_sets(Z, [(1,), (-1,)], 3)
    as_keys = {frozenset(p[0] for p in s) for s in sets}
    assert as_keys == {
        frozenset({0}),
        frozenset({0, 1}), frozenset({-1, 0}),
        frozenset({0, 1, 2}), frozenset({-1, 0, 1}), frozenset({-2, -1, 0}),
    }
    assert len(sets) == len(as_keys)


def test_profiles_on_cycle():
    g, mu = lazy_on(8)
    prof = iso_profile(g, mu, 4, search_scope="connected")
    assert math.isclose(prof.value, 0.125, abs_tol=1e-15)
    assert len(prof.best_set) == 4
    assert prof.restricted

    full = iso_profile(g, mu, 4, search_scope="all")
    assert not full.restricted
    # arcs are optimal on the cycle, so widening the search gains nothing
    assert math.isclose(full.value, prof.value, abs_tol=1e-15)

    with pytest.raises(ValueError):
        iso_profile(g, mu, 4, search_scope="everything")
    with pytest.raises(ValueError):
        psi_profile(IntegerLatticeZd(2),
                    StepDistribution(support=[((1, 0), 0.5), ((-1, 0), 0.5)]),
                    3, search_scope="all")


def test_psi_dominates_squared_bottleneck():
    for L in (6, 8, 12):
        g, mu = lazy_on(L)
        mu0 = 0.5
        factor = mu0 ** 2 / (2 * (1 - mu0) ** 2)
        for r in range(1, 6):
            ps = psi_profile(g, mu, r, search_scope="connected").value
            ph = iso_profile(g, mu, r, search_scope="connected").value
            assert ps >= factor * ph ** 2 - 1e-12


def test_doob_step_never_empty_and_frequencies():
    pieces = step_pieces(Z, LAZY, {(0,)}, MuStep())
    weights = [float(l) * len(a) for l, a in pieces if a]
    assert math.isclose(sum(weights), 1.0, abs_tol=1e-15)
    counts = {1: 0, 3: 0}
    trials = 4000
    for i in range(trials):
        w = doob_step(Z, LAZY, {(0,)}, MuStep(), stream(9, i))
        assert w
        counts[len(w)] += 1
    for size, wt in zip((1, 3), weights):
        sd = math.sqrt(wt * (1 - wt) / trials)
        assert abs(counts[size] / trials - wt) < 4 * sd
    assert doob_step(Z, LAZY, {(5,)}, DeterministicStep((1,)), 0) == {(6,)}
    with pytest.raises(ValueError):
        doob_step(Z, LAZY, set(), MuStep(), 0)


def test_kernel_seq_from_forest_tags():
    forest = PercolatedForest(n=4, parent=[0, 0, 1, 2, 1],
                              retained=[0, 0, 0, 1, 0])
    g, mu = lazy_on(6)
    cfg = SrrwConfig(group=g, alpha=0.5, mu=mu)
    trace = WalkTrace(group=g, steps=[1, 5, 5, 1],
                      positions=[0, 1, 0, 5, 0],
                      reinforcement_flags=[0, 1, 0], picks=[1, 2, 1]).check()
    seq = kernel_seq_from_forest(forest, cfg, trace)
    assert seq.n == 4
    assert isinstance(seq.kernel(1), MuStep)
    assert seq.kernel(2) == DeterministicStep(5)
    assert seq.kernel(3) == DeterministicStep(5)
    assert isinstance(seq.kernel(4), MuStep)
    with pytest.raises(IndexError):
        seq.kernel(0)
    with pytest.raises(IndexError):
        seq.kernel(5)


def test_kernel_matrix_and_compose():
    g, mu = lazy_on(4)
    elems = sorted(enumerate_group(g))
    seq = KernelSeq(group=g, mu=mu, tags=[MuStep(), MuStep(),
                                          DeterministicStep(1)])
    m1 = kernel_matrix(seq, 1, elems)
    assert np.allclose(m1.sum(axis=1), 1.0)
    assert np.allclose(m1, m1.T)
    m3 = kernel_matrix(seq, 3, elems)
    assert (m3.sum(axis=1) == 1.0).all()
    assert m3[0, 1] == 1.0
    prod = compose_matrices(seq, elems, 0, 3)
    assert np.allclose(prod, m1 @ m1 @ m3)
    assert np.allclose(compose_matrices(seq, elems, 1, 1), np.eye(4))


def test_set_tree_matches_kernel_power_exactly():
    # P(y in W_l | W_0 = {x}) recovers the l-step transition probability
    g, mu = lazy_on(5)
    elems = sorted(enumerate_group(g))
    seq = KernelSeq(group=g, mu=mu,
                    tags=[MuStep(), DeterministicStep(3), MuStep()])
    states = set_tree(seq, {0}, 0, 3)
    assert sum(p for _, p in states) == 1
    prod = compose_matrices(seq, elems, 0, 3)
    for y in elems:
        hit = sum(p for w, p in states if y in w)
        assert math.isclose(float(hit), prod[0, y], abs_tol=1e-12)
    # the empty set is reachable and absorbing here
    assert any(not w and p > 0 for w, p in states)


def test_step_pieces_cover_the_unit_interval():
    # one piece per mass level, highest first, then the empty set above
    # the top level
    assert step_pieces(Z, LAZY, {(0,)}, MuStep()) == [
        (Fraction(1, 4), {(0,)}),
        (Fraction(1, 4), {(-1,), (0,), (1,)}),
        (Fraction(1, 2), set()),
    ]
    g, mu = lazy_on(5)
    # a translation moves the whole set whatever the uniform
    assert step_pieces(g, mu, {0, 1}, DeterministicStep(3)) == [
        (1, {3, 4})]
    assert step_pieces(g, None, {4}, DeterministicStep(2)) == [(1, {1})]
    assert step_pieces(g, mu, set(), MuStep()) == [(1, set())]
    # a full group keeps all its mass: the empty piece has length 0
    assert step_pieces(g, mu, set(range(5)), MuStep())[-1] == (0, set())


def test_mask_tables_law_equals_set_tree():
    # the tables' piece lengths, taken as probabilities, give the exact law
    g, mu = lazy_on(5)
    elems = sorted(enumerate_group(g))
    seq = KernelSeq(group=g, mu=mu, tags=[MuStep(), DeterministicStep(3),
                                          MuStep(), MuStep()])
    tables = mask_tables(seq, elems)
    for start in ({0}, {0, 2}):
        law = {sum(1 << x for x in start): Fraction(1)}
        for ell, (cums, succs) in enumerate(tables, start=1):
            nxt = {}
            for mask, p in law.items():
                assert cums[mask][-1] == 1.0
                edges = [Fraction(0)] + [Fraction(c) for c in cums[mask]]
                for lo, hi, succ in zip(edges, edges[1:], succs[mask]):
                    if hi > lo:
                        nxt[int(succ)] = nxt.get(int(succ), 0) + p * (hi - lo)
            law = nxt
            exact = {sum(1 << x for x in w): p
                     for w, p in set_tree(seq, start, 0, ell)}
            assert law == exact, (start, ell)


def test_mask_tables_refuse_more_than_sixteen_points(monkeypatch):
    # refused before any step is tabulated: 2^17 subsets are never built
    def no_pieces(*args):
        raise AssertionError("a step was tabulated")

    monkeypatch.setattr(evolving, "step_pieces", no_pieces)
    g, mu = lazy_on(17)
    seq = KernelSeq(group=g, mu=mu, tags=[MuStep()])
    with pytest.raises(ValueError, match="17 points"):
        mask_tables(seq, sorted(enumerate_group(g)))
