"""Group axioms, distances, parsing, and step distributions."""

import math
from fractions import Fraction

import pytest

from srrw.groups import (
    CycleZL,
    EuclideanRd,
    IntegerLatticeZd,
    LamplighterZ,
    RegularTreeFree,
    S3xZ,
    StepDistribution,
    bfs_ball,
    group_from_literal,
    is_class_function,
)
from srrw.rng import stream

TRIPLES = 10_000


def random_element(group, rng):
    """One pseudo-random element with a moderate word length.

    EuclideanRd coordinates are drawn as half-integers so that float addition
    is exact and the associativity check is not at the mercy of rounding.
    """
    if isinstance(group, CycleZL):
        return int(rng.integers(0, group.L))
    if isinstance(group, IntegerLatticeZd):
        return tuple(int(v) for v in rng.integers(-5, 6, size=group.d))
    if isinstance(group, EuclideanRd):
        return tuple(float(v) / 2.0 for v in rng.integers(-8, 9, size=group.d))
    if isinstance(group, RegularTreeFree):
        out = group.identity()
        for _ in range(int(rng.integers(0, 9))):
            out = group.multiply(out, (int(rng.integers(0, group.d)),))
        return out
    if isinstance(group, LamplighterZ):
        lamps = frozenset(int(p) for p in rng.integers(-3, 4, size=3))
        return (lamps if rng.random() < 0.8 else frozenset(),
                int(rng.integers(-3, 4)))
    if isinstance(group, S3xZ):
        perm = tuple(int(i) for i in rng.permutation(3))
        return (perm, int(rng.integers(-4, 5)))
    raise AssertionError(group)


def group_id(group):
    """The test id: the class name, ``Z2`` for the cycle of order 2."""
    return "Z2" if group == CycleZL(2) else type(group).__name__


VARIANTS = [
    CycleZL(2),
    CycleZL(6),
    IntegerLatticeZd(3),
    EuclideanRd(2),
    RegularTreeFree(3),
    LamplighterZ(),
    S3xZ(),
]


@pytest.mark.parametrize("group", VARIANTS, ids=group_id)
def test_group_axioms(group):
    rng = stream(11, 1)
    e = group.identity()
    for _ in range(TRIPLES):
        a = random_element(group, rng)
        b = random_element(group, rng)
        c = random_element(group, rng)
        lhs = group.multiply(group.multiply(a, b), c)
        rhs = group.multiply(a, group.multiply(b, c))
        assert lhs == rhs
        assert group.multiply(e, a) == a
        assert group.multiply(a, e) == a
        assert group.multiply(a, group.inverse(a)) == e


@pytest.mark.parametrize("group", VARIANTS, ids=group_id)
def test_check_element_accepts_products(group):
    rng = stream(11, 2)
    for _ in range(200):
        a = random_element(group, rng)
        b = random_element(group, rng)
        group.check_element(group.multiply(a, b))
        group.check_element(group.inverse(a))


DISTANCE_GROUPS = [CycleZL(2), CycleZL(7), IntegerLatticeZd(2),
                   RegularTreeFree(3), LamplighterZ(), S3xZ()]


@pytest.mark.parametrize("group", DISTANCE_GROUPS, ids=group_id)
def test_word_distance_triangle_and_symmetry(group):
    rng = stream(11, 3)
    for _ in range(2000):
        a = random_element(group, rng)
        b = random_element(group, rng)
        da = group.word_distance(a)
        db = group.word_distance(b)
        # left invariance turns d(e, ab) <= d(e, a) + d(a, ab) into this
        assert group.word_distance(group.multiply(a, b)) <= da + db
        assert group.word_distance(group.inverse(a)) == da
        assert da >= 0
        assert (da == 0) == (a == group.identity())


@pytest.mark.parametrize("group,radius", [
    (LamplighterZ(), 5),
    (S3xZ(), 6),
    (RegularTreeFree(3), 6),
    (CycleZL(9), 4),
    (IntegerLatticeZd(2), 4),
])
def test_closed_form_distance_matches_bfs(group, radius):
    ball = bfs_ball(group, radius)
    assert len(ball) > 1
    for elem, dist in ball.items():
        assert group.word_distance(elem) == dist


def test_word_distance_examples():
    assert RegularTreeFree(3).word_distance(
        RegularTreeFree(3).parse_element("aba")) == 3
    assert CycleZL(6).word_distance(4) == 2
    assert IntegerLatticeZd(3).word_distance((1, -2, 0)) == 3
    # toggle at 0, then the marker has to come back from +2
    assert LamplighterZ().word_distance((frozenset([0]), 2)) == 3
    assert S3xZ().word_distance(((1, 2, 0), -2)) == 4


def test_free_words_stay_reduced():
    g = RegularTreeFree(4)
    rng = stream(11, 4)
    for _ in range(3000):
        a = random_element(g, rng)
        b = random_element(g, rng)
        w = g.multiply(a, b)
        assert all(w[i] != w[i + 1] for i in range(len(w) - 1))
        # each letter is an involution, so the inverse reverses the word
        assert g.multiply(w, g.inverse(w)) == ()


def test_free_word_parse_redundant_inverse_marker():
    g = RegularTreeFree(3)
    assert g.parse_element("a^-1") == (0,)
    assert g.parse_element("ab c") == (0, 1, 2)
    assert g.parse_element("aa") == ()
    with pytest.raises(ValueError):
        g.parse_element("ax?")


@pytest.mark.parametrize("group", VARIANTS, ids=group_id)
def test_parse_format_round_trip(group):
    rng = stream(11, 5)
    for _ in range(100):
        a = random_element(group, rng)
        back = group.parse_element(group.format_element(a))
        assert back == a


@pytest.mark.parametrize("group", VARIANTS, ids=group_id)
def test_identity_parses_as_e(group):
    assert group.parse_element("e") == group.identity()


def test_group_literal_round_trip():
    for text, group in [("z2", CycleZL(2)), ("cycle:2", CycleZL(2)),
                        ("cycle:5", CycleZL(5)),
                        ("lattice:3", IntegerLatticeZd(3)),
                        ("rd:3", EuclideanRd(3)), ("tree:4", RegularTreeFree(4)),
                        ("lamplighter", LamplighterZ()), ("s3z", S3xZ())]:
        assert group_from_literal(text) == group
    with pytest.raises(ValueError):
        group_from_literal("dihedral:4")
    with pytest.raises(ValueError):
        group_from_literal("z2:3")
    # R^d has no bin width to give: a second parameter is refused
    for text in ("rd:2:0.5", "cycle:5:2", "lattice", "tree:"):
        with pytest.raises(ValueError):
            group_from_literal(text)


def test_bad_constructions_rejected():
    with pytest.raises(ValueError):
        CycleZL(1)
    with pytest.raises(ValueError):
        IntegerLatticeZd(0)
    with pytest.raises(ValueError):
        RegularTreeFree(1)
    with pytest.raises(ValueError):
        EuclideanRd(0)


def test_step_distribution_validation():
    g = CycleZL(5)
    StepDistribution(support=[(1, 0.5), (4, 0.5)]).validate(g)
    with pytest.raises(ValueError):
        StepDistribution(support=[(1, 0.5), (4, 0.6)]).validate(g)
    with pytest.raises(ValueError):
        StepDistribution(support=[(1, 0.5), (1, 0.5)]).validate(g)
    with pytest.raises(ValueError):
        StepDistribution(support=[(1, 1.5), (4, -0.5)]).validate(g)
    with pytest.raises(ValueError, match="strictly positive"):
        StepDistribution(support=[(1, math.nan), (4, 0.5)]).validate(g)
    with pytest.raises(ValueError):
        StepDistribution(support=[(1, 1.0)], family="gaussian")
    with pytest.raises(ValueError):
        StepDistribution(family="gaussian").validate(g)
    with pytest.raises(ValueError):
        StepDistribution(family="cauchy")
    StepDistribution(family="gaussian").validate(EuclideanRd(3))


def test_step_law_is_frozen():
    # validation sees the weights every later draw uses
    mu = StepDistribution.lazy(IntegerLatticeZd(1)).validate(
        IntegerLatticeZd(1))
    with pytest.raises(TypeError):
        mu.support[0] = ((0,), 0.9)
    assert sum(w for _, w in mu.support) == 1.0


def test_step_distribution_masses():
    g = CycleZL(6)
    mu = StepDistribution(support=[(0, 0.5), (1, 0.25), (5, 0.25)])
    assert mu.lazy_mass(g) == 0.5
    assert mu.mass(g, 5) == 0.25
    assert mu.mass(g, 3) == 0.0
    uni = StepDistribution.uniform(g.generators())
    assert math.isclose(sum(w for _, w in uni.support), 1.0)


def test_lazy_step_law():
    # atom order is part of the law: the engines index atoms in this order
    assert list(StepDistribution.lazy(CycleZL(2)).support) == [
        (0, 0.5), (1, 0.5)]
    assert list(StepDistribution.lazy(CycleZL(6)).support) == [
        (0, 0.5), (1, 0.25), (5, 0.25)]
    assert list(StepDistribution.lazy(IntegerLatticeZd(2)).support) == [
        ((0, 0), 0.5), ((1, 0), 0.125), ((-1, 0), 0.125), ((0, 1), 0.125),
        ((0, -1), 0.125)]
    g = LamplighterZ()
    assert list(StepDistribution.lazy(g).support) == [
        (g.identity(), 0.25), ((frozenset([0]), 0), 0.25),
        ((frozenset(), 1), 0.25), ((frozenset(), -1), 0.25)]
    for d in (1, 3, 5, 7):
        lazy = StepDistribution.lazy(IntegerLatticeZd(d))
        assert [w for _, w in lazy.support[1:]] == [1.0 / (4 * d)] * (2 * d)
    for group in (RegularTreeFree(3), S3xZ(), EuclideanRd(2)):
        with pytest.raises(ValueError, match="no lazy shorthand"):
            StepDistribution.lazy(group)


def test_step_distribution_literals():
    g = IntegerLatticeZd(2)
    mu = StepDistribution.from_literal([["e1", 0.5], ["e1^-1", 0.5]], g)
    assert mu.support[0][0] == (1, 0)
    assert list(mu.support) == [((1, 0), 0.5), ((-1, 0), 0.5)]
    rd = EuclideanRd(3)
    assert StepDistribution.from_literal("gaussian", rd).family == "gaussian"


def test_class_function_abelian_and_continuous():
    g = IntegerLatticeZd(2)
    mu = StepDistribution.uniform(g.generators())
    assert bool(is_class_function(g, mu))
    rd = EuclideanRd(2)
    assert bool(is_class_function(rd, StepDistribution(family="gaussian")))


def test_class_function_on_s3z():
    g = S3xZ()
    gamma = [((1, 0, 2), 0), ((2, 1, 0), 0), ((0, 2, 1), 0),
             ((0, 1, 2), 1), ((0, 1, 2), -1)]
    uniform = StepDistribution.uniform(gamma)
    chk = is_class_function(g, uniform)
    assert chk.conclusive and chk.holds

    lopsided = StepDistribution(support=[(((1, 0, 2), 0), 0.5),
                                         (((2, 1, 0), 0), 0.5)])
    chk = is_class_function(g, lopsided)
    assert chk.conclusive and not chk.holds
    x, conj, image = chk.witness
    assert abs(lopsided.mass(g, x) - lopsided.mass(g, image)) > 1e-12
    assert image == g.multiply(g.multiply(g.inverse(conj), x), conj)


def test_bfs_ball_sizes():
    tree = bfs_ball(RegularTreeFree(3), 3)
    # 3-regular tree: 1 + 3 + 3*2 + 3*4
    assert len(tree) == 1 + 3 + 6 + 12
    cyc = bfs_ball(CycleZL(8), 10)
    assert len(cyc) == 8
    lattice = bfs_ball(IntegerLatticeZd(2), 2)
    assert len(lattice) == 1 + 4 + 8


def test_euclidean_atoms_in_one_unit_cell_stay_distinct():
    g = EuclideanRd(1)
    mu = StepDistribution(support=[((0.2,), 0.5), ((0.7,), 0.5)]).validate(g)
    assert mu.mass(g, (0.2,)) == 0.5
    assert mu.mass(g, (0.4,)) == 0.0
    assert mu.lazy_mass(g) == 0.0
    with pytest.raises(ValueError, match="duplicate"):
        StepDistribution(support=[((0.2,), 0.5), ((0.2,), 0.5)]).validate(g)


def test_euclidean_refuses_non_finite_coordinates():
    g = EuclideanRd(1)
    for text in ("(nan)", "(inf)", "(-inf)"):
        with pytest.raises(ValueError, match="non-finite"):
            g.parse_element(text)
    with pytest.raises(ValueError, match="non-finite"):
        StepDistribution(support=[((math.nan,), 0.5),
                                  ((math.nan,), 0.5)]).validate(g)


def test_fraction_weights_validate():
    # exact rational weights are accepted as-is; several modules rely on it
    g = CycleZL(2)
    mu = StepDistribution(support=[(0, Fraction(1, 3)), (1, Fraction(2, 3))])
    mu.validate(g)
    assert mu.lazy_mass(g) == Fraction(1, 3)


def test_cycle_of_order_two_is_z2():
    # one generator at L = 2, so the lazy law has no duplicate atom
    g = CycleZL(2)
    assert g.generators() == [1]
    assert g.parse_element("+1") == g.parse_element("-1") == 1
    with pytest.raises(ValueError):
        g.check_element(1.0)
