import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rifslab import padic
from rifslab import (
    BudgetExceededError,
    ConfigError,
    DomainError,
    PAdicSystem,
    attractor_ball_counts,
    attractor_sample,
    ball_count,
    ball_counts,
    compare_mass_and_box,
    disjoint_lattice_images,
    make_padic_system,
    mass_box_sandwich,
    padic_attractor_box,
    padic_box_dimension,
    padic_distance,
    padic_valuation,
)
from _oracles import attractor_words


def _random_rationals(rng, count, den_pool):
    out = set()
    while len(out) < count:
        out.add(Fraction(rng.randint(-500, 500), rng.choice(den_pool)))
    return sorted(out)


# --------------------------------------------------------------------------
# metric


def test_distance_matches_valuation():
    assert padic_distance(Fraction(8), Fraction(0), 2).norm == Fraction(1, 8)
    assert padic_distance(Fraction(1, 2), Fraction(0), 2).norm == Fraction(2)
    zero = padic_distance(Fraction(5), Fraction(5), 2)
    assert zero.norm == 0 and zero.is_infinite
    assert padic_distance(Fraction(7), Fraction(4), 3).norm == Fraction(1, 3)


def test_distance_ultrametric_random():
    rng = random.Random(41)
    for p in (2, 3, 5):
        values = _random_rationals(rng, 12, [1, 2, 3, 4, 9, 25])
        for _ in range(300):
            x, y, z = rng.choice(values), rng.choice(values), rng.choice(values)
            dxz = padic_distance(x, z, p).norm
            assert dxz <= max(padic_distance(x, y, p).norm,
                              padic_distance(y, z, p).norm)


def test_distance_translation_invariant():
    rng = random.Random(42)
    values = _random_rationals(rng, 10, [1, 3, 7])
    for _ in range(100):
        x, y, t = rng.choice(values), rng.choice(values), rng.choice(values)
        assert padic_distance(x, y, 5) == padic_distance(x + t, y + t, 5)


# --------------------------------------------------------------------------
# ball clustering


def test_ball_count_integers_powers_of_two():
    points = list(range(16))
    for k in range(1, 5):
        report = ball_count(points, 2, k)
        assert report.count == 2**k
        assert report.p == 2 and report.k == k
        assert sum(report.class_sizes) == 16


@st.composite
def _padic_point_sets(draw):
    """A prime p and rationals whose denominators are p**0..p**3 times a
    part coprime to p, with zero, negatives and repeats allowed."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    denominators = st.builds(lambda e, c: p**e * c, st.integers(0, 3),
                             st.sampled_from([c for c in (1, 2, 3, 5, 7, 11)
                                              if c % p]))
    points = draw(st.lists(st.builds(Fraction, st.integers(-60, 60),
                                     denominators), max_size=12))
    return p, points


@given(_padic_point_sets())
def test_ball_count_methods_agree_random(case):
    p, points = case
    for k in range(7):
        fast = ball_count(points, p, k, method="residues")
        slow = ball_count(points, p, k, method="pairwise")
        assert fast.count == slow.count
        assert fast.class_sizes == slow.class_sizes


def test_ball_count_nested_refinement():
    rng = random.Random(44)
    points = _random_rationals(rng, 30, [1, 2, 4])
    previous = 1
    for k in range(1, 8):
        count = ball_count(points, 2, k).count
        # balls of radius p**-k split, never merge, as k grows
        assert count >= previous
        assert count <= len(points)
        previous = count


def test_ball_count_rejects_bad_input():
    with pytest.raises(ConfigError, match="prime"):
        ball_count([1, 2], 4, 1)
    with pytest.raises(DomainError, match=">= 0"):
        ball_count([1, 2], 2, -1)
    with pytest.raises(DomainError, match="method"):
        ball_count([1, 2], 2, 1, method="hash")


def test_ball_count_level_zero_merges_integral_points():
    # at k = 0 every p-adic integer lies in the unit ball
    assert ball_count(list(range(9)), 3, 0).count == 1


@given(_padic_point_sets(), st.lists(st.integers(0, 8), max_size=6))
def test_ball_counts_match_ball_count_per_level(case, ks):
    # the point sets' scales L reach p**3, so v_p(L) > 0 is covered;
    # levels come unsorted and repeated
    p, points = case
    assert ball_counts(points, p, ks) == [ball_count(points, p, k).count
                                          for k in ks]


def test_ball_counts_on_a_lattice_not_p_integral():
    # the offset 1/8 puts the sample on the scale L = 8: v_2(L) = 3
    # shifts every modulus by 2**3
    system = make_padic_system(2, [(1, 1, 0), (1, 1, Fraction(1, 8))])
    att = attractor_sample(system, 0, 6)
    assert att.scale % 8 == 0
    ks = [7, 0, 3, 3, 1, 5]
    assert ball_counts(att, 2, ks) == [ball_count(att, 2, k).count
                                       for k in ks]


def test_ball_counts_rejects_bad_input():
    with pytest.raises(ConfigError, match="prime"):
        ball_counts([1, 2], 4, [1])
    with pytest.raises(DomainError, match=">= 0"):
        ball_counts([1, 2], 2, [1, -1])


def test_valuation_table():
    assert padic_valuation(Fraction(12), 2).valuation == 2
    assert padic_valuation(Fraction(1, 12), 2).valuation == -2
    assert padic_valuation(Fraction(9, 5), 3).valuation == 2
    assert padic_valuation(Fraction(0), 7).is_infinite


# --------------------------------------------------------------------------
# systems on the p-adic side


def test_padic_system_accepts_binary(binary_padic_system):
    assert binary_padic_system.p == 2
    assert binary_padic_system.min_exponent == 1


def test_padic_system_rejections():
    with pytest.raises(ConfigError, match="prime"):
        make_padic_system(6, [(1, 1, Fraction(0)), (1, 1, Fraction(1))])
    with pytest.raises(ConfigError, match="exponent"):
        make_padic_system(2, [(1, 0, Fraction(0)), (1, 1, Fraction(1))])
    with pytest.raises(ConfigError, match="sign"):
        make_padic_system(2, [(2, 1, Fraction(0)), (1, 1, Fraction(1))])
    with pytest.raises(ConfigError, match="distinct"):
        make_padic_system(2, [(1, 1, Fraction(0)), (1, 1, Fraction(0))])
    # a bool is no sign or exponent, and an exponent is not truncated
    with pytest.raises(ConfigError, match="sign"):
        PAdicSystem(3, ((True, True, Fraction(0)), (1, 1, Fraction(2))))
    with pytest.raises(ConfigError, match="exponent"):
        PAdicSystem(3, ((1, True, Fraction(0)), (1, 1, Fraction(2))))
    with pytest.raises(ConfigError, match="exponent"):
        make_padic_system(3, [(1, 1.7, 0), (1, 1, 2)])


def test_padic_archimedean_bridge(binary_padic_system):
    system = binary_padic_system.archimedean()
    assert [m.ratio for m in system.maps] == [Fraction(2), Fraction(2)]
    assert [m.offset for m in system.maps] == [Fraction(0), Fraction(1)]


# --------------------------------------------------------------------------
# sampled attractor


def test_attractor_sample_layers(binary_padic_system):
    sample = attractor_sample(binary_padic_system, Fraction(0), 6)
    assert len(sample.points) == 2**6
    assert sample.certified_k == 6
    # depth-d words from seed 0 hit every residue class mod 2**d exactly once
    assert sorted(p % 64 for p in sample.points) == list(range(64))


def test_attractor_sample_default_depth(binary_padic_system):
    # the largest depth whose m**depth words stay within 2**16
    assert attractor_sample(binary_padic_system, Fraction(0)).depth == 16
    ternary = make_padic_system(3, [(1, 1, Fraction(b)) for b in range(3)])
    sample = attractor_sample(ternary, Fraction(0))
    assert sample.depth == 10
    assert len(sample.points) == 3**10


def test_attractor_sample_budget(binary_padic_system):
    with pytest.raises(BudgetExceededError, match="budget"):
        attractor_sample(binary_padic_system, Fraction(0), 20, node_budget=1000)


def test_attractor_certified_k_counts_offset_denominators():
    # the offset 1/2 has 2-adic valuation -1, so depth-8 word values are
    # only within 2**-7 of the attractor: level 7 is certified, not 8
    system = make_padic_system(2, [(1, 1, 0), (1, 1, Fraction(1, 2))])
    shallow = attractor_sample(system, 0, 8)
    deep = attractor_sample(system, 0, 14)
    assert shallow.certified_k == 7
    assert ball_count(shallow, 2, 7).count == ball_count(deep, 2, 7).count == 256
    # one level further the depth-8 sample undercounts
    assert ball_count(shallow, 2, 8).count == 256
    assert ball_count(deep, 2, 8).count == 512
    # the residue recursion shifts its levels by v_2(L) = 1 and counts the
    # attractor itself at every level
    assert attractor_ball_counts(system, [7, 8, 0]) == [256, 512, 2]
    with pytest.raises(DomainError, match="certified resolution"):
        padic_box_dimension(shallow, 2, range(5, 9),
                            certified_k=shallow.certified_k)


@st.composite
def _small_padic_systems(draw, min_words=1, max_words=64):
    """(system, seed, depth): p in {2, 3, 5}, two or three maps with signs
    +-1 and exponents 1..2, offsets and seed with denominators p**0..p**2
    times a part coprime to p, and at most max_words words, at least
    min_words where the depth is above 1."""
    p = draw(st.sampled_from([2, 3, 5]))
    rationals = st.builds(
        lambda n, e, c: Fraction(n, p**e * c), st.integers(-20, 20),
        st.integers(0, 2), st.sampled_from([c for c in (1, 2, 3, 7) if c % p]))

    def map_key(term):
        sign, exponent, offset = term
        return sign * p**exponent, offset

    terms = draw(st.lists(
        st.tuples(st.sampled_from([1, -1]), st.integers(1, 2), rationals),
        min_size=2, max_size=3, unique_by=map_key))
    low = top = 1
    while len(terms) ** (top + 1) <= max_words:
        top += 1
    while len(terms) ** low < min_words and low < top:
        low += 1
    depth = draw(st.integers(low, top))
    return make_padic_system(p, terms), draw(rationals), depth


@given(_small_padic_systems())
def test_attractor_walk_matches_fraction_walk(case):
    system, seed, depth = case
    att = attractor_sample(system, seed, depth)
    assert att.points == attractor_words(system, seed, depth)
    for k in range(max(att.certified_k, 0) + 3):
        assert (ball_count(att, system.p, k)
                == ball_count(att.points, system.p, k, method="pairwise"))


@given(_small_padic_systems())
def test_certified_levels_match_a_deeper_sample(case):
    # up to certified_k the balls a sample meets are those the attractor
    # meets, so a deeper sample counts the same
    system, seed, depth = case
    att = attractor_sample(system, seed, depth)
    deeper = attractor_sample(system, seed, depth + 2)
    for k in range(max(att.certified_k + 1, 0)):
        assert (ball_count(att, system.p, k).count
                == ball_count(deeper, system.p, k).count)


@given(_small_padic_systems())
def test_exact_ball_counts_match_the_sample(case):
    # at every certified level the sample meets the balls the attractor
    # meets, and the residue recursion counts those
    system, seed, depth = case
    att = attractor_sample(system, seed, depth)
    ks = range(att.certified_k + 1)
    assert (attractor_ball_counts(system, ks)
            == ball_counts(att, system.p, ks))


def _sampled_attractor_box(system, seed, depth):
    """The record and fit padic_attractor_box gave when it read them off
    attractor_sample and padic_box_dimension, or the error it raised."""
    try:
        att = attractor_sample(system, seed, depth)
        box = padic_box_dimension(att, system.p,
                                  range(2, min(att.certified_k, 12) + 1),
                                  certified_k=att.certified_k)
    except DomainError as exc:
        return str(exc)
    return (att.depth, len(att), att.certified_k), box


@given(_small_padic_systems(min_words=2**6, max_words=3**8))
def test_attractor_box_matches_the_sampled_path(case):
    system, seed, depth = case
    try:
        att, box = padic_attractor_box(system, seed, depth)
    except DomainError as exc:
        got = str(exc)
    else:
        got = (att.depth, att.size, att.certified_k), box
    # the ball counts and every float of the fit are equal, not close
    assert got == _sampled_attractor_box(system, seed, depth)


@given(_small_padic_systems())
def test_disjoint_lattice_images_give_distinct_words(case):
    system, seed, depth = case
    if disjoint_lattice_images(system.archimedean(), seed):
        assert len(attractor_sample(system, seed, depth)) == (
            len(system.terms)**depth)


def _fibonacci(n):
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def test_overlapping_ball_counts_are_fibonacci():
    # {3x, 3x + 1, 3x + 3} fails the certificate, since 3 divides 3 - 0:
    # N_k = F(2k + 1), an oracle independent of the sample
    system = make_padic_system(3, [(1, 1, 0), (1, 1, 1), (1, 1, 3)])
    assert not disjoint_lattice_images(system.archimedean(), 0)
    ks = range(1, 13)
    assert attractor_ball_counts(system, ks) == [_fibonacci(2 * k + 1)
                                                 for k in ks]
    att, box = padic_attractor_box(system, 0)
    assert (att.depth, att.size, att.certified_k) == (10, 17711, 10)
    assert box.counts == tuple(_fibonacci(2 * k + 1) for k in range(2, 11))


def test_exact_ball_counts_budget(binary_padic_system):
    # |R_1| + ... + |R_8| = 2 + 4 + ... + 256 = 510 residues
    assert attractor_ball_counts(binary_padic_system, [8],
                                 node_budget=510) == [256]
    with pytest.raises(BudgetExceededError,
                       match="ball level 8 needs 510 residues, budget is 509"):
        attractor_ball_counts(binary_padic_system, [8], node_budget=509)
    with pytest.raises(DomainError, match=">= 0"):
        attractor_ball_counts(binary_padic_system, [-1])
    assert attractor_ball_counts(binary_padic_system, []) == []


def test_box_dimension_binary(binary_padic_system):
    sample = attractor_sample(binary_padic_system, Fraction(0), 10)
    report = padic_box_dimension(sample.points, 2, range(1, 11),
                                 certified_k=sample.certified_k)
    assert report.counts == tuple(2**k for k in range(1, 11))
    assert report.fit.slope == pytest.approx(1.0, abs=1e-12)


def test_box_dimension_refuses_uncertified(binary_padic_system):
    sample = attractor_sample(binary_padic_system, Fraction(0), 5)
    with pytest.raises(DomainError, match="certified resolution"):
        padic_box_dimension(sample.points, 2, range(1, 7),
                            certified_k=sample.certified_k)
    with pytest.raises(DomainError, match="4 ball levels"):
        padic_box_dimension(sample.points, 2, range(1, 4))


def test_box_dimension_refuses_an_empty_sample():
    with pytest.raises(DomainError, match="nonempty sample"):
        padic_box_dimension([], 3, range(1, 6))


# --------------------------------------------------------------------------
# sandwich and the comparison report


def test_sandwich_rows_binary(binary_padic_system):
    from rifslab import enumerate_orbit
    orbit = enumerate_orbit(binary_padic_system.archimedean(), Fraction(0),
                            Fraction(2) ** 12)
    rows = mass_box_sandwich(binary_padic_system, orbit, range(2, 7))
    for row in rows:
        assert row.lower <= row.balls <= row.upper
        assert row.holds
    # frozen middle row: 2**5 balls between 16 and 65
    k5 = [r for r in rows if r.k == 5][0]
    assert (k5.lower, k5.balls, k5.upper) == (16, 32, 65)


def test_sandwich_requires_radius(binary_padic_system):
    from rifslab import enumerate_orbit
    orbit = enumerate_orbit(binary_padic_system.archimedean(), Fraction(0),
                            Fraction(2) ** 4)
    with pytest.raises(DomainError, match="radius"):
        mass_box_sandwich(binary_padic_system, orbit, range(2, 9))


@pytest.mark.parametrize("p, terms, seed, radius_exponent, kmax", [
    (3, [(-1, 1, 0), (1, 1, Fraction(2, 3))], 0, 10, 9),
    (5, [(1, 2, Fraction(2, 5)), (-1, 2, Fraction(1, 25))], Fraction(-1, 60),
     9, 5),
])
def test_sandwich_upper_window_counts_p_in_denominators(p, terms, seed,
                                                        radius_exponent,
                                                        kmax):
    # p in a denominator of L widens the upper window by v_p(L): at k = 1
    # both systems meet 4 balls, which the window of 8 points brackets
    from rifslab import enumerate_orbit
    system = make_padic_system(p, terms)
    orbit = enumerate_orbit(system.archimedean(), seed,
                            Fraction(p) ** radius_exponent)
    rows = mass_box_sandwich(system, orbit, range(1, kmax + 1))
    assert [r.k for r in rows] == list(range(1, kmax + 1))
    assert all(row.holds for row in rows)
    assert (rows[0].balls, rows[0].upper) == (4, 8)


@given(_small_padic_systems())
def test_sandwich_rows_hold(case):
    # seeds and offsets with p in a denominator or dividing a numerator;
    # every row the radius admits must bracket the ball count
    from rifslab import enumerate_orbit
    system, seed, _ = case
    orbit = enumerate_orbit(system.archimedean(), seed,
                            Fraction(system.p) ** 8, node_budget=30_000)
    if not orbit.complete:
        return
    for k in range(1, 12):
        try:
            row, = mass_box_sandwich(system, orbit, [k])
        except DomainError as exc:
            assert "needs radius" in str(exc)
            break
        assert row.holds, (system, seed, row)


def test_compare_mass_and_box(binary_padic_system):
    report = compare_mass_and_box(binary_padic_system, Fraction(0),
                                  node_budget=10**6)
    assert report.box_fit.slope == pytest.approx(1.0, abs=1e-12)
    assert report.mass_fit.slope == pytest.approx(0.9946562139296281)
    assert report.difference <= 0.02


def test_compare_needs_fixed_point_seed(binary_padic_system, monkeypatch):
    def no_enumeration(*args, **kwargs):
        raise AssertionError("enumerated the orbit of a rejected seed")

    monkeypatch.setattr(padic, "enumerate_orbit", no_enumeration)
    with pytest.raises(DomainError, match="fixed point"):
        compare_mass_and_box(binary_padic_system, Fraction(7),
                             node_budget=10**6)
