import random
from fractions import Fraction

import pytest

from rifslab import (
    BudgetExceededError,
    ConfigError,
    DomainError,
    attractor_sample,
    ball_count,
    compare_mass_and_box,
    make_padic_system,
    mass_box_sandwich,
    padic_box_dimension,
    padic_distance,
    padic_valuation,
)


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


def test_ball_count_methods_agree_random():
    rng = random.Random(43)
    for p in (2, 3, 5):
        # denominators force negative valuations through the scaling path
        points = _random_rationals(rng, 24, [1, 2, 3, 5, p, p * p])
        for k in range(1, 5):
            fast = ball_count(points, p, k, method="residues")
            slow = ball_count(points, p, k, method="pairwise")
            assert fast.count == slow.count
            assert sorted(fast.class_sizes) == sorted(slow.class_sizes)


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
    with pytest.raises(DomainError, match="budget"):
        attractor_sample(binary_padic_system, Fraction(0), 20, node_budget=1000)


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


def test_compare_mass_and_box(binary_padic_system):
    report = compare_mass_and_box(binary_padic_system, Fraction(0),
                                  node_budget=10**6)
    assert report.box_fit.slope == pytest.approx(1.0, abs=1e-12)
    assert report.mass_fit.slope == pytest.approx(0.9946562139296281)
    assert report.difference <= 0.02


def test_compare_needs_fixed_point_seed(binary_padic_system):
    with pytest.raises(DomainError, match="fixed point"):
        compare_mass_and_box(binary_padic_system, Fraction(7),
                             node_budget=10**6)
