import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rifslab import pool
from rifslab import (DomainError, enumerate_orbit, estimate_discrete_hausdorff,
                     make_system, min_cover_cost)
from _oracles import (arbitrary_cover_min, consecutive_cover_min,
                      quadratic_cover_min)


def test_empty_set_costs_nothing():
    cc = min_cover_cost([], 0.5, 5)
    assert cc.cost == 0.0
    assert cc.optimal_partition == ()


def test_single_point():
    cc = min_cover_cost([3], 0.5, 5)
    assert cc.cost == (1 / 32) ** 0.5
    assert cc.optimal_partition == ((3, 3),)


def test_two_far_points_prefer_singletons():
    # alpha < 1 favors few blocks only when they are short
    cc = min_cover_cost([-10, 10], 0.5, 5)
    assert cc.optimal_partition == ((-10, -10), (10, 10))
    assert cc.cost == pytest.approx(2 * (1 / 32) ** 0.5)


def test_adjacent_points_merge():
    # one interval of length 2 costs (2/32)^0.5 < 2*(1/32)^0.5
    cc = min_cover_cost([4, 5], 0.5, 5)
    assert cc.optimal_partition == ((4, 5),)


def test_ties_prefer_fewer_intervals():
    # alpha = 1 makes {0}{1} and {0..1} both cost 2/32
    cc = min_cover_cost([0, 1], 1.0, 5)
    assert cc.cost == pytest.approx(2 / 32)
    assert cc.optimal_partition == ((0, 1),)


def test_rejects_points_outside_cube():
    with pytest.raises(DomainError, match="outside"):
        min_cover_cost([16], 0.5, 5)
    with pytest.raises(DomainError, match="outside"):
        min_cover_cost([-17], 0.5, 5)
    # half-open cube: -16 is inside, 16 is not
    assert min_cover_cost([-16, 15], 0.5, 5).cost > 0


def test_rejects_non_integer_points():
    # these used to be truncated: 1/2 covered as 0, {7/2, -1/3} as {3, 0}
    with pytest.raises(DomainError, match="must be integers"):
        min_cover_cost([Fraction(1, 2)], 1.0, 2)
    with pytest.raises(DomainError, match="must be integers"):
        estimate_discrete_hausdorff([Fraction(7, 2), Fraction(-1, 3)], [0.5],
                                    range(6))
    assert min_cover_cost([Fraction(2, 2)], 1.0, 2) == min_cover_cost([1], 1.0, 2)


def test_tabulated_cubes_are_half_open():
    points = list(range(-40, 41))
    report = estimate_discrete_hausdorff(points, [0.5], range(8))
    for alpha, n, cost, _ in report.rows:
        half = Fraction(2**n, 2)
        inside = [x for x in points if -half <= x < half]
        assert cost == min_cover_cost(inside, alpha, n).cost


def test_rejects_bad_parameters():
    with pytest.raises(DomainError):
        min_cover_cost([1], 0.0, 5)
    with pytest.raises(DomainError):
        min_cover_cost([1], -0.3, 5)
    with pytest.raises(DomainError):
        min_cover_cost([1], 0.5, -1)


def test_refuses_cubes_whose_side_overflows_a_float():
    # 2.0**1024 overflows; n = 1023 is the largest cube with a float side
    assert min_cover_cost([1], 0.5, 1023).cost == 2.0**-511.5
    with pytest.raises(DomainError, match="2.0\\*\\*1024 overflows"):
        min_cover_cost([1], 0.5, 1024)
    with pytest.raises(DomainError, match="2.0\\*\\*1030 overflows"):
        estimate_discrete_hausdorff([0, 1], [0.5], range(1020, 1031))


def test_matches_exhaustive_partition_search():
    rng = random.Random(1234)
    for trial in range(100):
        count = rng.randint(1, 10)
        points = rng.sample(range(-16, 16), count)
        for alpha in (0.3, 0.5, 1.0, 1.1, 1.5, 2.0):
            cc = min_cover_cost(points, alpha, 5)
            best, blocks = consecutive_cover_min(points, alpha, 5)
            assert cc.cost == pytest.approx(best, abs=1e-12), (points, alpha)
            assert len(cc.optimal_partition) == blocks, (points, alpha)


def test_partition_covers_and_prices_correctly():
    rng = random.Random(99)
    for _ in range(50):
        points = sorted(rng.sample(range(-16, 16), rng.randint(1, 8)))
        alpha = rng.choice((0.3, 0.5, 0.8, 1.0))
        cc = min_cover_cost(points, alpha, 5)
        covered = [p for a, b in cc.optimal_partition for p in points
                   if a <= p <= b]
        assert sorted(covered) == points
        priced = sum(((b - a + 1) / 32) ** alpha
                     for a, b in cc.optimal_partition)
        assert cc.cost == pytest.approx(priced, abs=1e-12)


def test_arbitrary_covers_never_beat_partitions():
    # small cube so the interval enumeration stays feasible
    rng = random.Random(7)
    for _ in range(12):
        points = sorted(rng.sample(range(-4, 4), rng.randint(1, 4)))
        for alpha in (0.4, 1.0):
            cc = min_cover_cost(points, alpha, 3)
            best = arbitrary_cover_min(points, alpha, 3,
                                       max_intervals=len(points))
            assert cc.cost <= best + 1e-12
            assert cc.cost == pytest.approx(best, abs=1e-9)


# the default config grid 0.1, 0.2, ..., 1.2 (1.0 exactly)
GRID_ALPHAS = [round(0.1 * a, 12) for a in range(1, 13)]


ANY_ALPHA = st.one_of(st.sampled_from(GRID_ALPHAS), st.floats(0.01, 0.99),
                      st.floats(1.01, 3.0))


@st.composite
def _cover_cases(draw, ns=st.integers(3, 14), alphas=ANY_ALPHA):
    """Up to 300 cube points drawn as dense runs, a periodic subset or a
    sparse random set, with alpha from the config grid or up to 3."""
    n = draw(ns)
    lo, hi = -(2**n // 2), 2**n // 2
    count = draw(st.integers(1, min(300, hi - lo)))
    kind = draw(st.sampled_from(["runs", "periodic", "sparse"]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    x = rng.randrange(lo, hi)
    if kind == "runs":
        points = []
        while len(points) < count and x < hi:
            length = rng.randint(1, 30)
            points += range(x, min(x + length, hi))
            x += length + rng.randint(1, 60)
    elif kind == "periodic":
        period = rng.randint(2, 40)
        residues = set(rng.sample(range(period), rng.randint(1, period)))
        points = [y for y in range(x, hi) if y % period in residues]
    else:
        points = rng.sample(range(lo, hi), count)
    alpha = draw(alphas)
    return points[:count], alpha, n


@settings(max_examples=300)
@given(_cover_cases())
def test_matches_quadratic_dp(case):
    points, alpha, n = case
    cc = min_cover_cost(points, alpha, n)
    cost, partition = quadratic_cover_min(points, alpha, n)
    assert cc.cost == cost
    assert cc.optimal_partition == partition
    if len(points) <= 10:
        best, blocks = consecutive_cover_min(points, alpha, n)
        assert cc.cost == best
        assert len(cc.optimal_partition) == blocks


def test_cover_cost_refuses_bad_alpha_points_and_fractions():
    with pytest.raises(DomainError, match="alpha must be positive"):
        min_cover_cost([0, 1], 0.0, 3)
    with pytest.raises(DomainError, match="point 4 outside the side-2"):
        min_cover_cost([-4, 0, 4], 0.5, 3)
    with pytest.raises(DomainError, match="must be integers"):
        min_cover_cost([Fraction(1, 2)], 0.5, 3)


def test_orbit_costs_match_quadratic_dp(renewal_system):
    sample = enumerate_orbit(renewal_system, 5, 2**13)
    report = estimate_discrete_hausdorff(sample.points, [0.3, 1.0, 1.2],
                                         range(15))
    for alpha, n, cost, _ in report.rows:
        half = Fraction(2**n, 2)
        inside = [x for x in sample.points if -half <= x < half]
        assert cost == quadratic_cover_min(inside, alpha, n)[0], (alpha, n)


# the report's largest cubes, n = 15..18, at the alphas whose DPs search
# crossovers most
REPORT_ALPHAS = [0.7, 0.8, 0.9]


@settings(max_examples=100)
@given(_cover_cases(ns=st.integers(15, 18),
                    alphas=st.sampled_from(REPORT_ALPHAS)))
def test_matches_quadratic_dp_at_report_cubes(case):
    points, alpha, n = case
    cc = min_cover_cost(points, alpha, n)
    assert (cc.cost, cc.optimal_partition) == quadratic_cover_min(points,
                                                                  alpha, n)


@pytest.mark.parametrize("maps, seed, radius", [
    ([(3, 0), (3, 2)], 0, 2**17),  # 384 to 1,280 points
    ([(2, 0), (3, 1)], 5, 2**14),  # 824 and 825 points
])
def test_orbit_costs_match_quadratic_dp_at_report_cubes(maps, seed, radius):
    system = make_system([(Fraction(r), Fraction(b)) for r, b in maps])
    points = enumerate_orbit(system, seed, radius).lattice
    for n in range(15, 19):
        half = 2**n // 2
        inside = [x for x in points if -half <= x < half]
        for alpha in REPORT_ALPHAS:
            cc = min_cover_cost(inside, alpha, n)
            assert (cc.cost, cc.optimal_partition) == quadratic_cover_min(
                inside, alpha, n), (alpha, n)


# --------------------------------------------------------------------------
# the cover-cost table in one process


def test_table_forks_nothing(renewal_system, monkeypatch, count_forks):
    points = enumerate_orbit(renewal_system, 5, 2**13).lattice
    cubes = [[x for x in points if -2**n <= 2 * x < 2**n] for n in range(15)]
    # the ten alphas <= 1 give DPs of 11,020 points in all
    assert sum(map(len, cubes)) * 10 == 11_020
    monkeypatch.setattr(pool, "workers", lambda: 3)
    report = estimate_discrete_hausdorff(points, GRID_ALPHAS, range(15))
    assert count_forks == []
    assert len(report.rows) == 12 * 15
    for alpha, n, cost, _ in report.rows:
        assert cost == min_cover_cost(cubes[n], alpha, n).cost, (alpha, n)
