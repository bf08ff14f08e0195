from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from rifslab import (
    BudgetExceededError,
    DomainError,
    OrbitSample,
    counting_profile,
    enumerate_orbit,
    integerize,
    make_system,
    min_gap,
    overlap_probe,
    residual_points,
    window_max_count,
    write_orbit_dump,
)
from _oracles import (brute_orbit, digit_numbers, fraction_orbit,
                      fraction_overlap_probe, truncated_orbit,
                      window_max_brute)
from rifslab.systems import AffineMap


def test_matches_unpruned_search(cantor_system):
    radius = Fraction(3) ** 6
    expected, saturated = brute_orbit(cantor_system, 0, radius, depth=8)
    assert saturated
    sample = enumerate_orbit(cantor_system, 0, radius)
    assert sample.complete
    assert sample.points == expected


def test_matches_unpruned_search_mixed(renewal_system):
    radius = Fraction(500)
    expected, saturated = brute_orbit(renewal_system, 5, radius, depth=12)
    assert saturated
    sample = enumerate_orbit(renewal_system, 5, radius)
    assert sample.complete
    assert sample.points == expected


def test_matches_unpruned_search_negative_ratio():
    system = make_system([(Fraction(-2), Fraction(1)), (Fraction(3), Fraction(0))])
    expected, saturated = brute_orbit(system, 1, 300, depth=12)
    assert saturated
    sample = enumerate_orbit(system, 1, 300)
    assert sample.complete
    assert sample.points == expected


def test_matches_unpruned_search_rational_data():
    system = make_system([(Fraction(5, 2), Fraction(1, 3)),
                          (Fraction(3), Fraction(-1))])
    expected, saturated = brute_orbit(system, Fraction(1, 2), 80, depth=14)
    assert saturated
    sample = enumerate_orbit(system, Fraction(1, 2), 80)
    assert sample.complete
    assert sample.points == expected


def test_counts_match_digit_characterization(cantor_sample):
    # orbit of 0 under {3x, 3x+2} = base-3 numbers over digits {0, 2}
    for k in range(1, 16):
        assert (cantor_sample.count_within(Fraction(3) ** k)
                == len(digit_numbers(3, (0, 2), k)) == 2**k)


def test_seed_not_auto_included():
    system = make_system([(Fraction(3), Fraction(1)), (Fraction(3), Fraction(2))])
    sample = enumerate_orbit(system, 0, 50)
    # 0 is the seed but no composition returns to it
    assert Fraction(0) not in sample
    assert Fraction(1) in sample and Fraction(2) in sample


def test_fixed_seed_is_its_own_image(cantor_sample):
    assert Fraction(0) in cantor_sample


RATIOS = [Fraction(r) for r in (2, -2, 3, -3)] + [Fraction(5, 2),
                                                 Fraction(-7, 3)]
RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@given(maps=st.lists(st.tuples(st.sampled_from(RATIOS), RATIONALS),
                     min_size=2, max_size=3, unique=True),
       seed=RATIONALS,
       radius=st.fractions(min_value=3, max_value=60, max_denominator=4))
def test_walk_matches_unpruned_search(maps, seed, radius):
    # one integer walk serves both kinds of ratio: with a non-integer
    # ratio it refines its lattice as images need it
    system = make_system(maps)
    # radius >= escape radius: a layer of the unpruned search that lands
    # wholly outside the radius can never lead back inside, so a
    # saturated search is the whole orbit in the window
    assert radius >= system.escape_radius
    expected, saturated = brute_orbit(system, seed, radius,
                                      depth=12 if len(maps) == 2 else 8)
    assume(saturated)
    sample = enumerate_orbit(system, seed, radius)
    assert sample.complete
    assert sample.points == expected


def orbit_fields(sample):
    return (sample.lattice, sample.scale, sample.complete,
            sample.node_budget_used)


FRACTIONAL_RATIOS = [sign * r for sign in (1, -1) for r in (
    Fraction(3, 2), Fraction(5, 2), Fraction(4, 3), Fraction(7, 3),
    Fraction(5, 4), Fraction(9, 4))]


@given(maps=st.lists(st.tuples(st.sampled_from(FRACTIONAL_RATIOS),
                               RATIONALS),
                     min_size=2, max_size=3, unique=True),
       seed=RATIONALS,
       radius=st.fractions(min_value=1, max_value=60, max_denominator=4),
       budget=st.integers(min_value=1, max_value=400))
def test_walk_matches_fraction_walk(maps, seed, radius, budget):
    # budgets this small cut most of these walks, so partial samples are
    # compared too: same points, same scale, same flag, same node count
    system = make_system(maps)
    sample = enumerate_orbit(system, seed, radius, node_budget=budget)
    assert orbit_fields(sample) == fraction_orbit(system, seed, radius,
                                                  budget)


def test_walk_refines_scale_with_points_queued():
    # seed 0 under {(5/2)x, (5/2)x + 1}: the image 5/2 of 1 moves the
    # walk to scale 2 with nothing queued, then the image 25/4 of 5/2
    # moves it to scale 4 while 7/2 (held as 7) is still queued; the
    # budget of 8 ends the walk before scale 8
    system = make_system([(Fraction(5, 2), 0), (Fraction(5, 2), 1)])
    sample = enumerate_orbit(system, 0, 40, node_budget=8)
    assert orbit_fields(sample) == (
        [0, 4, 10, 14, 25, 29, 35, 39], 4, False, 8)
    assert orbit_fields(sample) == fraction_orbit(system, 0, 40, 8)


def test_budget_exhaustion_is_partial_not_error(cantor_system):
    full = enumerate_orbit(cantor_system, 0, Fraction(3) ** 8)
    partial = enumerate_orbit(cantor_system, 0, Fraction(3) ** 8,
                              node_budget=20)
    assert not partial.complete
    assert partial.node_budget_used <= 20
    assert set(partial.points) <= set(full.points)


def test_rejects_bad_radius(cantor_system):
    with pytest.raises(DomainError):
        enumerate_orbit(cantor_system, 0, 0)
    with pytest.raises(DomainError):
        enumerate_orbit(cantor_system, 0, -3)


def test_counting_profile_values(cantor_sample):
    grid = [Fraction(3) ** k for k in range(1, 16)]
    profile = counting_profile(cantor_sample, grid)
    assert [n for _, n in profile.entries] == [2**k for k in range(1, 16)]


def test_counting_profile_rejects_bad_grid(cantor_sample):
    with pytest.raises(DomainError):
        counting_profile(cantor_sample, [Fraction(3), Fraction(3)])
    with pytest.raises(DomainError):
        counting_profile(cantor_sample, [Fraction(9), Fraction(3)])
    with pytest.raises(DomainError):
        counting_profile(cantor_sample, [Fraction(3) ** 20])
    with pytest.raises(DomainError):
        counting_profile(cantor_sample, [])


def test_window_max_count_beats_central_count(cantor_system):
    sample = enumerate_orbit(cantor_system, 0, Fraction(3) ** 7)
    pts = sample.points
    for h in (Fraction(1), Fraction(4), Fraction(27), Fraction(100)):
        count, center = window_max_count(sample, h)
        # oracle: sliding a window whose left edge touches each point
        best = max(sum(1 for q in pts if p <= q <= p + 2 * h) for p in pts)
        assert count == best
        assert center is not None
        assert sum(1 for q in pts if center - h <= q <= center + h) == count


def test_window_max_respects_radius(cantor_system):
    sample = enumerate_orbit(cantor_system, 0, Fraction(9))
    count, center = window_max_count(sample, Fraction(9))
    # the window must stay inside the verified radius
    assert center + 9 <= sample.radius
    assert count == sample.count_within(9) == 4


@given(points=st.lists(st.fractions(min_value=-1, max_value=1,
                                    max_denominator=8),
                       max_size=30, unique=True),
       radius=st.fractions(min_value=1, max_value=40, max_denominator=3),
       share=st.one_of(
           st.sampled_from([Fraction(1), Fraction(99, 100), Fraction(1, 2)]),
           st.fractions(min_value=Fraction(1, 50), max_value=1,
                        max_denominator=50)))
def test_window_max_matches_brute_force(points, radius, share):
    # windows of half-width h = share * radius, up to the whole radius,
    # so many scans end in the flush window [radius - 2h, radius]
    lattice, scale = integerize([x * radius for x in points])
    sample = OrbitSample(system=make_system([(2, 0), (2, 1)]), seed=Fraction(0),
                         radius=radius, lattice=lattice, scale=scale,
                         complete=True, node_budget_used=0)
    assert window_max_count(sample, share * radius) == window_max_brute(
        sample, share * radius)


def test_min_gap_frozen(renewal_system):
    sample = enumerate_orbit(renewal_system, 0, 1000)
    assert sample.complete
    assert len(sample.points) == 174
    assert sample.points[:6] == [0, 1, 2, 4, 7, 8]
    assert min_gap(sample) == 1


def test_min_gap_empty_and_single(cantor_system):
    sample = enumerate_orbit(cantor_system, 1, Fraction(2))
    # orbit of 1 starts at 3, outside radius 2
    assert sample.points == []
    assert min_gap(sample) is None


def test_overlap_probe_orbit_sizes(cantor_system):
    # compositions of length 0..depth, so the seed itself belongs
    o1 = {Fraction(1), Fraction(3), Fraction(5)}
    o2 = o1 | {Fraction(9), Fraction(11), Fraction(15), Fraction(17)}
    assert truncated_orbit(cantor_system, 1, 1) == o1
    assert truncated_orbit(cantor_system, 1, 2) == o2
    matrices = overlap_probe(cantor_system, 1, (1, 2))
    assert [m.truncated_orbit_size for m in matrices] == [len(o1), len(o2)]


def test_overlap_probe_budget(cantor_system):
    # every depth is checked before the walk, so depth 2, which fits,
    # is not walked either
    with pytest.raises(BudgetExceededError,
                       match="depth 30 needs up to 2147483646 nodes, "
                             "budget is 100"):
        overlap_probe(cantor_system, 1, (2, 30), node_budget=100)


def test_overlap_probe_silent_for_separated(cantor_system):
    matrices = overlap_probe(cantor_system, 0, (2, 4, 6))
    assert [m.depth for m in matrices] == [2, 4, 6]
    assert all(m.max_offdiagonal == 0 for m in matrices)
    assert matrices[0].cell(1, 2) == 0


def test_overlap_probe_grows_for_degenerate():
    system = make_system([(Fraction(2), Fraction(0)), (Fraction(4), Fraction(0))])
    matrices = overlap_probe(system, 1, (2, 4, 6))
    values = [m.max_offdiagonal for m in matrices]
    assert values[0] > 0
    assert values == sorted(values)


PROBE_RATIOS = RATIOS + FRACTIONAL_RATIOS


@given(maps=st.lists(st.tuples(st.sampled_from(PROBE_RATIOS),
                               st.one_of(st.integers(-3, 3).map(Fraction),
                                         RATIONALS)),
                     min_size=2, max_size=3, unique=True),
       seed=RATIONALS,
       depths=st.lists(st.integers(1, 6), min_size=1, max_size=3))
def test_overlap_probe_matches_fraction_probe(maps, seed, depths):
    # small integer offsets under one shared ratio make overlapping
    # systems such as {3x, 3x+1, 3x+3} common among the examples
    system = make_system(maps)
    probe = overlap_probe(system, seed, depths)
    assert ([(m.depth, m.truncated_orbit_size, m.cells) for m in probe]
            == fraction_overlap_probe(system, seed, depths))


def test_overlap_probe_builds_no_affine_values(monkeypatch):
    system = make_system([(Fraction(5, 2), Fraction(1, 3)),
                          (Fraction(-7, 3), 0), (Fraction(5, 2), 1)])
    expected = fraction_overlap_probe(system, Fraction(1, 2), (2, 4, 6))

    def refuse(*args):
        raise AssertionError("AffineMap used by the probe walk")

    monkeypatch.setattr(AffineMap, "__call__", refuse)
    monkeypatch.setattr(AffineMap, "after", refuse)
    probe = overlap_probe(system, Fraction(1, 2), (2, 4, 6))
    assert [(m.depth, m.truncated_orbit_size, m.cells)
            for m in probe] == expected


def test_residual_points_frozen(cantor_system):
    seeded = enumerate_orbit(cantor_system, 1, Fraction(3) ** 6)
    assert residual_points(seeded) == [3, 5]
    from_zero = enumerate_orbit(cantor_system, 0, Fraction(3) ** 6)
    assert residual_points(from_zero) == []


def test_residual_points_subset_of_seed_images(renewal_system):
    sample = enumerate_orbit(renewal_system, 5, Fraction(10) ** 4)
    images = {m(Fraction(5)) for m in renewal_system.maps}
    assert set(residual_points(sample)) <= images


def test_residual_points_demands_radius(cantor_system):
    small = enumerate_orbit(cantor_system, 1, Fraction(4))
    with pytest.raises(DomainError, match="radius"):
        residual_points(small)


def test_orbit_dump_format(tmp_path, cantor_system):
    sample = enumerate_orbit(cantor_system, 0, Fraction(30))
    path = tmp_path / "orbit.txt"
    write_orbit_dump(sample, path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# system=")
    assert lines[1] == "# seed=0"
    assert lines[2] == "# radius=30"
    assert lines[3] == "# complete=true"
    assert lines[4:] == ["0", "2", "6", "8", "18", "20", "24", "26"]
