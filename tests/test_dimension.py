import contextlib
import math
import os
import random
import threading
import time
import tracemalloc
import warnings
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rifslab import dimension, pool
from rifslab import (
    BudgetExceededError,
    CountingProfile,
    DomainError,
    attractor_box_counts,
    counting_profile,
    density_profile,
    dual_attractor_hull,
    enumerate_orbit,
    estimate_beurling_dimension,
    estimate_box_dimension,
    estimate_discrete_hausdorff,
    estimate_mass_dimension,
    integerize,
    make_system,
    renewal_constant,
    residual_points,
    solve_similarity_dimension,
    window_density_sup,
)
from _oracles import (box_count_cut_set, box_count_cylinders,
                      contracted_hull, density_scans,
                      fraction_renewal_constant)

LOG2_3 = math.log(2) / math.log(3)


# --------------------------------------------------------------------------
# similarity dimension


def test_similarity_cantor():
    sol = solve_similarity_dimension([Fraction(3), Fraction(3)])
    assert abs(sol.value - LOG2_3) <= 1e-9
    assert sol.residual <= 1e-12


def test_similarity_exact_one():
    for ratios in ([Fraction(2), Fraction(2)],
                   [Fraction(2), Fraction(4), Fraction(4)]):
        sol = solve_similarity_dimension(ratios)
        assert abs(sol.value - 1.0) <= 1e-12
        assert sol.residual <= 1e-12


def test_similarity_root_is_unique_zero():
    # the defining sum is strictly decreasing in s, so checking the
    # residual at the returned point certifies the root
    for ratios in ([Fraction(2), Fraction(3)],
                   [Fraction(-2), Fraction(5, 2), Fraction(7)],
                   [Fraction(10), Fraction(10), Fraction(10)]):
        sol = solve_similarity_dimension(ratios)
        excess = math.fsum(abs(float(r)) ** -sol.value for r in ratios) - 1.0
        assert abs(excess) <= 1e-12


def test_similarity_mixed_signs_use_magnitudes():
    plus = solve_similarity_dimension([Fraction(3), Fraction(3)])
    minus = solve_similarity_dimension([Fraction(-3), Fraction(3)])
    assert plus.value == minus.value


def test_similarity_rejects_weak_ratios():
    from rifslab import ConfigError
    with pytest.raises(ConfigError, match="exceed 1"):
        solve_similarity_dimension([Fraction(1), Fraction(3)])
    with pytest.raises(ConfigError, match="at least 2"):
        solve_similarity_dimension([])


def test_similarity_refuses_a_ratio_binary64_rounds_to_one():
    # |r| > 1 exactly, so the system is valid, but float(r) == 1.0
    r = Fraction(10**20 + 1, 10**20)
    with pytest.raises(DomainError, match="binary64 cannot tell it from 1"):
        solve_similarity_dimension([r, Fraction(3)])


# --------------------------------------------------------------------------
# mass and window fits


def test_mass_fit_exact_on_cantor(cantor_sample):
    grid = [Fraction(3) ** k for k in range(1, 16)]
    profile = counting_profile(cantor_sample, grid)
    fit = estimate_mass_dimension(profile, window=(7, 15))
    # N(3^k) = 2^k makes every pointwise exponent equal to log2/log3
    assert fit.slope == pytest.approx(LOG2_3, abs=1e-12)
    assert fit.lower == pytest.approx(LOG2_3, abs=1e-12)
    assert fit.upper == pytest.approx(LOG2_3, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_mass_fit_window_bounds(cantor_sample):
    grid = [Fraction(3) ** k for k in range(1, 16)]
    profile = counting_profile(cantor_sample, grid)
    fit = estimate_mass_dimension(profile, window=(7, 15))
    assert fit.window == (float(3**8), float(3**15))


def test_mass_fit_rejects_tiny_h(cantor_sample):
    profile = counting_profile(cantor_sample, [Fraction(1), Fraction(3)])
    with pytest.raises(DomainError, match="h >= 2"):
        estimate_mass_dimension(profile)


def test_mass_fit_rejects_empty_counts(cantor_system):
    sample = enumerate_orbit(cantor_system, 1, Fraction(9))
    profile = counting_profile(sample, [Fraction(2), Fraction(9)])
    with pytest.raises(DomainError, match="positive counts"):
        estimate_mass_dimension(profile)


def test_beurling_at_least_mass(cantor_sample):
    grid = [Fraction(3) ** k for k in range(1, 16)]
    profile = counting_profile(cantor_sample, grid)
    mass = estimate_mass_dimension(profile, window=(7, 15))
    beurling = estimate_beurling_dimension(cantor_sample, grid, window=(7, 15))
    # window maxima dominate central counts pointwise, hence so do the
    # pointwise exponents; the fitted slopes need not be ordered
    assert beurling.lower >= mass.lower - 1e-12
    assert beurling.upper >= mass.upper - 1e-12
    assert beurling.slope == pytest.approx(LOG2_3, abs=1e-3)


def test_fit_needs_two_entries(cantor_sample):
    profile = counting_profile(cantor_sample, [Fraction(9)])
    with pytest.raises(DomainError, match="at least 2"):
        estimate_mass_dimension(profile)


# --------------------------------------------------------------------------
# discrete Hausdorff table


def test_dhd_estimates_frozen(cantor_system):
    sample = enumerate_orbit(cantor_system, 0, Fraction(3) ** 11)
    points, scale = integerize(sample)
    assert scale == 1
    alphas = [round(0.1 * i, 12) for i in range(1, 13)]
    report = estimate_discrete_hausdorff(points, alphas, range(0, 19),
                                         tau=0.05)
    assert report.dim_estimate == pytest.approx(0.9)
    assert report.decay_estimate == pytest.approx(1.0)
    assert len(report.rows) == 12 * 19


def test_dhd_costs_monotone_in_alpha(cantor_system):
    # (len/2^n)^alpha falls as alpha grows, term by term, so the minima do
    sample = enumerate_orbit(cantor_system, 0, Fraction(3) ** 8)
    points, _ = integerize(sample)
    report = estimate_discrete_hausdorff(points, [0.4, 0.7, 1.0],
                                         range(0, 9))
    for lo_a, hi_a in ((0.4, 0.7), (0.7, 1.0)):
        lo_costs = report.costs(lo_a)
        hi_costs = report.costs(hi_a)
        assert all(h <= l + 1e-12 for l, h in zip(lo_costs, hi_costs))


def test_dhd_partial_sums_accumulate(cantor_system):
    sample = enumerate_orbit(cantor_system, 0, Fraction(3) ** 8)
    points, _ = integerize(sample)
    report = estimate_discrete_hausdorff(points, [0.5], range(0, 9))
    sums = report.partial_sums(0.5)
    costs = report.costs(0.5)
    assert sums[0] == pytest.approx(costs[0])
    for i in range(1, len(sums)):
        assert sums[i] == pytest.approx(sums[i - 1] + costs[i])


def test_dhd_empty_reports_zero():
    report = estimate_discrete_hausdorff([], [0.5], range(0, 7))
    assert report.dim_estimate == 0.0
    assert report.decay_estimate == 0.0


def test_dhd_needs_six_exponents():
    with pytest.raises(DomainError, match="6"):
        estimate_discrete_hausdorff([1], [0.5], range(0, 5))


def test_integerize_scales_by_lcm():
    points, scale = integerize([Fraction(1, 2), Fraction(1, 3), Fraction(2)])
    assert scale == 6
    assert points == [2, 3, 12]


# --------------------------------------------------------------------------
# attractor hull and box counts


def test_hull_cantor(cantor_system):
    assert dual_attractor_hull(cantor_system) == (Fraction(-1), Fraction(0))


def test_hull_binary_system():
    system = make_system([(Fraction(2), Fraction(0)), (Fraction(2), Fraction(1))])
    assert dual_attractor_hull(system) == (Fraction(-1), Fraction(0))


def test_hull_degenerate_origin():
    system = make_system([(Fraction(2), Fraction(0)), (Fraction(4), Fraction(0))])
    assert dual_attractor_hull(system) == (Fraction(0), Fraction(0))


def test_hull_invariance_random():
    rng = random.Random(31)
    # integer ratios, rational ones, and ratios near 1, whose duals
    # contract slowly
    ratios = [Fraction(r) for r in (-4, -3, -2, 2, 3, 4)] + [
        Fraction(9, 8), Fraction(-11, 10), Fraction(5, 2), Fraction(-7, 3)]
    built = 0
    while built < 60:
        try:
            system = make_system([
                (rng.choice(ratios),
                 Fraction(rng.randint(-6, 6), rng.randint(1, 3)))
                for _ in range(rng.randint(2, 4))])
        except Exception:
            continue
        built += 1
        u, v = dual_attractor_hull(system)
        duals = system.dual_maps()
        images = [d(x) for d in duals for x in (u, v)]
        # the hull is the unique interval mapped onto its own extremes
        assert min(images) == u
        assert max(images) == v


def test_hull_endpoint_off_every_short_cycle():
    # -10/11 = g_2(7) with g_2 the inverse of the second map; it is the
    # fixed point of no one- or two-map cycle of the inverse family
    system = make_system([(-4, 10), (Fraction(-11, 10), 6), (2, -7)])
    assert dual_attractor_hull(system) == (Fraction(-10, 11), Fraction(7))
    assert contracted_hull(system) == (Fraction(-10, 11), Fraction(7))


HULL_RATIOS = [Fraction(r) for r in (-4, -3, -2, 2, 3, 4)] + [
    Fraction(9, 8), Fraction(-11, 10), Fraction(5, 2), Fraction(-7, 3)]


@given(maps=st.lists(
    st.tuples(st.sampled_from(HULL_RATIOS),
              st.fractions(min_value=-6, max_value=6, max_denominator=3)),
    min_size=2, max_size=4, unique=True))
def test_hull_matches_contraction_oracle(maps):
    system = make_system(maps)
    assert dual_attractor_hull(system) == contracted_hull(system)


def test_box_counts_cantor_exact(cantor_system):
    box = attractor_box_counts(cantor_system, 12)
    assert box.counts == tuple(2**k for k in range(1, 13))
    assert box.delta == 3


def test_box_counts_match_cylinder_oracle(cantor_system):
    for k in range(1, 9):
        assert box_count_cylinders(cantor_system, k) == \
            attractor_box_counts(cantor_system, k).counts[-1]


def test_box_counts_match_cylinder_oracle_other_digits():
    for digits in ((0, 1), (0, 1, 2)):
        system = make_system([(Fraction(3), Fraction(d)) for d in digits])
        box = attractor_box_counts(system, 8)
        for i, k in enumerate(box.ks):
            assert box.counts[i] == box_count_cylinders(system, k)


def test_box_dimension_fit_cantor(cantor_system):
    box = attractor_box_counts(cantor_system, 12)
    fit = estimate_box_dimension(box)
    assert fit.slope == pytest.approx(LOG2_3, abs=1e-12)


def test_box_counts_budget(cantor_system):
    from rifslab import BudgetExceededError
    with pytest.raises(BudgetExceededError):
        attractor_box_counts(cantor_system, 40, word_budget=10_000)


@pytest.mark.parametrize("delta, budget, match", [
    # the cut set at delta = 9 may hold 2.46e6 words, far beyond the budget
    (9, 1000, "may hold"),
    # the cut set may hold 2,416.9 words, so the walk may push twice as
    # many; it pushes 2,884, but the budget must cover the bound
    (None, 4833, "may push 4.83e"),
])
def test_box_counts_budget_bounds_the_walk(renewal_system, delta, budget,
                                           match):
    with pytest.raises(BudgetExceededError, match=match):
        attractor_box_counts(renewal_system, 8, delta=delta,
                             word_budget=budget)


def test_box_counts_budget_counts_visited_words(renewal_system):
    # the least budget that passes the pre-check, 4,834, is never
    # exhausted by the walk
    box = attractor_box_counts(renewal_system, 8, word_budget=4834)
    assert box.counts == tuple(box_count_cut_set(renewal_system, k)
                               for k in box.ks)


@contextlib.contextmanager
def split_walk(workers):
    """Split every box walk across `workers` processes, however small."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dimension, "_SPLIT_PUSHES", 0)
        mp.setattr(pool, "workers", lambda: workers)
        yield


@pytest.mark.parametrize("maps", [
    # first-level images overlap: each level counts a cell set
    [(3, 0), (3, 1), (3, 3)],
    [(3, 0), (3, 3), (3, 4)],
    # orientation reverses: children are walked right to left
    [(-2, 0), (3, 1)],
    [(-3, 0), (-3, 2)],
    # the images touch at an endpoint
    [(2, 0), (2, 1)],
    [(2, 0), (3, 1)],
    # non-integer ratios, one reversing
    [(Fraction(5, 2), 0), (Fraction(-7, 3), 1)],
])
def test_box_counts_sweep_and_cell_sets_match_cut_set_oracle(maps):
    system = make_system([(Fraction(r), Fraction(b)) for r, b in maps])
    expected = tuple(box_count_cut_set(system, k) for k in range(1, 9))
    for workers in (1, 3):
        with split_walk(workers):
            assert attractor_box_counts(system, 8).counts == expected


def test_box_counts_hold_no_cell_sets(renewal_system):
    tracemalloc.start()
    try:
        attractor_box_counts(renewal_system, 9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


RATIOS = [Fraction(r) for r in (2, -2, 3, -3, 4, -4)] + [Fraction(5, 2),
                                                         Fraction(-7, 3)]
OFFSETS = st.fractions(min_value=-3, max_value=3, max_denominator=5)
MAX_CUT_WORDS = 5000


@given(maps=st.lists(st.tuples(st.sampled_from(RATIOS), OFFSETS),
                     min_size=2, max_size=3, unique=True),
       delta=st.one_of(st.none(),
                       st.fractions(min_value=Fraction(5, 4), max_value=4,
                                    max_denominator=4)),
       k_max=st.integers(1, 6), workers=st.integers(2, 4))
@settings(deadline=None)
def test_box_counts_match_cut_set_oracle(maps, delta, k_max, workers):
    # RATIOS has P < 0 orderings, 5/2 and -7/3, and OFFSETS makes both
    # disjoint first-level images (sweep) and overlapping ones (cell sets);
    # the walk is split however small it is, and must equal the serial one
    system = make_system(maps)
    s = solve_similarity_dimension([r for r, _ in maps]).value
    scale = float(system.max_ratio_mag if delta is None else delta)
    # keep the Fraction oracle cheap: at most MAX_CUT_WORDS cut words
    while k_max > 1 and (scale**k_max * float(system.max_ratio_mag))**s \
            > MAX_CUT_WORDS:
        k_max -= 1
    with split_walk(workers):
        box = attractor_box_counts(system, k_max, delta=delta)
    assert box.counts == tuple(box_count_cut_set(system, k, delta)
                               for k in box.ks)
    with split_walk(1):
        assert attractor_box_counts(system, k_max, delta=delta) == box


def test_split_box_walk_pushes_the_serial_words(renewal_system):
    for workers in (1, 2, 3):
        with split_walk(workers):
            assert attractor_box_counts(renewal_system, 8).words_pushed == 2884


def test_split_box_walk_deals_the_same_subtrees_on_any_cpu_count(
        renewal_system, monkeypatch):
    dealt = []
    run = pool.run

    def counted(tasks):
        dealt.append(len(tasks))
        return run(tasks)

    monkeypatch.setattr(pool, "run", counted)
    for workers in (1, 2, 3):
        with split_walk(workers):
            attractor_box_counts(renewal_system, 8)
    assert len(dealt) == 3 and dealt[0] > 3
    assert dealt[0] == dealt[1] == dealt[2]


def test_split_box_walk_reaps_its_children(renewal_system, count_forks,
                                           assert_no_child_left):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with split_walk(4):
            box = attractor_box_counts(renewal_system, 8)
    assert len(count_forks) == 3
    assert box.counts == tuple(box_count_cut_set(renewal_system, k)
                               for k in box.ks)
    assert_no_child_left()


def test_split_box_walk_raises_a_childs_error(renewal_system, monkeypatch,
                                              tmp_path, assert_no_child_left):
    parent = os.getpid()
    walk = dimension._box_walk
    ran = tmp_path / "ran_in_a_child"

    def over_budget_in_children(*args):
        if os.getpid() != parent:
            ran.touch()
            raise BudgetExceededError("box counting walked more than 7 words")
        if args[-1] is None:
            # a queued subtree: hold it here until a child has taken one
            wait_for(ran.exists)
        return walk(*args)

    monkeypatch.setattr(dimension, "_box_walk", over_budget_in_children)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with split_walk(3), pytest.raises(BudgetExceededError,
                                          match="more than 7 words"):
            attractor_box_counts(renewal_system, 8)
    assert_no_child_left()


def wait_for(condition, seconds=60):
    deadline = time.monotonic() + seconds
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.01)


def open_descriptors():
    if not os.path.isdir("/proc/self/fd"):
        pytest.skip("no /proc/self/fd to count descriptors in")
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_forked_tasks_return_in_task_order(workers, count_forks, monkeypatch,
                                           assert_no_child_left):
    monkeypatch.setattr(pool, "workers", lambda: workers)
    before = open_descriptors()
    results = pool.run([partial(pow, i, 2) for i in range(7)])
    assert results == [i * i for i in range(7)]
    assert len(count_forks) == workers - 1
    assert open_descriptors() == before
    assert_no_child_left()


def test_forked_tasks_go_to_whichever_process_is_free(tmp_path, count_forks,
                                                      monkeypatch,
                                                      assert_no_child_left):
    # the first task waits for every other one: it returns only if the
    # other process takes them all from the queue
    done = [tmp_path / str(i) for i in range(1, 6)]

    def first():
        wait_for(lambda: all(path.exists() for path in done))
        return os.getpid()

    def other(path):
        path.touch()
        return os.getpid()

    monkeypatch.setattr(pool, "workers", lambda: 2)
    pids = pool.run([first] + [partial(other, path) for path in done])
    assert len(count_forks) == 1
    assert set(pids) == {os.getpid(), *count_forks}
    assert pids[0] not in pids[1:]
    assert len(set(pids[1:])) == 1
    assert_no_child_left()


def test_forked_tasks_past_the_queue_pipe_size(count_forks, monkeypatch,
                                               assert_no_child_left):
    # far more tasks than one-byte queue items can name
    tasks = [partial(int, i) for i in range(40_000)]
    monkeypatch.setattr(pool, "workers", lambda: 3)
    assert pool.run(tasks) == list(range(40_000))
    assert len(count_forks) == 2
    assert_no_child_left()


def test_forked_tasks_raise_a_childs_error(tmp_path, count_forks, monkeypatch,
                                           assert_no_child_left):
    parent = os.getpid()
    ran = tmp_path / "ran_in_a_child"

    def failing_in_children():
        if os.getpid() != parent:
            ran.touch()
            raise ZeroDivisionError("task failed in a child")
        # hold this process's task until a child has taken one
        wait_for(ran.exists)

    monkeypatch.setattr(pool, "workers", lambda: 2)
    before = open_descriptors()
    with pytest.raises(ZeroDivisionError, match="failed in a child"):
        pool.run([failing_in_children] * 4)
    assert len(count_forks) == 1
    assert open_descriptors() == before
    assert_no_child_left()


def test_box_walk_is_serial_on_one_cpu_or_without_fork(
        renewal_system, monkeypatch, assert_no_child_left):
    expected = attractor_box_counts(renewal_system, 8)
    monkeypatch.setattr(dimension, "_SPLIT_PUSHES", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert pool.workers() == 1
    assert attractor_box_counts(renewal_system, 8) == expected
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert pool.workers() == 2
    # a forked child of a threaded process may deadlock: no fork then
    release = threading.Event()
    waiting = threading.Thread(target=release.wait)
    waiting.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert pool.workers() == 1
            assert attractor_box_counts(renewal_system, 8) == expected
    finally:
        release.set()
        waiting.join()
    assert_no_child_left()
    monkeypatch.delattr(os, "fork")
    assert pool.workers() == 1
    assert attractor_box_counts(renewal_system, 8) == expected


# --------------------------------------------------------------------------
# density and renewal


def test_density_tail_extrema_no_period(cantor_system):
    sample = enumerate_orbit(cantor_system, 0, Fraction(3) ** 10)
    grid = [Fraction(3) ** k for k in range(1, 11)]
    profile = counting_profile(sample, grid)
    report = density_profile(profile, LOG2_3)
    # N(3^k)/3^{ks} = 1 at every grid point
    assert report.sup_tail == pytest.approx(1.0, abs=1e-12)
    assert report.defect is None
    # between 3^k and 3^{k+1} the normalized count dips to 2^k/3^{(k+1)s}
    assert report.inf_tail == pytest.approx(0.5, abs=1e-12)


def test_density_periodic_fold(cantor_system):
    sample = enumerate_orbit(cantor_system, 0, Fraction(3) ** 10)
    pts = sample.points
    top = Fraction(3) ** 10
    grid = set()
    for t in range(3):
        lo = top / Fraction(3) ** (t + 1)
        for i in range(40):
            grid.add(lo + (i + 1) * lo * 2 / 40)
        grid.add(lo)
    jumps = {x for x in pts if top / 27 <= x <= top}
    grid |= jumps
    grid |= {3 * x for x in jumps if top / 9 <= x <= top / 3}
    profile = counting_profile(sample, sorted(grid))
    report = density_profile(profile, LOG2_3, period_ratio=Fraction(3))
    assert report.defect is not None
    # at this radius each matched pair can differ by one point in ~2^7
    assert report.defect <= 1e-2
    assert report.sup_tail == pytest.approx(1.0, abs=1e-3)
    assert report.sup_tail >= 1.0
    assert report.inf_tail == pytest.approx(2**-LOG2_3, rel=5e-3)
    assert all(0.0 <= phase < 1.0 for _, phase, _ in report.samples)


def test_density_profile_rejects_sparse_grid(cantor_system):
    sample = enumerate_orbit(cantor_system, 0, Fraction(3) ** 6)
    profile = counting_profile(sample, [Fraction(3) ** k for k in range(1, 7)])
    with pytest.raises(DomainError, match="sparse"):
        density_profile(profile, LOG2_3, period_ratio=Fraction(3))


def test_density_profile_rejects_short_span(cantor_system):
    sample = enumerate_orbit(cantor_system, 0, Fraction(3) ** 6)
    grid = [Fraction(3) ** 5 + k for k in range(100)]
    profile = counting_profile(sample, grid)
    with pytest.raises(DomainError, match="period"):
        density_profile(profile, LOG2_3, period_ratio=Fraction(3))


@given(ratio=st.sampled_from([Fraction(2), Fraction(3), Fraction(5, 2)]),
       base=st.lists(st.fractions(min_value=Fraction(1, 6), max_value=40,
                                  max_denominator=6),
                     min_size=2, max_size=60, unique=True),
       folded=st.lists(st.booleans(), max_size=60),
       edges=st.booleans(),
       periods=st.integers(min_value=1, max_value=3),
       s=st.floats(min_value=0.2, max_value=1.0),
       stretch=st.sampled_from([1, 7]))
def test_density_profile_matches_scans(ratio, base, folded, edges, periods,
                                       s, stretch):
    # some h come with ratio * h, so the defect fold finds matches, and
    # edges puts the period ends h_max / ratio**t on the grid; stretch
    # puts the profile on a finer lattice than its grid needs
    grid = set(base) | {ratio * h for h, f in zip(base, folded) if f}
    if edges:
        grid |= {max(grid) / ratio**t for t in range(1, periods + 1)}
    grid = sorted(grid)
    entries = tuple((h, i + 1) for i, h in enumerate(grid))
    per_period, sup_tail, inf_tail, defect, matched = density_scans(
        entries, s, ratio, periods)
    scale = stretch * math.lcm(*(h.denominator for h in grid))
    profile = CountingProfile([int(h * scale) for h in grid], scale,
                              [n for _, n in entries])
    assert profile.entries == entries
    if grid[0] > grid[-1] / ratio**periods:
        with pytest.raises(DomainError, match="span"):
            density_profile(profile, s, ratio, periods)
        return
    report = density_profile(profile, s, ratio, periods,
                             min(per_period + [matched]))
    assert (report.sup_tail, report.inf_tail) == (sup_tail, inf_tail)
    assert report.defect == defect
    assert report.tail_window == (float(grid[-1] / ratio), float(grid[-1]))
    assert [x for x, _, _ in report.samples] == [float(h) for h in grid]
    sparsest = min(per_period)
    with pytest.raises(DomainError, match=f"holds {sparsest} < "):
        density_profile(profile, s, ratio, periods, sparsest + 1)
    if matched < sparsest:
        with pytest.raises(DomainError, match=f"only {matched} values"):
            density_profile(profile, s, ratio, periods, matched + 1)


def test_window_density_sup_matches_scan(cantor_system):
    sample = enumerate_orbit(cantor_system, 0, Fraction(3) ** 8)
    lo, hi = Fraction(10), Fraction(3) ** 8
    value = window_density_sup(sample, LOG2_3, lo, hi)
    # dense rational scan can only do worse or equal
    rng = random.Random(3)
    best = 0.0
    for _ in range(4000):
        h = Fraction(rng.randint(10 * 64, 3**8 * 64), 64)
        best = max(best, sample.count_within(h) / float(h) ** LOG2_3)
    assert value >= best - 1e-12
    # the sup sits at h = 26, the closed ball holding 0,2,6,8,18,20,24,26
    assert value == pytest.approx(8.0 / 26.0**LOG2_3, abs=1e-12)


def test_window_density_sup_guards(cantor_system):
    sample = enumerate_orbit(cantor_system, 0, Fraction(27))
    with pytest.raises(DomainError, match="0 < lo < hi"):
        window_density_sup(sample, LOG2_3, Fraction(5), Fraction(5))
    with pytest.raises(DomainError, match="radius"):
        window_density_sup(sample, LOG2_3, Fraction(5), Fraction(28))


def test_renewal_rejects_degenerate():
    system = make_system([(Fraction(2), Fraction(0)), (Fraction(4), Fraction(0))])
    sample = enumerate_orbit(system, 1, Fraction(2) ** 12)
    with pytest.raises(DomainError, match="degenerate"):
        renewal_constant(system, sample, [], 0.5, Fraction(100))


def test_renewal_demands_radius(renewal_system):
    sample = enumerate_orbit(renewal_system, 5, Fraction(100))
    with pytest.raises(DomainError, match="radius"):
        renewal_constant(renewal_system, sample, [], 0.78, Fraction(100))


def test_renewal_value_reasonable(renewal_system):
    s = solve_similarity_dimension([m.ratio for m in renewal_system.maps]).value
    sample = enumerate_orbit(renewal_system, 5, Fraction(10) ** 4)
    residuals = residual_points(sample)
    estimate = renewal_constant(renewal_system, sample, residuals, s,
                                Fraction(1000))
    empirical = sample.count_within(Fraction(10) ** 4) / float(10**4) ** s
    assert estimate.value == pytest.approx(empirical, rel=0.2)
    assert estimate.tail_bound > 0
    assert estimate.cutoff == 1000.0


@pytest.mark.parametrize("maps, seed", [
    # the mixed-ratio and rational-wide benchmark systems
    ([(2, 0), (3, 1)], 5),
    ([(Fraction(5, 2), 0), (Fraction(5, 2), 1)], 0),
])
def test_renewal_sums_on_the_lattice_match_fraction_oracle(maps, seed):
    system = make_system([(Fraction(r), Fraction(b)) for r, b in maps])
    s = solve_similarity_dimension([m.ratio for m in system.maps]).value
    cutoff = Fraction(10) ** 4
    sample = enumerate_orbit(system, seed, 3 * cutoff + 1)
    residuals = residual_points(sample)
    assert renewal_constant(system, sample, residuals, s, cutoff) == \
        fraction_renewal_constant(system, sample, residuals, s, cutoff)
