import contextlib
import math
import os
import random
import threading
import time
import tracemalloc
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rifslab import dimension, pool
from rifslab.config import parse_config
from rifslab import (
    BudgetExceededError,
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
                      fraction_density_entries, fraction_renewal_constant)

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


def test_similarity_refuses_a_ratio_past_binary64():
    with pytest.raises(DomainError, match="past the binary64 range"):
        solve_similarity_dimension([Fraction(3), Fraction(-10**400)])


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
def memo_threshold(pushes):
    """Let every sweep word whose push bound is at most pushes read a
    box-walk memo instead of being walked: math.inf makes the empty word
    build one memo of the whole tree, and 0 builds none."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dimension, "_MEMO_PUSHES", pushes)
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
    assert attractor_box_counts(system, 8).counts == expected
    with memo_threshold(math.inf):
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
# the most grid phases of one level the exhaustive memo test walks
MAX_PHASES = 1000


@given(maps=st.lists(st.tuples(st.sampled_from(RATIOS), OFFSETS),
                     min_size=2, max_size=3, unique=True),
       delta=st.one_of(st.none(),
                       st.fractions(min_value=Fraction(5, 4), max_value=4,
                                    max_denominator=4)),
       k_max=st.integers(1, 6))
@settings(deadline=None)
def test_box_counts_match_cut_set_oracle(maps, delta, k_max):
    # RATIOS has P < 0 orderings, 5/2 and -7/3, and OFFSETS makes both
    # disjoint first-level images (sweep) and overlapping ones (cell sets);
    # a sweep keeps a memo however large its classes are, and must equal
    # the plain walk
    system = make_system(maps)
    s = solve_similarity_dimension([r for r, _ in maps]).value
    scale = float(system.max_ratio_mag if delta is None else delta)
    # keep the Fraction oracle cheap: at most MAX_CUT_WORDS cut words
    while k_max > 1 and (scale**k_max * float(system.max_ratio_mag))**s \
            > MAX_CUT_WORDS:
        k_max -= 1
    with memo_threshold(math.inf):
        box = attractor_box_counts(system, k_max, delta=delta)
    assert box.counts == tuple(box_count_cut_set(system, k, delta)
                               for k in box.ks)
    with memo_threshold(0):
        assert attractor_box_counts(system, k_max, delta=delta) == box


@given(maps=st.lists(st.tuples(st.sampled_from(RATIOS[:6]),
                               st.integers(-3, 3).map(Fraction)),
                     min_size=2, max_size=3, unique=True),
       k_max=st.integers(2, 7))
def test_memo_box_walk_matches_cut_set_oracle(maps, k_max):
    # integer ratios and offsets: equal ratios put many words in a class
    system = make_system(maps)
    s = solve_similarity_dimension([r for r, _ in maps]).value
    while k_max > 2 and (float(system.max_ratio_mag) ** (k_max + 1))**s \
            > MAX_CUT_WORDS:
        k_max -= 1
    with memo_threshold(math.inf):
        box = attractor_box_counts(system, k_max)
    assert box.counts == tuple(box_count_cut_set(system, k) for k in box.ks)
    with memo_threshold(0):
        assert attractor_box_counts(system, k_max) == box


def test_memo_box_walk_pushes_the_plain_walks_words(renewal_system):
    # a memo lookup counts the pushes its subtree made when it was built
    assert attractor_box_counts(renewal_system, 8).words_pushed == 2884
    with memo_threshold(math.inf):
        assert attractor_box_counts(renewal_system, 8).words_pushed == 2884


@pytest.mark.parametrize("maps, k_max", [
    ([(2, 0), (3, 1)], 12),
    ([(-2, 0), (3, 1)], 12),
    ([(3, 0), (3, 2)], 12),
    ([(4, -1), (-2, 4)], 10),
])
def test_memo_box_walk_equals_the_plain_walk(maps, k_max, monkeypatch):
    # at these sizes the default threshold builds a memo; with none, every
    # word is walked
    system = make_system([(Fraction(r), Fraction(b)) for r, b in maps])
    builds = []
    build = dimension._memo_build
    monkeypatch.setattr(dimension, "_memo_build",
                        lambda *args: builds.append(1) or build(*args))
    box = attractor_box_counts(system, k_max)
    assert len(builds) >= 1
    builds.clear()
    with memo_threshold(0):
        assert attractor_box_counts(system, k_max) == box
    assert builds == []


def test_box_walk_of_a_thousand_deep_words():
    # a sweep whose words grow by 201/200 until their expansion reaches
    # 201: about 1,063 maps deep, so nothing may recurse on word length,
    # and Q / |P| leaves the binary64 range
    system = make_system([(Fraction(201, 200), Fraction(0)),
                          (Fraction(201), Fraction(-200))])
    for pushes in (256, math.inf):
        with memo_threshold(pushes):
            box = attractor_box_counts(system, 1)
        assert (box.counts, box.words_pushed) == ((201,), 2128)


def test_box_walk_of_words_past_the_binary64_range():
    # |P| reaches 10**2200, so no float may hold |P| / Q or the push
    # bound's threshold: each level doubles the count
    system = make_system([(Fraction(10**200), Fraction(0)),
                          (Fraction(10**200), Fraction(1))])
    box = attractor_box_counts(system, 10)
    assert (box.counts, box.words_pushed) == (
        tuple(2**k for k in range(1, 11)), 2046)
    with memo_threshold(0):
        assert attractor_box_counts(system, 10) == box


def box_walk_work(system, k_max):
    """The box counts of system, the pushes of each memo's build, the
    pushes each memo lookup stands for, and the number of words the walk
    pops: the empty word, and every word pushed outside a memo's
    subtree."""
    built = {}
    lookups = []
    build = dimension._memo_build
    add = dimension._add_sweeps

    def counted_build(*args):
        steps, pushes = build(*args)
        built[id(steps)] = pushes
        return steps, pushes

    def counted_add(counts, last, k, steps, x):
        lookups.append(built[id(steps)])
        add(counts, last, k, steps, x)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dimension, "_memo_build", counted_build)
        mp.setattr(dimension, "_add_sweeps", counted_add)
        box = attractor_box_counts(system, k_max)
    popped = 1 + box.words_pushed - sum(lookups)
    return box, list(built.values()), lookups, popped


def test_memo_box_walk_work(renewal_system):
    # the mixed-ratio report's walk counts 541,704 pushes: 20 memos are
    # built with 4,498 pushes and read by 2,517 words, and the walk pops
    # 5,033 words, 2,517 of them to read a memo
    box, builds, lookups, popped = box_walk_work(renewal_system, 14)
    assert box.words_pushed == 541_704
    assert (len(builds), sum(builds), len(lookups), popped) == \
        (20, 4498, 2517, 5033)
    with memo_threshold(0):
        assert attractor_box_counts(renewal_system, 14) == box


def phase_sweeps(word, levels, push_rising, push_falling, ul, vl):
    """Per level from the word's own on, the number of cells its
    subtree's cut intervals cover, the least cell and the end cell, from
    one cell set per level; the offset e of the word (P, Q, e, k) may be
    a Fraction."""
    k_max = len(levels) - 2
    cells = {}
    stack = [word]
    while stack:
        p, q, e, k = stack.pop()
        lo, hi = sorted((Fraction(ul * q + e) / p, Fraction(vl * q + e) / p))
        while k <= k_max and abs(p) * levels[k][1] >= levels[k][0] * q:
            a_k, _, scale = levels[k]
            cells.setdefault(k, []).append((math.floor(lo * a_k / scale),
                                            math.ceil(hi * a_k / scale)))
            k += 1
        if k <= k_max:
            stack += [(p * pj, q * qj, pj * e - bq * q, k) for pj, qj, bq
                      in (push_rising if p > 0 else push_falling)]
    return {k: (len(set().union(*(range(c0, c1) for c0, c1 in spans))),
                min(c0 for c0, _ in spans), max(c1 for _, c1 in spans))
            for k, spans in cells.items()}


@pytest.mark.parametrize("maps", [
    [(2, 0), (3, 1)],
    [(-2, 0), (3, 1)],
    [(Fraction(5, 2), 0), (Fraction(-7, 3), 1)],
])
@pytest.mark.parametrize("delta", [None, Fraction(3, 2)])
def test_memo_steps_match_the_walk_at_every_phase(maps, delta, monkeypatch):
    # for the classes of the words up to three maps deep, at every residue
    # r of x a_j modulo N = |P| b_j span, the memo's count and end cell at
    # level j are those of a word at that phase, whose least cell is F of
    # F, r = divmod(x a_j, N)
    system = make_system([(Fraction(r), Fraction(b)) for r, b in maps])
    walks = []
    box_walk = dimension._box_walk
    monkeypatch.setattr(dimension, "_box_walk",
                        lambda *args: walks.append(args) or box_walk(*args))
    attractor_box_counts(system, 4, delta=delta)
    levels, push_rising, push_falling, ul, vl, sweep = walks[0][:6]
    assert sweep
    words = [(1, 1, 1)]
    for _ in range(3):
        words += [(p * pj, q * qj, k) for p, q, k in words
                  for pj, qj, _ in push_rising]
    phases = 0
    for p, q, k in set(words):
        while abs(p) * levels[k][1] >= levels[k][0] * q:
            k += 1
        mag = abs(p)
        # no leaves, and at most MAX_PHASES phases a level
        if k == len(levels) - 1 or mag * levels[-2][2] > MAX_PHASES:
            continue
        # the word at phase 0 of every level
        word = (p, q, -ul * q if p > 0 else -vl * q, k)
        steps, _ = dimension._memo_build(word, 0, levels, push_rising,
                                         push_falling, ul, vl)
        for j in range(k, len(levels) - 1):
            a_j, _, scale = levels[j]
            for r in range(mag * scale):
                # x a_j = r: the left end x, then the offset e
                x = Fraction(r, a_j)
                e = x - ul * q if p > 0 else -x - vl * q
                counts = [0] * len(levels)
                last = [-math.inf] * len(levels)
                dimension._add_sweeps(counts, last, k, steps, x)
                least = divmod(x * a_j, mag * scale)[0]
                want = phase_sweeps((p, q, e, k), levels, push_rising,
                                    push_falling, ul, vl)[j]
                assert (counts[j], least, last[j]) == want, (p, q, j, r)
                phases += 1
    assert phases > 100


def test_box_walk_forks_nothing(renewal_system, count_forks, monkeypatch):
    monkeypatch.setattr(pool, "workers", lambda: 3)
    for k_max in (8, 14):
        attractor_box_counts(renewal_system, k_max)
    assert count_forks == []


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


def append_line(path, i):
    # one short O_APPEND write per task, so processes never interleave
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(f"{i}\n")
    return i


@pytest.mark.parametrize("workers", [1, 3])
def test_forked_tasks_any_count_each_once(workers, tmp_path, count_forks,
                                          monkeypatch, assert_no_child_left):
    # 256 tasks get a queue byte each; past that a byte names a run of
    # consecutive tasks, and every task still runs once, in any process
    monkeypatch.setattr(pool, "workers", lambda: workers)
    for count in (256, 600):
        ran = tmp_path / f"ran{count}"
        tasks = [partial(append_line, ran, i) for i in range(count)]
        assert pool.run(tasks) == list(range(count))
        assert sorted(map(int, ran.read_text().split())) == list(range(count))
        assert len(count_forks) == workers - 1
        assert_no_child_left()
        count_forks.clear()


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


def test_pool_runs_serial_on_one_cpu_or_without_fork(monkeypatch,
                                                    count_forks):
    tasks = [partial(pow, i, 2) for i in range(5)]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert pool.workers() == 1
    assert pool.run(tasks) == [i * i for i in range(5)]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert pool.workers() == 2
    # a forked child of a threaded process may deadlock: no fork then
    release = threading.Event()
    waiting = threading.Thread(target=release.wait)
    waiting.start()
    try:
        assert pool.workers() == 1
        assert pool.run(tasks) == [i * i for i in range(5)]
    finally:
        release.set()
        waiting.join()
    assert count_forks == []
    monkeypatch.delattr(os, "fork")
    assert pool.workers() == 1
    assert pool.run(tasks) == [i * i for i in range(5)]


# --------------------------------------------------------------------------
# density and renewal


def test_density_tail_extrema_no_period(cantor_system):
    sample = enumerate_orbit(cantor_system, 0, Fraction(3) ** 10)
    grid = [Fraction(3) ** k for k in range(1, 11)]
    # max_jumps 0 keeps the grid to h_grid, where N(3^k)/3^{ks} = 1
    report = density_profile(sample, grid, LOG2_3, max_jumps=0)
    assert report.hs == [3.0**k for k in range(1, 11)]
    assert report.sup_tail == pytest.approx(1.0, abs=1e-12)
    assert report.defect is None
    # between 3^k and 3^{k+1} the normalized count dips to 2^k/3^{(k+1)s}
    assert report.inf_tail == pytest.approx(0.5, abs=1e-12)
    # with the jumps from 3 up, the tail is the merged grid's last 10
    # entries: 3^10 and the nine largest points, 3^10 - 1 = 2222222222
    # in base 3 down to 2222220222; N = 2^10 at the largest
    report = density_profile(sample, grid, LOG2_3)
    assert report.tail_window == (58994.0, 59049.0)
    assert report.sup_tail == 2**10 / 59048.0**LOG2_3


def test_density_periodic_fold(cantor_system):
    sample = enumerate_orbit(cantor_system, 0, Fraction(3) ** 10)
    grid = [Fraction(3) ** k for k in range(1, 11)]
    report = density_profile(sample, grid, LOG2_3, Fraction(3))
    assert report.defect is not None
    # at this radius each matched pair can differ by one point in ~2^7
    assert report.defect <= 1e-2
    assert report.sup_tail == pytest.approx(1.0, abs=1e-3)
    assert report.sup_tail >= 1.0
    assert report.inf_tail == pytest.approx(2**-LOG2_3, rel=5e-3)
    assert all(0.0 <= phase < 1.0 for phase in report.phases)


@settings(max_examples=80, deadline=None)
@given(ratio=st.sampled_from([Fraction(2), Fraction(3), Fraction(5, 2),
                              Fraction(7, 3)]),
       signs=st.tuples(st.sampled_from([1, -1]), st.sampled_from([1, -1])),
       offsets=st.lists(st.fractions(min_value=-3, max_value=3,
                                     max_denominator=4),
                        min_size=2, max_size=2, unique=True),
       seed=st.fractions(min_value=-3, max_value=3, max_denominator=4),
       kmax=st.integers(min_value=3, max_value=6),
       max_jumps=st.sampled_from([0, 5, 200_000]),
       s=st.floats(min_value=0.2, max_value=1.0))
def test_density_profile_matches_scans(ratio, signs, offsets, seed, kmax,
                                       max_jumps, s):
    # one ratio magnitude, so the profile folds by it; max_jumps 0 and 5
    # keep only the fill on most samples
    cfg = parse_config({
        "maps": [{"r": str(sign * ratio), "b": str(b)}
                 for sign, b in zip(signs, offsets)],
        "seed": str(seed), "grid": {"base": str(ratio), "kmax": kmax}})
    sample = enumerate_orbit(cfg.system, cfg.seed, cfg.radius,
                             node_budget=20_000)
    assume(sample.complete)
    period = dimension.density_ratio(cfg.system, cfg.density_period)
    assert period == ratio
    report = density_profile(sample, cfg.h_grid(), s, period,
                             max_jumps=max_jumps)
    entries = fraction_density_entries(cfg, sample.points, period,
                                       max_jumps=max_jumps)
    per_period, sup_tail, inf_tail, defect, matched = density_scans(
        entries, s, period, 3)
    top = entries[-1][0]
    assert (report.sup_tail, report.inf_tail, report.defect,
            report.tail_window) == (sup_tail, inf_tail, defect,
                                    (float(top / period), float(top)))
    assert report.hs == [float(h) for h, _ in entries]
    # the refusals the fill made unreachable: each period holds the 40
    # fill steps, and every entry of the middle period has its fold
    assert min(per_period) >= 40
    assert matched == sum(1 for h, _ in entries
                          if top / period**2 <= h <= top / period)


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


@pytest.mark.parametrize("ratio", [Fraction(3), None])
def test_density_grid_refuses_grid_past_radius(cantor_system, ratio):
    # a sample of radius 3^6 holds 64 of the orbit's 512 points in
    # [-3^9, 3^9], so its counts past the radius are not the orbit's
    sample = enumerate_orbit(cantor_system, 0, Fraction(3) ** 6)
    h_grid = [Fraction(3) ** k for k in range(1, 10)]
    with pytest.raises(DomainError,
                       match="counting needs radius >= 19683, sample has 729"):
        density_profile(sample, h_grid, LOG2_3, ratio)
    report = density_profile(sample, h_grid[:6], LOG2_3, ratio)
    assert sample.count_within(h_grid[5]) == 64
    assert report.values[-1] == 64 / 729.0**LOG2_3


def test_density_profile_refusals(cantor_system):
    sample = enumerate_orbit(cantor_system, 0, Fraction(3) ** 6)
    with pytest.raises(DomainError, match="period ratio must exceed 1"):
        density_profile(sample, [Fraction(3), Fraction(9)], LOG2_3,
                        Fraction(1))
    # one h-grid value and no jumps leave one grid entry
    with pytest.raises(DomainError, match="at least 2 entries"):
        density_profile(sample, [Fraction(9)], LOG2_3, max_jumps=0)


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
