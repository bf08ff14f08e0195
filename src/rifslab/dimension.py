"""Dimension estimators and density diagnostics.

Counting data comes in exact (rational grid points, integer counts); every
estimator in this module converts to binary64 at the last moment and says
so.  The cover-cost dynamic program and the attractor box counter are the
two pieces with real algorithmic content; the rest is careful bookkeeping
around log-log fits.
"""

from __future__ import annotations

import math
import operator
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import accumulate, chain, islice

from .errors import (DEFAULT_NODE_BUDGET, BudgetExceededError, ConfigError,
                     DomainError)
from .orbit import (CountingProfile, LatticePoints, OrbitSample,
                    residual_radius, window_max_count)
from .rational import format_rational, on_lattice
from .systems import Rifs, common_fixed_point, fixed_point


# ---------------------------------------------------------------------------
# similarity dimension


@dataclass(frozen=True)
class SimilaritySolution:
    value: float
    residual: float
    iterations: int


_MAX_BISECTIONS = 200


def solve_similarity_dimension(ratios,
                               tolerance: float = 1e-12) -> SimilaritySolution:
    """Solve sum |r_i|**(-s) = 1 by bisection.

    The left side is strictly decreasing in s, equals m >= 2 at s = 0 and
    tends to 0, so the root is unique.  Stops when the residual drops to
    the tolerance or after _MAX_BISECTIONS steps.  A ratio of magnitude
    above 1 that binary64 rounds to 1, or past its range, is refused as a
    DomainError.
    """
    ratios = list(ratios)
    if len(ratios) < 2:
        raise ConfigError("need at least 2 ratios")
    if any(abs(r) <= 1 for r in ratios):
        raise ConfigError("ratio magnitude must exceed 1")
    try:
        mags = [abs(float(r)) for r in ratios]
    except OverflowError:
        raise DomainError(f"ratio {max(ratios, key=abs)} is past the "
                          "binary64 range") from None
    if 1.0 in mags:
        raise DomainError(f"ratio {ratios[mags.index(1.0)]} exceeds 1 in "
                          "magnitude, but binary64 cannot tell it from 1")

    def excess(s: float) -> float:
        return math.fsum(r**-s for r in mags) - 1.0

    lo = 0.0
    hi = 1.0
    while excess(hi) > 0:
        hi *= 2.0
    if abs(excess(hi)) <= tolerance:
        return SimilaritySolution(hi, abs(excess(hi)), 0)
    iterations = 0
    best = hi
    best_res = abs(excess(hi))
    while iterations < _MAX_BISECTIONS:
        mid = 0.5 * (lo + hi)
        res = excess(mid)
        iterations += 1
        if abs(res) < best_res:
            best, best_res = mid, abs(res)
        if abs(res) <= tolerance:
            return SimilaritySolution(mid, abs(res), iterations)
        # monotonicity guard: the bracket must stay a sign change
        if res > 0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 0.0:
            break
    return SimilaritySolution(best, best_res, iterations)


# ---------------------------------------------------------------------------
# log-log fits


@dataclass(frozen=True)
class DimensionFit:
    lower: float
    upper: float
    slope: float
    window: tuple[float, float]
    r_squared: float


def _linfit(xs, ys) -> tuple[float, float, float]:
    n = len(xs)
    mean_x = math.fsum(xs) / n
    mean_y = math.fsum(ys) / n
    sxx = math.fsum((x - mean_x) ** 2 for x in xs)
    if sxx == 0.0:
        raise DomainError("fit needs at least two distinct abscissae")
    sxy = math.fsum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    ss_tot = math.fsum((y - mean_y) ** 2 for y in ys)
    ss_res = math.fsum((y - intercept - slope * x) ** 2 for x, y in zip(xs, ys))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return slope, intercept, r2


def _loglog_fit(xs, ys, window: tuple[float, float]) -> DimensionFit:
    """Least-squares slope of ys against xs, both already logarithms, with
    the range of the pointwise exponents y/x as lower/upper envelope."""
    slope, _, r2 = _linfit(xs, ys)
    ratios = [y / x for x, y in zip(xs, ys)]
    return DimensionFit(lower=min(ratios), upper=max(ratios), slope=slope,
                        window=window, r_squared=r2)


def _fit_window(entries, window):
    if window is None:
        window = (0, len(entries))
    start, stop = window
    chosen = entries[start:stop]
    if len(chosen) < 2:
        raise DomainError("fit window must contain at least 2 entries")
    return chosen


# the last grid entries a fit reads; a density profile without a period adds
# jumps from h_grid's last values and reads its tail from the merged grid's
_TAIL_WIDTH = 10


def tail_window(length: int) -> tuple[int, int]:
    """The fit window of the last _TAIL_WIDTH of length entries."""
    return (max(0, length - _TAIL_WIDTH), length)


def estimate_mass_dimension(profile: CountingProfile,
                            window: tuple[int, int] | None = None) -> DimensionFit:
    """Least-squares slope of log N(h) against log h, with the pointwise
    exponent range as lower/upper envelope.

    Every window entry needs h >= 2 and a positive count.
    """
    chosen = _fit_window(profile.entries, window)
    for h, n in chosen:
        if h < 2:
            raise DomainError("mass fit needs h >= 2")
        if n < 1:
            raise DomainError(
                f"mass fit needs positive counts, N({format_rational(h)}) = 0")
    return _loglog_fit([math.log(float(h)) for h, _ in chosen],
                       [math.log(n) for _, n in chosen],
                       (float(chosen[0][0]), float(chosen[-1][0])))


def estimate_beurling_dimension(sample: OrbitSample, h_grid,
                                window: tuple[int, int] | None = None) -> DimensionFit:
    """Same fit applied to the sliding-window maxima instead of central
    counts: log of max #(orbit in [x-h, x+h]) against log h, scanned for
    the grid values inside the fit window only."""
    chosen = _fit_window([Fraction(h) for h in h_grid], window)
    if min(chosen) < 2:
        raise DomainError("window fit needs h >= 2")
    counts = [window_max_count(sample, h)[0] for h in chosen]
    if min(counts) < 1:
        raise DomainError("window fit needs a nonempty sample")
    return _loglog_fit([math.log(float(h)) for h in chosen],
                       [math.log(n) for n in counts],
                       (float(chosen[0]), float(chosen[-1])))


# ---------------------------------------------------------------------------
# cover costs on integer cubes


@dataclass(frozen=True)
class CoverCost:
    alpha: float
    n: int
    cost: float
    optimal_partition: tuple[tuple[int, int], ...]


def _cube(n: int) -> tuple[int, int]:
    """Integer bounds lo <= x < hi of the half-open side-2**n cube
    [-2**n / 2, 2**n / 2) centred at 0."""
    return -(2**n // 2), (2**n + 1) // 2


def _integer_points(points) -> list[int]:
    """The distinct points, sorted; points that are not all integers are
    refused rather than truncated.  A strictly increasing list of ints,
    such as a sample's lattice, is returned as it is, not copied, and
    must not be mutated."""
    if isinstance(points, (list, tuple)) and {*map(type, points)} <= {int}:
        if isinstance(points, list) and all(
                map(operator.lt, points, islice(points, 1, None))):
            return points
        return sorted(set(points))
    ints, scale = integerize(points)
    if scale != 1:
        raise DomainError(
            f"points must be integers, their common denominator is {scale}")
    return sorted(set(ints))


def _check_cube_exponent(n: int) -> None:
    if n < 0:
        raise DomainError("cube exponent must be >= 0")
    if n >= sys.float_info.max_exp:
        raise DomainError(f"cube exponent must be below "
                          f"{sys.float_info.max_exp}: 2.0**{n} overflows")


def min_cover_cost(points, alpha: float, n: int) -> CoverCost:
    """Minimal cost sum((interval length)/2**n)**alpha of covering the
    points with integer intervals, in O(k log k) for k points.

    An optimal cover may be taken to partition the points into runs of
    consecutive members (shrinking an interval to the minimal one through
    its points never raises cost, and overlapping intervals only add), so
    a dynamic program over prefixes is exact: the cost of the first i
    points is the least, over the first point j of the last run, of the
    cost of the first j - 1 points plus the run's weight
    w(x_i - x_j + 1) = ((x_i - x_j + 1)/2**n)**alpha.  Candidate starts
    are ordered by (total, number of runs, later start): ties go to the
    partition with fewer intervals, then to the shorter last run.

    This is a least-weight subsequence problem (Hirschberg and Larmore,
    SIAM J. Comput. 16, 1987; Galil and Giancarlo, TCS 64, 1989), with two
    weight regimes:

    - alpha <= 1: w is concave, so a start that overtakes a later start
      stays ahead for every longer prefix.  Live starts sit on a stack,
      newest on top, each best for the prefixes up to a binary-searched
      crossover with the start below it.  A stack entry is the tuple
      (start, first point it is best for, cost of the points before the
      start, x_start - 1, runs before the start), so a comparison reads
      only the entry and the prefix's last point.
    - alpha > 1: w is convex with w(0) = 0, hence superadditive, and
      w(s) > s*w(1) for s > 1: the newest start overtakes every older one
      at once and for good, so the Monge deque of this case never holds
      more than one start and every run is a single point.

    The cost and partition are those of the quadratic scan over every
    start, bit for bit, wherever the float comparisons agree with the real
    ones the argument above uses: every total is the same float
    expression cost[j - 1] + w, and the order above is the scan's.

    - alpha <= 1: every total is below 2 (one run over all points costs
      at most 1), so it is within about 2**-51 of its real value, and the
      real difference of two starts moves by at least
      alpha*(1 - alpha)/4**n from one prefix to the next.  For n <= 18
      that margin exceeds the rounding unless alpha is within about 2e-4
      of 0 or 1.  At alpha = 1 all the arithmetic is exact.
    - alpha > 1: a single point beats a longer last run by at least
      (2**alpha - 2)*w(1).  While w(1) = (2**-n)**alpha is a normal float
      (n*alpha <= 1022), every total is within a relative k*2**-53 of its
      real value, so the margin holds unless alpha is within about
      k**2 * 2**-53 of 1.  A subnormal or zero w(1) breaks this: weights
      round to multiples of 2**-1074, and the scan may join points into
      runs at the same float cost or a few 2**-1074 less (at n = 1023, ten
      points give ten singletons where it gives 7 runs for alpha = 1.05,
      both at 5e-323).  The singletons stay optimal for the real weights.

    A run is priced ((right - x + 1) * 2**-n)**alpha, the scan's
    ((right - x + 1) / 2.0**n)**alpha bit for bit: Python rounds the int
    length to the same float in both, 2**-n is exact for every n the cube
    check allows (2**-1023 is subnormal, but a power of two), and so the
    product and the quotient are both the correctly rounded value of one
    real number, subnormal or not.
    """
    if alpha <= 0:
        raise DomainError("alpha must be positive")
    _check_cube_exponent(n)
    lo, hi = _cube(n)
    pts = _integer_points(points)
    if pts and not lo <= pts[0] <= pts[-1] < hi:
        p = pts[0] if pts[0] < lo else pts[bisect_left(pts, hi)]
        raise DomainError(
            f"point {p} outside the side-2^{n} cube centred at 0")
    inv = math.ldexp(1.0, -n)  # 2**-n, exact
    single = inv ** alpha  # w(1)
    if alpha > 1:
        total = 0.0
        # in order, as the scan adds: sum() compensates from Python 3.12
        for _ in pts:
            total += single
        return CoverCost(alpha=alpha, n=n, cost=total,
                         optimal_partition=tuple(zip(pts, pts)))
    k = len(pts)
    # choice[i]: the index of the first point of the last run of prefix
    # i + 1; prior and runs: the cost and run count of prefix i
    choice = list(range(k))
    prior = 0.0
    runs = 0
    # (start, first index it is best for, cost before it, pts[start] - 1,
    # runs before it); down the stack the starts get older and their first
    # indices later
    stack = []
    pop = stack.pop
    for i, x in enumerate(pts):
        while len(stack) > 1 and stack[-2][1] <= i:
            pop()
        total = prior + single
        if stack:
            # the top is best at i, with the total it gives prefix i + 1;
            # a start i behind it never catches up
            j, _, cost_j, before_j, runs_j = stack[-1]
            total_j = cost_j + ((x - before_j) * inv) ** alpha
            if total_j < total or (total_j == total and runs_j < runs):
                prior = total_j
                runs = runs_j + 1
                choice[i] = j
                continue
            # the new start i is the later one, so it wins a tie of totals
            # and runs: pop the starts it is ahead of at their last index,
            # and binary-search the crossover with the first it is not
            before = x - 1
            while stack:
                j, _, cost_j, before_j, runs_j = stack[-1]
                end = stack[-2][1] - 1 if len(stack) > 1 else k - 1
                right = pts[end]
                mine = prior + ((right - before) * inv) ** alpha
                theirs = cost_j + ((right - before_j) * inv) ** alpha
                if mine > theirs or (mine == theirs and runs > runs_j):
                    lo, hi = i + 1, end
                    while lo < hi:
                        mid = (lo + hi) // 2
                        right = pts[mid]
                        mine = prior + ((right - before) * inv) ** alpha
                        theirs = cost_j + ((right - before_j) * inv) ** alpha
                        if mine < theirs or (mine == theirs
                                             and runs <= runs_j):
                            lo = mid + 1
                        else:
                            hi = mid
                    stack[-1] = (j, lo, cost_j, before_j, runs_j)
                    break
                pop()
        stack.append((i, i, prior, x - 1, runs))
        prior = total
        runs += 1
    partition = []
    i = k - 1
    while i >= 0:
        j = choice[i]
        partition.append((pts[j], pts[i]))
        i = j - 1
    partition.reverse()
    return CoverCost(alpha=alpha, n=n, cost=prior,
                     optimal_partition=tuple(partition))


@dataclass(frozen=True)
class DiscreteHausdorffReport:
    """Finite-scale summability diagnostics for a set of integers.

    rows hold (alpha, n, cover cost, partial sum over the n range so far).
    dim_estimate is the smallest grid alpha whose last few costs all sit
    below tau (the partial sums have stopped moving at resolution tau);
    decay_estimate additionally demands those costs be nonincreasing.
    Both are resolution-limited readings, not limits.
    """

    dim_estimate: float | None
    decay_estimate: float | None
    alpha_grid: tuple[float, ...]
    n_values: tuple[int, ...]
    rows: tuple[tuple[float, int, float, float], ...]

    def costs(self, alpha: float) -> list[float]:
        return [cost for a, _, cost, _ in self.rows if a == alpha]

    def partial_sums(self, alpha: float) -> list[float]:
        return [p for a, _, _, p in self.rows if a == alpha]


_STABILIZATION_TERMS = 4  # the last costs each estimate reads


def estimate_discrete_hausdorff(points, alpha_grid, n_values,
                                tau: float = 0.05) -> DiscreteHausdorffReport:
    """Tabulate cover costs over growing cubes and read off the two
    finite-scale dimension estimates.

    Needs at least 6 cube sizes so the stabilization window means
    something.  The empty set reports 0 for both estimates.

    Each cube's points are sliced once, and every cost is that of
    min_cover_cost, called once per (alpha, n) in this process: the table
    never forks.
    """
    n_values = sorted(set(int(n) for n in n_values))
    if len(n_values) < 6:
        raise DomainError("need at least 6 cube exponents")
    _check_cube_exponent(n_values[0])
    _check_cube_exponent(n_values[-1])
    alpha_grid = tuple(float(a) for a in alpha_grid)
    if not alpha_grid or any(a <= 0 for a in alpha_grid):
        raise DomainError("alpha grid must be positive")
    if list(alpha_grid) != sorted(alpha_grid):
        raise DomainError("alpha grid must be ascending")
    pts = _integer_points(points)

    slices = [pts[bisect_left(pts, lo):bisect_left(pts, hi)]
              for lo, hi in map(_cube, n_values)]
    rows = []
    tail = {}
    for alpha in alpha_grid:
        costs = [min_cover_cost(inside, alpha, n).cost
                 for inside, n in zip(slices, n_values)]
        rows += [(alpha, n, cost, running) for n, cost, running
                 in zip(n_values, costs, accumulate(costs))]
        tail[alpha] = costs[-_STABILIZATION_TERMS:]

    if not pts:
        return DiscreteHausdorffReport(0.0, 0.0, alpha_grid, tuple(n_values),
                                       tuple(rows))

    dim_estimate = None
    decay_estimate = None
    for alpha in alpha_grid:
        last = tail[alpha]
        if dim_estimate is None and all(c < tau for c in last):
            dim_estimate = alpha
        if decay_estimate is None and all(c < tau for c in last) and all(
                b <= a for a, b in zip(last, last[1:])):
            decay_estimate = alpha
        if dim_estimate is not None and decay_estimate is not None:
            break
    return DiscreteHausdorffReport(dim_estimate, decay_estimate, alpha_grid,
                                   tuple(n_values), tuple(rows))


def integerize(points) -> tuple[list[int], int]:
    """Scale rationals onto the integers by the lcm of their denominators.

    Accepts a sample on the integer lattice (an OrbitSample or a
    PAdicAttractorSample), whose own lattice and scale are returned and
    must not be mutated, or any iterable of rationals; returns the sorted
    integers a and the scale L, with x = a / L for every point.
    """
    if isinstance(points, LatticePoints):
        return points.lattice, points.scale
    ints, scale = on_lattice(points)
    return sorted(ints), scale


# ---------------------------------------------------------------------------
# box counts of the inverse-family attractor


def dual_attractor_hull(system: Rifs) -> tuple[Fraction, Fraction]:
    """Exact convex hull [u, v] of the attractor A of the inverse family.

    A = union of g_i(A) over the dual maps g_i, so u = min A is g_i(u) or
    g_i(v) for some i, and v = max A is g_j(v) or g_j(u) for some j.
    In the four cases u is a fixed point of g_i, an image g_i(fix g_j),
    or the fixed point of g_i o g_j (when v = g_j(u)), and likewise for
    v.  Each of those candidates lies in A, so u and v are the least and
    the greatest of them, all exact rationals.
    """
    duals = system.dual_maps()
    fixed = [fixed_point(g) for g in duals]
    candidates = (fixed + [g(x) for g in duals for x in fixed]
                  + [fixed_point(g.after(h)) for g in duals for h in duals])
    return min(candidates), max(candidates)


# A sweep word whose push bound is at most this reads a memo.  Box walks of
# {2x, 3x+1} at k_max 14, 2-core Xeon VM, Python 3.11, best of 9: 128 took
# 0.039 s with a 62 KB tracemalloc peak, 256 took 0.030 s with 100 KB, 512
# took 0.027 s with 171 KB, 1024 took 0.028 s with 296 KB, and the walk
# without a memo 0.40 s.
_MEMO_PUSHES = 256


@dataclass(frozen=True)
class BoxCounts:
    delta: Fraction
    hull: tuple[Fraction, Fraction]
    ks: tuple[int, ...]
    counts: tuple[int, ...]
    words_pushed: int


def attractor_box_counts(system: Rifs, k_max: int, delta=None,
                         word_budget: int = DEFAULT_NODE_BUDGET) -> BoxCounts:
    """Grid-cell counts of the inverse-family attractor at scales
    delta**-k, for k = 1..k_max.

    Words are grown until their expansion first reaches delta**k; the
    corresponding inverse compositions map the hull [u, v] onto intervals
    no longer than the cell side (v - u) / delta**k, and cells
    [j * side, (j + 1) * side) overlapping those intervals on a set of
    positive length are counted.

    The walk is exact and runs on integers.  With r_j = p_j / q_j, b_j the
    offsets and L**-1 Z the lattice of the offsets and of u and v
    (`Rifs.on_lattice`), the inverse composition of a word w is
    g_w(x) = (x + e / (Q L)) / (P / Q), held as the triple (P, Q, e);
    appending map j gives (P p_j, Q q_j, p_j e - b_j L q_j Q).

    One depth-first walk serves every level: a word adds its interval to
    each level whose cut set it belongs to, and is expanded while some
    level is left.  Children are visited left to right, so when the
    first-level images g_j([u, v]) are pairwise interior-disjoint every
    level's intervals arrive sorted and its count is a running sweep;
    when they overlap each level collects its cells in a set.

    Every cut word at level k expands by less than delta**k * max|r|, and
    the cut words' expansions satisfy sum |R_w|**-s = 1 with s the
    similarity dimension, so the level-k_max cut set holds fewer than
    B = (delta**k_max * max|r|)**s words.  They are the leaves of the
    walk's m-ary tree, which thus pushes fewer than m B / (m - 1) words;
    that bound is checked against word_budget before walking, and the
    pushes are counted against the same budget as the walk goes.

    A sweep reads small subtrees from a memo by grid phase.  A word's
    descendants add P_w e to their offsets, so every word of one class
    (P, Q, first level k not yet cut at) has the same subtree up to a
    translation: its cells at level j >= k are those of the class's word
    at phase r moved by F cells, where F, r = divmod(x a_j, |P| b_j span)
    for the word's left end x.  A class's sweep at level j, its count and
    end cell less F, is thus a step function of r, and its first cell is
    F.  A sweep word whose push bound (delta**k_max max|r| Q / |P|)**s is
    at most _MEMO_PUSHES is not walked: the first word of its class walks
    the subtree once and stores those step functions (`_memo_build`), and
    every word of the class reads its sweep with one divmod and one
    bisection per level.  The bound is one threshold on |P| / Q, compared
    in integers.  The counts and words_pushed are those of the walk
    without a memo.
    """
    if k_max < 1:
        raise DomainError("k_max must be >= 1")
    if delta is None:
        delta = system.max_ratio_mag
    delta = Fraction(delta)
    if delta <= 1:
        raise DomainError("delta must exceed 1")
    s = solve_similarity_dimension([m.ratio for m in system.maps]).value
    log_bound = s * (k_max * math.log(delta) + math.log(system.max_ratio_mag))
    bound = math.exp(min(log_bound, 700.0))  # exp overflows past ~709
    pushes = bound * system.m / (system.m - 1)
    if pushes > word_budget:
        raise BudgetExceededError(
            f"cut set at k={k_max} may hold {bound:.3g} words, so the walk "
            f"may push {pushes:.3g}, budget is {word_budget}")

    u, v = dual_attractor_hull(system)
    ks = tuple(range(1, k_max + 1))
    if u == v:
        return BoxCounts(delta=delta, hull=(u, v), ks=ks, counts=(1,) * k_max,
                         words_pushed=0)
    # on the lattice L**-1 Z of the offsets and the hull, u = ul / L,
    # v = vl / L, and the cell side is (vl - ul) / (L delta**k)
    _, maps, (ul, vl) = system.on_lattice(u, v)
    gens = [(p, q, bl * q) for p, q, bl in maps]
    span = vl - ul
    # level k at index k as (a_k, b_k, b_k * span), delta**k = a_k / b_k;
    # the entry past k_max cuts no word, so every scan of the levels ends
    levels = [None] + [(t.numerator, t.denominator, t.denominator * span)
                       for t in (delta**k for k in ks)] + [(1, 0, 0)]

    # g_j([u, v]) scaled by L: the word (p_j, q_j, -bq)
    images = [tuple(sorted((Fraction(ul * qj - bq, pj),
                            Fraction(vl * qj - bq, pj))))
              for pj, qj, bq in gens]
    order = sorted(range(len(gens)), key=images.__getitem__)
    sweep = all(images[i][1] <= images[j][0]
                for i, j in zip(order, order[1:]))
    # the stack pops the last child pushed; g_w reverses order when P < 0
    push_rising = [gens[j] for j in reversed(order)]
    push_falling = [gens[j] for j in order]

    # a sweep word reads a memo when its push bound (delta**k_max max|r|
    # Q / |P|)**s is at most _MEMO_PUSHES, that is when |P| / Q is at
    # least 2**bits, held as an int ratio since binary64 ends at 2**1024
    # (every |P| / Q is at least 1, so a negative bits acts as 0); (1, 0)
    # stands for a threshold no word meets
    threshold = 1, 0
    if sweep and _MEMO_PUSHES > 0:
        bits = max(0.0, (log_bound - math.log(_MEMO_PUSHES))
                   / (s * math.log(2)))
        above, below = (2.0 ** (bits % 1.0)).as_integer_ratio()
        threshold = above << int(bits), below
    counts, walked = _box_walk(levels, push_rising, push_falling, ul, vl,
                               sweep, threshold, word_budget)
    return BoxCounts(delta=delta, hull=(u, v), ks=ks, counts=tuple(counts),
                     words_pushed=walked)


def _box_walk(levels, push_rising, push_falling, ul, vl, sweep, threshold,
              budget):
    """Walk the tree of the empty word, words held as (P, Q, e, first
    level not yet cut at), for the levels of levels (whose first and last
    entries are guards); return the count of each level and the number of
    words pushed.  A sweep keeps each level's count and end cell in counts
    and last; otherwise each level keeps its cells in a set.

    A word whose |P| / Q is at least threshold, a pair (above, below) of
    ints, is not walked: the first word of its class (P, Q, k) builds the
    class's memo (`_memo_build`), and every word of the class reads its
    sweep from the memo at its own grid phase, counts the pushes its
    subtree would make, and adds the sweep to the enclosing one
    (`_add_sweeps`).
    """
    k_max = len(levels) - 2
    counts = [0] * (k_max + 1)
    last = [-math.inf] * (k_max + 1)  # below every cell
    cells = None if sweep else [set() for _ in counts]
    above, below = threshold
    memo = {}
    width = len(push_rising)
    walked = 0
    stack = [(1, 1, 0, 1)]  # the empty word, never a cut word
    pop, push = stack.pop, stack.append
    while stack:
        word = pop()
        p, q, e, k = word
        mag = abs(p)
        if mag * below >= above * q:
            # the left end of g_w([u, v]), times L Q, with the sign that
            # makes it grow with the class's grid phase
            x = ul * q + e if p > 0 else -(vl * q + e)
            if (p, q, k) not in memo:
                memo[p, q, k] = _memo_build(word, x, levels, push_rising,
                                            push_falling, ul, vl)
            steps, pushes = memo[p, q, k]
            walked += pushes
            if walked > budget:
                raise BudgetExceededError(
                    f"box counting walked more than {budget} words")
            _add_sweeps(counts, last, k, steps, x)
            continue
        a_k, b_k, scale = levels[k]
        if mag * b_k >= a_k * q:
            # g_w(u) / side = (ul q + e) a_k / (p scale)
            lo = ul * q + e
            hi = vl * q + e
            if p < 0:
                lo, hi = hi, lo
            while True:
                den = p * scale
                c0 = lo * a_k // den
                c1 = -(-hi * a_k // den)
                if sweep:
                    start = last[k]
                    if c0 > start:
                        start = c0
                    if c1 > start:
                        counts[k] += c1 - start
                        last[k] = c1
                else:
                    cells[k].update(range(c0, c1))
                k += 1
                a_k, b_k, scale = levels[k]
                if mag * b_k < a_k * q:
                    break
            if k > k_max:
                continue
        walked += width
        if walked > budget:
            raise BudgetExceededError(
                f"box counting walked more than {budget} words")
        for pj, qj, bq in push_rising if p > 0 else push_falling:
            push((p * pj, q * qj, pj * e - bq * q, k))
    if not sweep:
        counts = list(map(len, cells))
    return counts[1:], walked


def _memo_build(word, x, levels, push_rising, push_falling, ul, vl):
    """The sweep of a memo class as a step function of grid phase, from
    one plain walk of the subtree of its word (P, Q, e, k) with left end
    x; return it with the number of words the walk pushes.

    Every word of the class has this subtree up to a translation: a
    descendant by the suffix v is (P P_v, Q Q_v, P_v e + Q f_v) with f_v
    fixed by v.  So at level j >= k, with F, r = divmod(x a_j, N) and
    N = |P| b_j span, a cut interval's first cell is F + alpha + [r >= tau0]
    and its end cell F + beta + [r >= tau1], for integers alpha, beta and
    thresholds tau0, tau1 in [1, N] fixed by the class.  Intervals arrive
    sorted and share at most the cell at their border, so an interval's
    new cells start at the later of its first cell and the end cell
    before it.  Of two steps a + [r >= t], the one with the greater
    (a, -t) is the greater at every r, so that start is a step too, and
    the level's count is the sum over its intervals of end cell minus
    start: a step function of r.  The first interval of every level
    starts at x, since u = min A is the least left end of the images
    g_j([u, v]), so the level's first cell is F.

    A level is stored as (a_j, N, thresholds, totals, beta, tau1): the
    sorted thresholds below N at which the count changes, the count
    before the first and after each, and the end cell's step of the
    level's last interval.
    """
    p, q, e, k = word
    mag = abs(p)
    k_max = len(levels) - 2
    # the sweep at each level: the count at r = 0, its change at each
    # threshold, and the end cell's step as (beta, tau1)
    counts = [0] * (k_max + 1)
    moves = [{} for _ in counts]
    last = [None] * (k_max + 1)
    width = len(push_rising)
    pushes = 0
    stack = [word]
    pop, push = stack.pop, stack.append
    while stack:
        p, q, e, j = pop()
        size = abs(p)
        a_j, b_j, scale = levels[j]
        if size * b_j >= a_j * q:
            # with the ends less |P_v| x, the cells at level j run from
            # F + floor((r |P_v| + lo a_j) / D) to F + ceil((r |P_v| +
            # hi a_j) / D), D = |P P_v| b_j span
            grow = size // mag
            lo = ul * q + e
            hi = vl * q + e
            if p < 0:
                lo, hi = -hi, -lo
            lo -= x * grow
            hi -= x * grow
            while True:
                den = size * scale
                alpha, rest = divmod(lo * a_j, den)
                tau0 = -((rest - den) // grow)
                beta, rest = divmod(-hi * a_j, den)
                beta, tau1 = -beta, rest // grow + 1
                start = last[j]
                if start is None or start[0] < alpha or \
                        start[0] == alpha and start[1] >= tau0:
                    start = alpha, tau0
                counts[j] += beta - start[0]
                move = moves[j]
                move[tau1] = move.get(tau1, 0) + 1
                move[start[1]] = move.get(start[1], 0) - 1
                last[j] = beta, tau1
                j += 1
                a_j, b_j, scale = levels[j]
                if size * b_j < a_j * q:
                    break
            if j > k_max:
                continue
        pushes += width
        for pj, qj, bq in push_rising if p > 0 else push_falling:
            push((p * pj, q * qj, pj * e - bq * q, j))
    steps = []
    for j in range(k, k_max + 1):
        a_j, _, scale = levels[j]
        n = mag * scale
        move = moves[j]
        thresholds = sorted(t for t, m in move.items() if m and t < n)
        totals = accumulate(map(move.__getitem__, thresholds),
                            initial=counts[j])
        steps.append((a_j, n, tuple(thresholds), tuple(totals), *last[j]))
    return tuple(steps), pushes


def _add_sweeps(counts, last, k, steps, x):
    """Add the sweep of a memo class's word with left end x, read from the
    class's steps at each level from k on, to the sweep held in counts
    and last.  A level's intervals arrive sorted, so the two share at most
    the cell at their border, and do exactly when the later one starts
    before the earlier one ends."""
    for j, (a_j, n, thresholds, totals, beta, tau1) in enumerate(steps, k):
        cell, r = divmod(x * a_j, n)
        counts[j] += totals[bisect_right(thresholds, r)] - (cell < last[j])
        last[j] = cell + beta + (r >= tau1)


def estimate_box_dimension(box: BoxCounts,
                           window: tuple[int, int] | None = None) -> DimensionFit:
    """Slope of log N_k against k log delta."""
    pairs = [(k, n) for k, n in zip(box.ks, box.counts)]
    chosen = _fit_window(pairs, window)
    log_delta = math.log(float(box.delta))
    return _loglog_fit([k * log_delta for k, _ in chosen],
                       [math.log(max(n, 1)) for _, n in chosen],
                       (float(chosen[0][0]), float(chosen[-1][0])))


# ---------------------------------------------------------------------------
# density profiles


# periods filled and steps in each
_DENSITY_PERIODS, _DENSITY_FILL = 3, 40


@dataclass(frozen=True)
class DensityReport:
    """The columns hs, phases and values hold h, its place
    log h / log ratio mod 1 in the period and N(h)/h**s per grid entry;
    phases is None without a period.  sup_tail, inf_tail and defect read
    the entries in tail_window."""

    hs: list[float]
    phases: list[float] | None
    values: list[float]
    sup_tail: float
    inf_tail: float
    tail_window: tuple[float, float]
    defect: float | None


def density_profile(sample: OrbitSample, h_grid, s: float, ratio=None,
                    max_jumps: int = 200_000) -> DensityReport:
    """Normalized counts N(h)/h**s up to the top of h_grid, with tail
    extrema and, for a period ratio, the mismatch between the last two
    periods.

    Without a ratio the grid is h_grid plus every orbit jump from its
    last _TAIL_WIDTH values up, and the tail is the last _TAIL_WIDTH
    entries of that merged grid.  With one it is a linear fill of each of
    the last _DENSITY_PERIODS periods, _DENSITY_FILL steps each, plus
    every jump in their span and ratio * h for each jump h one period
    down; the tail is [top / ratio, top], and the defect pairs each entry
    h in [top / ratio**2, top / ratio] with ratio * h, which is on the
    grid for every fill value and every jump.

    N is a step function, so between grid entries N/h**s is largest at
    the left end and tends to N(h_i)/h_{i+1}**s at the right end; the
    tail extrema scan both, exactly, since the grid holds every jump in
    the tail.  A dense orbit has about as many jumps as integers in the
    span; beyond max_jumps only the fill stays (h_grid without a ratio),
    and the extrema are then approximate but tight, since N/h**s moves
    little between adjacent integers.

    The grid lies on D = lcm(L q, the fill's denominators) for the sample
    scale L and ratio p/q: a fill value x is x D, a jump m / L is
    m D / L, and its fold is p m D / (q L).  The jumps and their counts
    come from `sample.jumps` over the fill's span, which refuses a
    partial sample and an h_grid past the radius.
    """
    top = h_grid[-1]
    if ratio is None:
        fills = h_grid
        bottom, lo = h_grid[0], h_grid[tail_window(len(h_grid))[0]]
        q = 1
    else:
        ratio = Fraction(ratio)
        if ratio <= 1:
            raise DomainError("period ratio must exceed 1")
        fills = [top / ratio ** (t + 1) * (1 + i * (ratio - 1) / _DENSITY_FILL)
                 for t in range(_DENSITY_PERIODS)
                 for i in range(_DENSITY_FILL + 1)]
        bottom = lo = top / ratio**_DENSITY_PERIODS
        q = ratio.denominator
    mags, steps = sample.jumps(bottom, top)
    # steps[i] is now N(h) for the h past exactly i jumps
    steps.insert(0, sample.count_within(bottom))
    scale = sample.scale
    den = math.lcm(scale * q, *(x.denominator for x in fills))
    step = den // scale
    grid = {x.numerator * (den // x.denominator) for x in fills}
    value = partial(Fraction, denominator=scale)
    first = bisect_left(mags, lo, key=value)
    if len(mags) - first <= max_jumps:
        grid.update(map(step.__mul__, islice(mags, first, None)))
        if ratio is not None:
            # the defect fold needs ratio*h on the grid for jumps one
            # period down
            fold = ratio.numerator * (den // (q * scale))
            grid.update(map(fold.__mul__, islice(
                mags, bisect_left(mags, top / ratio**2, key=value),
                bisect_right(mags, top / ratio, key=value))))
    grid = sorted(grid)
    if len(grid) < 2:
        raise DomainError("density profile needs at least 2 entries")
    counts = [steps[bisect_right(mags, g // step)] for g in grid]
    # the jumps and the fill go before the float columns, which set the
    # peak memory of the density fragment, are built
    del mags, steps, fills
    floats = [g / den for g in grid]
    values = [n / x ** s for n, x in zip(counts, floats)]

    if ratio is None:
        start = tail_window(len(grid))[0]
        phases = defect = None
    else:
        # top / ratio and top / ratio**2 are fill values, so on the grid
        # at q / p and (q / p)**2 times grid[-1] = top D; ratio * h grows
        # with h between them, and one pointer from top / ratio up meets
        # each partner
        p = ratio.numerator
        start = bisect_left(grid, grid[-1] * q // p)
        defect = 0.0
        j = start
        for i in range(bisect_left(grid, grid[-1] * q * q // (p * p)),
                       start + 1):
            target = p * grid[i]
            while q * grid[j] < target:
                j += 1
            defect = max(defect, abs(values[j] - values[i]))
        log_r = math.log(float(ratio))
        phases = [math.log(x) / log_r % 1.0 for x in floats]

    sup_tail = max(values[start:])
    inf_tail = min(chain(values[start:], (n0 / x1 ** s for n0, x1 in zip(
        counts[start:], floats[start + 1:]))))
    return DensityReport(hs=floats, phases=phases, values=values,
                         sup_tail=sup_tail, inf_tail=inf_tail,
                         tail_window=(floats[start], floats[-1]),
                         defect=defect)


def density_ratio(system: Rifs, declared) -> Fraction | None:
    """The multiplicative period of a density profile: the declared one,
    else the magnitude every ratio shares, else None."""
    if declared is not None:
        return declared
    mags = {abs(m.ratio) for m in system.maps}
    return mags.pop() if len(mags) == 1 else None


def window_density_sup(sample: OrbitSample, s: float, lo, hi) -> float:
    """sup of N(h)/h**s over h in [lo, hi], exact for a complete sample.

    The sup of a right-continuous step count divided by h**s is attained
    at a jump or at the window's left edge; `sample.jumps` gives every
    jump with its count.
    """
    lo = Fraction(lo)
    hi = Fraction(hi)
    if not 0 < lo < hi:
        raise DomainError("window must satisfy 0 < lo < hi")
    mags, counts = sample.jumps(lo, hi)
    scale = sample.scale
    return max(chain([sample.count_within(lo) / float(lo) ** s],
                     (n / (m / scale) ** s for m, n in zip(mags, counts))))


# ---------------------------------------------------------------------------
# renewal constant


@dataclass(frozen=True)
class RenewalEstimate:
    value: float
    tail_bound: float
    cutoff: float
    tail_density_sup: float


def _sums_radius(system: Rifs, cutoff: Fraction) -> Fraction:
    """Smallest radius whose sample decides the renewal sums truncated at
    |x| <= cutoff: every image r*x + b of such an x lies inside it."""
    return system.max_ratio_mag * cutoff + system.max_offset_mag


def renewal_radius(system: Rifs, seed, cutoff) -> Fraction:
    """Smallest radius whose sample serves both `renewal_constant`, with
    sums truncated at |x| <= cutoff, and `residual_points`."""
    return max(_sums_radius(system, Fraction(cutoff)),
               residual_radius(system, Fraction(seed)))


def renewal_constant(system: Rifs, sample: OrbitSample, residuals, s: float,
                     cutoff) -> RenewalEstimate:
    """Candidate limit of N(h)/h**s for a non-overlapping, uniformly
    discrete orbit with incommensurable expansion logs.

    Assembles three absolutely convergent sums over the orbit: the
    near-zero correction, the telescoping offset correction truncated at
    |x| <= cutoff, and the contribution of points that are nobody's
    image; the result is normalized by s * sum |r_i|**-s log|r_i|.  The
    reported tail bound covers the truncation: dropped terms telescope
    against the offsets, giving an O(1/cutoff) envelope proportional to
    the tail sup of the normalized counts.

    The value is meaningful only under evidence that the orbit is
    non-overlapping; callers carry that burden (the CLI attaches probe
    results as conditional flags).
    """
    if common_fixed_point(system) is not None:
        raise DomainError("degenerate system: counts grow polylogarithmically,"
                          " no power-law density exists")
    cutoff = Fraction(cutoff)
    if cutoff < 1:
        raise DomainError("cutoff must be >= 1")
    sample.require(_sums_radius(system, cutoff), "renewal constant")

    def clamped(num: int, den: int) -> float:
        # min(1, |t|**-s) for t = num / den, den > 0, with the value 1 at
        # t = 0; int / int rounds correctly, as float(Fraction) does
        if abs(num) <= den:
            return 1.0
        return (abs(num) / den) ** -s

    pts = sample.lattice
    scale = sample.scale
    # for x = a / L, offsets on D**-1 Z and a map (p / q) x + n / D:
    # r x = p a / (q L) and r x + b = (p D a + n q L) / (q L D)
    d, maps, _ = system.on_lattice()
    maps = [(p, q * scale, p * d, n * q * scale, q * scale * d)
            for p, q, n in maps]

    # the open interval (-1, 1) holds the lattice points -L < a < L
    near = pts[bisect_right(pts, -scale):bisect_left(pts, scale)]
    s1 = math.fsum(
        math.fsum(clamped(p * a, ql) for p, ql, _, _, _ in maps) - 1.0
        for a in near)

    top = sample.floor_scaled(cutoff)
    s2 = math.fsum(
        [clamped(pd * a + nql, qld) - clamped(p * a, ql)
         for a in pts[bisect_left(pts, -top):bisect_right(pts, top)]
         for p, ql, pd, nql, qld in maps])

    s3 = math.fsum(clamped(y.numerator, y.denominator)
                   for y in map(Fraction, residuals))

    denom = s * math.fsum(
        abs(float(m.ratio)) ** -s * math.log(abs(float(m.ratio)))
        for m in system.maps)
    value = (s1 + s2 + s3) / denom

    sup_tail = window_density_sup(sample, s, cutoff, sample.radius)
    tail_bound = (system.m * float(system.max_offset_mag) * s * sup_tail
                  * 2.0 ** (s + 2) / float(cutoff))
    return RenewalEstimate(value=value, tail_bound=tail_bound,
                           cutoff=float(cutoff), tail_density_sup=sup_tail)
