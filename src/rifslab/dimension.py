"""Dimension estimators and density diagnostics.

Counting data comes in exact (rational grid points, integer counts); every
estimator in this module converts to binary64 at the last moment and says
so.  The cover-cost dynamic program and the attractor box counter are the
two pieces with real algorithmic content; the rest is careful bookkeeping
around log-log fits.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import accumulate, zip_longest

from . import pool
from .errors import BudgetExceededError, ConfigError, DomainError
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
    above 1 that binary64 rounds to 1 is refused as a DomainError.
    """
    ratios = list(ratios)
    if len(ratios) < 2:
        raise ConfigError("need at least 2 ratios")
    if any(abs(r) <= 1 for r in ratios):
        raise ConfigError("ratio magnitude must exceed 1")
    mags = [abs(float(r)) for r in ratios]
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


_TAIL_WIDTH = 10  # the last grid entries a fit or a density tail reads


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
    refused rather than truncated."""
    if isinstance(points, (list, tuple)) and all(type(p) is int
                                                 for p in points):
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
      crossover with the start below it.
    - alpha > 1: w is convex with w(0) = 0, hence superadditive, and
      w(s) > s*w(1) for s > 1: the newest start overtakes every older one
      at once and for good, so the Monge deque of this case never holds
      more than one start and every run is a single point.

    The cost and partition are those of the quadratic scan over every
    start, bit for bit: every total is the same float expression
    cost[j - 1] + w, and the order above is the scan's.  That needs the
    float comparisons to agree with the real ones wherever the argument
    above uses them.  Every total is below 2 (one run over all points
    costs at most 1), so it is within about 2**-51 of its real value.  For
    alpha <= 1 the real difference of two starts moves by at least
    alpha*(1 - alpha)/4**n from one prefix to the next; for alpha > 1 a
    single point beats a longer last run by at least (2**alpha - 2)*w(1).
    For n <= 18 both margins exceed the rounding unless alpha is within
    about 2e-4 of 0 or 1.  At alpha = 1 all the arithmetic is exact.
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
    size = 2.0**n
    single = (1 / size) ** alpha  # w(1)
    if alpha > 1:
        total = 0.0
        # in order, as the scan adds: sum() compensates from Python 3.12
        for _ in pts:
            total += single
        return CoverCost(alpha=alpha, n=n, cost=total,
                         optimal_partition=tuple((p, p) for p in pts))
    k = len(pts)
    cost = [0.0] * (k + 1)
    blocks = [0] * (k + 1)
    choice = [0] * (k + 1)
    # the new start i, at the point x after a prefix of cost prior in
    # runs runs, is the later one, so it wins a tie of totals and runs
    prior = x = runs = None

    def ahead(b, i):
        """Whether the new start beats start b for the last run of
        prefix i."""
        right = pts[i - 1]
        total = prior + ((right - x + 1) / size) ** alpha
        total_b = cost[b - 1] + ((right - pts[b - 1] + 1) / size) ** alpha
        if total != total_b:
            return total < total_b
        return runs <= blocks[b - 1]

    # (start, first prefix it is best for); down the stack the starts
    # get older and their first prefixes later
    stack = []
    for i in range(1, k + 1):
        while len(stack) > 1 and stack[-2][1] <= i:
            stack.pop()
        prior = cost[i - 1]
        runs = blocks[i - 1]
        total = prior + single
        if stack:
            # the top is best at i, with the total it gives cost[i]; a
            # start i behind it never catches up
            top = stack[-1][0]
            x = pts[i - 1]
            total_top = cost[top - 1] + ((x - pts[top - 1] + 1) / size) ** alpha
            if total_top < total or (total_top == total
                                     and blocks[top - 1] < runs):
                cost[i] = total_top
                blocks[i] = blocks[top - 1] + 1
                choice[i] = top
                continue
            while stack:
                top = stack[-1][0]
                end = stack[-2][1] - 1 if len(stack) > 1 else k
                if not ahead(top, end):
                    lo, hi = i + 1, end
                    while lo < hi:
                        mid = (lo + hi) // 2
                        if ahead(top, mid):
                            lo = mid + 1
                        else:
                            hi = mid
                    stack[-1] = (top, lo)
                    break
                stack.pop()
        stack.append((i, i))
        cost[i] = total
        blocks[i] = runs + 1
        choice[i] = i
    partition = []
    i = k
    while i > 0:
        j = choice[i]
        partition.append((pts[j - 1], pts[i - 1]))
        i = j - 1
    partition.reverse()
    return CoverCost(alpha=alpha, n=n, cost=cost[k],
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
    min_cover_cost, in this process: the table never forks.
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


# Box walks of {2x, 3x+1}, 2-core VM, Python 3.11: a split adds 3.5 ms
# (4.6 ms in a 39 MB heap) and breaks even alone between push bounds of
# 11,500 and 27,000, but inside `report`, beside the other analyses, it
# made reports with bounds of 16,000 and 27,000 5% slower.
_SPLIT_PUSHES = 50_000
# 8 subtrees per process at the pool's most, whatever the CPU count
_SUBTREES = 8 * pool.MAX_WORKERS


@dataclass(frozen=True)
class BoxCounts:
    delta: Fraction
    hull: tuple[Fraction, Fraction]
    ks: tuple[int, ...]
    counts: tuple[int, ...]
    words_pushed: int


def attractor_box_counts(system: Rifs, k_max: int, delta=None,
                         word_budget: int = 10_000_000) -> BoxCounts:
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

    A walk that may push _SPLIT_PUSHES words or more is split, the same
    way on any number of CPUs.  This process walks levels 1..k0, k0 the
    least level whose cut words each root a subtree of at most
    B / _SUBTREES leaves, but below k_max.  The level-k0 subtrees then go
    to `pool.run` as one task each, in walk order, each to walk the
    levels past k0 under a share of the budget left in proportion to its
    bound.  A subtree sums each sweep level as (count, first cell, end
    cell): a level's intervals arrive sorted across subtrees too, so
    consecutive subtrees share at most the cell at their border, and do
    exactly when the later one starts before the earlier one ends.  Cell
    sets are united.  The counts and words_pushed are those of the serial
    walk.
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

    def walk(roots, levels, budget, frontier=None):
        return _box_walk(roots, levels, push_rising, push_falling, ul, vl,
                         sweep, budget, frontier)

    root = (1, 1, 0, 1)  # the empty word, never a cut word
    if pushes < _SPLIT_PUSHES or k_max == 1:
        results = [walk([root], levels, word_budget)]
    else:
        # a level-k0 cut word expands by |P| / Q >= delta**k0, so its
        # subtree has at most B_w = (delta**k_max max|r| Q / |P|)**s
        # leaves, which is B / _SUBTREES or less unless k0 is capped,
        # and its walk pushes at most m (B_w - 1) / (m - 1) words
        k0 = min(k_max - 1,
                 math.ceil(math.log(_SUBTREES) / (s * math.log(delta))))
        # the level-k0 cut words, in walk order, root the queued subtrees
        roots = []
        top = walk([root], levels[:k0 + 1] + levels[-1:], word_budget, roots)
        weights = [math.exp(log_bound - s * math.log(abs(p) / q)) - 1
                   for p, q, _, _ in roots]
        # budget shares in proportion to the push bounds: while the
        # pre-check holds, no subtree exhausts its share
        share = (word_budget - top[1]) / math.fsum(weights)
        results = [top] + pool.run(
            [partial(walk, [r], levels, int(share * w))
             for r, w in zip(roots, weights)])
    return BoxCounts(delta=delta, hull=(u, v), ks=ks,
                     counts=tuple(_merge_box_pieces(
                         [pieces for pieces, _ in results], sweep)),
                     words_pushed=sum(n for _, n in results))


def _box_walk(roots, levels, push_rising, push_falling, ul, vl, sweep,
              budget, frontier=None):
    """Walk the subtrees of roots, words held as (P, Q, e, first level not
    yet cut at), one after another, for the levels of levels (whose first
    and last entries are guards).

    Returns the summary of each level, its cell set or, when sweeping,
    (count, first cell, end cell) and None if it has no cell, and the
    number of words pushed.  The words cut at the last level, which the
    walk does not expand, are appended to frontier, in walk order, if it
    is a list.
    """
    k_max = len(levels) - 2
    first = [None] * (k_max + 1)
    last = [None] * (k_max + 1)
    counts = [0] * (k_max + 1)
    cells = None if sweep else [set() for _ in counts]
    width = len(push_rising)
    walked = 0
    stack = roots[::-1]
    pop, push = stack.pop, stack.append
    while stack:
        p, q, e, k = pop()
        a_k, b_k, scale = levels[k]
        mag = abs(p)
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
                    if start is None:
                        first[k] = start = c0
                    elif c0 > start:
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
                if frontier is not None:
                    frontier.append((p, q, e, k))
                continue
        walked += width
        if walked > budget:
            raise BudgetExceededError(
                f"box counting walked more than {budget} words")
        for pj, qj, bq in push_rising if p > 0 else push_falling:
            push((p * pj, q * qj, pj * e - bq * q, k))
    if not sweep:
        return cells[1:], walked
    return [None if f is None else (n, f, end)
            for n, f, end in zip(counts[1:], first[1:], last[1:])], walked


def _merge_box_pieces(pieces, sweep) -> list[int]:
    """Cell counts per level of the summaries of `_box_walk`, walked in
    tree order."""
    counts = []
    for level in zip_longest(*pieces):
        parts = [part for part in level if part]
        if not sweep:
            counts.append(len(set().union(*parts)))
            continue
        # a level's intervals are sorted across pieces, so consecutive
        # pieces share at most the cell at their border
        total = 0
        end = None
        for n, first, last in parts:
            total += n - (1 if end is not None and first < end else 0)
            end = last
        counts.append(total)
    return counts


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


_DENSITY_PERIODS, _DENSITY_FILL = 3, 40  # periods filled, steps in each


@dataclass(frozen=True)
class DensityReport:
    """samples holds (h, phase, N(h)/h**s) per profile entry, phase the
    place log h / log ratio mod 1 of h in the declared period, None without
    one; sup_tail, inf_tail and defect read the entries in tail_window."""

    samples: tuple[tuple[float, float | None, float], ...]
    sup_tail: float
    inf_tail: float
    tail_window: tuple[float, float]
    defect: float | None


def density_profile(profile: CountingProfile, s: float, period_ratio=None,
                    periods: int = _DENSITY_PERIODS,
                    min_per_period: int = 32) -> DensityReport:
    """Normalized counts N(h)/h**s with tail extrema and, for a declared
    multiplicative period, the mismatch between the last two periods.

    N is a step function, so on each stretch between profile entries the
    normalized count is maximal at the left end and approaches
    N(h_i)/h_{i+1}**s at the right end; the tail extrema scan both
    families.  They are exact for the window exactly when the grid
    contains every orbit point inside it, as `density_grid` builds them.

    The scans run on the profile's lattice: h = g / D is the float g / D,
    the period, tail and fold bounds are found by bisecting for
    floor(x * D), and with ratio p/q the defect pairs g_i with the g_j
    for which q g_j = p g_i.  No Fraction is built per entry.
    """
    grid, scale, counts = profile.lattice, profile.scale, profile.counts
    if len(grid) < 2:
        raise DomainError("density profile needs at least 2 entries")
    floats = [g / scale for g in grid]
    values = [n / x ** s for n, x in zip(counts, floats)]

    if period_ratio is None:
        start = tail_window(len(grid))[0]
        window = (floats[start], floats[-1])
        samples = tuple((x, None, val) for x, val in zip(floats, values))
        defect = None
    else:
        ratio = Fraction(period_ratio)
        if ratio <= 1:
            raise DomainError("period ratio must exceed 1")
        log_r = math.log(float(ratio))
        h_max = Fraction(grid[-1], scale)
        floor_scaled = profile.floor_scaled
        if grid[0] > floor_scaled(h_max / ratio**periods):
            raise DomainError(
                f"profile must span at least {periods} periods of ratio "
                f"{format_rational(ratio)}")
        for t in range(periods):
            lo, hi = h_max / ratio ** (t + 1), h_max / ratio**t
            inside = (bisect_right(grid, floor_scaled(hi))
                      - bisect_right(grid, floor_scaled(lo)))
            if inside < min_per_period:
                raise DomainError(
                    f"grid too sparse: period ({format_rational(lo)}, "
                    f"{format_rational(hi)}] holds {inside} < {min_per_period} values")

        window_lo = h_max / ratio
        # g / D >= x exactly when g >= ceil(x D) = -floor(-x D)
        start = bisect_left(grid, -floor_scaled(-window_lo))
        window = (float(window_lo), float(h_max))

        # ratio * h grows with h in [h_max / ratio**2, window_lo] and stays
        # <= h_max, so one pointer from window_lo up finds each on the grid
        p, q = ratio.numerator, ratio.denominator
        defect = None
        matched = 0
        j = start
        for i in range(bisect_left(grid, -floor_scaled(-h_max / ratio**2)),
                       bisect_right(grid, floor_scaled(window_lo))):
            target = p * grid[i]
            while q * grid[j] < target:
                j += 1
            if q * grid[j] == target:
                matched += 1
                gap = abs(values[j] - values[i])
                defect = gap if defect is None else max(defect, gap)
        if matched < min_per_period:
            raise DomainError(
                "periodicity defect needs a period-matched grid: only "
                f"{matched} values h with ratio*h also on the grid")

        samples = tuple((x, math.log(x) / log_r % 1.0, val)
                        for x, val in zip(floats, values))

    tail = values[start:]
    sup_tail = max(tail)
    inf_tail = min(tail)
    for n0, x1 in zip(counts[start:], floats[start + 1:]):
        inf_tail = min(inf_tail, n0 / x1 ** s)
    return DensityReport(samples=samples, sup_tail=sup_tail, inf_tail=inf_tail,
                         tail_window=window, defect=defect)


def _magnitudes(sample: OrbitSample, hi) -> list[int]:
    """Sorted |a| over the lattice points a with |a| <= floor(hi * L), one
    entry per point: the magnitude at index i is the (i + 1)-th smallest.

    The negative points give a descending run and the others an ascending
    one, so the sort is a single merge of the two.
    """
    pts = sample.lattice
    top = sample.floor_scaled(hi)
    return sorted(map(abs, pts[bisect_left(pts, -top):bisect_right(pts, top)]))


def density_ratio(system: Rifs, declared) -> Fraction | None:
    """The multiplicative period of a density profile: the declared one,
    else the magnitude every ratio shares, else None."""
    if declared is not None:
        return declared
    mags = {abs(m.ratio) for m in system.maps}
    return mags.pop() if len(mags) == 1 else None


def density_grid(h_grid, sample: OrbitSample, ratio,
                 max_jumps: int = 200_000) -> CountingProfile:
    """Counting profile for `density_profile` up to the top of h_grid: a
    linear fill of each period (h_grid's tail without one) plus every
    orbit jump in the span, so the tail extrema and the periodicity
    defect are exact for the sample.

    Orbits of nearly full density have as many jumps as integers in the
    span; beyond max_jumps the grid keeps only the fill, whose sampled
    extrema are then approximate but tight (the normalized count varies
    little between adjacent integers of a dense orbit).

    The grid is built on one lattice, D = lcm(L q, the fill's
    denominators) for the sample scale L and ratio p/q: a fill value x is
    x D, a jump m / L is m D / L, and its fold ratio * m / L is
    p m D / (q L).  Every entry g is at most top D, so its count
    #{|a| <= floor(g L / D)} is one bisection of the sorted magnitudes.
    """
    if not sample.complete:
        raise DomainError("counting requires a complete sample")
    top = h_grid[-1]
    if ratio is None:
        fills = h_grid
        lo = fills[tail_window(len(fills))[0]]
        q = 1
    else:
        fills = [top / ratio ** (t + 1) * (1 + i * (ratio - 1) / _DENSITY_FILL)
                 for t in range(_DENSITY_PERIODS)
                 for i in range(_DENSITY_FILL + 1)]
        lo = top / ratio**_DENSITY_PERIODS
        q = ratio.denominator
    scale = sample.scale
    den = math.lcm(scale * q, *(x.denominator for x in fills))
    step = den // scale
    grid = {x.numerator * (den // x.denominator) for x in fills}
    mags = _magnitudes(sample, top)
    # the jumps m / L in [lo, top] are the magnitudes from ceil(lo L) on
    first = bisect_left(mags, -sample.floor_scaled(-lo))
    jumps = set(mags[first:])
    if len(jumps) <= max_jumps:
        grid.update(map(step.__mul__, jumps))
        if ratio is not None:
            # the defect fold needs ratio*h on the grid for jumps one
            # period down
            fold_lo = -sample.floor_scaled(-top / ratio**2)
            fold_hi = sample.floor_scaled(top / ratio)
            fold = ratio.numerator * (den // (q * scale))
            grid.update(map(fold.__mul__, mags[
                max(first, bisect_left(mags, fold_lo)):
                bisect_right(mags, fold_hi)]))
    grid = sorted(grid)
    return CountingProfile(grid, den, [bisect_right(mags, g // step)
                                       for g in grid])


def window_density_sup(sample: OrbitSample, s: float, lo, hi) -> float:
    """sup of N(h)/h**s over h in [lo, hi], exact for a complete sample.

    The sup of a right-continuous step count divided by h**s is attained
    at a jump or at the window's left edge.  One pass over the sorted
    magnitudes gives every jump with its count.
    """
    lo = Fraction(lo)
    hi = Fraction(hi)
    if not sample.complete:
        raise DomainError("density sup requires a complete sample")
    if not 0 < lo < hi:
        raise DomainError("window must satisfy 0 < lo < hi")
    if hi > sample.radius:
        raise DomainError("window exceeds the verified radius")
    best = sample.count_within(lo) / float(lo) ** s
    mags = _magnitudes(sample, hi)
    scale = sample.scale
    last = len(mags) - 1
    # the jumps in [lo, hi] are the magnitudes from ceil(lo L) on
    for i in range(bisect_left(mags, -sample.floor_scaled(-lo)), last + 1):
        m = mags[i]
        # N(m / L) counts every magnitude up to m, so take the last of a tie
        if i < last and mags[i + 1] == m:
            continue
        best = max(best, (i + 1) / (m / scale) ** s)
    return best


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
    required = _sums_radius(system, cutoff)
    if sample.radius < required:
        raise DomainError(
            f"renewal sums need radius >= {format_rational(required)}, "
            f"sample has {format_rational(sample.radius)}")
    if not sample.complete:
        raise DomainError("renewal sums require a complete sample")

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
