"""Dimension estimators and density diagnostics.

Counting data comes in exact (rational grid points, integer counts); every
estimator in this module converts to binary64 at the last moment and says
so.  The cover-cost dynamic program and the attractor box counter are the
two pieces with real algorithmic content; the rest is careful bookkeeping
around log-log fits.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction

from .errors import BudgetExceededError, ConfigError, DomainError
from .orbit import CountingProfile, OrbitSample, window_max_count
from .rational import format_rational
from .systems import Rifs, common_fixed_point


# ---------------------------------------------------------------------------
# similarity dimension


@dataclass(frozen=True)
class SimilaritySolution:
    value: float
    residual: float
    iterations: int


def solve_similarity_dimension(ratios, tolerance: float = 1e-12,
                               max_iterations: int = 200) -> SimilaritySolution:
    """Solve sum |r_i|**(-s) = 1 by bisection.

    The left side is strictly decreasing in s, equals m >= 2 at s = 0 and
    tends to 0, so the root is unique.  Stops when the residual drops to
    the tolerance or the iteration cap is reached.
    """
    mags = [abs(float(r)) for r in ratios]
    if len(mags) < 2:
        raise ConfigError("need at least 2 ratios")
    if any(r <= 1 for r in mags):
        raise ConfigError("ratio magnitude must exceed 1")

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
    while iterations < max_iterations:
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
    counts: log of max #(orbit in [x-h, x+h]) against log h."""
    h_grid = [Fraction(h) for h in h_grid]
    entries = []
    for h in h_grid:
        if h < 2:
            raise DomainError("window fit needs h >= 2")
        count, _ = window_max_count(sample, h)
        if count < 1:
            raise DomainError("window fit needs a nonempty sample")
        entries.append((h, count))
    chosen = _fit_window(entries, window)
    return _loglog_fit([math.log(float(h)) for h, _ in chosen],
                       [math.log(n) for _, n in chosen],
                       (float(chosen[0][0]), float(chosen[-1][0])))


# ---------------------------------------------------------------------------
# cover costs on integer cubes


@dataclass(frozen=True)
class CoverCost:
    alpha: float
    n: int
    cost: float
    optimal_partition: tuple[tuple[int, int], ...]


def _check_cube(points, n: int) -> list[int]:
    half = Fraction(2**n, 2)
    pts = sorted(set(int(p) for p in points))
    for p in pts:
        if not (-half <= p < half):
            raise DomainError(
                f"point {p} outside the side-2^{n} cube centred at 0")
    return pts


def min_cover_cost(points, alpha: float, n: int) -> CoverCost:
    """Minimal cost sum((interval length)/2**n)**alpha of covering the
    points with integer intervals.

    An optimal cover may be taken to partition the points into runs of
    consecutive members (shrinking an interval to the minimal one through
    its points never raises cost, and overlapping intervals only add),
    so a quadratic dynamic program over prefixes is exact.  The inner loop
    stops as soon as a candidate block alone exceeds the best total, which
    is sound because block cost grows as the block extends left.  Ties go
    to the partition with fewer intervals.
    """
    if alpha <= 0:
        raise DomainError("alpha must be positive")
    if n < 0:
        raise DomainError("cube exponent must be >= 0")
    pts = _check_cube(points, n)
    if not pts:
        return CoverCost(alpha=alpha, n=n, cost=0.0, optimal_partition=())
    size = 2.0**n
    k = len(pts)
    cost = [0.0] * (k + 1)
    blocks = [0] * (k + 1)
    choice = [0] * (k + 1)
    for i in range(1, k + 1):
        best = math.inf
        best_j = i
        best_blocks = 0
        right = pts[i - 1]
        for j in range(i, 0, -1):
            block = ((right - pts[j - 1] + 1) / size) ** alpha
            if block > best:
                break
            total = cost[j - 1] + block
            cand_blocks = blocks[j - 1] + 1
            if total < best or (total == best and cand_blocks < best_blocks):
                best, best_j, best_blocks = total, j, cand_blocks
        cost[i] = best
        choice[i] = best_j
        blocks[i] = best_blocks
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


def estimate_discrete_hausdorff(points, alpha_grid, n_values,
                                tau: float = 0.05,
                                stabilization_terms: int = 4) -> DiscreteHausdorffReport:
    """Tabulate cover costs over growing cubes and read off the two
    finite-scale dimension estimates.

    Needs at least 6 cube sizes so the stabilization window means
    something.  The empty set reports 0 for both estimates.
    """
    n_values = sorted(set(int(n) for n in n_values))
    if len(n_values) < 6:
        raise DomainError("need at least 6 cube exponents")
    if n_values[0] < 0:
        raise DomainError("cube exponents must be >= 0")
    alpha_grid = tuple(float(a) for a in alpha_grid)
    if not alpha_grid or any(a <= 0 for a in alpha_grid):
        raise DomainError("alpha grid must be positive")
    if list(alpha_grid) != sorted(alpha_grid):
        raise DomainError("alpha grid must be ascending")
    pts = sorted(set(int(p) for p in points))

    rows = []
    tail = {}
    for alpha in alpha_grid:
        running = 0.0
        costs = []
        for n in n_values:
            half = Fraction(2**n, 2)
            inside = pts[bisect_left(pts, -half):bisect_right(pts, half)]
            if inside and inside[-1] >= half:
                inside = inside[:-1]  # cube is half-open on the right
            cc = min_cover_cost(inside, alpha, n)
            running += cc.cost
            costs.append(cc.cost)
            rows.append((alpha, n, cc.cost, running))
        tail[alpha] = costs[-stabilization_terms:]

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

    Accepts an OrbitSample or any iterable of rationals; returns the
    sorted integer points and the scale used.
    """
    if isinstance(points, OrbitSample):
        points = points.points
    values = [Fraction(p) for p in points]
    scale = 1
    for v in values:
        scale = scale * v.denominator // math.gcd(scale, v.denominator)
    return sorted(int(v * scale) for v in values), scale


# ---------------------------------------------------------------------------
# box counts of the inverse-family attractor


def dual_attractor_hull(system: Rifs) -> tuple[Fraction, Fraction]:
    """Exact convex hull [u, v] of the attractor of the inverse family.

    The hull endpoints satisfy u = min over maps of the images of {u, v}
    and v = the corresponding max.  Float iteration finds which map and
    which endpoint attain each bound; that assignment turns the pair of
    equations into a 2x2 rational linear system, solved exactly and then
    verified by exact invariance.  Endpoints of the true hull are fixed
    points of one- or two-map cycles, hence rational, so the verification
    succeeds once the assignment is right.
    """
    duals = system.dual_maps()
    c = system.escape_radius
    if c == 0:
        return Fraction(0), Fraction(0)

    def solve(assign):
        (ia, wa), (ib, wb) = assign
        ra, oa = duals[ia].ratio, duals[ia].offset
        rb, ob = duals[ib].ratio, duals[ib].offset
        if wa == 0 and wb == 1:
            return oa / (1 - ra), ob / (1 - rb)
        if wa == 0 and wb == 0:
            u = oa / (1 - ra)
            return u, rb * u + ob
        if wa == 1 and wb == 1:
            v = ob / (1 - rb)
            return ra * v + oa, v
        u = (ra * ob + oa) / (1 - ra * rb)
        return u, rb * u + ob

    def verify(u, v):
        if u > v:
            return False
        images = [(g(u), g(v)) for g in duals]
        lo = min(min(pair) for pair in images)
        hi = max(max(pair) for pair in images)
        return lo == u and hi == v

    uf, vf = -float(c), float(c)
    assign = None
    stable = 0
    for _ in range(500):
        lo_best = None
        hi_best = None
        for idx, g in enumerate(duals):
            for which, x in enumerate((uf, vf)):
                y = float(g.ratio) * x + float(g.offset)
                if lo_best is None or y < lo_best[0]:
                    lo_best = (y, idx, which)
                if hi_best is None or y > hi_best[0]:
                    hi_best = (y, idx, which)
        new_assign = ((lo_best[1], lo_best[2]), (hi_best[1], hi_best[2]))
        stable = stable + 1 if new_assign == assign else 0
        assign = new_assign
        uf, vf = lo_best[0], hi_best[0]
        if stable >= 30:
            break
    u, v = solve(assign)
    if verify(u, v):
        return u, v

    # Ties or borderline floats: redo the contraction exactly.
    u, v = -c, c
    for _ in range(500):
        images = [(g(u), g(v)) for g in duals]
        nu = min(min(pair) for pair in images)
        nv = max(max(pair) for pair in images)
        if (nu, nv) == (u, v):
            return u, v
        for idx, pair in enumerate(images):
            for which, y in enumerate(pair):
                if y == nu:
                    lo_at = (idx, which)
                if y == nv:
                    hi_at = (idx, which)
        u, v = nu, nv
        cand = solve((lo_at, hi_at))
        if verify(*cand):
            return cand
    raise DomainError("attractor hull iteration failed to stabilize")


@dataclass(frozen=True)
class BoxCounts:
    delta: Fraction
    hull: tuple[Fraction, Fraction]
    ks: tuple[int, ...]
    counts: tuple[int, ...]


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
    offsets and L the lcm of their denominators, the inverse composition
    of a word w is g_w(x) = (x + e / (Q L)) / (P / Q), held as the triple
    (P, Q, e); appending map j gives (P p_j, Q q_j, p_j e - b_j L q_j Q).

    Every cut word at level k expands by less than delta**k * max|r|, and
    the cut words' expansions satisfy sum |R_w|**-s = 1 with s the
    similarity dimension, so the level-k_max cut set holds fewer than
    (delta**k_max * max|r|)**s words; that bound is checked against
    word_budget before walking.  The words the walk visits, over all
    levels, are counted against the same budget as it goes.
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
    if bound > word_budget:
        raise BudgetExceededError(
            f"cut set at k={k_max} may hold {bound:.3g} words, "
            f"budget is {word_budget}")

    u, v = dual_attractor_hull(system)
    if u == v:
        return BoxCounts(delta=delta, hull=(u, v), ks=tuple(range(1, k_max + 1)),
                         counts=(1,) * k_max)
    offset_den = math.lcm(*(m.offset.denominator for m in system.maps))
    gens = [(m.ratio.numerator, m.ratio.denominator,
             int(m.offset * offset_den) * m.ratio.denominator)
            for m in system.maps]
    # u = nu / hull_den and v = nv / hull_den; the cell side is
    # (nv - nu) / (hull_den * delta**k)
    hull_den = math.lcm(u.denominator, v.denominator)
    nu, nv = int(u * hull_den), int(v * hull_den)
    ul, vl = nu * offset_den, nv * offset_den
    walked = 0
    counts = []
    for k in range(1, k_max + 1):
        threshold = delta**k
        a_k, b_k = threshold.numerator, threshold.denominator
        scale = offset_den * (nv - nu) * b_k
        cells = set()
        stack = [(1, 1, 0)]  # the empty word, never a cut word
        while stack:
            p, q, e = stack.pop()
            if abs(p) * b_k >= a_k * q:
                # g_w(u) / side = (ul q + e hull_den) a_k / (p scale)
                ed = e * hull_den
                lo = (ul * q + ed) * a_k
                hi = (vl * q + ed) * a_k
                if p < 0:
                    lo, hi = hi, lo
                den = p * scale
                cells.update(range(lo // den, -(-hi // den)))
                continue
            walked += len(gens)
            if walked > word_budget:
                raise BudgetExceededError(
                    f"box counting walked more than {word_budget} words "
                    f"by k={k}")
            stack.extend([(p * pj, q * qj, pj * e - bq * q)
                          for pj, qj, bq in gens])
        counts.append(len(cells))
    return BoxCounts(delta=delta, hull=(u, v), ks=tuple(range(1, k_max + 1)),
                     counts=tuple(counts))


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
# digit measures


def digit_measure_cdf(base: int, digits, h, depth: int = 64
                      ) -> tuple[Fraction, Fraction]:
    """Exact bracket for mu([0, h]) where mu is the equal-weight
    self-similar measure on base-`base` expansions with the given digit
    set, supported in [0, 1].

    Descends the digit cells of h; every level multiplies the unresolved
    mass by 1/#digits, so the bracket width is at most #digits**-depth.
    """
    if not isinstance(base, int) or base < 2:
        raise ConfigError("base must be an integer >= 2")
    digit_list = sorted(set(int(d) for d in digits))
    if not digit_list:
        raise ConfigError("digit set must be nonempty")
    if digit_list[0] < 0 or digit_list[-1] >= base:
        raise ConfigError("digits must lie in [0, base)")
    if depth < 1:
        raise DomainError("depth must be >= 1")
    h = Fraction(h)
    if h < 0 or h > 1:
        raise DomainError("h must lie in [0, 1]")

    weight = Fraction(1, 1)
    lo = Fraction(0)
    t = h
    count = Fraction(1, len(digit_list))
    for _ in range(depth):
        if t >= 1:
            return lo + weight, lo + weight
        if t <= 0:
            return lo, lo
        full = sum(1 for d in digit_list if Fraction(d + 1, base) <= t)
        lo += weight * count * full
        cell = (t * base).__floor__()
        if cell not in digit_list:
            return lo, lo
        weight *= count
        t = t * base - cell
    return lo, lo + weight


# ---------------------------------------------------------------------------
# density profiles


@dataclass(frozen=True)
class DensityReport:
    samples: tuple[tuple[float, float | None, float], ...]
    sup_tail: float
    inf_tail: float
    tail_window: tuple[float, float]
    periodic_profile: tuple[tuple[float, float], ...]
    defect: float | None


def density_profile(profile: CountingProfile, s: float, period_ratio=None,
                    periods: int = 3, min_per_period: int = 32) -> DensityReport:
    """Normalized counts N(h)/h**s with tail extrema and, for a declared
    multiplicative period, the mismatch between the last two periods.

    N is a step function, so on each stretch between profile entries the
    normalized count is maximal at the left end and approaches
    N(h_i)/h_{i+1}**s at the right end; the tail extrema scan both
    families.  They are exact for the window exactly when the grid
    contains every orbit point inside it, which is how the command line
    builds density grids.
    """
    entries = [(Fraction(h), n) for h, n in profile.entries]
    if len(entries) < 2:
        raise DomainError("density profile needs at least 2 entries")

    def value(h: Fraction, n: int) -> float:
        return n / float(h) ** s

    if period_ratio is None:
        tail = entries[-min(10, len(entries)):]
        sup_tail = max(value(h, n) for h, n in tail)
        inf_tail = min(value(h, n) for h, n in tail)
        for (h0, n0), (h1, _) in zip(tail, tail[1:]):
            inf_tail = min(inf_tail, n0 / float(h1) ** s)
        samples = tuple((float(h), None, value(h, n)) for h, n in entries)
        return DensityReport(samples=samples, sup_tail=sup_tail,
                             inf_tail=inf_tail,
                             tail_window=(float(tail[0][0]), float(tail[-1][0])),
                             periodic_profile=(), defect=None)

    ratio = Fraction(period_ratio)
    if ratio <= 1:
        raise DomainError("period ratio must exceed 1")
    log_r = math.log(float(ratio))
    h_max = entries[-1][0]
    if entries[0][0] > h_max / ratio**periods:
        raise DomainError(
            f"profile must span at least {periods} periods of ratio "
            f"{format_rational(ratio)}")
    for t in range(periods):
        lo, hi = h_max / ratio ** (t + 1), h_max / ratio**t
        inside = sum(1 for h, _ in entries if lo < h <= hi)
        if inside < min_per_period:
            raise DomainError(
                f"grid too sparse: period ({format_rational(lo)}, "
                f"{format_rational(hi)}] holds {inside} < {min_per_period} values")

    window_lo = h_max / ratio
    in_window = [(h, n) for h, n in entries if window_lo <= h <= h_max]
    sup_tail = max(value(h, n) for h, n in in_window)
    inf_tail = min(value(h, n) for h, n in in_window)
    for (h0, n0), (h1, _) in zip(in_window, in_window[1:]):
        inf_tail = min(inf_tail, n0 / float(h1) ** s)

    by_h = {h: n for h, n in entries}
    defect = None
    matched = 0
    prev_lo = h_max / ratio**2
    for h, n in entries:
        if prev_lo <= h <= window_lo and ratio * h in by_h:
            matched += 1
            gap = abs(value(ratio * h, by_h[ratio * h]) - value(h, n))
            defect = gap if defect is None else max(defect, gap)
    if matched < min_per_period:
        raise DomainError(
            "periodicity defect needs a period-matched grid: only "
            f"{matched} values h with ratio*h also on the grid")

    samples = []
    for h, n in entries:
        phase = math.log(float(h)) / log_r % 1.0
        samples.append((float(h), phase, value(h, n)))
    periodic = tuple((ph, val) for (hf, ph, val), (h, _) in zip(samples, entries)
                     if window_lo <= h <= h_max)
    return DensityReport(samples=tuple(samples), sup_tail=sup_tail,
                         inf_tail=inf_tail,
                         tail_window=(float(window_lo), float(h_max)),
                         periodic_profile=periodic, defect=defect)


def _jumps_in(pts, lo, hi) -> set:
    """The h in [lo, hi] (0 < lo) where the count N(h) of the sorted
    points jumps: the magnitudes of the points of either sign."""
    jumps = set(pts[bisect_left(pts, lo):bisect_right(pts, hi)])
    jumps.update(-x for x in pts[bisect_left(pts, -hi):bisect_right(pts, -lo)])
    return jumps


def window_density_sup(sample: OrbitSample, s: float, lo, hi) -> float:
    """sup of N(h)/h**s over h in [lo, hi], exact for a complete sample.

    The sup of a right-continuous step count divided by h**s is attained
    at a jump or at the window's left edge.
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
    for a in _jumps_in(sample.points, lo, hi):
        best = max(best, sample.count_within(a) / float(a) ** s)
    return best


# ---------------------------------------------------------------------------
# renewal constant


@dataclass(frozen=True)
class RenewalEstimate:
    value: float
    tail_bound: float
    cutoff: float
    tail_density_sup: float


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
    required = system.max_ratio_mag * cutoff + system.max_offset_mag
    if sample.radius < required:
        raise DomainError(
            f"renewal sums need radius >= {format_rational(required)}, "
            f"sample has {format_rational(sample.radius)}")
    if not sample.complete:
        raise DomainError("renewal sums require a complete sample")

    def clamped(t: Fraction) -> float:
        # min(1, |t|**-s), with the value 1 at t = 0
        if -1 <= t <= 1:
            return 1.0
        return abs(float(t)) ** -s

    pts = sample.points
    maps = [(m.ratio, m.offset) for m in system.maps]

    near = pts[bisect_right(pts, Fraction(-1)):bisect_left(pts, Fraction(1))]
    s1 = math.fsum(
        math.fsum(clamped(r * x) for r, _ in maps) - 1.0 for x in near)

    lo = bisect_left(pts, -cutoff)
    hi = bisect_right(pts, cutoff)
    terms = []
    for idx in range(lo, hi):
        x = pts[idx]
        for r, b in maps:
            rx = r * x
            terms.append(clamped(rx + b) - clamped(rx))
    s2 = math.fsum(terms)

    s3 = math.fsum(clamped(Fraction(y)) for y in residuals)

    denom = s * math.fsum(
        abs(float(r)) ** -s * math.log(abs(float(r))) for r, _ in maps)
    value = (s1 + s2 + s3) / denom

    sup_tail = window_density_sup(sample, s, cutoff, sample.radius)
    tail_bound = (system.m * float(system.max_offset_mag) * s * sup_tail
                  * 2.0 ** (s + 2) / float(cutoff))
    return RenewalEstimate(value=value, tail_bound=tail_bound,
                           cutoff=float(cutoff), tail_density_sup=sup_tail)
