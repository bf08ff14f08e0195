"""Brute-force reference implementations used to pin expected values.

Everything here trades efficiency for obviousness and shares no state
with the library internals.  The one dynamic program, the quadratic cover
DP, is the plain scan over every last run that the library's O(k log k)
cover DP must match bit for bit.  The counting references take a sorted
list of distinct Fractions and answer by comparing Fractions, as the
library did before its samples moved onto an integer lattice.
"""

import math
from bisect import bisect_left, bisect_right
from collections import deque
from fractions import Fraction
from itertools import combinations_with_replacement, product


def brute_orbit(system, seed, radius, depth):
    """Values of all nonempty compositions up to the given depth, with no
    escape pruning, filtered to [-radius, radius].

    Returns (points_within, saturated): saturated is True when the last
    depth added nothing inside the radius, so the within-radius slice has
    stopped growing at this depth.
    """
    seed = Fraction(seed)
    radius = Fraction(radius)
    layer = {seed}
    seen = set()
    within = set()
    saturated = False
    for _ in range(depth):
        layer = {m(x) for m in system.maps for x in layer} - seen
        seen |= layer
        new_within = {x for x in layer if -radius <= x <= radius}
        saturated = not new_within
        within |= new_within
    return sorted(within), saturated


def fraction_orbit(system, seed, radius, node_budget):
    """The orbit walk on Fractions, as (lattice, scale, complete, used):
    the fields enumerate_orbit's OrbitSample must hold.

    Breadth-first closure of the seed's images, pruned beyond
    max(radius, escape radius); each insertion into the seen set costs
    one unit of the node budget, and the walk stops at the first image
    that would overrun it.  The points inside the radius go onto the
    lattice of the lcm of their reduced denominators at the end.  This
    is the walk enumerate_orbit made for non-integer ratios before it
    moved onto the integer lattice.
    """
    seed = Fraction(seed)
    radius = Fraction(radius)
    cap = max(radius, system.escape_radius)
    seen = set()
    queue = deque([seed])
    used = 0
    complete = True
    while queue and complete:
        x = queue.popleft()
        for m in system.maps:
            v = m(x)
            if abs(v) > cap or v in seen:
                continue
            if used >= node_budget:
                complete = False
                break
            seen.add(v)
            queue.append(v)
            used += 1
    inside = [v for v in seen if -radius <= v <= radius]
    scale = math.lcm(*{v.denominator for v in inside})
    lattice = sorted(v.numerator * (scale // v.denominator) for v in inside)
    return lattice, scale, complete, used


def truncated_orbit(system, seed, depth):
    """All values of compositions of length 0..depth applied to the seed,
    as a set of Fractions, by a breadth-first walk of AffineMap calls."""
    seed = Fraction(seed)
    current = {seed}
    frontier = [seed]
    for _ in range(depth):
        nxt = []
        for x in frontier:
            for m in system.maps:
                v = m(x)
                if v not in current:
                    current.add(v)
                    nxt.append(v)
        frontier = nxt
    return current


def fraction_overlap_probe(system, seed, depths):
    """(depth, |O_depth|, cells) for each depth in ascending order, with
    O_depth = truncated_orbit restarted from the seed and cells[i][j] =
    #(f_i(O_depth) with f_j(O_depth)) off the diagonal, 0 on it: the
    probe overlap_probe ran before it moved onto one integer walk."""
    out = []
    for depth in sorted(set(depths)):
        o_n = truncated_orbit(system, seed, depth)
        images = [{m(x) for x in o_n} for m in system.maps]
        cells = tuple(
            tuple(0 if i == j else len(a & b) for j, b in enumerate(images))
            for i, a in enumerate(images))
        out.append((depth, len(o_n), cells))
    return out


def window_max_brute(sample, h):
    """Most points in a window [x-h, x+h] inside [-radius, radius], as
    (count, centre), by counting every candidate window point by point.

    A best window can be slid right until its left edge meets a point or
    its right edge meets the radius, so the candidates are the windows
    whose left edge is a point, moved left to end at the radius where
    they would pass it.  Ties go to the first candidate in point order.
    """
    h = Fraction(h)
    radius = sample.radius
    best, centre = 0, None
    for p in sample.points:
        left = min(p, radius - 2 * h)
        count = sum(1 for q in sample.points if left <= q <= left + 2 * h)
        if count > best:
            best, centre = count, left + h
    return best, centre


def count_within_points(pts, h):
    """Number of the sorted Fractions pts in [-h, h]."""
    return bisect_right(pts, h) - bisect_left(pts, -h)


def jumps_in_points(pts, lo, hi):
    """The h in [lo, hi] (0 < lo) where count_within_points jumps: the
    magnitudes of the points of either sign."""
    jumps = set(pts[bisect_left(pts, lo):bisect_right(pts, hi)])
    jumps.update(-x for x in pts[bisect_left(pts, -hi):bisect_right(pts, -lo)])
    return jumps


def window_density_sup_points(pts, s, lo, hi):
    """sup of N(h)/h**s over h in [lo, hi]: the left edge and every jump,
    each counted by its own pair of binary searches."""
    lo = Fraction(lo)
    best = count_within_points(pts, lo) / float(lo) ** s
    for a in jumps_in_points(pts, lo, Fraction(hi)):
        best = max(best, count_within_points(pts, a) / float(a) ** s)
    return best


def density_scans(entries, s, ratio, periods):
    """The range scans of a periodic density profile over the entries
    (h, N(h)), one pass over every entry each, as (values per period,
    sup_tail, inf_tail, defect, matched).

    Period t counts the h in (h_max / ratio**(t+1), h_max / ratio**t];
    the tail is [h_max / ratio, h_max]; the defect pairs each h in
    [h_max / ratio**2, h_max / ratio] with ratio * h when that is also
    an entry, found through a dict.
    """
    ratio = Fraction(ratio)
    h_max = entries[-1][0]
    per_period = [
        sum(1 for h, _ in entries
            if h_max / ratio ** (t + 1) < h <= h_max / ratio**t)
        for t in range(periods)]
    tail = [(h, n) for h, n in entries if h_max / ratio <= h <= h_max]
    values = [n / float(h) ** s for h, n in tail]
    inf_tail = min(values)
    for (_, n0), (h1, _) in zip(tail, tail[1:]):
        inf_tail = min(inf_tail, n0 / float(h1) ** s)
    by_h = dict(entries)
    defect, matched = None, 0
    for h, n in entries:
        if h_max / ratio**2 <= h <= h_max / ratio and ratio * h in by_h:
            matched += 1
            gap = abs(by_h[ratio * h] / float(ratio * h) ** s
                      - n / float(h) ** s)
            defect = gap if defect is None else max(defect, gap)
    return per_period, max(values), inf_tail, defect, matched


def fraction_density_entries(cfg, pts, ratio, periods=3, fill=40,
                             max_jumps=200_000):
    """The density profile's entries (h, N(h)) on Fractions: the grid the
    command line built as a set of Fractions, and the counts
    counting_profile took h by h, before both moved onto the integer
    lattice.  pts is the sorted Fraction list of a complete sample.

    Without a ratio the grid is the h-grid plus every jump from its tail
    window up; with one it is a linear fill of each of the last periods,
    every jump in their span, and ratio * x for the jumps x one period
    below the top.  Beyond max_jumps distinct jumps only the fill stays.
    """
    top = cfg.grid_base**cfg.grid_kmax
    if ratio is None:
        spine = cfg.h_grid()
        lo = spine[max(0, len(spine) - 10)]
        grid = set(spine)
        jumps = jumps_in_points(pts, lo, top)
        if len(jumps) <= max_jumps:
            grid |= jumps
        grid = sorted(x for x in grid if x <= top)
    else:
        grid = set()
        for t in range(periods):
            period_lo = top / ratio ** (t + 1)
            step = period_lo * (ratio - 1) / fill
            grid.add(period_lo)
            for i in range(1, fill + 1):
                grid.add(period_lo + i * step)
        jumps = jumps_in_points(pts, top / ratio**periods, top)
        if len(jumps) <= max_jumps:
            grid |= jumps
            fold_lo, fold_hi = top / ratio**2, top / ratio
            grid |= {ratio * x for x in jumps if fold_lo <= x <= fold_hi}
        grid = sorted(grid)
    return [(h, count_within_points(pts, h)) for h in grid]


def contracted_hull(system):
    """Convex hull [u, v] of the inverse family's attractor by exact
    contraction from [-c, c], c the escape radius: the interval is mapped
    to the hull of its images until it stops moving.  After each step
    the map and endpoint attaining each bound give a 2x2 linear system
    whose solution is accepted once it is invariant.  This is the hull
    dual_attractor_hull computed before it took the closed form.
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
    raise AssertionError("attractor hull iteration failed to stabilize")


def consecutive_cover_min(points, alpha, n):
    """Minimal cover cost by enumerating every partition of the sorted
    points into consecutive runs (2**(k-1) bitmasks)."""
    pts = sorted(set(int(p) for p in points))
    k = len(pts)
    if k == 0:
        return 0.0, 0
    size = 2.0**n
    best = None
    best_blocks = None
    for mask in range(1 << (k - 1)):
        cost = 0.0
        blocks = 0
        start = 0
        for i in range(k):
            last = i == k - 1 or (mask >> i) & 1
            if last:
                cost += ((pts[i] - pts[start] + 1) / size) ** alpha
                blocks += 1
                start = i + 1
        if best is None or cost < best or (cost == best and blocks < best_blocks):
            best, best_blocks = cost, blocks
    return best, best_blocks


def quadratic_cover_min(points, alpha, n):
    """Minimal cover cost and its partition into consecutive runs, as
    (cost, partition), by the quadratic dynamic program over prefixes.

    For each prefix it scans the start of the last run from the right,
    stopping once that run alone exceeds the best total; ties go to fewer
    runs, then to the start seen first (the later one).
    """
    pts = sorted(set(int(p) for p in points))
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
    return cost[k], tuple(partition)


def arbitrary_cover_min(points, alpha, n, max_intervals):
    """Minimum over all covers by up to max_intervals integer intervals
    inside the cube.  Exponential; keep the cube tiny."""
    pts = sorted(set(int(p) for p in points))
    if not pts:
        return 0.0
    cells = range(-(2**n) // 2, (2**n) // 2)
    intervals = [(a, b) for a in cells for b in cells if a <= b]
    size = 2.0**n
    best = None
    # cost and coverage depend only on the multiset of intervals
    for count in range(1, max_intervals + 1):
        for combo in combinations_with_replacement(intervals, count):
            if any(not any(a <= p <= b for a, b in combo) for p in pts):
                continue
            cost = sum(((b - a + 1) / size) ** alpha for a, b in combo)
            if best is None or cost < best:
                best = cost
    return best


def composed_brute(system, word):
    """(ratio, offset) of f_{i1} o ... o f_{in} for the 1-based word,
    composed from scratch, innermost map first."""
    ratio, offset = Fraction(1), Fraction(0)
    for idx in reversed(word):
        m = system.maps[idx - 1]
        ratio, offset = m.ratio * ratio, m.ratio * offset + m.offset
    return ratio, offset


def overlaps_brute(system, max_word_length):
    """Pairs (first word, later word) of words of length <= max_word_length
    with the same composed map, each later word paired with the first
    one seen, words taken by length and then in itertools.product order."""
    first_seen, pairs = {}, []
    for n in range(1, max_word_length + 1):
        for word in product(range(1, system.m + 1), repeat=n):
            key = composed_brute(system, word)
            if key in first_seen:
                pairs.append((first_seen[key], word))
            else:
                first_seen[key] = word
    return pairs


def separation_brute(system, n):
    """Minimum over all pairs of distinct length-n words with equal
    composed ratio of |inverse image of 0 - inverse image of 0|."""
    words = list(product(range(1, system.m + 1), repeat=n))
    composed = [(word, *composed_brute(system, word)) for word in words]
    best = None
    for i in range(len(composed)):
        wi, ri, oi = composed[i]
        for j in range(i + 1, len(composed)):
            wj, rj, oj = composed[j]
            if ri != rj:
                continue
            gap = abs(-oi / ri - -oj / rj)
            if best is None or gap < best:
                best = gap
    return best


def digit_numbers(base, digits, k):
    """All integers whose base-`base` expansion of at most k digits uses
    only the given digit set."""
    values = {0} if 0 in digits else set()
    layer = {0}
    for _ in range(k):
        layer = {v * base + d for v in layer for d in digits}
        values |= layer
    return sorted(values)


def attractor_words(system, seed, depth):
    """Sorted distinct values of the words of exactly the given length
    applied to the seed, by Fraction AffineMap calls on the archimedean
    maps of a p-adic system: the walk attractor_sample made before it
    moved onto the integer lattice."""
    maps = system.archimedean().maps
    layer = {Fraction(seed)}
    for _ in range(depth):
        layer = {m(x) for m in maps for x in layer}
    return sorted(layer)


def box_count_cylinders(system, k):
    """Count cells [j*w, (j+1)*w), w = max ratio **-k, overlapping the
    depth-k cylinder intervals of the dual family with positive length.

    Cylinders of depth k already contain the attractor, so marking every
    cell that positively overlaps some cylinder over-counts only where a
    finer cylinder would withdraw; at equal contraction ratios the
    depth-k intervals are exact, which is the case this oracle is used
    for.
    """
    from rifslab.dimension import dual_attractor_hull

    u, v = dual_attractor_hull(system)
    duals = system.dual_maps()
    w = system.max_ratio_mag ** -k
    intervals = [(u, v)]
    for _ in range(k):
        intervals = [
            (min(d(a), d(b)), max(d(a), d(b)))
            for d in duals
            for a, b in intervals
        ]
    cells = set()
    for a, b in intervals:
        if a == b:
            continue
        jlo = (a / w).__floor__()
        jhi = (b / w).__ceil__() - 1
        cells.update(range(jlo, jhi + 1))
    return len(cells)


def box_count_cut_set(system, k, delta=None):
    """Count cells [j*w, (j+1)*w), w = hull span / delta**k, overlapping
    with positive length the images of the hull under the inverse
    compositions of the cut words: words grown one map at a time until
    their expansion first reaches delta**k.

    Composes Fraction AffineMaps word by word; valid for any mix of
    ratios, where box_count_cylinders is exact only for equal ones.
    """
    from rifslab.dimension import dual_attractor_hull

    delta = Fraction(system.max_ratio_mag if delta is None else delta)
    u, v = dual_attractor_hull(system)
    if u == v:
        return 1
    threshold = delta**k
    side = (v - u) / threshold
    duals = system.dual_maps()
    cells = set()
    stack = [(g, abs(m.ratio)) for g, m in zip(duals, system.maps)]
    while stack:
        g, expansion = stack.pop()
        if expansion >= threshold:
            a, b = sorted((g(u), g(v)))
            jlo = (a / side).__floor__()
            jhi = (b / side).__ceil__() - 1
            cells.update(range(jlo, jhi + 1))
            continue
        for gj, mj in zip(duals, system.maps):
            stack.append((g.after(gj), expansion * abs(mj.ratio)))
    return len(cells)


def fraction_renewal_constant(system, sample, residuals, s, cutoff):
    """renewal_constant with its three sums taken over Fractions: one
    Fraction per sample point within the cutoff, clamped after comparing
    it with -1 and 1.  The preconditions are the library's to check."""
    from rifslab import RenewalEstimate, window_density_sup

    def clamped(t):
        # min(1, |t|**-s), with the value 1 at t = 0
        if -1 <= t <= 1:
            return 1.0
        return abs(float(t)) ** -s

    cutoff = Fraction(cutoff)
    points = [Fraction(a, sample.scale) for a in sample.lattice]
    maps = [(m.ratio, m.offset) for m in system.maps]
    s1 = math.fsum(
        math.fsum(clamped(r * x) for r, _ in maps) - 1.0
        for x in points if -1 < x < 1)
    s2 = math.fsum([clamped(r * x + b) - clamped(r * x)
                    for x in points if -cutoff <= x <= cutoff
                    for r, b in maps])
    s3 = math.fsum(clamped(Fraction(y)) for y in residuals)
    denom = s * math.fsum(
        abs(float(r)) ** -s * math.log(abs(float(r))) for r, _ in maps)
    sup_tail = window_density_sup(sample, s, cutoff, sample.radius)
    tail_bound = (system.m * float(system.max_offset_mag) * s * sup_tail
                  * 2.0 ** (s + 2) / float(cutoff))
    return RenewalEstimate(value=(s1 + s2 + s3) / denom,
                           tail_bound=tail_bound, cutoff=float(cutoff),
                           tail_density_sup=sup_tail)
