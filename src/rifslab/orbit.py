"""Forward-orbit enumeration and the counting statistics built on it.

The orbit of a seed is the set of values of all nonempty map compositions
applied to it.  Because every map expands, values whose magnitude exceeds
max(radius, escape_radius) can never re-enter the window [-radius, radius]
and are pruned; breadth-first closure with that prune enumerates the orbit
restricted to the window exactly, or stops early with a partial sample
when the node budget runs out.

One breadth-first walk serves every system.  When all ratios are
integers, the orbit lives on a fixed integer lattice: after scaling seed
and offsets by the lcm N of their denominators, the walk runs on Python
ints and the sorted results are divided by N once at the end.  Otherwise
it runs on Fractions directly.  Both walks are exact.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from .errors import BudgetExceededError, ConfigError, DomainError
from .rational import format_rational
from .systems import Rifs

DEFAULT_NODE_BUDGET = 10_000_000


@dataclass
class OrbitSample:
    """Orbit points inside [-radius, radius], sorted ascending.

    complete means the pruned frontier drained before the node budget was
    hit, in which case points is exactly the orbit restricted to the
    window and is closed under every map that stays inside it.  A partial
    sample (complete False) is still a valid subset.
    """

    system: Rifs
    seed: Fraction
    radius: Fraction
    points: list[Fraction]
    complete: bool
    node_budget_used: int

    def count_within(self, h: Fraction) -> int:
        """Number of points in [-h, h]; exact binary search."""
        return bisect_right(self.points, h) - bisect_left(self.points, -h)

    def __contains__(self, x) -> bool:
        x = Fraction(x)
        i = bisect_left(self.points, x)
        return i < len(self.points) and self.points[i] == x


@dataclass(frozen=True)
class CountingProfile:
    """Window counts N(h) = #(orbit in [-h, h]) along an increasing grid."""

    entries: tuple[tuple[Fraction, int], ...]

    @property
    def grid(self) -> tuple[Fraction, ...]:
        return tuple(h for h, _ in self.entries)

    @property
    def counts(self) -> tuple[int, ...]:
        return tuple(n for _, n in self.entries)


@dataclass(frozen=True)
class OverlapMatrix:
    depth: int
    truncated_orbit_size: int
    cells: tuple[tuple[int, ...], ...]

    def cell(self, i: int, j: int) -> int:
        return self.cells[i - 1][j - 1]

    @property
    def max_offdiagonal(self) -> int:
        m = len(self.cells)
        return max(
            (self.cells[i][j] for i in range(m) for j in range(m) if i != j),
            default=0,
        )


def _integer_form(system: Rifs, seed: Fraction):
    """Rescale onto the integer lattice when all ratios are integers.

    Returns (scale N, maps as (r, N*b) int pairs, N*seed) so that the
    orbit of N*seed under y -> r*y + N*b is N times the original orbit,
    or None when some ratio is non-integer.
    """
    if any(m.ratio.denominator != 1 for m in system.maps):
        return None
    scale = math.lcm(seed.denominator,
                     *(m.offset.denominator for m in system.maps))
    maps = [(m.ratio.numerator, int(m.offset * scale)) for m in system.maps]
    return scale, maps, int(seed * scale)


def _bfs_generic(maps, seed, expand_cap, node_budget):
    """Breadth-first closure of the seed's images under the maps.

    Values with |v| > expand_cap are pruned; dedup is exact.  Works for
    any value type with arithmetic and comparison (int or Fraction).
    Returns (seen set, complete flag, insertions used).
    """
    seen = set()
    queue = deque([seed])
    used = 0
    complete = True
    while queue:
        x = queue.popleft()
        for ratio, offset in maps:
            v = ratio * x + offset
            if v < -expand_cap or v > expand_cap:
                continue
            if v in seen:
                continue
            if used >= node_budget:
                complete = False
                queue.clear()
                break
            seen.add(v)
            queue.append(v)
            used += 1
    return seen, complete, used


def enumerate_orbit(system: Rifs, seed, radius, *,
                    node_budget: int = DEFAULT_NODE_BUDGET) -> OrbitSample:
    """Enumerate the orbit of seed restricted to [-radius, radius].

    The seed itself is a member only if some nonempty composition returns
    to it.  Enumeration is exact; when the node budget (counted in
    frontier insertions) runs out, a partial sample with complete=False is
    returned rather than an error.
    """
    seed = Fraction(seed)
    radius = Fraction(radius)
    if radius <= 0:
        raise DomainError("radius must be positive")
    if node_budget <= 0:
        raise DomainError("node_budget must be positive")
    expand_cap = max(radius, system.escape_radius)

    integer_form = _integer_form(system, seed)
    if integer_form is None:
        scale = None
        maps = [(m.ratio, m.offset) for m in system.maps]
        start, cap, record = seed, expand_cap, radius
    else:
        scale, maps, start = integer_form
        cap = (expand_cap * scale).__floor__()
        record = (radius * scale).__floor__()
    seen, complete, used = _bfs_generic(maps, start, cap, node_budget)
    points = sorted(v for v in seen if -record <= v <= record)
    if scale is not None:
        # scale > 0, so dividing by it keeps the order
        points = [Fraction(v, scale) for v in points]
    return OrbitSample(system=system, seed=seed, radius=radius,
                       points=points, complete=complete,
                       node_budget_used=used)


def counting_profile(sample: OrbitSample, grid) -> CountingProfile:
    """Exact counts N(h) over an increasing grid of rational h values.

    Requires a complete sample and every h within the verified radius.
    """
    if not sample.complete:
        raise DomainError("counting requires a complete sample")
    grid = [Fraction(h) for h in grid]
    if not grid:
        raise DomainError("grid must be nonempty")
    for a, b in zip(grid, grid[1:]):
        if b <= a:
            raise DomainError("grid must be strictly increasing")
    if grid[0] <= 0:
        raise DomainError("grid values must be positive")
    if grid[-1] > sample.radius:
        raise DomainError(
            f"grid value {format_rational(grid[-1])} exceeds verified radius "
            f"{format_rational(sample.radius)}")
    return CountingProfile(tuple((h, sample.count_within(h)) for h in grid))


def window_max_count(sample: OrbitSample, h) -> tuple[int, Fraction | None]:
    """Max number of points in any window [x-h, x+h] inside the radius.

    Returns (count, witness center).  The optimum is attained by a window
    whose left edge sits on a point, or which is flush against the right
    end of the verified region; both families are scanned.
    """
    h = Fraction(h)
    if not sample.complete:
        raise DomainError("window scan requires a complete sample")
    if h <= 0:
        raise DomainError("window half-width must be positive")
    if h > sample.radius:
        raise DomainError("window [x-h, x+h] must fit inside the radius")
    pts = sample.points
    if not pts:
        return 0, None
    best = 0
    center: Fraction | None = None
    width = 2 * h
    for i, left in enumerate(pts):
        if left + width > sample.radius:
            left = sample.radius - width
        j = bisect_right(pts, left + width)
        i0 = bisect_left(pts, left)
        if j - i0 > best:
            best = j - i0
            center = left + h
    return best, center


def min_gap(sample: OrbitSample) -> Fraction | None:
    """Smallest gap between adjacent points, or None for fewer than 2."""
    pts = sample.points
    if len(pts) < 2:
        return None
    return min(b - a for a, b in zip(pts, pts[1:]))


def truncated_orbit(system: Rifs, seed, depth: int,
                    node_budget: int = DEFAULT_NODE_BUDGET) -> set[Fraction]:
    """All values of compositions of length 0..depth applied to the seed."""
    if depth < 0:
        raise DomainError("depth must be >= 0")
    total = sum(system.m**k for k in range(1, depth + 1))
    if total > node_budget:
        raise BudgetExceededError(
            f"depth {depth} needs up to {total} nodes, budget is {node_budget}")
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


def overlap_probe(system: Rifs, seed, depths,
                  node_budget: int = DEFAULT_NODE_BUDGET) -> list[OverlapMatrix]:
    """Pairwise image intersections of depth-truncated orbits.

    For each depth n, with O_n the set of values of words of length at
    most n, count #(f_i(O_n) with f_j(O_n)) for each pair.  Cells that
    stay zero as the depth grows are evidence (not proof) that the system
    is non-overlapping off its exceptional seeds.
    """
    depths = sorted(set(int(d) for d in depths))
    if not depths or depths[0] < 1:
        raise DomainError("depths must be positive")
    out = []
    for depth in depths:
        o_n = truncated_orbit(system, seed, depth, node_budget)
        images = [{m(x) for x in o_n} for m in system.maps]
        cells = tuple(
            tuple(
                0 if i == j else len(images[i] & images[j])
                for j in range(system.m))
            for i in range(system.m))
        out.append(OverlapMatrix(depth=depth, truncated_orbit_size=len(o_n),
                                 cells=cells))
    return out


def residual_points(sample: OrbitSample) -> list[Fraction]:
    """Orbit points that are not the image of any orbit point.

    Candidates are exactly the seed images f_i(seed); a candidate y is
    residual when every preimage f_j^{-1}(y) lies outside the orbit.  All
    membership checks must land inside the verified radius, otherwise the
    radius is too small to decide and an error says how large it must be.
    """
    if not sample.complete:
        raise DomainError("residual scan requires a complete sample")
    system = sample.system
    candidates = sorted({m(sample.seed) for m in system.maps})
    needed = max(abs(y) for y in candidates)
    for y in candidates:
        for m in system.maps:
            needed = max(needed, abs(m.inverse()(y)))
    if needed > sample.radius:
        raise DomainError(
            f"residual scan needs radius >= {format_rational(needed)}, "
            f"sample has {format_rational(sample.radius)}")
    result = []
    for y in candidates:
        if all(m.inverse()(y) not in sample for m in system.maps):
            result.append(y)
    return result


def write_orbit_dump(sample: OrbitSample, path) -> None:
    """Dump one rational per line, ascending, with provenance headers."""
    lines = [
        f"# system={sample.system.describe()}",
        f"# seed={format_rational(sample.seed)}",
        f"# radius={format_rational(sample.radius)}",
        f"# complete={'true' if sample.complete else 'false'}",
    ]
    lines.extend(format_rational(p) for p in sample.points)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
