"""Forward-orbit enumeration and the counting statistics built on it.

The orbit of a seed is the set of values of all nonempty map compositions
applied to it.  Because every map expands, values whose magnitude exceeds
max(radius, escape_radius) can never re-enter the window [-radius, radius]
and are pruned; breadth-first closure with that prune enumerates the orbit
restricted to the window exactly, or stops early with a partial sample
when the node budget runs out.

One breadth-first walk on Python ints serves every system.  A point x
is held as a = x * S, with S first the lcm of the denominators of the
seed and the offsets.  The images of depth n lie on (S Q**n)**-1 Z, Q the
lcm of the ratio denominators, so when a map (p/q) x + b sends a to
p a / q + b S and that is not an int, the walk multiplies S, and every
int it holds, by q / gcd(p a, q).  Integer ratios never refine S, and
each refinement at least doubles it.

The sample is stored once, on one integer lattice: point i is
lattice[i] / L, with L the lcm of the points' reduced denominators.
Counts, counting profiles, window scans, gaps and the orbit dump work
on those integers; a rational x enters them as floor(x * L), and a float
comes out as the correctly rounded int / int quotient, which is what
float(Fraction) computes too.  The Fraction list `points` is built only
when asked for.

The overlap probe walks the words of length at most top, the deepest
probed depth, on the fixed scale S Q**(top + 1).  There every value it
maps, of length k <= top, is a multiple of Q, so (p/q) x + b acts on
ints exactly.  Only `residual_points` still computes on Fractions: the
preimages of the few seed images.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import BudgetExceededError, DomainError
from .rational import format_rational, on_lattice
from .systems import Rifs

DEFAULT_NODE_BUDGET = 10_000_000


class LatticePoints:
    """A point set held once, on one integer lattice.

    Subclasses are dataclasses with the fields lattice, sorted distinct
    ints, and scale, a positive int L: point i is lattice[i] / L.
    `points` is the same set as a list of Fractions, built on first use
    and cached; the lattice holds the data and is never to be mutated.
    """

    def floor_scaled(self, x) -> int:
        """floor(x * L) for a rational x: the lattice points a <= x * L
        are exactly those a <= floor(x * L)."""
        if not isinstance(x, (int, Fraction)):
            x = Fraction(x)
        return x.numerator * self.scale // x.denominator

    @cached_property
    def points(self) -> list[Fraction]:
        scale = self.scale
        if scale == 1:
            # Fraction(a) holds the lattice's own int instead of a copy
            return [Fraction(a) for a in self.lattice]
        return [Fraction(a, scale) for a in self.lattice]

    def __len__(self) -> int:
        return len(self.lattice)


@dataclass
class OrbitSample(LatticePoints):
    """Orbit points inside [-radius, radius], on one integer lattice
    whose scale L is the lcm of the points' reduced denominators.

    complete means the pruned frontier drained before the node budget was
    hit, in which case the sample is exactly the orbit restricted to the
    window and is closed under every map that stays inside it.  A partial
    sample (complete False) is still a valid subset.
    """

    system: Rifs
    seed: Fraction
    radius: Fraction
    lattice: list[int]
    scale: int
    complete: bool
    node_budget_used: int

    def count_within(self, h) -> int:
        """Number of points in [-h, h]; exact binary search."""
        top = self.floor_scaled(h)
        return bisect_right(self.lattice, top) - bisect_left(self.lattice, -top)

    def __contains__(self, x) -> bool:
        x = Fraction(x)
        a, rem = divmod(x.numerator * self.scale, x.denominator)
        if rem:
            return False
        i = bisect_left(self.lattice, a)
        return i < len(self.lattice) and self.lattice[i] == a


@dataclass(frozen=True)
class CountingProfile(LatticePoints):
    """Window counts N(h) = #(orbit in [-h, h]) along an increasing grid,
    on one integer lattice: N(lattice[i] / scale) = counts[i].

    The lattice holds the grid as strictly increasing positive ints, and
    `points` is the grid as Fractions.  `entries`, the pairs (h, N(h)) with
    h a Fraction, is built from that view on each use.
    """

    lattice: list[int]
    scale: int
    counts: list[int]

    @property
    def entries(self) -> tuple[tuple[Fraction, int], ...]:
        return tuple(zip(self.points, self.counts))


@dataclass(frozen=True)
class OverlapMatrix:
    depth: int
    truncated_orbit_size: int
    cells: tuple[tuple[int, ...], ...]

    def cell(self, i: int, j: int) -> int:
        return self.cells[i - 1][j - 1]

    @property
    def max_offdiagonal(self) -> int:
        return max((c for i, row in enumerate(self.cells)
                    for j, c in enumerate(row) if i != j), default=0)


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
    cap_num, cap_den = expand_cap.numerator, expand_cap.denominator

    # x is held as the int a = x * scale, and (p/q) x + b sends it to
    # p a / q + b * scale
    scale, maps, start = system.on_lattice(seed)
    cap = cap_num * scale // cap_den
    seen = set()
    queue = deque(start)
    used = 0
    complete = True
    while queue:
        a = queue.popleft()
        for ratio, den, shift in maps:
            v = ratio * a
            if den != 1:
                if v % den:
                    # refine by g and walk a * g again; the images taken
                    # so far are in seen, so the visit order is kept
                    g = den // math.gcd(v, den)
                    scale *= g
                    cap = cap_num * scale // cap_den
                    maps = [(r, d, b * g) for r, d, b in maps]
                    seen = {b * g for b in seen}
                    queue = deque(b * g for b in queue)
                    queue.appendleft(a * g)
                    break
                v //= den
            v += shift
            if v < -cap or v > cap or v in seen:
                continue
            if used >= node_budget:
                complete = False
                queue.clear()
                break
            seen.add(v)
            queue.append(v)
            used += 1

    record = radius.numerator * scale // radius.denominator
    lattice = sorted(v for v in seen if -record <= v <= record)
    # reduce the scale to the lcm of the points' reduced denominators
    common = math.gcd(scale, *lattice)
    if common > 1:
        scale //= common
        lattice = [v // common for v in lattice]
    return OrbitSample(system=system, seed=seed, radius=radius,
                       lattice=lattice, scale=scale, complete=complete,
                       node_budget_used=used)


def counting_profile(sample: OrbitSample, grid) -> CountingProfile:
    """Exact counts N(h) over an increasing grid of rational h values.

    Requires a complete sample and every h within the verified radius.
    The grid goes onto the lattice of the lcm D of its denominators once,
    as ints g with h = g / D, and a sample point a / L lies in [-h, h]
    exactly when |a| <= floor(g L / D).
    """
    grid = [h if isinstance(h, Fraction) else Fraction(h) for h in grid]
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
    if not sample.complete:
        raise DomainError("counting requires a complete sample")
    grid, scale = on_lattice(grid)
    pts = sample.lattice
    counts = []
    for g in grid:
        top = g * sample.scale // scale
        counts.append(bisect_right(pts, top) - bisect_left(pts, -top))
    return CountingProfile(grid, scale, counts)


def window_max_count(sample: OrbitSample, h) -> tuple[int, Fraction | None]:
    """Max number of points in any window [x-h, x+h] inside the radius.

    Returns (count, witness center).  The optimum is attained by a window
    whose left edge sits on a point, or which is flush against the right
    end of the verified region; both families are scanned, in one
    two-pointer pass over the lattice.
    """
    h = Fraction(h)
    if not sample.complete:
        raise DomainError("window scan requires a complete sample")
    if h <= 0:
        raise DomainError("window half-width must be positive")
    if h > sample.radius:
        raise DomainError("window [x-h, x+h] must fit inside the radius")
    pts = sample.lattice
    if not pts:
        return 0, None
    # on the lattice, [a/L, a/L + 2h] holds the b with a <= b <= a + width,
    # and it passes the radius R exactly when a > flush = floor((R - 2h) L)
    start = sample.radius - 2 * h
    width = sample.floor_scaled(2 * h)
    flush = sample.floor_scaled(start)
    best = 0
    best_left = None
    j = 0
    n = len(pts)
    # points are distinct, so the window with left edge pts[i] starts at i
    for i, left in enumerate(pts):
        if left > flush:
            # this point and every later one give the same flush window
            # [R - 2h, R], whose lattice points run from ceil((R - 2h) L)
            count = (bisect_right(pts, sample.floor_scaled(sample.radius))
                     - bisect_left(pts, -sample.floor_scaled(-start)))
            if count > best:
                return count, sample.radius - h
            break
        right = left + width
        while j < n and pts[j] <= right:
            j += 1
        if j - i > best:
            best, best_left = j - i, left
    return best, Fraction(best_left, sample.scale) + h


def min_gap(sample: OrbitSample) -> Fraction | None:
    """Smallest gap between adjacent points, or None for fewer than 2."""
    pts = sample.lattice
    if len(pts) < 2:
        return None
    return Fraction(min(b - a for a, b in zip(pts, pts[1:])), sample.scale)


def overlap_probe(system: Rifs, seed, depths,
                  node_budget: int = DEFAULT_NODE_BUDGET) -> list[OverlapMatrix]:
    """Pairwise image intersections of depth-truncated orbits.

    For each depth n, with O_n the set of values of words of length at
    most n, count #(f_i(O_n) with f_j(O_n)) for each pair.  Cells that
    stay zero as the depth grows are evidence (not proof) that the system
    is non-overlapping off its exceptional seeds.

    One walk on the module's fixed scale serves every depth: each map's
    image set grows by the images of the newest layer of values.  The
    m + ... + m**n nodes of each depth n are budgeted before walking.
    """
    depths = sorted(set(int(d) for d in depths))
    if not depths or depths[0] < 1:
        raise DomainError("depths must be positive")
    for depth in depths:
        total = sum(system.m**k for k in range(1, depth + 1))
        if total > node_budget:
            raise BudgetExceededError(f"depth {depth} needs up to {total} "
                                      f"nodes, budget is {node_budget}")
    top = depths[-1]
    _, maps, (start,) = system.on_lattice(seed)
    # multiply the lattice by Q**(top + 1)
    g = on_lattice(m.ratio for m in system.maps)[1] ** (top + 1)
    maps = [(p, q, shift * g) for p, q, shift in maps]
    fresh = [{start * g}]
    orbit = set()
    images = [set() for _ in maps]
    out = []
    for k in range(top + 1):
        layer = set().union(*fresh) - orbit
        orbit |= layer
        fresh = [{p * a // q + shift for a in layer} for p, q, shift in maps]
        for image, new in zip(images, fresh):
            image |= new
        if k == depths[len(out)]:
            cells = tuple(tuple(0 if i == j else len(a & b)
                                for j, b in enumerate(images))
                          for i, a in enumerate(images))
            out.append(OverlapMatrix(k, len(orbit), cells))
    return out


def residual_radius(system: Rifs, seed: Fraction) -> Fraction:
    """Smallest radius that holds every seed image f_i(seed) and all of
    its preimages f_j^{-1}(f_i(seed)), the points `residual_points`
    looks up."""
    needed = Fraction(0)
    for y in {m(seed) for m in system.maps}:
        needed = max(needed, abs(y))
        for m in system.maps:
            needed = max(needed, abs(m.inverse()(y)))
    return needed


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
    needed = residual_radius(system, sample.seed)
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
    """Dump one rational per line, ascending, with provenance headers.

    Each line is format_rational of the point: a / L reduced by gcd(a, L),
    written without its denominator when that is 1.
    """
    lines = [
        f"# system={sample.system.describe()}",
        f"# seed={format_rational(sample.seed)}",
        f"# radius={format_rational(sample.radius)}",
        f"# complete={'true' if sample.complete else 'false'}",
    ]
    scale = sample.scale
    for a in sample.lattice:
        g = math.gcd(a, scale)
        den = scale // g
        lines.append(str(a // g) if den == 1 else f"{a // g}/{den}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
