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
lcm of the ratio denominators.  A map (p/q) x + b sends a to
p a / q + b S.  The walk first prunes an image beyond the bound, by an
exact test of p a against a range per map.  An image it keeps that is
not an int refines the walk: S, and every int the walk holds, is
multiplied by g = q / gcd(p a, q) times the power of g's primes that the
earlier refinements took.  A prime of exponent k in g that the
refinements have raised by e so far is thus raised by 2e + k in all,
less than twice what the image needs.  So a prime whose exponent the
points raise by n refines about log2(n) times, and the final gcd with
the points still returns the least scale.  Integer ratios never refine
S.

The sample is stored once, on one integer lattice: point i is
lattice[i] / L, with L the lcm of the points' reduced denominators.
Counts, window scans, gaps and the orbit dump work on those integers; a
rational x enters them as floor(x * L), and a float comes out as the
correctly rounded int / int quotient, which is what float(Fraction)
computes too.  The Fraction list `points` is built only when asked for.
A sample is the orbit only inside its radius and only when complete.
`OrbitSample.require` is the one rule that refuses a reading outside
that: counts, jumps, membership, window scans, the residual scan, the
renewal constant and the sandwich all ask it.  The orbit dump, `min_gap`
and the cover table do not; they describe a partial sample as it is.

The overlap probe walks the words of length at most top, the deepest
probed depth, on the fixed scale S Q**(top + 1).  There every value it
maps, of length k <= top, is a multiple of Q, so (p/q) x + b acts on
ints exactly.  Only `residual_points` still computes on Fractions: the
preimages of the few seed images.
"""

from __future__ import annotations

import math
import operator
from array import array
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import compress, islice

from .errors import DEFAULT_NODE_BUDGET, BudgetExceededError, DomainError
from .rational import format_rational, on_lattice
from .systems import Rifs


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
    sample (complete False) is still a valid subset.  Only `require`
    decides what the sample can answer: every reading of the orbit asks
    it, and it refuses a partial sample and a reading past the radius.
    """

    system: Rifs
    seed: Fraction
    radius: Fraction
    lattice: list[int]
    scale: int
    complete: bool
    node_budget_used: int

    def require(self, radius, what: str) -> None:
        """Refuse `what`, a reading of the orbit within [-radius, radius],
        unless the sample is complete and its radius reaches that far:
        only then is the sample the orbit there."""
        if not self.complete:
            raise DomainError(f"{what} requires a complete sample")
        if radius > self.radius:
            raise DomainError(f"{what} needs radius >= "
                              f"{format_rational(Fraction(radius))}, "
                              f"sample has {format_rational(self.radius)}")

    def count_within(self, h) -> int:
        """N(h), the number of points in [-h, h], for 0 <= h <= radius;
        exact binary search."""
        if h < 0:
            raise DomainError("count needs h >= 0")
        self.require(h, "counting")
        top = self.floor_scaled(h)
        return bisect_right(self.lattice, top) - bisect_left(self.lattice, -top)

    def jumps(self, lo, hi) -> tuple[list[int], array]:
        """The step function N(h) = count_within(h) on [lo, hi], 0 < lo:
        the distinct magnitudes m with lo <= m / L <= hi, ascending, and
        an array of N(m / L) at each."""
        if lo <= 0:
            raise DomainError("jumps need lo > 0")
        self.require(hi, "counting")
        pts = self.lattice
        bot, top = -self.floor_scaled(-lo), self.floor_scaled(hi)
        start, neg = bisect_left(pts, -top), bisect_right(pts, -bot)
        pos = bisect_left(pts, bot)
        # a descending run of magnitudes and an ascending one: one merge
        mags = [-a for a in pts[start:neg]]
        mags.extend(islice(pts, pos, bisect_right(pts, top)))
        mags.sort()
        # N(m / L) is the pos - neg points below bot plus the rank of m
        counts = array("q", range(pos - neg + 1, pos - neg + len(mags) + 1))
        if start < neg:
            # keep one entry per pair +-m, the count of both
            last = [*map(operator.ne, mags, islice(mags, 1, None)), True]
            mags = list(compress(mags, last))
            counts = array("q", compress(counts, last))
        return mags, counts

    def __contains__(self, x) -> bool:
        x = Fraction(x)
        self.require(abs(x), "membership")
        a, rem = divmod(x.numerator * self.scale, x.denominator)
        if rem:
            return False
        i = bisect_left(self.lattice, a)
        return i < len(self.lattice) and self.lattice[i] == a


@dataclass(frozen=True)
class CountingProfile:
    """Window counts N(h) = #(orbit in [-h, h]) along a strictly
    increasing grid of positive Fractions: N(grid[i]) = counts[i].
    `entries`, the pairs (h, N(h)), is built on each use."""

    grid: list[Fraction]
    counts: list[int]

    @property
    def entries(self) -> tuple[tuple[Fraction, int], ...]:
        return tuple(zip(self.grid, self.counts))


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
    # (p a + b * scale * q) / q, which lies within the cap exactly when
    # p a is in [lo, hi]: |p a + b * scale * q| <= floor(cap * scale * q)
    def placed(maps, scale):
        walk = []
        for p, q, shift in maps:
            top = cap_num * scale * q // cap_den
            walk.append((p, q, shift, -top - shift * q, top - shift * q))
        return walk

    scale, maps, start = system.on_lattice(seed)
    maps = placed(maps, scale)
    seen = set()
    queue = deque(start)
    used = 0
    complete = True
    # the product of the refinements so far
    grown = 1
    while queue:
        a = queue.popleft()
        for ratio, den, shift, lo, hi in maps:
            v = ratio * a
            if v < lo or v > hi:
                continue
            if den != 1:
                if v % den:
                    # refine by g times the power of g's primes that the
                    # refinements so far took (each prime's exponent in
                    # grown is below its bit length), and walk a * g
                    # again; the images taken so far are in seen, so the
                    # visit order is kept
                    g = den // math.gcd(v, den)
                    g *= math.gcd(grown, g ** grown.bit_length())
                    grown *= g
                    scale *= g
                    maps = placed([(r, d, b * g) for r, d, b, _, _ in maps],
                                  scale)
                    seen = {b * g for b in seen}
                    queue = deque(b * g for b in queue)
                    queue.appendleft(a * g)
                    break
                v //= den
            v += shift
            if v in seen:
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
    # the walk's set goes before a rescaled copy of the lattice is made
    del seen
    # reduce the scale to the lcm of the points' reduced denominators
    common = math.gcd(scale, *lattice)
    if common > 1:
        scale //= common
        lattice = [v // common for v in lattice]
    return OrbitSample(system=system, seed=seed, radius=radius,
                       lattice=lattice, scale=scale, complete=complete,
                       node_budget_used=used)


def counting_profile(sample: OrbitSample, grid) -> CountingProfile:
    """Exact counts N(h) over an increasing grid of rational h values,
    each read by `sample.count_within`, which refuses a grid past the
    radius."""
    grid = [h if isinstance(h, Fraction) else Fraction(h) for h in grid]
    if not grid:
        raise DomainError("grid must be nonempty")
    for a, b in zip(grid, grid[1:]):
        if b <= a:
            raise DomainError("grid must be strictly increasing")
    if grid[0] <= 0:
        raise DomainError("grid values must be positive")
    return CountingProfile(grid, [sample.count_within(h) for h in grid])


def window_max_count(sample: OrbitSample, h) -> tuple[int, Fraction | None]:
    """Max number of points in any window [x-h, x+h] inside the radius.

    Returns (count, witness center).  The optimum is attained by a window
    whose left edge sits on a point, or which is flush against the right
    end of the verified region; both families are scanned, in one
    two-pointer pass over the lattice.
    """
    h = Fraction(h)
    if h <= 0:
        raise DomainError("window half-width must be positive")
    sample.require(h, "window scan")
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
    system = sample.system
    sample.require(residual_radius(system, sample.seed), "residual scan")
    candidates = sorted({m(sample.seed) for m in system.maps})
    result = []
    for y in candidates:
        if all(m.inverse()(y) not in sample for m in system.maps):
            result.append(y)
    return result


def write_orbit_dump(sample: OrbitSample, path) -> None:
    """Dump one rational per line, ascending, with provenance headers.

    Each line is format_rational of the point: a / L reduced by gcd(a, L),
    written without its denominator when that is 1.  Lines are written
    as they are formatted, so no copy of the dump is held.
    """
    scale = sample.scale
    with open(path, "w") as fh:
        fh.write(f"# system={sample.system.describe()}\n"
                 f"# seed={format_rational(sample.seed)}\n"
                 f"# radius={format_rational(sample.radius)}\n"
                 f"# complete={'true' if sample.complete else 'false'}\n")
        for a in sample.lattice:
            g = math.gcd(a, scale)
            den = scale // g
            fh.write(f"{a // g}\n" if den == 1 else f"{a // g}/{den}\n")
