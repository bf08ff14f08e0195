"""p-adic counterparts of the orbit statistics.

The same expanding systems, with ratios restricted to signed prime
powers, contract p-adically: a map with ratio (-1)^a * p^e moves points
closer together by p^-e in the p-adic metric while spreading them
archimedeanly.  This module clusters orbit and attractor samples into
p-adic balls and fits the resulting box counts, mirroring what the
archimedean counting profile does for window counts.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .dimension import (DimensionFit, _loglog_fit, estimate_mass_dimension,
                        integerize)
from .errors import BudgetExceededError, DomainError
from .orbit import LatticePoints, OrbitSample, counting_profile, enumerate_orbit
from .rational import (PAdicValue, _int_valuation, check_prime,
                       format_rational, padic_valuation)
from .systems import PAdicSystem, fixed_point


def padic_distance(x, y, p: int) -> PAdicValue:
    """p-adic distance |x - y|_p, reported as a valuation/norm pair."""
    return padic_valuation(Fraction(x) - Fraction(y), p)


@dataclass(frozen=True)
class BallClustering:
    p: int
    k: int
    count: int
    class_sizes: tuple[int, ...]


def ball_count(points, p: int, k: int, method: str = "residues") -> BallClustering:
    """Cluster points into p-adic balls of radius p**-k.

    Two points share a ball exactly when their difference has valuation
    at least k.  points is a list of rationals or a sample on the integer
    lattice.  The residue method puts the points on the lattice of
    `integerize`, x = a / L (a sample's own), so x - y = (a - b) / L and
    x, y share a ball exactly when a = b modulo p**(k + v_p(L)); it reads
    the classes off those residues.  The pairwise method is the quadratic
    union-find reference.  Both are exact.
    """
    _check_ball_levels(p, [k])
    if method == "residues":
        ints, modulus = _ball_lattice(points, p, k)
        sizes = Counter(a % modulus for a in ints)
        return BallClustering(p=p, k=k, count=len(sizes),
                              class_sizes=tuple(sorted(sizes.values())))
    if method != "pairwise":
        raise DomainError(f"unknown clustering method {method!r}")
    points = [Fraction(x) for x in points]
    parent = list(range(len(points)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            d = padic_distance(points[i], points[j], p)
            if d.is_infinite or d.valuation >= k:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    sizes = {}
    for i in range(len(points)):
        r = find(i)
        sizes[r] = sizes.get(r, 0) + 1
    return BallClustering(p=p, k=k, count=len(sizes),
                          class_sizes=tuple(sorted(sizes.values())))


def ball_counts(points, p: int, ks) -> list[int]:
    """Numbers of p-adic balls of radius p**-k that hold points, for each
    k in ks, in the order given.

    One pass reduces the lattice of `ball_count`'s residue method modulo
    its modulus for the largest k; every lower level then folds the
    residue set of the level above it.  Exact, and equal to
    `ball_count(points, p, k).count` for every k.
    """
    ks = [int(k) for k in ks]
    _check_ball_levels(p, ks)
    if not ks:
        return []
    top = max(ks)
    residues, modulus = _ball_lattice(points, p, top)
    counts = {}
    for k in sorted(set(ks), reverse=True):
        level_modulus = modulus // p ** (top - k)
        residues = {a % level_modulus for a in residues}
        counts[k] = len(residues)
    return [counts[k] for k in ks]


def _check_ball_levels(p: int, ks) -> None:
    check_prime(p)
    if any(k < 0 for k in ks):
        raise DomainError("ball level k must be >= 0")


def _ball_lattice(points, p: int, k: int):
    """The integers a of the points x = a / L on the lattice of
    `integerize` (a sample's own), and the modulus p**(k + v_p(L)) modulo
    which two of them agree exactly when their points share a ball of
    radius p**-k, since x - y = (a - b) / L."""
    ints, scale = integerize(points)
    return ints, p ** (k + padic_valuation(scale, p).valuation)


@dataclass(frozen=True)
class PAdicAttractorSample(LatticePoints):
    """The depth-n word values of a seed, on one integer lattice whose
    scale L is the lcm of the denominators of the seed and the offsets."""

    system: PAdicSystem
    seed: Fraction
    depth: int
    lattice: list[int]
    scale: int
    certified_k: int


def attractor_sample(system: PAdicSystem, seed, depth: int | None = None,
                     node_budget: int = 10_000_000) -> PAdicAttractorSample:
    """All values of words of exactly the given length, deduplicated.

    With L the lcm of the denominators of the seed and the offsets, the
    walk runs on L times the values: each map x -> r x + b acts on ints as
    a -> r a + b L.

    A depth-n word value f_w(seed) is within p-adic distance p**-c of
    f_w(A), A the attractor, for c = n * (min exponent) + min(0, v_p of
    the seed and of every offset).  That min is -v_p(L).  So ball counts
    are certified up to level c, which is certified_k, and refused
    beyond it.  The default depth is the largest n with m**n <= 2**16
    words, m the number of maps.
    """
    m = len(system.terms)
    if depth is None:
        depth = 1
        while m ** (depth + 1) <= 2**16:
            depth += 1
    if depth < 1:
        raise DomainError("depth must be >= 1")
    if m**depth > node_budget:
        raise BudgetExceededError(
            f"depth {depth} needs {m**depth} words, budget is {node_budget}")
    seed = Fraction(seed)
    p = system.p
    scale = math.lcm(seed.denominator,
                     *(b.denominator for _, _, b in system.terms))
    maps = [(sign * p**exponent, b.numerator * (scale // b.denominator))
            for sign, exponent, b in system.terms]
    layer = {seed.numerator * (scale // seed.denominator)}
    for _ in range(depth):
        layer = {r * a + shift for r, shift in maps for a in layer}
    return PAdicAttractorSample(
        system=system, seed=seed, depth=depth, lattice=sorted(layer),
        scale=scale,
        certified_k=depth * system.min_exponent - _int_valuation(scale, p))


@dataclass(frozen=True)
class PAdicBoxReport:
    p: int
    ks: tuple[int, ...]
    counts: tuple[int, ...]
    fit: DimensionFit


def padic_box_dimension(points, p: int, k_values,
                        certified_k: int | None = None) -> PAdicBoxReport:
    """Slope of log N_k against k log p for p-adic ball counts N_k of
    points, a list of rationals or a sample on the integer lattice."""
    k_values = sorted(set(int(k) for k in k_values))
    if len(k_values) < 4:
        raise DomainError("need at least 4 ball levels")
    if k_values[0] < 1:
        raise DomainError("ball levels must be >= 1")
    if certified_k is not None and k_values[-1] > certified_k:
        raise DomainError(
            f"level {k_values[-1]} exceeds the certified resolution "
            f"{certified_k} of this sample")
    counts = [ball_count(points, p, k).count for k in k_values]
    log_p = math.log(p)
    fit = _loglog_fit([k * log_p for k in k_values],
                      [math.log(c) for c in counts],
                      (float(k_values[0]), float(k_values[-1])))
    return PAdicBoxReport(p=p, ks=tuple(k_values), counts=tuple(counts), fit=fit)


@dataclass(frozen=True)
class SandwichRow:
    k: int
    lower: int
    balls: int
    upper: int

    @property
    def holds(self) -> bool:
        return self.lower <= self.balls <= self.upper


def mass_box_sandwich(system: PAdicSystem, sample: OrbitSample,
                      k_values) -> list[SandwichRow]:
    """Bracket the ball counts of an orbit sample by archimedean window
    counts.

    Points inside (-p**k / (2 M**2), +same), M the largest denominator
    magnitude, are pairwise p-adically separated beyond level k and bound
    the ball count from below.  Every orbit point is p-adically within
    p**-k of a word value of bounded archimedean size, giving the upper
    window [-(|seed| + max|b|/(p-1)) * p**(k+d), +same] with
    d = max exponent + the largest valuation among seed and offsets.
    Requires the sample to cover the upper window.
    """
    if not sample.complete:
        raise DomainError("sandwich requires a complete sample")
    p = system.p
    lattice, scale = sample.lattice, sample.scale
    # the reduced denominator of a / L is L / gcd(a, L)
    denom_max = max((scale // math.gcd(a, scale) for a in lattice), default=1)
    c_lower = Fraction(1, 2 * denom_max * denom_max)
    vals = [padic_valuation(x, p).valuation
            for x in [sample.seed] + [b for _, _, b in system.terms] if x != 0]
    big_n = max((v for v in vals), default=0)
    shift = big_n + max(e for _, e, _ in system.terms)
    c_upper = abs(sample.seed) + system.archimedean().max_offset_mag / (p - 1)
    ks = sorted(set(int(k) for k in k_values))
    upper_edges = [c_upper * p ** (k + shift) for k in ks]
    for k, upper_edge in zip(ks, upper_edges):
        if upper_edge > sample.radius:
            raise DomainError(
                f"sandwich at k={k} needs radius >= "
                f"{format_rational(upper_edge)}, sample has "
                f"{format_rational(sample.radius)}")
    rows = []
    for k, upper_edge, balls in zip(ks, upper_edges,
                                    ball_counts(sample, p, ks)):
        # open interval (-e, e): points exactly on the edge are not
        # separated, and a / L lies inside exactly when f < a < -f for
        # f = floor(-e L)
        edge = sample.floor_scaled(-c_lower * p**k)
        lower = bisect_left(lattice, -edge) - bisect_right(lattice, edge)
        upper = sample.count_within(upper_edge)
        rows.append(SandwichRow(k=k, lower=lower, balls=balls, upper=upper))
    return rows


@dataclass(frozen=True)
class MassBoxComparison:
    mass_fit: DimensionFit
    box_fit: DimensionFit

    @property
    def difference(self) -> float:
        return abs(self.mass_fit.slope - self.box_fit.slope)


def padic_attractor_box(system: PAdicSystem, seed, depth: int | None = None,
                        node_budget: int = 10_000_000
                        ) -> tuple[PAdicAttractorSample, PAdicBoxReport]:
    """The attractor sample of `attractor_sample` and its box fit at the
    levels 2..min(certified_k, 12)."""
    att = attractor_sample(system, seed, depth, node_budget)
    box = padic_box_dimension(att, system.p,
                              range(2, min(att.certified_k, 12) + 1),
                              certified_k=att.certified_k)
    return att, box


def _require_fixed_seed(system: PAdicSystem, seed: Fraction) -> None:
    if all(fixed_point(m) != seed for m in system.archimedean().maps):
        raise DomainError("seed must be the fixed point of one of the maps")


def mass_versus_box(system: PAdicSystem, sample: OrbitSample,
                    box_fit: DimensionFit) -> MassBoxComparison:
    """Archimedean mass slope of an orbit sample against a p-adic box
    slope of the attractor, for a seed fixed by one of the maps.

    The mass fit counts the sample on the powers p, p**2, ... up to its
    radius and fits the last 8 of them.  The fixed-point requirement
    keeps the two samples anchored to the same invariant set; other
    seeds shift the orbit off the attractor and the comparison loses its
    meaning.
    """
    _require_fixed_seed(system, sample.seed)
    if not sample.complete:
        raise DomainError("orbit enumeration exhausted its budget")
    grid = []
    h = Fraction(system.p)
    while h <= sample.radius:
        grid.append(h)
        h *= system.p
    profile = counting_profile(sample, grid)
    mass_fit = estimate_mass_dimension(
        profile, window=(max(0, len(grid) - 8), len(grid)))
    return MassBoxComparison(mass_fit=mass_fit, box_fit=box_fit)


def compare_mass_and_box(system: PAdicSystem, seed, *,
                         mass_kmax: int = 12, depth: int | None = None,
                         node_budget: int = 10_000_000) -> MassBoxComparison:
    """`mass_versus_box` for the orbit of a fixed-point seed within
    p**mass_kmax, against the box fit of `padic_attractor_box`.  A seed
    that no map fixes is rejected before anything is enumerated."""
    seed = Fraction(seed)
    _require_fixed_seed(system, seed)
    sample = enumerate_orbit(system.archimedean(), seed,
                             Fraction(system.p) ** mass_kmax,
                             node_budget=node_budget)
    _, box = padic_attractor_box(system, seed, depth, node_budget)
    return mass_versus_box(system, sample, box.fit)
