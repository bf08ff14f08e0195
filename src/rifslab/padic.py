"""p-adic counterparts of the orbit statistics.

The same expanding systems, with ratios restricted to signed prime
powers, contract p-adically: a map with ratio (-1)^a * p^e moves points
closer together by p^-e in the p-adic metric while spreading them
archimedeanly.  This module clusters orbit samples into p-adic balls,
counts the balls that meet the p-adic attractor exactly from a recursion
on its residues, and fits the resulting box counts, mirroring what the
archimedean counting profile does for window counts.  The sampled
attractor (the values of the words of one length) and its per-level ball
counts stay as the reference the exact counts are checked against.
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
from .systems import PAdicSystem, disjoint_lattice_images, fixed_point


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
    depth = _attractor_depth(system, depth, node_budget)
    seed = Fraction(seed)
    scale, maps, start = system.archimedean().on_lattice(seed)
    layer = set(start)
    for _ in range(depth):
        layer = {r * a + shift for r, _, shift in maps for a in layer}
    return PAdicAttractorSample(
        system=system, seed=seed, depth=depth, lattice=sorted(layer),
        scale=scale, certified_k=_certified_k(system, scale, depth))


def _attractor_depth(system: PAdicSystem, depth: int | None,
                     node_budget: int) -> int:
    """The depth of `attractor_sample`, refused when its m**depth words
    exceed the budget."""
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
    return depth


def _certified_k(system: PAdicSystem, scale: int, depth: int) -> int:
    """The last ball level at which the depth-n word values on the lattice
    of scale L meet the balls the attractor meets."""
    return depth * system.min_exponent - _int_valuation(scale, system.p)


def attractor_ball_counts(system: PAdicSystem, ks, *,
                          node_budget: int = 10_000_000) -> list[int]:
    """Numbers N_k of p-adic balls of radius p**-k that meet the attractor
    A, the union of the f_i(A), for each k in ks, in the order given.

    On the lattice of `Rifs.on_lattice`, L the lcm of the offset
    denominators, x -> L x sends A into the p-adic integers and each map
    to a -> r_i a + b_i L, r_i = +-p**e_i; modulo p**K that image depends
    on a modulo p**(K - e_i) only.  So the residues R_K of L A modulo p**K
    are R_0 = {0} and R_K = the union over i of
    {(r_i a + b_i L) mod p**K : a in R_(K - e_i)}, with R_j = {0} for
    j <= 0, and N_k = |R_(k + v)|, v = v_p(L), as in `ball_count`.  Exact;
    the sum of the |R_K| walked is budgeted.
    """
    ks = [int(k) for k in ks]
    p = system.p
    _check_ball_levels(p, ks)
    if not ks:
        return []
    scale, maps, _ = system.archimedean().on_lattice()
    shift = _int_valuation(scale, p)
    steps = [(r, e, b) for (r, _, b), (_, e, _) in zip(maps, system.terms)]
    # window[-e] is R_(K - e) for the level K under construction
    window = [{0}] * max(e for _, e, _ in steps)
    sizes = [1]
    used = 0
    for level in range(1, max(ks) + shift + 1):
        modulus = p**level
        residues = {(r * a + b) % modulus
                    for r, e, b in steps for a in window[-e]}
        used += len(residues)
        if used > node_budget:
            raise BudgetExceededError(
                f"ball level {level - shift} needs {used} residues, "
                f"budget is {node_budget}")
        window = window[1:] + [residues]
        sizes.append(len(residues))
    return [sizes[k + shift] for k in ks]


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
    k_values = _box_levels(k_values, certified_k)
    return _box_fit(p, k_values,
                    [ball_count(points, p, k).count for k in k_values])


def _box_levels(k_values, certified_k: int | None) -> list[int]:
    """The distinct levels of a box fit, sorted, checked to be at least 4,
    from 1 on and within certified_k."""
    k_values = sorted(set(int(k) for k in k_values))
    if len(k_values) < 4:
        raise DomainError("need at least 4 ball levels")
    if k_values[0] < 1:
        raise DomainError("ball levels must be >= 1")
    if certified_k is not None and k_values[-1] > certified_k:
        raise DomainError(
            f"level {k_values[-1]} exceeds the certified resolution "
            f"{certified_k} of this sample")
    return k_values


def _box_fit(p: int, k_values: list[int], counts: list[int]) -> PAdicBoxReport:
    """The box fit of the ball counts N_k at the checked levels k_values."""
    if min(counts) < 1:
        raise DomainError("p-adic box fit needs a nonempty sample")
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
    d = max exponent + v_p(L), L the lcm of the denominators of the seed
    and the offsets: every orbit point lies in L**-1 Z_p.
    Requires the sample to cover the upper window.
    """
    if not sample.complete:
        raise DomainError("sandwich requires a complete sample")
    p = system.p
    lattice, scale = sample.lattice, sample.scale
    # the reduced denominator of a / L is L / gcd(a, L)
    denom_max = max((scale // math.gcd(a, scale) for a in lattice), default=1)
    c_lower = Fraction(1, 2 * denom_max * denom_max)
    rifs = system.archimedean()
    shift = (max(e for _, e, _ in system.terms)
             + _int_valuation(rifs.on_lattice(sample.seed)[0], p))
    c_upper = abs(sample.seed) + rifs.max_offset_mag / (p - 1)
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


@dataclass(frozen=True)
class PAdicAttractor:
    """What `attractor_sample` would hold: its depth, its number of
    distinct word values and its certified ball level."""

    depth: int
    size: int
    certified_k: int


def _fit_levels(certified_k: int) -> range:
    """The ball levels of an attractor's box fit: 2..min(certified_k, 12)."""
    return range(2, min(certified_k, 12) + 1)


def padic_attractor_box(system: PAdicSystem, seed, depth: int | None = None,
                        node_budget: int = 10_000_000
                        ) -> tuple[PAdicAttractor, PAdicBoxReport]:
    """The depth, size and certified_k of `attractor_sample`, and the box
    fit of the attractor at the levels 2..min(certified_k, 12), counted by
    `attractor_ball_counts`: at those levels the sample meets the same
    balls, so the fit is the one `padic_box_dimension` takes of it.

    The sample is built only to count its distinct values, and not at all
    when `disjoint_lattice_images` holds: then its m**depth words give
    m**depth distinct values.
    """
    seed = Fraction(seed)
    depth = _attractor_depth(system, depth, node_budget)
    rifs = system.archimedean()
    certified_k = _certified_k(system, rifs.on_lattice(seed)[0], depth)
    ks = _box_levels(_fit_levels(certified_k), certified_k)
    if disjoint_lattice_images(rifs, seed):
        size = rifs.m**depth
    else:
        size = len(attractor_sample(system, seed, depth, node_budget))
    counts = attractor_ball_counts(system, ks, node_budget=node_budget)
    return (PAdicAttractor(depth=depth, size=size, certified_k=certified_k),
            _box_fit(system.p, ks, counts))


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
    p**mass_kmax, against the box fit that `padic_box_dimension` takes of
    `attractor_sample` at the levels of `padic_attractor_box`: the sampled
    reference for its exact counts.  A seed that no map fixes is rejected
    before anything is enumerated."""
    seed = Fraction(seed)
    _require_fixed_seed(system, seed)
    sample = enumerate_orbit(system.archimedean(), seed,
                             Fraction(system.p) ** mass_kmax,
                             node_budget=node_budget)
    att = attractor_sample(system, seed, depth, node_budget)
    box = padic_box_dimension(att, system.p, _fit_levels(att.certified_k),
                              certified_k=att.certified_k)
    return mass_versus_box(system, sample, box.fit)
