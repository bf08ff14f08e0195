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
from dataclasses import dataclass
from fractions import Fraction

from .dimension import DimensionFit, _loglog_fit, estimate_mass_dimension
from .errors import ConfigError, DomainError
from .orbit import OrbitSample, counting_profile, enumerate_orbit
from .rational import PAdicValue, check_prime, format_rational, padic_valuation
from .systems import Rifs, affine_map, fixed_point


def padic_distance(x, y, p: int) -> PAdicValue:
    """p-adic distance |x - y|_p, reported as a valuation/norm pair."""
    return padic_valuation(Fraction(x) - Fraction(y), p)


@dataclass(frozen=True)
class BallClustering:
    p: int
    k: int
    count: int
    class_sizes: tuple[int, ...]


def _residue_keys(points, p: int, k: int):
    vals = [padic_valuation(x, p).valuation for x in points if x != 0]
    shift = max(0, -min((v for v in vals), default=0))
    modulus = p ** (k + shift)
    scale = p**shift
    keys = []
    for x in points:
        x = Fraction(x) * scale
        keys.append(x.numerator * pow(x.denominator, -1, modulus) % modulus)
    return keys


def ball_count(points, p: int, k: int, method: str = "residues") -> BallClustering:
    """Cluster points into p-adic balls of radius p**-k.

    Two points share a ball exactly when their difference has valuation
    at least k.  The residue method clears denominators by a common power
    of p and reads classes off residues modulo p**(k+shift); the pairwise
    method is the quadratic union-find reference.  Both are exact.
    """
    check_prime(p)
    if k < 0:
        raise DomainError("ball level k must be >= 0")
    points = [Fraction(x) for x in points]
    if method == "residues":
        keys = _residue_keys(points, p, k)
        sizes: dict = {}
        for key in keys:
            sizes[key] = sizes.get(key, 0) + 1
        return BallClustering(p=p, k=k, count=len(sizes),
                              class_sizes=tuple(sorted(sizes.values())))
    if method != "pairwise":
        raise DomainError(f"unknown clustering method {method!r}")
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


@dataclass(frozen=True)
class PAdicSystem:
    """Expanding maps with ratios (-1)^sign_bit * p**exponent.

    Archimedeanly this is an ordinary system (handled by the orbit
    machinery); p-adically every map is a contraction by p**-exponent.
    """

    p: int
    terms: tuple[tuple[int, int, Fraction], ...]  # (sign, exponent, offset)

    def __post_init__(self):
        check_prime(self.p)
        if len(self.terms) < 2:
            raise ConfigError("system needs at least 2 maps")
        for i, (sign, exponent, _) in enumerate(self.terms):
            if sign not in (1, -1):
                raise ConfigError(f"terms[{i}]: sign must be +1 or -1")
            if not isinstance(exponent, int) or exponent < 1:
                raise ConfigError(f"terms[{i}]: exponent must be an integer >= 1")
        self.archimedean()  # validates distinctness and expansion

    def archimedean(self) -> Rifs:
        return Rifs(tuple(
            affine_map(Fraction(sign * self.p**exponent), offset)
            for sign, exponent, offset in self.terms))

    @property
    def min_exponent(self) -> int:
        return min(e for _, e, _ in self.terms)


def make_padic_system(p: int, triples) -> PAdicSystem:
    return PAdicSystem(p, tuple(
        (int(sign), int(exponent), Fraction(offset))
        for sign, exponent, offset in triples))


@dataclass(frozen=True)
class PAdicAttractorSample:
    system: PAdicSystem
    seed: Fraction
    depth: int
    points: list[Fraction]
    certified_k: int


def attractor_sample(system: PAdicSystem, seed, depth: int | None = None,
                     node_budget: int = 10_000_000) -> PAdicAttractorSample:
    """All values of words of exactly the given length, deduplicated.

    Depth-n truncations sit within p-adic distance p**-(n * min exponent)
    of the attractor (for p-adically integral data), so ball counts are
    certified up to that level and refused beyond it.  The default depth
    is the largest n with m**n <= 2**16 words, m the number of maps.
    """
    arch = system.archimedean()
    if depth is None:
        depth = 1
        while arch.m ** (depth + 1) <= 2**16:
            depth += 1
    if depth < 1:
        raise DomainError("depth must be >= 1")
    if arch.m**depth > node_budget:
        raise DomainError(
            f"depth {depth} needs {arch.m**depth} words, budget is {node_budget}")
    seed = Fraction(seed)
    layer = {seed}
    for _ in range(depth):
        layer = {m(x) for m in arch.maps for x in layer}
    return PAdicAttractorSample(system=system, seed=seed, depth=depth,
                                points=sorted(layer),
                                certified_k=depth * system.min_exponent)


@dataclass(frozen=True)
class PAdicBoxReport:
    p: int
    ks: tuple[int, ...]
    counts: tuple[int, ...]
    fit: DimensionFit


def padic_box_dimension(points, p: int, k_values,
                        certified_k: int | None = None) -> PAdicBoxReport:
    """Slope of log N_k against k log p for p-adic ball counts N_k."""
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
    pts = sample.points
    denom_max = max((x.denominator for x in pts), default=1)
    c_lower = Fraction(1, 2 * denom_max * denom_max)
    vals = [padic_valuation(x, p).valuation
            for x in [sample.seed] + [b for _, _, b in system.terms] if x != 0]
    big_n = max((v for v in vals), default=0)
    shift = big_n + max(e for _, e, _ in system.terms)
    c_upper = abs(sample.seed) + system.archimedean().max_offset_mag / (p - 1)
    rows = []
    for k in sorted(set(int(k) for k in k_values)):
        upper_edge = c_upper * p ** (k + shift)
        if upper_edge > sample.radius:
            raise DomainError(
                f"sandwich at k={k} needs radius >= "
                f"{format_rational(upper_edge)}, sample has "
                f"{format_rational(sample.radius)}")
        lower_edge = c_lower * p**k
        # open interval: points exactly on the edge are not separated
        lower = bisect_left(pts, lower_edge) - bisect_right(pts, -lower_edge)
        balls = ball_count(pts, p, k).count
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


def compare_mass_and_box(system: PAdicSystem, seed, *,
                         mass_kmax: int = 12, mass_window: int = 8,
                         depth: int | None = None, k_values=None,
                         node_budget: int = 10_000_000) -> MassBoxComparison:
    """Archimedean mass slope of the orbit against the p-adic box slope
    of the attractor, for a seed fixed by one of the maps.

    The fixed-point requirement keeps the two samples anchored to the
    same invariant set; other seeds shift the orbit off the attractor and
    the comparison loses its meaning.
    """
    seed = Fraction(seed)
    arch = system.archimedean()
    if all(fixed_point(m) != seed for m in arch.maps):
        raise DomainError("seed must be the fixed point of one of the maps")
    p = system.p

    radius = Fraction(p) ** mass_kmax
    sample = enumerate_orbit(arch, seed, radius, node_budget=node_budget)
    if not sample.complete:
        raise DomainError("orbit enumeration exhausted its budget")
    grid = [Fraction(p) ** j for j in range(1, mass_kmax + 1)]
    profile = counting_profile(sample, grid)
    start = max(0, len(grid) - mass_window)
    mass_fit = estimate_mass_dimension(profile, window=(start, len(grid)))

    att = attractor_sample(system, seed, depth, node_budget)
    if k_values is None:
        k_values = list(range(2, min(att.certified_k, 12) + 1))
    box = padic_box_dimension(att.points, p, k_values,
                              certified_k=att.certified_k)
    return MassBoxComparison(mass_fit=mass_fit, box_fit=box.fit)
