"""Expanding affine systems on the rationals.

A system is a finite family f_i(x) = r_i * x + b_i with rational
coefficients and |r_i| > 1.  Words over the index alphabet compose maps;
the inverse family contracts, and several diagnostics below (exact overlap
scan, separation of inverse branches, lattice-image certificate) probe
whether distinct words can produce colliding values; the two scans walk
words as int pairs.
A `PAdicSystem` describes a system whose ratios are signed powers of one
prime p, the form the p-adic statistics in `padic` work on.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (DEFAULT_NODE_BUDGET, BudgetExceededError, ConfigError,
                     DomainError)
from .rational import check_prime, format_rational, on_lattice

Word = tuple[int, ...]


@dataclass(frozen=True)
class AffineMap:
    ratio: Fraction
    offset: Fraction

    def __call__(self, x: Fraction) -> Fraction:
        return self.ratio * x + self.offset

    def after(self, other: "AffineMap") -> "AffineMap":
        """Composition self(other(x))."""
        return AffineMap(self.ratio * other.ratio,
                         self.ratio * other.offset + self.offset)

    def inverse(self) -> "AffineMap":
        if self.ratio == 0:
            raise DomainError("map with ratio 0 has no inverse")
        return AffineMap(1 / self.ratio, -self.offset / self.ratio)

    def describe(self) -> str:
        """r*x+b, or r*x-|b| for a negative offset b."""
        sign = "-" if self.offset < 0 else "+"
        return (f"{format_rational(self.ratio)}*x{sign}"
                f"{format_rational(abs(self.offset))}")


def affine_map(ratio, offset) -> AffineMap:
    return AffineMap(Fraction(ratio), Fraction(offset))


def fixed_point(m: AffineMap) -> Fraction:
    """The unique fixed point b/(1-r); undefined for ratio 1."""
    if m.ratio == 1:
        raise DomainError("map with ratio 1 has no fixed point")
    return m.offset / (1 - m.ratio)


@dataclass(frozen=True)
class Rifs:
    """A validated family of at least two distinct expanding affine maps."""

    maps: tuple[AffineMap, ...]

    def __post_init__(self):
        if len(self.maps) < 2:
            raise ConfigError("system needs at least 2 maps")
        for i, m in enumerate(self.maps):
            if abs(m.ratio) <= 1:
                raise ConfigError(
                    f"maps[{i}]: ratio magnitude must exceed 1, got "
                    f"{format_rational(m.ratio)}")
        if len(set(self.maps)) != len(self.maps):
            raise ConfigError("maps must be pairwise distinct")

    @property
    def m(self) -> int:
        return len(self.maps)

    @property
    def min_ratio_mag(self) -> Fraction:
        return min(abs(m.ratio) for m in self.maps)

    @property
    def max_ratio_mag(self) -> Fraction:
        return max(abs(m.ratio) for m in self.maps)

    @property
    def max_offset_mag(self) -> Fraction:
        return max(abs(m.offset) for m in self.maps)

    @property
    def escape_radius(self) -> Fraction:
        """Once |x| exceeds max(radius, escape_radius), every image of x is
        strictly larger in magnitude, so x can be discarded during
        enumeration.  Equals max|b| / (min|r| - 1)."""
        return self.max_offset_mag / (self.min_ratio_mag - 1)

    def on_lattice(self, *points):
        """The system and points on L**-1 Z, L the least positive int that
        puts every offset and point there: returns L, each map r x + b as
        (p, q, b L) for r = p / q, and each point x as the int x L.  The
        map (p, q, b L) sends a = x L to p a / q + b L = (r x + b) L."""
        ints, scale = on_lattice([*(m.offset for m in self.maps), *points])
        return scale, [(m.ratio.numerator, m.ratio.denominator, b)
                       for m, b in zip(self.maps, ints)], ints[self.m:]

    def dual_maps(self) -> tuple[AffineMap, ...]:
        return tuple(m.inverse() for m in self.maps)

    def describe(self) -> str:
        return "{" + ", ".join(m.describe() for m in self.maps) + "}"


def make_system(pairs) -> Rifs:
    """Build a system from (ratio, offset) pairs."""
    return Rifs(tuple(affine_map(r, b) for r, b in pairs))


def _is_int(value) -> bool:
    """An int: true and false are not, though bool subclasses int."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class PAdicSystem:
    """Expanding maps with ratios sign * p**exponent, sign +1 or -1.

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
            if not _is_int(sign) or sign not in (1, -1):
                raise ConfigError(f"terms[{i}]: sign must be +1 or -1")
            if not _is_int(exponent) or exponent < 1:
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
    """Build a p-adic system from (sign, exponent, offset) triples; signs
    and exponents must be ints, as `PAdicSystem` checks."""
    return PAdicSystem(p, tuple(
        (sign, exponent, Fraction(offset))
        for sign, exponent, offset in triples))


def common_fixed_point(system: Rifs) -> Fraction | None:
    """The shared fixed point if all maps have one, else None.

    Sharing a fixed point is equivalent to all pairs of maps commuting; a
    system with this property has a one-point inverse attractor and a
    multiplicatively generated orbit.
    """
    x0 = fixed_point(system.maps[0])
    for m in system.maps[1:]:
        if m(x0) != x0:
            return None
    return x0


def _word_layers(system: Rifs, top: int):
    """For n = 1..top, the pairs (A, C) of the words of length n in
    itertools.product order: f_w(x) = A x / Q**top + C / (L Q**top), Q and L
    the lcms of the ratio and offset denominators.  Appending p x / q + s / L
    sends (A, C) to (A p / q, A s + C), an int for words of length <= top."""
    _, q = on_lattice(m.ratio for m in system.maps)
    _, maps, _ = system.on_lattice()
    layer = [(q**top, 0)]
    for _ in range(top):
        layer = [(a * p // d, a * shift + c)
                 for a, c in layer for p, d, shift in maps]
        yield layer


def find_exact_overlaps(system: Rifs, max_word_length: int,
                        word_budget: int = DEFAULT_NODE_BUDGET
                        ) -> list[tuple[Word, Word]]:
    """All pairs of distinct words of length <= max_word_length composing to
    the same affine map, deduplicated up to swapping the pair.

    Words are keyed on their int pairs; as their count grows like
    m**max_word_length, a budget guards the scan.
    """
    if max_word_length < 1:
        raise DomainError("max_word_length must be >= 1")
    total = sum(system.m**k for k in range(1, max_word_length + 1))
    if total > word_budget:
        raise BudgetExceededError(
            f"overlap scan needs {total} words, budget is {word_budget}")
    first_seen: dict[tuple[int, int], Word] = {}
    pairs: list[tuple[Word, Word]] = []
    for n, layer in enumerate(_word_layers(system, max_word_length), 1):
        words = itertools.product(range(1, system.m + 1), repeat=n)
        for word, key in zip(words, layer):
            if key in first_seen:
                pairs.append((first_seen[key], word))
            else:
                first_seen[key] = word
    return pairs


def min_word_separation(system: Rifs, n: int,
                        word_budget: int = DEFAULT_NODE_BUDGET
                        ) -> Fraction | None:
    """Minimal distance between inverse branches of equal contraction at
    level n.

    Over all pairs of distinct words of length n whose composed maps have
    equal ratio, take the distance between the inverse images of 0; return
    the minimum, or None when no two words share a ratio (an empty
    minimum, read as +infinity).  A value of 0 at level n is exactly an
    exact overlap at that length.

    The inverse image of 0 is -C / (L A), so words are grouped on A, a
    group's gap being its least C step over L |A|; a budget guards m**n.
    """
    if n < 1:
        raise DomainError("word length must be >= 1")
    total = system.m**n
    if total > word_budget:
        raise BudgetExceededError(
            f"separation scan needs {total} words, budget is {word_budget}")
    for layer in _word_layers(system, n):
        pass
    groups: dict[int, list[int]] = {}
    for a, c in layer:
        groups.setdefault(a, []).append(c)
    scale = system.on_lattice()[0]
    return min((Fraction(min(y - x for x, y in itertools.pairwise(sorted(cs))),
                         scale * abs(a))
                for a, cs in groups.items() if len(cs) > 1), default=None)


def disjoint_lattice_images(system: Rifs, *points) -> bool:
    """True when every ratio is an integer and gcd(r_i, r_j) does not
    divide L (b_j - b_i) for any i != j, L the scale of
    `Rifs.on_lattice(*points)`.

    On that lattice r_i a + b_i L = r_j c + b_j L needs gcd(r_i, r_j) to
    divide L (b_j - b_i), so the images of lattice points under distinct
    maps never meet, and the words of one length send a lattice point to
    pairwise distinct values.
    """
    _, maps, _ = system.on_lattice(*points)
    if any(q != 1 for _, q, _ in maps):
        return False
    return all((c - b) % math.gcd(r, s) != 0
               for (r, _, b), (s, _, c) in itertools.combinations(maps, 2))
