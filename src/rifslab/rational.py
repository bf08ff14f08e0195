"""Exact rational scalars and p-adic valuations.

Every quantity that enters a set-membership, ordering or grid decision in
this package is exact: exact rationals (``fractions.Fraction``), or
integers on one lattice, as an orbit sample holds its points.  Floats
appear only in estimator outputs, each converted with ``float()`` at the
last moment.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import ConfigError, DomainError

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/[+-]?\d+)?$")


def parse_rational(text: str) -> Fraction:
    """Parse "n", "-n" or "n/d" into an exact rational.

    Decimal points, exponents and any other float syntax are rejected:
    inputs are required to be exact.
    """
    text = text.strip()
    if not _RATIONAL_RE.match(text):
        raise ConfigError(f"not a rational literal (expected n or n/d): {text!r}")
    if "/" in text:
        num, den = text.split("/")
        if int(den) == 0:
            raise ConfigError(f"rational literal has zero denominator: {text!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(text))


def on_lattice(values) -> tuple[list[int], int]:
    """Place rationals on one lattice L**-1 Z: returns each value x as the
    int x * L, in order, and L, the least positive int that puts every
    value there (the lcm of their reduced denominators, 1 for none)."""
    values = [v if isinstance(v, (int, Fraction)) else Fraction(v)
              for v in values]
    scale = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values], scale


def format_rational(x: Fraction) -> str:
    """Serialize as "n/d", or "n" when the denominator is 1."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


# Miller-Rabin to the prime bases up to 41 decides primality exactly below
# this bound (Sorenson and Webster, Math. Comp. 86, 2017)
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(p: int) -> bool:
    """Whether p is prime, decided exactly for p below _PRIME_BOUND by
    deterministic Miller-Rabin; a larger p is refused."""
    if p >= _PRIME_BOUND:
        raise DomainError(f"primality is decided only below {_PRIME_BOUND}")
    if p < 2:
        return False
    for b in _PRIME_BASES:
        if p % b == 0:
            return p == b
    # p - 1 = d 2**r with d odd
    r = ((p - 1) & (1 - p)).bit_length() - 1
    d = (p - 1) >> r
    for b in _PRIME_BASES:
        x = pow(b, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(r - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def check_prime(p: int) -> int:
    if not isinstance(p, int) or p >= _PRIME_BOUND or not is_prime(p):
        raise ConfigError(
            f"p must be a prime integer below {_PRIME_BOUND}, got {p!r}")
    return p


@dataclass(frozen=True)
class PAdicValue:
    """p-adic valuation of a rational, with ``None`` marking +infinity.

    ``norm`` is p**(-valuation), and exactly 0 for the rational 0.
    """

    valuation: int | None
    norm: Fraction

    @property
    def is_infinite(self) -> bool:
        return self.valuation is None


def _int_valuation(n: int, p: int) -> int:
    # n != 0
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def padic_valuation(x, p: int) -> PAdicValue:
    """p-adic valuation of a rational x.

    For x = p**v * (a/b) with a, b coprime to p the valuation is v and the
    norm is p**(-v); the valuation of 0 is +infinity (norm 0).  A non-prime
    p is a configuration error.
    """
    check_prime(p)
    x = Fraction(x)
    if x == 0:
        return PAdicValue(valuation=None, norm=Fraction(0))
    v = _int_valuation(x.numerator, p) - _int_valuation(x.denominator, p)
    if v >= 0:
        return PAdicValue(valuation=v, norm=Fraction(1, p**v))
    return PAdicValue(valuation=v, norm=Fraction(p ** (-v)))
