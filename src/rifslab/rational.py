"""Exact rational scalars and p-adic valuations.

Every quantity that enters a set-membership, ordering or grid decision in
this package is exact: exact rationals (``fractions.Fraction``), or
integers on one lattice, as an orbit sample holds its points.  Floats
appear only in estimator outputs, always through an explicitly lossy
conversion such as :func:`to_float`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import ConfigError, DomainError

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/[+-]?\d+)?$")


def make_rational(numerator: int, denominator: int = 1) -> Fraction:
    """Return numerator/denominator in lowest terms with positive denominator."""
    if denominator == 0:
        raise DomainError("rational denominator must be nonzero")
    return Fraction(numerator, denominator)


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


def format_rational(x: Fraction) -> str:
    """Serialize as "n/d", or "n" when the denominator is 1."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def to_float(x) -> float:
    """Round a rational to the nearest binary64 float.  Lossy by design."""
    return float(x)


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def check_prime(p: int) -> int:
    if not isinstance(p, int) or not is_prime(p):
        raise ConfigError(f"p must be a prime integer, got {p!r}")
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
