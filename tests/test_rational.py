import random
from fractions import Fraction

import pytest

from rifslab import (
    ConfigError,
    DomainError,
    check_prime,
    format_rational,
    is_prime,
    make_rational,
    padic_valuation,
    parse_rational,
    to_float,
)


def test_make_rational_normalizes():
    assert make_rational(4, 6) == Fraction(2, 3)
    assert make_rational(3, -6) == Fraction(-1, 2)
    assert make_rational(7) == Fraction(7)


def test_make_rational_rejects_zero_denominator():
    with pytest.raises(DomainError):
        make_rational(1, 0)


@pytest.mark.parametrize("text,expected", [
    ("3", Fraction(3)),
    ("-5/2", Fraction(-5, 2)),
    ("+7/14", Fraction(1, 2)),
    (" 9/-3 ", Fraction(-3)),
    ("0", Fraction(0)),
])
def test_parse_rational(text, expected):
    assert parse_rational(text) == expected


@pytest.mark.parametrize("text", ["1.5", "2e3", "pi", "1/2/3", "", "3.0"])
def test_parse_rational_rejects_float_syntax(text):
    with pytest.raises(ConfigError):
        parse_rational(text)


def test_parse_rational_rejects_zero_denominator():
    with pytest.raises(ConfigError):
        parse_rational("3/0")


def test_format_roundtrip():
    rng = random.Random(42)
    for _ in range(200):
        x = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
        assert parse_rational(format_rational(x)) == x


def test_format_integers_bare():
    assert format_rational(Fraction(6, 3)) == "2"
    assert format_rational(Fraction(-5, 10)) == "-1/2"


def test_to_float():
    assert to_float(Fraction(1, 2)) == 0.5
    assert to_float(Fraction(1, 3)) == 1 / 3


def test_is_prime_small_table():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(-2, 50):
        assert is_prime(n) == (n in primes)


def test_check_prime_rejects_composites():
    assert check_prime(13) == 13
    for bad in (1, 4, 9, -3, 0):
        with pytest.raises(ConfigError):
            check_prime(bad)


def test_is_prime_matches_trial_division():
    for n in range(10**4):
        assert is_prime(n) == (n > 1 and all(n % d for d in range(2, n)
                                            if d * d <= n)), n


def test_check_prime_decides_large_p_at_once():
    # trial division to the root of 2**61 - 1 takes minutes; 3215031751
    # is a strong pseudoprime to the bases 2, 3, 5 and 7
    assert check_prime(2**61 - 1) == 2**61 - 1
    assert not is_prime(3215031751)
    with pytest.raises(ConfigError):
        check_prime(3215031751)


def test_check_prime_refuses_p_past_the_exact_bound():
    for p in (3_317_044_064_679_887_385_961_981, 2**89 - 1):
        with pytest.raises(ConfigError, match="prime integer below"):
            check_prime(p)
        with pytest.raises(DomainError, match="decided only below"):
            is_prime(p)


@pytest.mark.parametrize("x,p,valuation,norm", [
    (Fraction(12), 2, 2, Fraction(1, 4)),
    (Fraction(12), 3, 1, Fraction(1, 3)),
    (Fraction(1, 9), 3, -2, Fraction(9)),
    (Fraction(10, 3), 5, 1, Fraction(1, 5)),
    (Fraction(7), 5, 0, Fraction(1)),
    (Fraction(-8), 2, 3, Fraction(1, 8)),
])
def test_padic_valuation_table(x, p, valuation, norm):
    value = padic_valuation(x, p)
    assert value.valuation == valuation
    assert value.norm == norm
    assert not value.is_infinite


def test_padic_valuation_of_zero():
    value = padic_valuation(Fraction(0), 7)
    assert value.valuation is None
    assert value.norm == 0
    assert value.is_infinite


def test_padic_norm_is_multiplicative():
    rng = random.Random(7)
    for p in (2, 3, 5):
        for _ in range(100):
            x = Fraction(rng.randint(-500, 500), rng.randint(1, 500))
            y = Fraction(rng.randint(-500, 500), rng.randint(1, 500))
            if x == 0 or y == 0:
                continue
            assert (padic_valuation(x * y, p).norm
                    == padic_valuation(x, p).norm * padic_valuation(y, p).norm)


def test_padic_norm_ultrametric():
    rng = random.Random(8)
    for p in (2, 3, 5):
        for _ in range(100):
            x = Fraction(rng.randint(-500, 500), rng.randint(1, 500))
            y = Fraction(rng.randint(-500, 500), rng.randint(1, 500))
            bound = max(padic_valuation(x, p).norm, padic_valuation(y, p).norm)
            assert padic_valuation(x + y, p).norm <= bound
