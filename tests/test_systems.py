import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rifslab import (
    BudgetExceededError,
    ConfigError,
    DomainError,
    affine_map,
    common_fixed_point,
    disjoint_lattice_images,
    find_exact_overlaps,
    fixed_point,
    make_system,
    min_word_separation,
)
from rifslab import systems
from rifslab.rational import on_lattice
from _oracles import overlaps_brute, separation_brute


def _random_map(rng):
    ratio = Fraction(0)
    while abs(ratio) <= 1:
        ratio = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
    return affine_map(ratio, Fraction(rng.randint(-9, 9), rng.randint(1, 4)))


def test_affine_map_applies():
    f = affine_map(Fraction(3), Fraction(2))
    assert f(Fraction(5)) == 17
    assert f(Fraction(-1, 3)) == 1


def test_after_is_composition():
    rng = random.Random(11)
    for _ in range(100):
        f, g = _random_map(rng), _random_map(rng)
        x = Fraction(rng.randint(-20, 20), rng.randint(1, 5))
        assert f.after(g)(x) == f(g(x))


def test_inverse_cancels():
    rng = random.Random(12)
    for _ in range(100):
        f = _random_map(rng)
        x = Fraction(rng.randint(-20, 20), rng.randint(1, 5))
        assert f.inverse()(f(x)) == x
        assert f(f.inverse()(x)) == x


def test_fixed_point():
    f = affine_map(Fraction(3), Fraction(2))
    assert fixed_point(f) == -1
    assert f(Fraction(-1)) == -1
    with pytest.raises(DomainError):
        fixed_point(affine_map(Fraction(1), Fraction(2)))


@pytest.mark.parametrize("pairs, text", [
    # a negative offset takes the minus sign in place of the plus
    ([(4, -1), (4, -2)], "{4*x-1, 4*x-2}"),
    # a zero offset stays +0, as in the benchmark goldens
    ([(3, 0), (3, 2)], "{3*x+0, 3*x+2}"),
    ([(Fraction(5, 2), Fraction(-1, 3)), (-3, Fraction(7, 2))],
     "{5/2*x-1/3, -3*x+7/2}"),
])
def test_describe_table(pairs, text):
    assert make_system(pairs).describe() == text


def test_make_system_rejects_single_map():
    with pytest.raises(ConfigError, match="at least 2"):
        make_system([(Fraction(2), Fraction(0))])


def test_make_system_rejects_weak_ratio():
    with pytest.raises(ConfigError, match="ratio magnitude must exceed 1"):
        make_system([(Fraction(1), Fraction(2)), (Fraction(2), Fraction(0))])
    with pytest.raises(ConfigError, match="ratio magnitude must exceed 1"):
        make_system([(Fraction(1, 2), Fraction(0)), (Fraction(2), Fraction(0))])


def test_make_system_rejects_duplicates():
    with pytest.raises(ConfigError, match="pairwise distinct"):
        make_system([(Fraction(2), Fraction(1)), (Fraction(2), Fraction(1))])


def test_escape_radius():
    system = make_system([(Fraction(3), Fraction(0)), (Fraction(3), Fraction(2))])
    # offsets at most 2, ratios at least 3: cap b/(r-1) = 1
    assert system.escape_radius == 1
    wide = make_system([(Fraction(2), Fraction(10)), (Fraction(3), Fraction(0))])
    assert wide.escape_radius == 10


def test_common_fixed_point_degenerate():
    system = make_system([(Fraction(2), Fraction(0)), (Fraction(4), Fraction(0))])
    assert common_fixed_point(system) == 0
    shifted = make_system([(Fraction(2), Fraction(1)), (Fraction(4), Fraction(3))])
    assert common_fixed_point(shifted) == -1


def test_common_fixed_point_absent(cantor_system):
    assert common_fixed_point(cantor_system) is None


def test_exact_overlap_degenerate_pair():
    system = make_system([(Fraction(2), Fraction(0)), (Fraction(4), Fraction(0))])
    pairs = find_exact_overlaps(system, 2)
    # f1(f1(x)) = 4x = f2(x)
    assert ((2,), (1, 1)) in pairs or ((1, 1), (2,)) in pairs


def test_exact_overlap_factorization():
    system = make_system([(Fraction(2), Fraction(0)), (Fraction(3), Fraction(0)),
                          (Fraction(6), Fraction(0))])
    pairs = find_exact_overlaps(system, 2)
    assert (((3,), (1, 2)) in pairs) or (((1, 2), (3,)) in pairs)


def test_no_overlap_in_binary_system():
    system = make_system([(Fraction(2), Fraction(0)), (Fraction(2), Fraction(1))])
    assert find_exact_overlaps(system, 10) == []


def _refuse(*args):
    raise AssertionError("composed a word over budget")


def test_overlap_scan_budget(monkeypatch):
    system = make_system([(Fraction(2), Fraction(0)), (Fraction(2), Fraction(1))])
    # the scan composes every word in the layered walk
    monkeypatch.setattr(systems, "_word_layers", _refuse)
    with pytest.raises(BudgetExceededError, match="budget"):
        find_exact_overlaps(system, 30, word_budget=1000)


def test_separation_cantor_exact(cantor_system):
    for n in range(1, 9):
        assert min_word_separation(cantor_system, n) == Fraction(2, 3**n)


def test_separation_mixed_ratios(renewal_system):
    # no equal-ratio pair at level 1, first collision of ratios at level 2
    assert min_word_separation(renewal_system, 1) is None
    assert min_word_separation(renewal_system, 2) == Fraction(1, 6)
    assert min_word_separation(renewal_system, 3) == Fraction(1, 18)


def test_separation_zero_detects_exact_overlap():
    system = make_system([(Fraction(2), Fraction(0)), (Fraction(4), Fraction(0))])
    assert min_word_separation(system, 2) == 0


def test_separation_matches_brute_force(cantor_system, renewal_system):
    rng = random.Random(21)
    systems = [cantor_system, renewal_system]
    for _ in range(6):
        try:
            systems.append(make_system([
                (_random_map(rng).ratio, _random_map(rng).offset)
                for _ in range(rng.randint(2, 3))]))
        except ConfigError:
            continue
    for system in systems:
        for n in range(1, 5):
            assert min_word_separation(system, n) == separation_brute(system, n)


SCAN_RATIOS = [Fraction(r) for r in (-3, -2, 2, 3, 4)] + [
    Fraction(3, 2), Fraction(-5, 2), Fraction(7, 3), Fraction(-7, 3)]


@settings(max_examples=60, deadline=None)
@given(maps=st.lists(
    st.tuples(st.sampled_from(SCAN_RATIOS),
              st.fractions(min_value=-4, max_value=4, max_denominator=3)),
    min_size=2, max_size=3, unique=True),
    length=st.integers(min_value=1, max_value=5))
def test_word_scans_match_oracles(maps, length):
    # the integer word walk keeps the word order of composing each word
    # from scratch, so witnesses and separations are the same; mixing the
    # denominators 2 and 3 puts the walk on the scale 6**length
    system = make_system(maps)
    assert find_exact_overlaps(system, length) == overlaps_brute(system, length)
    assert min_word_separation(system, length) == separation_brute(system,
                                                                   length)


def test_word_scans_build_no_affine_maps(monkeypatch):
    system = make_system([(Fraction(3), Fraction(0)), (Fraction(3), Fraction(1)),
                          (Fraction(3), Fraction(3))])
    monkeypatch.setattr(systems.AffineMap, "after", _refuse)
    monkeypatch.setattr(systems.AffineMap, "__call__", _refuse)
    assert len(find_exact_overlaps(system, 6)) == 484
    assert min_word_separation(system, 1) == Fraction(1, 3)
    for n in range(2, 9):
        assert min_word_separation(system, n) == 0


def test_separation_scan_budget(monkeypatch):
    system = make_system([(Fraction(3), Fraction(0)), (Fraction(3), Fraction(1)),
                          (Fraction(3), Fraction(2))])

    monkeypatch.setattr(systems, "_word_layers", _refuse)
    with pytest.raises(BudgetExceededError, match="needs 531441 words"):
        min_word_separation(system, 12, word_budget=1000)
    monkeypatch.undo()
    # exactly m**n words fit
    assert min_word_separation(system, 4, word_budget=81) == Fraction(1, 81)
    with pytest.raises(BudgetExceededError):
        min_word_separation(system, 4, word_budget=80)


def test_residue_criterion():
    # the residue criterion that diagnose and renewal report is the
    # lattice-image certificate at the seed 0
    assert disjoint_lattice_images(
        make_system([(Fraction(3), Fraction(0)), (Fraction(3), Fraction(2))]), 0)
    assert disjoint_lattice_images(
        make_system([(Fraction(2), Fraction(0)), (Fraction(2), Fraction(1))]), 0)
    # 1 and 4 collide mod 3
    assert not disjoint_lattice_images(
        make_system([(Fraction(3), Fraction(0)), (Fraction(3), Fraction(1)),
                     (Fraction(3), Fraction(4))]), 0)
    # gcd(2, 3) = 1 divides 1 - 0
    assert not disjoint_lattice_images(
        make_system([(Fraction(2), Fraction(0)), (Fraction(3), Fraction(1))]), 0)
    # the offset 1/2 puts the seed 0 on L = 2, where 3 does not divide 1
    assert disjoint_lattice_images(
        make_system([(Fraction(3), Fraction(1, 2)), (Fraction(3), Fraction(0))]), 0)


def test_disjoint_lattice_images_table():
    # cantor: gcd(3, 3) = 3 does not divide 2
    assert disjoint_lattice_images(
        make_system([(3, 0), (3, 2)]), 0)
    # gcd(2, 4) = 2 does not divide 1; mixed ratios qualify
    assert disjoint_lattice_images(make_system([(2, 0), (4, 1)]), 0)
    # gcd(2, 3) = 1 divides everything
    assert not disjoint_lattice_images(make_system([(2, 0), (3, 1)]), 5)
    # 3 divides 3 - 0: {3x, 3x + 1, 3x + 3} overlaps
    assert not disjoint_lattice_images(
        make_system([(3, 0), (3, 1), (3, 3)]), 0)
    # the seed 1/2 puts the offsets on L = 2: 3 divides 2 (3 - 0) = 6 but
    # not 2 (2 - 0) = 4
    assert not disjoint_lattice_images(
        make_system([(3, 0), (3, 3)]), Fraction(1, 2))
    assert disjoint_lattice_images(
        make_system([(3, 0), (3, 2)]), Fraction(1, 2))
    # a non-integer ratio never qualifies
    assert not disjoint_lattice_images(
        make_system([(Fraction(5, 2), 0), (Fraction(5, 2), 1)]), 0)


@given(maps=st.lists(
    st.tuples(st.sampled_from([-3, -2, 2, 3, 4, 6]),
              st.fractions(min_value=-4, max_value=4, max_denominator=3)),
    min_size=2, max_size=3, unique=True),
    seed=st.fractions(min_value=-3, max_value=3, max_denominator=4),
    length=st.integers(min_value=1, max_value=4))
def test_disjoint_lattice_images_keeps_words_apart(maps, seed, length):
    # where the certificate holds, the words of one length send the seed to
    # pairwise distinct values
    system = make_system(maps)
    if disjoint_lattice_images(system, seed):
        values = [seed]
        for _ in range(length):
            values = [m(x) for m in system.maps for x in values]
        assert len(set(values)) == system.m**length


def _prime_factors(n):
    p = 2
    while p * p <= n:
        if n % p == 0:
            yield p
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        yield n


@given(maps=st.lists(
    st.tuples(st.sampled_from(SCAN_RATIOS),
              st.fractions(min_value=-4, max_value=4, max_denominator=12)),
    min_size=2, max_size=3, unique=True),
    points=st.lists(st.fractions(min_value=-9, max_value=9,
                                 max_denominator=12), max_size=4))
def test_system_on_its_lattice(maps, points):
    system = make_system(maps)
    scale, placed, ints = system.on_lattice(*points)
    values = [m.offset for m in system.maps] + points
    # scale puts every offset and point on scale**-1 Z, and no proper
    # divisor of it does, so it is the least such int
    assert all((x * scale).denominator == 1 for x in values)
    for p in _prime_factors(scale):
        assert any((x * scale / p).denominator != 1 for x in values)
    assert all(type(a) is int for a in ints)
    assert ints == [x * scale for x in points]
    for m, (p, q, shift) in zip(system.maps, placed, strict=True):
        assert type(shift) is int and shift == m.offset * scale
        for x, a in zip(points, ints):
            assert Fraction(p * a, q) + shift == m(x) * scale


def test_on_lattice_of_no_values():
    assert on_lattice([]) == ([], 1)
    assert on_lattice([Fraction(1, 6), 2, Fraction(-3, 4)]) == ([2, 24, -9], 12)
