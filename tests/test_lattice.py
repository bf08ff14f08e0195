"""The integer-lattice sample against the Fraction-list references.

An OrbitSample stores point i as lattice[i] / scale.  Every counting
consumer here is checked against the oracle that compares Fractions
point by point, on samples built from drawn rationals (negative and
fractional, denominators up to 12) and on enumerated orbits.
"""

import json
import math
import tempfile
import types
from fractions import Fraction
from pathlib import Path

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rifslab import (
    CountingProfile,
    OrbitSample,
    PAdicAttractorSample,
    attractor_sample,
    counting_profile,
    enumerate_orbit,
    format_rational,
    integerize,
    make_padic_system,
    make_system,
    min_gap,
    window_density_sup,
    window_max_count,
    write_orbit_dump,
)
from rifslab.cli import main
from rifslab.config import parse_config
from rifslab.dimension import density_grid, density_ratio
from _oracles import (
    brute_orbit,
    count_within_points,
    fraction_density_entries,
    jumps_in_points,
    window_density_sup_points,
    window_max_brute,
)

SYSTEM = make_system([(2, 0), (2, 1)])


def nudges(scale):
    """Offsets that move a point off the lattice of the given scale: half
    a lattice step, or fractions with other denominators."""
    return [Fraction(0), Fraction(1, 2 * scale), Fraction(-1, 2 * scale),
            Fraction(1, 24), Fraction(-1, 24), Fraction(1, 13), Fraction(-1, 13)]


@st.composite
def lattice_samples(draw):
    """(sorted distinct Fractions, the OrbitSample holding them).  The
    radius is the largest magnitude, or a little beyond it."""
    pts = sorted(set(draw(st.lists(
        st.builds(Fraction, st.integers(-60, 60), st.integers(1, 12)),
        max_size=25))))
    top = max([abs(x) for x in pts] + [Fraction(1, 12)])
    extra = draw(st.just(Fraction(0))
                 | st.fractions(min_value=0, max_value=3, max_denominator=12))
    lattice, scale = integerize(pts)
    sample = OrbitSample(system=SYSTEM, seed=Fraction(0), radius=top + extra,
                         lattice=lattice, scale=scale, complete=True,
                         node_budget_used=0)
    return pts, sample


def rationals_near(pts, scale):
    """Arbitrary rationals, and the points of either sign, nudged off the
    lattice or not."""
    arbitrary = st.fractions(min_value=-70, max_value=70, max_denominator=24)
    if not pts:
        return arbitrary
    return arbitrary | st.builds(lambda p, sign, d: sign * p + d,
                                 st.sampled_from(pts), st.sampled_from([1, -1]),
                                 st.sampled_from(nudges(scale)))


@settings(max_examples=200)
@given(case=lattice_samples())
def test_view_scale_and_integerize(case):
    pts, sample = case
    assert sample.points == pts
    assert sample.scale == math.lcm(*(x.denominator for x in pts))
    assert integerize(sample) == integerize(pts)
    assert min_gap(sample) == (min(b - a for a, b in zip(pts, pts[1:]))
                               if len(pts) > 1 else None)


@settings(max_examples=200)
@given(case=lattice_samples(), data=st.data())
def test_counts_and_membership_match_oracle(case, data):
    pts, sample = case
    for x in data.draw(st.lists(rationals_near(pts, sample.scale),
                                min_size=1, max_size=8)):
        assert (x in sample) == (x in pts)
        assert sample.count_within(x) == count_within_points(pts, x)


@settings(max_examples=200)
@given(case=lattice_samples(), data=st.data())
def test_window_max_matches_oracle(case, data):
    pts, sample = case
    radius = sample.radius
    # half-widths whose flush window [R - 2h, R] starts on a point or
    # just off it
    flush = [(radius - p - d) / 2 for p in pts for d in nudges(sample.scale)]
    flush = [h for h in flush if 0 < h <= radius]
    shares = st.fractions(min_value=Fraction(1, 50), max_value=1,
                          max_denominator=50)
    h = data.draw(shares.map(lambda t: t * radius)
                  | st.sampled_from(flush or [radius]))
    oracle = types.SimpleNamespace(points=pts, radius=radius)
    assert window_max_count(sample, h) == window_max_brute(oracle, h)


@settings(max_examples=200)
@given(case=lattice_samples(), data=st.data())
def test_jumps_and_density_sup_match_oracle(case, data):
    pts, sample = case
    radius = sample.radius
    edges = st.fractions(min_value=0, max_value=1,
                         max_denominator=24).map(lambda t: t * radius)
    if pts:
        edges |= st.builds(lambda p, d: abs(p) + d, st.sampled_from(pts),
                           st.sampled_from(nudges(sample.scale)))
    lo, hi = sorted(data.draw(st.lists(edges, min_size=2, max_size=2)))
    # windows that end flush at the radius, as the renewal tail does
    hi = data.draw(st.sampled_from([min(hi, radius), radius]))
    assume(0 < lo < hi)
    # counts at every jump, where |a| meets floor(h L) exactly, and at
    # the window's ends
    grid = sorted(jumps_in_points(pts, lo, hi) | {lo, hi})
    assert counting_profile(sample, grid).entries == tuple(
        (h, count_within_points(pts, h)) for h in grid)
    s = data.draw(st.sampled_from([0.25, math.log(2) / math.log(3), 1.0, 1.5]))
    assert (window_density_sup(sample, s, lo, hi)
            == window_density_sup_points(pts, s, lo, hi))


@settings(max_examples=200)
@given(case=lattice_samples())
def test_orbit_dump_lines_are_format_rational(case):
    pts, sample = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "orbit.txt"
        write_orbit_dump(sample, path)
        lines = path.read_text().splitlines()
    assert lines[4:] == [format_rational(x) for x in pts]


RATIOS = [Fraction(r) for r in (2, -2, 3)] + [Fraction(5, 2), Fraction(-7, 3)]
RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@given(maps=st.lists(st.tuples(st.sampled_from(RATIOS), RATIONALS),
                     min_size=2, max_size=2, unique=True),
       seed=RATIONALS,
       radius=st.fractions(min_value=3, max_value=40, max_denominator=4))
def test_enumerated_lattice_matches_oracles(maps, seed, radius):
    # integer ratios walk the scaled lattice, the rest Fractions; both
    # must land on the lattice of the points' reduced denominators
    system = make_system(maps)
    expected, saturated = brute_orbit(system, seed, radius, depth=12)
    assume(saturated)
    sample = enumerate_orbit(system, seed, radius)
    assert sample.points == expected
    assert sample.scale == math.lcm(*(x.denominator for x in expected))
    assert integerize(sample) == integerize(expected)
    oracle = types.SimpleNamespace(points=expected, radius=sample.radius)
    for h in (Fraction(1, 3), Fraction(2), radius / 2, radius):
        assert sample.count_within(h) == count_within_points(expected, h)
        assert window_max_count(sample, h) == window_max_brute(oracle, h)


DENSITY_RATIOS = [Fraction(2), Fraction(3), Fraction(5, 2), Fraction(7, 3)]


@settings(max_examples=80, deadline=None)
@given(ratio=st.sampled_from(DENSITY_RATIOS),
       other=st.sampled_from([None, Fraction(7, 2)]),
       signs=st.tuples(st.sampled_from([1, -1]), st.sampled_from([1, -1])),
       offsets=st.lists(RATIONALS, min_size=2, max_size=2, unique=True),
       seed=RATIONALS,
       kmax=st.integers(min_value=3, max_value=6),
       max_jumps=st.sampled_from([0, 5, 200_000]))
def test_density_grid_matches_fraction_oracle(ratio, other, signs, offsets,
                                              seed, kmax, max_jumps):
    # a second ratio magnitude takes the non-periodic branch; max_jumps 0
    # and 5 keep only the fill on most samples
    second = ratio if other is None else other
    cfg = parse_config({
        "maps": [{"r": str(signs[0] * ratio), "b": str(offsets[0])},
                 {"r": str(signs[1] * second), "b": str(offsets[1])}],
        "seed": str(seed), "grid": {"base": str(ratio), "kmax": kmax}})
    sample = enumerate_orbit(cfg.system, cfg.seed, cfg.radius,
                             node_budget=20_000)
    assume(sample.complete)
    period = density_ratio(cfg.system, cfg.density_period)
    profile = density_grid(cfg.h_grid(), sample, period, max_jumps=max_jumps)
    assert all(a < b for a, b in zip(profile.lattice, profile.lattice[1:]))
    assert list(profile.entries) == fraction_density_entries(
        cfg, sample.points, period, max_jumps=max_jumps)


def test_scale_is_lcm_of_reduced_denominators(tmp_path, capsys):
    # seed 1/2 puts {2x, 2x + 2} on the lattice N = 2, but every orbit
    # point (1, 3, 2, 4, ...) is an integer
    system = make_system([(2, 0), (2, 2)])
    sample = enumerate_orbit(system, Fraction(1, 2), 64)
    assert sample.points[:3] == [1, 2, 3]
    assert sample.scale == 1
    assert integerize(sample) == integerize(sample.points)
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "maps": [{"r": "2", "b": "0"}, {"r": "2", "b": "2"}],
        "seed": "1/2", "grid": {"base": "2", "kmax": 6}}))
    assert main(["dhd", "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == 0
    assert json.loads(capsys.readouterr().out)["scale"] == 1


def _never_built(self):
    raise AssertionError("the Fraction view of the sample was built")


def test_report_without_padic_never_builds_view(tmp_path, capsys,
                                                monkeypatch):
    # without a p-adic block every consumer of the sample reads the
    # lattice; one integer-ratio and one Fraction-ratio system
    monkeypatch.setattr(OrbitSample, "points", property(_never_built))
    for name, maps in (("mixed", [("2", "0"), ("3", "1")]),
                       ("wide", [("5/2", "0"), ("5/2", "1")])):
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps({
            "maps": [{"r": r, "b": b} for r, b in maps],
            "seed": "0", "grid": {"base": "2", "kmax": 8}}))
        out = tmp_path / name
        assert main(["report", "--config", str(cfg), "--out", str(out)]) == 0
        doc = json.loads((out / "report.json").read_text())
        for analysis in ("orbit", "dims", "discrete_hausdorff", "density",
                         "renewal"):
            assert "error" not in doc[analysis], (name, analysis)
    capsys.readouterr()


def test_density_never_builds_profile_view(tmp_path, capsys, monkeypatch):
    # the density grid is built, counted and folded on the lattice: the
    # periodic fold on an integer and a non-integer ratio, and the
    # non-periodic scan
    for cls in (OrbitSample, CountingProfile):
        monkeypatch.setattr(cls, "points", property(_never_built))
    for name, maps in (("cantor", [("3", "0"), ("3", "2")]),
                       ("mixed", [("2", "0"), ("3", "1")]),
                       ("wide", [("5/2", "0"), ("5/2", "1")])):
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps({
            "maps": [{"r": r, "b": b} for r, b in maps],
            "seed": "0", "grid": {"kmax": 8}}))
        assert main(["density", "--config", str(cfg),
                     "--out", str(tmp_path / name)]) == 0
        frag = json.loads(capsys.readouterr().out)
        assert (frag["defect"] is None) == (name == "mixed")


def test_density_refuses_cut_sample(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "maps": [{"r": "5/2", "b": "0"}, {"r": "5/2", "b": "1"}],
        "seed": "0", "grid": {"kmax": 8}}))
    assert main(["density", "--config", str(cfg), "--budget", "50",
                 "--out", str(tmp_path / "out")]) == 4
    assert ("counting requires a complete sample"
            in capsys.readouterr().err)


def test_padic_report_never_builds_either_view(tmp_path, capsys, monkeypatch):
    # the padic fragment counts balls, brackets them and fits the attractor
    # on the lattices of the orbit and the attractor samples
    for cls in (OrbitSample, PAdicAttractorSample):
        monkeypatch.setattr(cls, "points", property(_never_built))
    cfg = tmp_path / "cantor.json"
    cfg.write_text(json.dumps({
        "maps": [{"r": "3", "b": "0"}, {"r": "3", "b": "2"}],
        "seed": "0", "grid": {"base": "3", "kmax": 6}, "radius": "2187",
        "padic": {"p": 3, "exponents": [1, 1], "signs": [1, 1]}}))
    out = tmp_path / "out"
    assert main(["report", "--config", str(cfg), "--out", str(out)]) == 0
    frag = json.loads((out / "report.json").read_text())["padic"]
    assert "error" not in frag
    assert frag["attractor"]["size"] == 2**16
    assert frag["sandwich"]["all_hold"]
    assert "error" not in frag["mass_vs_box"]
    capsys.readouterr()


def test_len_is_the_lattice_length():
    # the benchmark's tracer sizes ball counts by len() of what they count
    orbit = enumerate_orbit(SYSTEM, Fraction(1, 3), 40)
    att = attractor_sample(make_padic_system(3, [(1, 1, Fraction(1, 2)),
                                                 (-1, 2, Fraction(2, 3))]),
                           Fraction(1, 9), 5)
    for sample in (orbit, att):
        assert len(sample) == len(sample.lattice) > 0
        assert integerize(sample) == (sample.lattice, sample.scale)
