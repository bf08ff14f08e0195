import json
import time
from fractions import Fraction

import pytest

from rifslab import ConfigError
from rifslab.config import (_MAX_ALPHA_VALUES, _MAX_NU_VALUES, load_config,
                            parse_config)


def cantor_doc(**extra):
    doc = {"maps": [{"r": "3", "b": "0"}, {"r": "3", "b": "2"}],
           "seed": "0"}
    doc.update(extra)
    return doc


def test_minimal_doc_defaults():
    cfg = parse_config(cantor_doc())
    assert [m.ratio for m in cfg.system.maps] == [Fraction(3), Fraction(3)]
    assert cfg.seed == 0
    assert cfg.grid_base == 3
    assert (cfg.grid_kmin, cfg.grid_kmax) == (1, 12)
    assert cfg.radius == Fraction(3) ** 12
    assert cfg.probe_depths == (2, 4, 6, 8)
    assert cfg.residual_tolerance == 1e-12
    assert cfg.tau == 0.05
    assert (cfg.alpha_start, cfg.alpha_stop, cfg.alpha_step) == (0.1, 1.2, 0.1)
    assert (cfg.nu_start, cfg.nu_stop) == (0, 18)
    assert cfg.cutoff == 10000
    assert cfg.node_budget == 10_000_000
    assert cfg.padic is None
    assert cfg.density_period is None
    assert cfg.out_dir == "out"


def test_grid_helpers():
    cfg = parse_config(cantor_doc(grid={"base": "3", "kmin": 2, "kmax": 5},
                                  radius="243"))
    assert cfg.h_grid() == [Fraction(9), Fraction(27), Fraction(81),
                            Fraction(243)]
    assert cfg.alpha_values() == [round(0.1 * i, 12) for i in range(1, 13)]
    assert cfg.nu_levels() == list(range(0, 19))


def test_rational_literals_anywhere():
    cfg = parse_config({"maps": [{"r": "5/2", "b": "1/3"},
                                 {"r": "-3", "b": "0"}],
                        "seed": "1/2", "radius": "1000000"})
    assert cfg.system.maps[0].ratio == Fraction(5, 2)
    assert cfg.system.maps[0].offset == Fraction(1, 3)
    assert cfg.seed == Fraction(1, 2)
    assert cfg.grid_base == Fraction(5, 2)


def test_rejects_weak_ratio():
    with pytest.raises(ConfigError, match="ratio magnitude must exceed 1"):
        parse_config({"maps": [{"r": "1", "b": "0"}, {"r": "3", "b": "2"}],
                      "seed": "0"})


def test_rejects_duplicate_maps():
    with pytest.raises(ConfigError, match="maps must be pairwise distinct"):
        parse_config({"maps": [{"r": "3", "b": "2"}, {"r": "3", "b": "2"}],
                      "seed": "0"})


def test_rejects_single_map():
    with pytest.raises(ConfigError, match="at least 2"):
        parse_config({"maps": [{"r": "3", "b": "0"}], "seed": "0"})


def test_rejects_float_literal():
    with pytest.raises(ConfigError, match="maps"):
        parse_config({"maps": [{"r": "3.5", "b": "0"}, {"r": "3", "b": "2"}],
                      "seed": "0"})
    with pytest.raises(ConfigError, match="seed"):
        parse_config(cantor_doc(seed="0.1"))


def test_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="colour"):
        parse_config(cantor_doc(colour="red"))


def test_rejects_missing_maps():
    with pytest.raises(ConfigError, match="maps"):
        parse_config({"seed": "0"})


def test_rejects_small_radius():
    with pytest.raises(ConfigError, match="radius: must cover the h-grid"):
        parse_config(cantor_doc(radius="100"))


def test_rejects_a_radius_past_binary64():
    # every count, fit and density reads h <= radius as a float; the
    # default grid of {10**30 x, 10**30 x + 1} reaches 10**360
    r = str(10**30)
    for doc in (cantor_doc(maps=[{"r": r, "b": "0"}, {"r": r, "b": "1"}]),
                cantor_doc(radius=str(10**400))):
        with pytest.raises(ConfigError,
                           match="radius: past the binary64 range"):
            parse_config(doc)


def test_padic_block_cross_checked():
    doc = {"maps": [{"r": "2", "b": "0"}, {"r": "2", "b": "1"}],
           "seed": "0",
           "padic": {"p": 2, "exponents": [1, 1], "signs": [1, 1]}}
    cfg = parse_config(doc)
    assert cfg.padic is not None
    assert cfg.padic.p == 2
    assert cfg.padic.min_exponent == 1
    # offsets ride along from the archimedean maps
    assert [b for _, _, b in cfg.padic.terms] == [Fraction(0), Fraction(1)]


def test_padic_block_must_match_maps():
    for block, message in (
            ({"p": 2, "exponents": [1, 1], "signs": [1, 1]}, "does not equal"),
            ({"p": 3, "exponents": [2, 1], "signs": [1, 1]}, "does not equal"),
            ({"p": 3, "exponents": [-1, 1], "signs": [1, 1]},
             "does not equal"),
            ({"p": 3, "exponents": [1, 1], "signs": [-1, 1]},
             "does not equal"),
            ({"p": True, "exponents": [1, 1], "signs": [1, 1]},
             "padic.p: must be an integer"),
            ({"p": 3, "exponents": [True, 1], "signs": [1, 1]},
             "padic entry 0: exponent and sign must be integers"),
            ({"p": 3, "exponents": [1, 1], "signs": [True, 1]},
             "padic entry 0: exponent and sign must be integers"),
            ({"p": 4, "exponents": [1, 1], "signs": [1, 1]},
             "p must be a prime"),
            # checked before the power: 0**-1 would divide by zero
            ({"p": 0, "exponents": [-1, 1], "signs": [1, 1]},
             "p must be a prime")):
        with pytest.raises(ConfigError, match=message):
            parse_config(cantor_doc(padic=block))


def test_padic_exponent_is_bounded_before_the_power():
    # 3**(10**7) took seconds to build before it was compared with the ratio
    for e in (10**7, -10**7):
        start = time.perf_counter()
        with pytest.raises(ConfigError, match="padic entry 0: sign 1 \\* 3\\^"
                           f"{e} does not equal the ratio of maps\\[0\\]"):
            parse_config(cantor_doc(
                padic={"p": 3, "exponents": [e, 1], "signs": [1, 1]}))
        assert time.perf_counter() - start < 0.5
    # a right exponent still passes, here with a 61-bit p and sign -1; base
    # 2 keeps the radius 2**12, where the default grid's would be 2**2196
    p = 2**61 - 1
    r = str(-p**3)
    cfg = parse_config(cantor_doc(
        maps=[{"r": r, "b": "0"}, {"r": r, "b": "1"}], grid={"base": "2"},
        padic={"p": p, "exponents": [3, 3], "signs": [-1, -1]}))
    assert cfg.padic.min_exponent == 3


def test_padic_block_requires_all_keys():
    doc = cantor_doc(padic={"p": 3, "exponents": [1, 1]})
    with pytest.raises(ConfigError, match="signs"):
        parse_config(doc)


def test_load_config_reads_json(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cantor_doc()))
    cfg = load_config(str(path))
    assert cfg.grid_base == 3


def test_load_config_rejects_non_object(tmp_path):
    path = tmp_path / "run.json"
    path.write_text("[1, 2]")
    for patch in (None, {"out": "elsewhere"}):
        with pytest.raises(ConfigError, match="must be a JSON object"):
            load_config(str(path), patch)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "absent.json"))


def load_patched(tmp_path, doc, patch):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    return load_config(str(path), patch)


def test_overrides_grow_default_radius(tmp_path):
    # a radius absent from the document follows the grid, up and down
    bigger = load_patched(tmp_path, cantor_doc(), {"grid": {"kmax": 14}})
    assert bigger.grid_kmax == 14
    assert bigger.radius == Fraction(3) ** 14
    smaller = load_patched(tmp_path, cantor_doc(), {"grid": {"kmax": 9}})
    assert smaller.radius == Fraction(3) ** 9
    halves = load_patched(tmp_path, cantor_doc(), {"grid": {"base": "2"}})
    assert halves.radius == Fraction(2) ** 12


def test_overrides_keep_explicit_radius(tmp_path):
    for radius in ("1000000", str(3**12)):
        with pytest.raises(ConfigError, match="radius: must cover the h-grid"):
            load_patched(tmp_path, cantor_doc(radius=radius),
                         {"grid": {"kmax": 14}})
    kept = load_patched(tmp_path, cantor_doc(radius=str(3**12)),
                        {"grid": {"kmax": 9}})
    assert kept.radius == Fraction(3) ** 12


def test_overrides_validate(tmp_path):
    # a bad value is reported under the key it sets
    for patch, message in (
            ({"node_budget": 0}, "node_budget: must be an integer >= 1"),
            ({"grid": {"kmax": 1}}, "grid: needs integers 0 <= kmin < kmax"),
            ({"grid": {"base": "1"}}, "grid.base: must exceed 1"),
            ({"cutoff": "1"}, "cutoff: must exceed 1"),
            ({"alpha_grid": {"start": "0.5", "stop": "0.2", "step": "0.1"}},
             "alpha_grid: needs 0 < start < stop"),
            ({"alpha_grid": {"start": "x", "stop": "1", "step": "0.1"}},
             "alpha_grid.start: must be a number"),
            ({"out": ""}, "out: must be a path string"),
            # JSON true and false are not integers, though bool subclasses int
            ({"node_budget": True}, "node_budget: must be an integer >= 1"),
            ({"grid": {"kmin": True}}, "grid: needs integers 0 <= kmin < kmax"),
            ({"grid": {"kmax": True}}, "grid: needs integers 0 <= kmin < kmax"),
            ({"depths": [True, 2]}, "depths: must be an ascending list"),
            ({"separation_max_n": True},
             "separation_max_n: must be an integer >= 1"),
            ({"overlap_scan_length": True},
             "overlap_scan_length: must be an integer >= 1"),
            ({"nu_range": {"start": False, "stop": 4}},
             "nu_range: needs integers 0 <= start < stop"),
            ({"nu_range": {"stop": True}},
             "nu_range: needs integers 0 <= start < stop")):
        with pytest.raises(ConfigError, match=message):
            load_patched(tmp_path, cantor_doc(), patch)
    assert load_patched(tmp_path, cantor_doc(), {}) == parse_config(
        cantor_doc())


def test_overrides_replace_fields(tmp_path):
    out = load_patched(tmp_path, cantor_doc(), {
        "node_budget": 500, "cutoff": "99", "out": "elsewhere",
        "alpha_grid": {"start": "0.2", "stop": "0.8", "step": "0.3"}})
    assert out.node_budget == 500
    assert out.cutoff == 99
    assert out.alpha_values() == [0.2, 0.5, 0.8]
    assert out.out_dir == "elsewhere"


def test_overrides_update_nested_objects_key_by_key(tmp_path):
    doc = cantor_doc(grid={"base": "3", "kmin": 2, "kmax": 5},
                     alpha_grid={"start": 0.3, "stop": 0.9})
    cfg = load_patched(tmp_path, doc, {"grid": {"kmax": 7},
                                       "alpha_grid": {"step": 0.3}})
    assert (cfg.grid_base, cfg.grid_kmin, cfg.grid_kmax) == (3, 2, 7)
    assert cfg.alpha_values() == [0.3, 0.6, 0.9]
    assert cfg == parse_config(cantor_doc(
        grid={"base": "3", "kmin": 2, "kmax": 7},
        alpha_grid={"start": 0.3, "stop": 0.9, "step": 0.3}))


def test_alpha_grid_is_finite_and_bounded():
    # RunConfig.alpha_values loops from start to stop by step
    for alpha_grid, message in (
            ({"stop": "inf"}, "must be finite"),
            ({"start": "nan"}, "must be finite"),
            ({"step": float("inf")}, "must be finite"),
            ({"stop": 1000.0}, f"more than {_MAX_ALPHA_VALUES} values"),
            ({"step": 1e-6}, f"more than {_MAX_ALPHA_VALUES} values"),
            ({"start": 1e17, "stop": 1e17 + 64, "step": 1},
             "step must not vanish")):
        with pytest.raises(ConfigError, match=f"alpha_grid: .*{message}"):
            parse_config(cantor_doc(alpha_grid=alpha_grid))
    widest = parse_config(cantor_doc(alpha_grid={
        "start": 0.001, "stop": 0.001 * _MAX_ALPHA_VALUES, "step": 0.001}))
    assert len(widest.alpha_values()) == _MAX_ALPHA_VALUES


def test_nu_range_is_bounded():
    # 2.0**n overflows from n = 1024 on: 0..1023 is the longest range
    longest = parse_config(cantor_doc(nu_range={
        "start": 0, "stop": _MAX_NU_VALUES - 1}))
    assert len(longest.nu_levels()) == _MAX_NU_VALUES
    for stop in (_MAX_NU_VALUES, 10**9):
        with pytest.raises(ConfigError,
                           match=f"nu_range: holds more than {_MAX_NU_VALUES}"):
            parse_config(cantor_doc(nu_range={"start": 0, "stop": stop}))


def test_padic_block_with_a_61_bit_prime():
    p = 2**61 - 1
    cfg = parse_config(cantor_doc(
        maps=[{"r": str(p), "b": "0"}, {"r": str(p), "b": "1"}],
        padic={"p": p, "exponents": [1, 1], "signs": [1, 1]}))
    assert cfg.padic.p == p
