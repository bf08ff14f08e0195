"""Run configuration: a JSON document describing one system and the
knobs every subcommand shares.

Rational values are strings ("3", "-5/2") so they survive JSON without
floating-point damage.  Unknown keys are rejected rather than ignored;
a silently misspelled knob would change results without a trace.

`parse_config` is the one place a setting is checked.  Command-line
overrides are edits of the document (`load_config`'s patch), so a flag
runs exactly the config it edits and a bad flag value is reported under
the key it sets.  A radius absent from the document follows the h-grid
top base**kmax; an explicit radius is kept and must cover it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DEFAULT_NODE_BUDGET, ConfigError
from .rational import check_prime, parse_rational
from .systems import PAdicSystem, Rifs, _is_int, make_system

_TOP_KEYS = {
    "maps", "seed", "grid", "radius", "depths", "separation_max_n",
    "overlap_scan_length", "padic", "tolerances", "alpha_grid", "nu_range",
    "cutoff", "node_budget", "density_period", "out",
}

# the most cover-cost exponents an alpha grid may hold (the default has 12)
_MAX_ALPHA_VALUES = 1000
# the most cube exponents a nu range may hold: 2.0**n overflows from
# n = 1024 on, so a longer range cannot be tabulated
_MAX_NU_VALUES = 1024


@dataclass(frozen=True)
class RunConfig:
    system: Rifs
    seed: Fraction
    grid_base: Fraction
    grid_kmin: int
    grid_kmax: int
    radius: Fraction
    probe_depths: tuple[int, ...]
    separation_max_n: int
    overlap_scan_length: int
    padic: PAdicSystem | None
    residual_tolerance: float
    tau: float
    alpha_start: float
    alpha_stop: float
    alpha_step: float
    nu_start: int
    nu_stop: int
    cutoff: Fraction
    node_budget: int
    density_period: Fraction | None
    out_dir: str

    def h_grid(self) -> list[Fraction]:
        return [self.grid_base**k
                for k in range(self.grid_kmin, self.grid_kmax + 1)]

    def alpha_values(self) -> list[float]:
        values = []
        a = self.alpha_start
        while a <= self.alpha_stop + 1e-12:
            values.append(round(a, 12))
            a += self.alpha_step
        return values

    def nu_levels(self) -> list[int]:
        return list(range(self.nu_start, self.nu_stop + 1))


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _rat(value, field: str) -> Fraction:
    _require(isinstance(value, str),
             f"{field}: must be a rational string like \"3\" or \"-5/2\"")
    try:
        return parse_rational(value)
    except ConfigError as exc:
        raise ConfigError(f"{field}: {exc}") from None


def _real(value, field: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{field}: must be a number") from None


def _parse_maps(doc: dict) -> Rifs:
    maps = doc.get("maps")
    _require(isinstance(maps, list), "maps: must be a list of {r, b} objects")
    pairs = []
    for i, entry in enumerate(maps):
        _require(isinstance(entry, dict) and set(entry) == {"r", "b"},
                 f"maps[{i}]: must be an object with keys r and b")
        pairs.append((_rat(entry["r"], f"maps[{i}].r"),
                      _rat(entry["b"], f"maps[{i}].b")))
    return make_system(pairs)


def _parse_padic(doc: dict, system: Rifs) -> PAdicSystem | None:
    block = doc.get("padic")
    if block is None:
        return None
    _require(isinstance(block, dict) and set(block) <= {"p", "exponents", "signs"},
             "padic: must be an object with keys p, exponents, signs")
    for key in ("p", "exponents", "signs"):
        _require(key in block, f"padic.{key}: required")
    p = block["p"]
    _require(_is_int(p), "padic.p: must be an integer")
    check_prime(p)  # before any power of p: 0**-1 divides by zero
    exponents, signs = block["exponents"], block["signs"]
    _require(isinstance(exponents, list) and isinstance(signs, list)
             and len(exponents) == len(signs) == system.m,
             "padic: exponents and signs must list one entry per map")
    terms = []
    for i, (m, e, sg) in enumerate(zip(system.maps, exponents, signs)):
        _require(_is_int(e) and _is_int(sg),
                 f"padic entry {i}: exponent and sign must be integers")
        # |ratio| = p**e needs e below the bit length of the numerator;
        # checked first, so a huge e costs no power
        _require(abs(e) < m.ratio.numerator.bit_length()
                 and m.ratio == sg * Fraction(p) ** e,
                 f"padic entry {i}: sign {sg} * {p}^{e} does not equal "
                 f"the ratio of maps[{i}]")
        terms.append((sg, e, m.offset))
    return PAdicSystem(p, tuple(terms))


def parse_config(doc: dict) -> RunConfig:
    """Validate a config document and fill defaults.

    The default h-grid uses the smallest ratio magnitude as base, so
    grid points line up with the system's own scales.
    """
    _require(isinstance(doc, dict), "config: must be a JSON object")
    unknown = set(doc) - _TOP_KEYS
    _require(not unknown, f"config: unknown keys {sorted(unknown)}")
    _require("maps" in doc, "maps: required")
    _require("seed" in doc, "seed: required")

    system = _parse_maps(doc)
    seed = _rat(doc["seed"], "seed")

    grid = doc.get("grid", {})
    _require(isinstance(grid, dict) and set(grid) <= {"base", "kmin", "kmax"},
             "grid: must be an object with keys base, kmin, kmax")
    base = (_rat(grid["base"], "grid.base") if "base" in grid
            else system.min_ratio_mag)
    _require(base > 1, "grid.base: must exceed 1")
    kmin = grid.get("kmin", 1)
    kmax = grid.get("kmax", 12)
    _require(_is_int(kmin) and _is_int(kmax)
             and 0 <= kmin < kmax, "grid: needs integers 0 <= kmin < kmax")

    radius = (_rat(doc["radius"], "radius") if "radius" in doc
              else base**kmax)
    _require(radius >= base**kmax, "radius: must cover the h-grid")
    # every count, fit and density reads h <= radius in binary64
    try:
        float(radius)
    except OverflowError:
        raise ConfigError("radius: past the binary64 range; lower grid.base "
                          "or grid.kmax") from None

    depths = doc.get("depths", [2, 4, 6, 8])
    _require(isinstance(depths, list) and depths
             and all(_is_int(d) and d >= 1 for d in depths)
             and depths == sorted(depths),
             "depths: must be an ascending list of integers >= 1")

    separation_max_n = doc.get("separation_max_n", 8)
    _require(_is_int(separation_max_n) and separation_max_n >= 1,
             "separation_max_n: must be an integer >= 1")
    overlap_scan_length = doc.get("overlap_scan_length", 6)
    _require(_is_int(overlap_scan_length) and overlap_scan_length >= 1,
             "overlap_scan_length: must be an integer >= 1")

    tol = doc.get("tolerances", {})
    _require(isinstance(tol, dict) and set(tol) <= {"residual", "tau"},
             "tolerances: must be an object with keys residual, tau")
    residual = _real(tol.get("residual", 1e-12), "tolerances.residual")
    tau = _real(tol.get("tau", 0.05), "tolerances.tau")
    _require(residual > 0, "tolerances.residual: must be positive")
    _require(tau > 0, "tolerances.tau: must be positive")

    alpha = doc.get("alpha_grid", {})
    _require(isinstance(alpha, dict) and set(alpha) <= {"start", "stop", "step"},
             "alpha_grid: must be an object with keys start, stop, step")
    alpha_start = _real(alpha.get("start", 0.1), "alpha_grid.start")
    alpha_stop = _real(alpha.get("stop", 1.2), "alpha_grid.stop")
    alpha_step = _real(alpha.get("step", 0.1), "alpha_grid.step")
    _require(all(map(math.isfinite, (alpha_start, alpha_stop, alpha_step))),
             "alpha_grid: start, stop and step must be finite")
    _require(alpha_start > 0 and alpha_step > 0 and alpha_stop > alpha_start,
             "alpha_grid: needs 0 < start < stop and step > 0")
    # RunConfig.alpha_values adds step to start until it passes stop
    _require(alpha_step >= math.ulp(alpha_stop),
             "alpha_grid: step must not vanish beside stop")
    _require((alpha_stop - alpha_start) / alpha_step < _MAX_ALPHA_VALUES,
             f"alpha_grid: holds more than {_MAX_ALPHA_VALUES} values")

    nu_range = doc.get("nu_range", {})
    _require(isinstance(nu_range, dict) and set(nu_range) <= {"start", "stop"},
             "nu_range: must be an object with keys start, stop")
    nu_start = nu_range.get("start", 0)
    nu_stop = nu_range.get("stop", 18)
    _require(_is_int(nu_start) and _is_int(nu_stop)
             and 0 <= nu_start < nu_stop,
             "nu_range: needs integers 0 <= start < stop")
    _require(nu_stop - nu_start < _MAX_NU_VALUES,
             f"nu_range: holds more than {_MAX_NU_VALUES} exponents")

    cutoff = _rat(doc.get("cutoff", "10000"), "cutoff")
    _require(cutoff > 1, "cutoff: must exceed 1")

    node_budget = doc.get("node_budget", DEFAULT_NODE_BUDGET)
    _require(_is_int(node_budget) and node_budget >= 1,
             "node_budget: must be an integer >= 1")

    period = doc.get("density_period")
    density_period = (_rat(period, "density_period")
                      if period is not None else None)
    if density_period is not None:
        _require(density_period > 1, "density_period: must exceed 1")

    out_dir = doc.get("out", "out")
    _require(isinstance(out_dir, str) and out_dir, "out: must be a path string")

    return RunConfig(
        system=system, seed=seed, grid_base=base, grid_kmin=kmin,
        grid_kmax=kmax, radius=radius, probe_depths=tuple(depths),
        separation_max_n=separation_max_n,
        overlap_scan_length=overlap_scan_length,
        padic=_parse_padic(doc, system), residual_tolerance=residual, tau=tau,
        alpha_start=alpha_start, alpha_stop=alpha_stop, alpha_step=alpha_step,
        nu_start=nu_start, nu_stop=nu_stop, cutoff=cutoff,
        node_budget=node_budget, density_period=density_period,
        out_dir=out_dir)


def load_config(path: str, patch: dict | None = None) -> RunConfig:
    """Read and validate the config at path.

    A patch edits the document before it is validated: its keys replace
    the document's, except that a nested object (`grid`, `alpha_grid`)
    is updated key by key.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if patch and isinstance(doc, dict):
        for key, value in patch.items():
            old = doc.get(key)
            doc[key] = ({**old, **value} if isinstance(old, dict)
                        and isinstance(value, dict) else value)
    return parse_config(doc)
