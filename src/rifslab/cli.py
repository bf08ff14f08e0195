"""Command line driver.

Each subcommand loads one JSON config, prints its findings as a JSON
fragment on stdout, and writes any data files into the output
directory.  `report` chains every analysis into a single report.json,
recording per-analysis failures in place instead of aborting the run.

Exit codes: 0 success, 2 bad configuration or usage, 3 budget
exhausted, 4 precondition violated.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction
from functools import partial

from . import __version__, pool
from .config import RunConfig, load_config
from .dimension import (
    DimensionFit,
    attractor_box_counts,
    density_grid,
    density_profile,
    density_ratio,
    estimate_beurling_dimension,
    estimate_box_dimension,
    estimate_discrete_hausdorff,
    estimate_mass_dimension,
    integerize,
    renewal_constant,
    renewal_radius,
    solve_similarity_dimension,
    tail_window,
)
from .errors import BudgetExceededError, ConfigError, DomainError
from .orbit import (
    counting_profile,
    enumerate_orbit,
    min_gap,
    overlap_probe,
    residual_points,
    write_orbit_dump,
)
from .padic import (
    ball_counts,
    mass_box_sandwich,
    mass_versus_box,
    padic_attractor_box,
)
from .rational import format_rational
from .systems import (
    common_fixed_point,
    find_exact_overlaps,
    has_incongruent_offsets,
    min_word_separation,
)


def _f(x) -> str:
    return format(float(x), ".17g")


def _write_csv(path, header, lines) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join([",".join(header), *lines]) + "\n")


def _fit_dict(fit: DimensionFit) -> dict:
    return {
        "lower": fit.lower,
        "upper": fit.upper,
        "slope": fit.slope,
        "window": [fit.window[0], fit.window[1]],
        "r_squared": fit.r_squared,
    }


class _Session:
    """One config, its --depth override (None when not given) and the
    caches shared by the fragments of a run, each a builder(session) ->
    dict writing into the config's output directory.  Orbit samples are
    cached per radius, so `report` enumerates each radius once.
    """

    def __init__(self, cfg: RunConfig, depth: int | None = None):
        self.cfg = cfg
        self.depth = depth
        self._samples: dict[Fraction, object] = {}
        self._similarity = None

    def orbit(self, radius) -> object:
        key = Fraction(radius)
        if key not in self._samples:
            self._samples[key] = enumerate_orbit(
                self.cfg.system, self.cfg.seed, key,
                node_budget=self.cfg.node_budget)
        return self._samples[key]

    def similarity(self):
        if self._similarity is None:
            self._similarity = solve_similarity_dimension(
                [m.ratio for m in self.cfg.system.maps],
                tolerance=self.cfg.residual_tolerance)
        return self._similarity


def _frag_solve_s(ses: _Session) -> dict:
    sol = ses.similarity()
    return {"s": sol.value, "residual": sol.residual,
            "iterations": sol.iterations}


def _frag_diagnose(ses: _Session) -> dict:
    cfg = ses.cfg
    scan_length = ses.depth or cfg.overlap_scan_length
    degenerate_at = common_fixed_point(cfg.system)
    sol = ses.similarity()
    overlaps = find_exact_overlaps(cfg.system, scan_length,
                                   word_budget=cfg.node_budget)
    table = []
    for n in range(1, cfg.separation_max_n + 1):
        sep = min_word_separation(cfg.system, n,
                                  word_budget=cfg.node_budget)
        # no rate for an empty minimum (None) or an exact overlap (0)
        rate = -math.log(float(sep)) / n if sep else None
        table.append({
            "n": n,
            "delta": format_rational(sep) if sep is not None else None,
            "rate": rate,
        })
    witness = [list(word) for word in overlaps[0]] if overlaps else None
    evidence = _evidence(ses)
    return {
        "degenerate": degenerate_at is not None,
        "degenerate_at": (format_rational(degenerate_at)
                          if degenerate_at is not None else None),
        "similarity": {"s": sol.value, "residual": sol.residual},
        "exact_overlaps": {
            "scanned_to_length": scan_length,
            "count": len(overlaps),
            "first_witness": witness,
            "conditional": evidence["conditional"],
        },
        "separation_table": table,
        "residue_criterion": evidence["residue_criterion"],
    }


def _evidence(ses: _Session, sample=None) -> dict:
    """The non-overlap evidence printed beside readings that assume it:
    the residue criterion and, for a sample, its least gap and the
    overlap probe.  Both hold for the radius and depths probed only, so
    every such reading is conditional.  The session's --depth caps the
    config's probe depths and is probed itself."""
    cfg, depth = ses.cfg, ses.depth
    found = {"conditional": True,
             "residue_criterion": has_incongruent_offsets(cfg.system)}
    if sample is not None:
        gap = min_gap(sample)
        depths = [d for d in cfg.probe_depths if not depth or d <= depth]
        if depth and depths[-1:] != [depth]:
            depths.append(depth)
        matrices = [{"depth": m.depth, "orbit_size": m.truncated_orbit_size,
                     "cells": [list(row) for row in m.cells],
                     "max_offdiagonal": m.max_offdiagonal}
                    for m in overlap_probe(cfg.system, cfg.seed, depths,
                                           cfg.node_budget)]
        found.update(
            min_gap=format_rational(gap) if gap is not None else None,
            probe_depths=depths, matrices=matrices,
            overlaps_observed=any(m["max_offdiagonal"] > 0 for m in matrices))
    return found


def _frag_orbit(ses: _Session) -> dict:
    cfg = ses.cfg
    sample = ses.orbit(cfg.radius)
    write_orbit_dump(sample, os.path.join(cfg.out_dir, "orbit.txt"))
    evidence = _evidence(ses, sample)
    frag = {
        "size": len(sample.lattice),
        "complete": sample.complete,
        "radius": format_rational(sample.radius),
        "node_budget_used": sample.node_budget_used,
        "dump": "orbit.txt",
        "min_gap": {
            "value": evidence["min_gap"],
            "conditional": evidence["conditional"],
            "radius": format_rational(sample.radius),
        },
        "overlap_probe": {
            "conditional": evidence["conditional"],
            "depths": evidence["probe_depths"],
            "matrices": evidence["matrices"],
            "overlaps_observed": evidence["overlaps_observed"],
        },
    }
    try:
        frag["residual_points"] = [format_rational(y)
                                   for y in residual_points(sample)]
    except DomainError as exc:
        frag["residual_points_error"] = str(exc)
    return frag


def _frag_dims(ses: _Session) -> dict:
    cfg = ses.cfg
    sample = ses.orbit(cfg.radius)
    grid = cfg.h_grid()
    profile = counting_profile(sample, grid)
    rows = []
    for h, n in profile.entries:
        hf = float(h)
        exponent = math.log(n) / math.log(hf) if n >= 1 and hf > 1 else math.nan
        rows.append((_f(hf), str(n), _f(exponent)))
    _write_csv(os.path.join(cfg.out_dir, "dims.csv"),
               ["h", "N", "logN/logh"], map(",".join, rows))
    window = tail_window(len(grid))
    mass = estimate_mass_dimension(profile, window=window)
    beurling = estimate_beurling_dimension(sample, grid, window=window)
    return {
        "complete": sample.complete,
        "radius": format_rational(sample.radius),
        "mass": _fit_dict(mass),
        "beurling": _fit_dict(beurling),
        "csv": "dims.csv",
    }


def _frag_dhd(ses: _Session) -> dict:
    cfg = ses.cfg
    sample = ses.orbit(cfg.radius)
    points, scale = integerize(sample)
    report = estimate_discrete_hausdorff(points, cfg.alpha_values(),
                                         cfg.nu_levels(), tau=cfg.tau)
    rows = [(_f(alpha), str(n), _f(cost), _f(partial))
            for alpha, n, cost, partial in report.rows]
    _write_csv(os.path.join(cfg.out_dir, "nu.csv"),
               ["alpha", "n", "nu", "partial_sum"], map(",".join, rows))
    return {
        "scale": scale,
        "dim_estimate": report.dim_estimate,
        "decay_estimate": report.decay_estimate,
        "alpha_resolution": cfg.alpha_step,
        "tau": cfg.tau,
        "csv": "nu.csv",
    }


def _frag_attractor(ses: _Session) -> dict:
    cfg = ses.cfg
    box = attractor_box_counts(cfg.system, cfg.grid_kmax,
                               word_budget=cfg.node_budget)
    fit = estimate_box_dimension(box, window=tail_window(len(box.ks)))
    return {
        "hull": [format_rational(box.hull[0]), format_rational(box.hull[1])],
        "delta": format_rational(box.delta),
        "counts": [[k, n] for k, n in zip(box.ks, box.counts)],
        "fit": _fit_dict(fit),
    }


def _frag_density(ses: _Session) -> dict:
    cfg = ses.cfg
    s = ses.similarity().value
    sample = ses.orbit(cfg.radius)
    ratio = density_ratio(cfg.system, cfg.density_period)
    profile = density_grid(cfg.h_grid(), sample, ratio)
    report = density_profile(profile, s, period_ratio=ratio)
    # one format per row; a missing phase prints as nan
    rows = ["%.17g,%.17g,%.17g" % (h, math.nan if phase is None else phase,
                                   value)
            for h, phase, value in report.samples]
    _write_csv(os.path.join(cfg.out_dir, "density.csv"),
               ["h", "phase", "N_over_hs"], rows)
    return {
        "s": s,
        "period": format_rational(ratio) if ratio is not None else None,
        "sup_tail": report.sup_tail,
        "inf_tail": report.inf_tail,
        "tail_window": [report.tail_window[0], report.tail_window[1]],
        "defect": report.defect,
        "csv": "density.csv",
    }


# the keys of the renewal fragment that renewal.txt holds, in order
_RENEWAL_TXT = ("value", "tail_bound", "cutoff", "tail_density_sup", "s",
                "residual_points", "conditional", "probe_depths",
                "overlaps_observed", "residue_criterion", "min_gap")


def _txt(value) -> str:
    """A fragment value as renewal.txt writes it: a float to 17 digits, a
    list joined by commas, true, false and none in lower case."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _f(value)
    if isinstance(value, list):
        return ",".join(map(str, value))
    return "none" if value is None else str(value)


def _frag_renewal(ses: _Session) -> dict:
    cfg = ses.cfg
    system = cfg.system
    s = ses.similarity().value
    cutoff = cfg.cutoff
    sample = ses.orbit(max(cfg.radius, renewal_radius(system, cfg.seed,
                                                      cutoff)))
    residuals = residual_points(sample)
    estimate = renewal_constant(system, sample, residuals, s, cutoff)
    evidence = _evidence(ses, sample)
    frag = {
        "value": estimate.value,
        "tail_bound": estimate.tail_bound,
        "cutoff": estimate.cutoff,
        "tail_density_sup": estimate.tail_density_sup,
        "s": s,
        "residual_points": [format_rational(y) for y in residuals],
        "radius": format_rational(sample.radius),
        "file": "renewal.txt",
    }
    frag.update((key, value) for key, value in evidence.items()
                if key != "matrices")
    with open(os.path.join(cfg.out_dir, "renewal.txt"), "w",
              encoding="utf-8") as fh:
        fh.write("".join(f"{key} = {_txt(frag[key])}\n"
                         for key in _RENEWAL_TXT))
    return frag


def _frag_padic(ses: _Session) -> dict:
    cfg = ses.cfg
    if cfg.padic is None:
        raise ConfigError("padic: block required for this command")
    psys = cfg.padic
    p = psys.p
    sample = ses.orbit(cfg.radius)
    ks = range(1, cfg.grid_kmax + 1)
    try:
        rows_sw = mass_box_sandwich(psys, sample, ks)
        sandwich = {
            "rows": [{"k": r.k, "lower": r.lower, "balls": r.balls,
                      "upper": r.upper, "holds": r.holds}
                     for r in rows_sw],
            "all_hold": all(r.holds for r in rows_sw),
        }
        # the sandwich counted the balls at every k already
        clustering = [[r.k, r.balls] for r in rows_sw]
    except DomainError as exc:
        sandwich = {"error": str(exc)}
        # a partial sample undercounts the balls it has not reached
        clustering = ([[k, n] for k, n in zip(ks, ball_counts(sample, p, ks))]
                      if sample.complete else
                      {"error": "clustering requires a complete sample"})
    frag = {"p": p, "clustering": clustering, "sandwich": sandwich}
    try:
        att, box = padic_attractor_box(psys, cfg.seed, ses.depth,
                                       cfg.node_budget)
    except DomainError as exc:
        # an attractor too shallow to fit leaves the sandwich standing
        frag["attractor"] = {"error": str(exc)}
        frag["mass_vs_box"] = {"error": "no p-adic box fit to compare with"}
        return frag
    log_p = math.log(p)
    rows = [(str(k), str(n), _f(math.log(n) / (k * log_p)))
            for k, n in zip(box.ks, box.counts)]
    _write_csv(os.path.join(cfg.out_dir, "padic.csv"),
               ["k", "N_k", "logN_k/(k log p)"], map(",".join, rows))
    frag.update(attractor={"depth": att.depth, "size": att.size,
                           "certified_k": att.certified_k},
                box={"counts": [[k, n] for k, n in zip(box.ks, box.counts)],
                     "fit": _fit_dict(box.fit)},
                csv="padic.csv")
    try:
        check = mass_versus_box(psys, ses.orbit(Fraction(p) ** cfg.grid_kmax),
                                box.fit)
        frag["mass_vs_box"] = {
            "mass": _fit_dict(check.mass_fit),
            "box": _fit_dict(check.box_fit),
            "difference": check.difference,
        }
    except DomainError as exc:
        frag["mass_vs_box"] = {"error": str(exc)}
    return frag


_ABSORBED = (ConfigError, DomainError, BudgetExceededError)


def _frag_report(ses: _Session) -> dict:
    """Every analysis into one report.json, each failure recorded in place.

    This process first computes what the analyses share, the similarity
    dimension and the orbit sample at the config's radius; an error there
    is left for each fragment that needs them to record.  The analyses
    then go to `pool.run` as one task each, last first: the long ones
    (cover table, attractor, density, p-adic) come late in _ANALYSES, so
    they start first.  Each fragment writes only its own artifact, and
    report.json is assembled here in _ANALYSES order.
    """
    cfg = ses.cfg
    doc = {
        "version": __version__,
        "system": cfg.system.describe(),
        "seed": format_rational(cfg.seed),
    }
    for shared in (ses.similarity, lambda: ses.orbit(cfg.radius)):
        try:
            shared()
        except _ABSORBED:
            pass

    def run(builder) -> dict:
        try:
            return builder(ses)
        except _ABSORBED as exc:
            return {"error": str(exc)}

    jobs = {name: partial(run, builder)
            for name, builder in reversed(_ANALYSES)
            if name != "padic" or cfg.padic is not None}
    fragments = {"padic": {"skipped": "no padic block in config"}}
    fragments.update(zip(jobs, pool.run(list(jobs.values()))))
    doc.update((name, fragments[name]) for name, _ in _ANALYSES)
    with open(os.path.join(cfg.out_dir, "report.json"), "w",
              encoding="utf-8") as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return doc


# (subcommand, key in report.json or None, builder, help), in report order
_COMMANDS = (
    ("solve-s", "similarity", _frag_solve_s, "solve the similarity dimension"),
    ("diagnose", "diagnosis", _frag_diagnose,
     "degeneracy, exact overlaps, separation table"),
    ("orbit", "orbit", _frag_orbit, "enumerate the orbit and dump it"),
    ("dims", "dims", _frag_dims, "mass and window-maximum dimension fits"),
    ("dhd", "discrete_hausdorff", _frag_dhd,
     "cover-cost table and discrete Hausdorff estimates"),
    ("attractor", "attractor", _frag_attractor,
     "dual attractor hull and box counts"),
    ("density", "density", _frag_density,
     "normalized counts, extrema, periodicity"),
    ("renewal", "renewal", _frag_renewal,
     "density constant with tail bound and evidence"),
    ("padic", "padic", _frag_padic,
     "ball clustering, p-adic box fit, mass-vs-box check"),
    ("report", None, _frag_report, "run every analysis into one report.json"),
)

# (key, builder) per analysis; _frag_report reads it at call time
_ANALYSES = tuple((key, builder) for _, key, builder, _ in _COMMANDS if key)


def _parse_alpha_grid(text: str) -> dict:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError("--alpha-grid: expected START:STOP:STEP")
    return dict(zip(("start", "stop", "step"), parts))


def _config_patch(args) -> dict:
    """The edits the override flags make to the config document."""
    patch = {key: value for key, value in (("node_budget", args.budget),
                                           ("cutoff", args.cutoff),
                                           ("out", args.out))
             if value is not None}
    grid = {key: value for key, value in (("base", args.grid_base),
                                          ("kmax", args.kmax))
            if value is not None}
    if grid:
        patch["grid"] = grid
    if args.alpha_grid is not None:
        patch["alpha_grid"] = _parse_alpha_grid(args.alpha_grid)
    return patch


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rifslab",
        description="orbit statistics for expanding affine systems")
    parser.add_argument("--version", action="version",
                        version=f"rifslab {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, metavar="PATH",
                        help="JSON run configuration")
    common.add_argument("--out", metavar="DIR",
                        help="output directory (default from config)")
    common.add_argument("--budget", type=int, metavar="N",
                        help="override the node budget")
    common.add_argument("--grid-base", metavar="Q",
                        help="override the h-grid base (rational)")
    common.add_argument("--kmax", type=int, metavar="N",
                        help="override the largest grid exponent")
    common.add_argument("--depth", type=int, metavar="N",
                        help="override probe, scan, or sample depth")
    common.add_argument("--alpha-grid", metavar="START:STOP:STEP",
                        help="override the cover-cost exponent grid")
    common.add_argument("--cutoff", metavar="X",
                        help="override the renewal truncation (rational)")
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, _, _, text in _COMMANDS:
        subparsers.add_parser(name, parents=[common], help=text)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.depth is not None and args.depth < 1:
            raise ConfigError("--depth: must be >= 1")
        cfg = load_config(args.config, _config_patch(args))
        os.makedirs(cfg.out_dir, exist_ok=True)
        builder = {name: b for name, _, b, _ in _COMMANDS}[args.command]
        fragment = builder(_Session(cfg, args.depth))
        print(json.dumps(fragment, indent=2, sort_keys=True))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceededError as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return 3
    except DomainError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
