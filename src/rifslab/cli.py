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
from bisect import bisect_left, bisect_right
from fractions import Fraction

from . import __version__
from .config import RunConfig, load_config
from .dimension import (
    DimensionFit,
    _magnitudes,
    _renewal_radius,
    _run_forked,
    _workers,
    attractor_box_counts,
    density_profile,
    estimate_beurling_dimension,
    estimate_box_dimension,
    estimate_discrete_hausdorff,
    estimate_mass_dimension,
    integerize,
    renewal_constant,
    solve_similarity_dimension,
)
from .errors import BudgetExceededError, ConfigError, DomainError
from .orbit import (
    CountingProfile,
    _residual_radius,
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


def _tail_window(length: int, width: int = 10) -> tuple[int, int]:
    return (max(0, length - width), length)


class _Session:
    """One config plus caches shared between the fragments of a run.

    Orbit samples are cached per radius, so `report` enumerates each
    radius once and reuses the sample across its analyses.
    """

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
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


def _frag_solve_s(ses: _Session, out_dir: str, args) -> dict:
    sol = ses.similarity()
    return {"s": sol.value, "residual": sol.residual,
            "iterations": sol.iterations}


def _frag_diagnose(ses: _Session, out_dir: str, args) -> dict:
    cfg = ses.cfg
    scan_length = args.depth if args.depth else cfg.overlap_scan_length
    degenerate_at = common_fixed_point(cfg.system)
    sol = ses.similarity()
    overlaps = find_exact_overlaps(cfg.system, scan_length,
                                   word_budget=cfg.node_budget)
    table = []
    for n in range(1, cfg.separation_max_n + 1):
        sep = min_word_separation(cfg.system, n,
                                  word_budget=cfg.node_budget)
        rate = None
        if sep is not None and sep != 0:
            rate = -math.log(float(sep)) / n
        table.append({
            "n": n,
            "delta": format_rational(sep) if sep is not None else None,
            "rate": rate,
        })
    witness = None
    if overlaps:
        witness = [list(overlaps[0][0]), list(overlaps[0][1])]
    return {
        "degenerate": degenerate_at is not None,
        "degenerate_at": (format_rational(degenerate_at)
                          if degenerate_at is not None else None),
        "similarity": {"s": sol.value, "residual": sol.residual},
        "exact_overlaps": {
            "scanned_to_length": scan_length,
            "count": len(overlaps),
            "first_witness": witness,
            "conditional": True,
        },
        "separation_table": table,
        "residue_criterion": has_incongruent_offsets(cfg.system),
    }


def _probe_depths(cfg: RunConfig, args) -> tuple[int, ...]:
    if not args.depth:
        return cfg.probe_depths
    kept = [d for d in cfg.probe_depths if d <= args.depth]
    if not kept or kept[-1] != args.depth:
        kept.append(args.depth)
    return tuple(kept)


def _frag_orbit(ses: _Session, out_dir: str, args) -> dict:
    cfg = ses.cfg
    sample = ses.orbit(cfg.radius)
    write_orbit_dump(sample, os.path.join(out_dir, "orbit.txt"))
    gap = min_gap(sample)
    depths = _probe_depths(cfg, args)
    matrices = []
    for m in overlap_probe(cfg.system, cfg.seed, depths, cfg.node_budget):
        matrices.append({
            "depth": m.depth,
            "orbit_size": m.truncated_orbit_size,
            "cells": [list(row) for row in m.cells],
            "max_offdiagonal": m.max_offdiagonal,
        })
    frag = {
        "size": len(sample.lattice),
        "complete": sample.complete,
        "radius": format_rational(sample.radius),
        "node_budget_used": sample.node_budget_used,
        "dump": "orbit.txt",
        "min_gap": {
            "value": format_rational(gap) if gap is not None else None,
            "conditional": True,
            "radius": format_rational(sample.radius),
        },
        "overlap_probe": {
            "conditional": True,
            "depths": list(depths),
            "matrices": matrices,
            "overlaps_observed": any(m["max_offdiagonal"] > 0
                                     for m in matrices),
        },
    }
    try:
        frag["residual_points"] = [format_rational(y)
                                   for y in residual_points(sample)]
    except DomainError as exc:
        frag["residual_points_error"] = str(exc)
    return frag


def _frag_dims(ses: _Session, out_dir: str, args) -> dict:
    cfg = ses.cfg
    sample = ses.orbit(cfg.radius)
    grid = cfg.h_grid()
    profile = counting_profile(sample, grid)
    rows = []
    for h, n in profile.entries:
        hf = float(h)
        exponent = math.log(n) / math.log(hf) if n >= 1 and hf > 1 else math.nan
        rows.append((_f(hf), str(n), _f(exponent)))
    _write_csv(os.path.join(out_dir, "dims.csv"),
               ["h", "N", "logN/logh"], map(",".join, rows))
    window = _tail_window(len(grid))
    mass = estimate_mass_dimension(profile, window=window)
    beurling = estimate_beurling_dimension(sample, grid, window=window)
    return {
        "complete": sample.complete,
        "radius": format_rational(sample.radius),
        "mass": _fit_dict(mass),
        "beurling": _fit_dict(beurling),
        "csv": "dims.csv",
    }


def _frag_dhd(ses: _Session, out_dir: str, args) -> dict:
    cfg = ses.cfg
    sample = ses.orbit(cfg.radius)
    points, scale = integerize(sample)
    report = estimate_discrete_hausdorff(points, cfg.alpha_values(),
                                         cfg.nu_levels(), tau=cfg.tau)
    rows = [(_f(alpha), str(n), _f(cost), _f(partial))
            for alpha, n, cost, partial in report.rows]
    _write_csv(os.path.join(out_dir, "nu.csv"),
               ["alpha", "n", "nu", "partial_sum"], map(",".join, rows))
    return {
        "scale": scale,
        "dim_estimate": report.dim_estimate,
        "decay_estimate": report.decay_estimate,
        "alpha_resolution": cfg.alpha_step,
        "tau": cfg.tau,
        "csv": "nu.csv",
    }


def _frag_attractor(ses: _Session, out_dir: str, args) -> dict:
    cfg = ses.cfg
    box = attractor_box_counts(cfg.system, cfg.grid_kmax,
                               word_budget=cfg.node_budget)
    fit = estimate_box_dimension(box, window=_tail_window(len(box.ks)))
    return {
        "hull": [format_rational(box.hull[0]), format_rational(box.hull[1])],
        "delta": format_rational(box.delta),
        "counts": [[k, n] for k, n in zip(box.ks, box.counts)],
        "fit": _fit_dict(fit),
    }


def _density_grid(cfg: RunConfig, sample, ratio, periods: int = 3,
                  fill: int = 40,
                  max_jumps: int = 200_000) -> CountingProfile:
    """Counting profile for the density report: a linear fill of each
    period plus every orbit jump in the span, so the tail extrema and the
    periodicity defect are exact for the sample.

    Orbits of nearly full density have as many jumps as integers in the
    span; beyond max_jumps the grid keeps only the fill, whose sampled
    extrema are then approximate but tight (the normalized count varies
    little between adjacent integers of a dense orbit).

    The grid is built on one lattice, D = lcm(L q, the fill's
    denominators) for the sample scale L and ratio p/q: a fill value x is
    x D, a jump m / L is m D / L, and its fold ratio * m / L is
    p m D / (q L).  Every entry g is at most top D, so its count
    #{|a| <= floor(g L / D)} is one bisection of the sorted magnitudes.
    """
    if not sample.complete:
        raise DomainError("counting requires a complete sample")
    top = cfg.grid_base**cfg.grid_kmax
    if ratio is None:
        fills = cfg.h_grid()
        lo = fills[_tail_window(len(fills))[0]]
        q = 1
    else:
        fills = [top / ratio ** (t + 1) * (1 + i * (ratio - 1) / fill)
                 for t in range(periods) for i in range(fill + 1)]
        lo = top / ratio**periods
        q = ratio.denominator
    scale = sample.scale
    den = math.lcm(scale * q, *(x.denominator for x in fills))
    step = den // scale
    grid = {x.numerator * (den // x.denominator) for x in fills}
    mags = _magnitudes(sample, top)
    # the jumps m / L in [lo, top] are the magnitudes from ceil(lo L) on
    first = bisect_left(mags, -sample.floor_scaled(-lo))
    jumps = set(mags[first:])
    if len(jumps) <= max_jumps:
        grid.update(map(step.__mul__, jumps))
        if ratio is not None:
            # the defect fold needs ratio*h on the grid for jumps one
            # period down
            fold_lo = -sample.floor_scaled(-top / ratio**2)
            fold_hi = sample.floor_scaled(top / ratio)
            fold = ratio.numerator * (den // (q * scale))
            grid.update(map(fold.__mul__, mags[
                max(first, bisect_left(mags, fold_lo)):
                bisect_right(mags, fold_hi)]))
    grid = sorted(grid)
    return CountingProfile(grid, den, [bisect_right(mags, g // step)
                                       for g in grid])


def _density_ratio(cfg: RunConfig) -> Fraction | None:
    if cfg.density_period is not None:
        return cfg.density_period
    mags = {abs(m.ratio) for m in cfg.system.maps}
    if len(mags) == 1:
        return mags.pop()
    return None


def _frag_density(ses: _Session, out_dir: str, args) -> dict:
    cfg = ses.cfg
    s = ses.similarity().value
    sample = ses.orbit(cfg.radius)
    ratio = _density_ratio(cfg)
    profile = _density_grid(cfg, sample, ratio)
    report = density_profile(profile, s, period_ratio=ratio)
    # one format per row; a missing phase prints as nan
    rows = ["%.17g,%.17g,%.17g" % (h, math.nan if phase is None else phase,
                                   value)
            for h, phase, value in report.samples]
    _write_csv(os.path.join(out_dir, "density.csv"),
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


def _frag_renewal(ses: _Session, out_dir: str, args) -> dict:
    cfg = ses.cfg
    system = cfg.system
    s = ses.similarity().value
    cutoff = cfg.cutoff
    # enlarge the radius until the truncated sums and the residual scan
    # are decidable from the sample
    sample = ses.orbit(max(cfg.radius, _renewal_radius(system, cutoff),
                           _residual_radius(system, cfg.seed)))
    residuals = residual_points(sample)
    estimate = renewal_constant(system, sample, residuals, s, cutoff)
    gap = min_gap(sample)
    depths = _probe_depths(cfg, args)
    probe = overlap_probe(system, cfg.seed, depths, cfg.node_budget)
    overlaps_observed = any(m.max_offdiagonal > 0 for m in probe)
    residue = has_incongruent_offsets(system)
    frag = {
        "value": estimate.value,
        "tail_bound": estimate.tail_bound,
        "cutoff": estimate.cutoff,
        "tail_density_sup": estimate.tail_density_sup,
        "s": s,
        "residual_points": [format_rational(y) for y in residuals],
        "conditional": True,
        "probe_depths": list(depths),
        "overlaps_observed": overlaps_observed,
        "residue_criterion": residue,
        "min_gap": format_rational(gap) if gap is not None else None,
        "radius": format_rational(sample.radius),
        "file": "renewal.txt",
    }
    lines = [
        f"value = {_f(estimate.value)}",
        f"tail_bound = {_f(estimate.tail_bound)}",
        f"cutoff = {_f(estimate.cutoff)}",
        f"tail_density_sup = {_f(estimate.tail_density_sup)}",
        f"s = {_f(s)}",
        "residual_points = " + ",".join(frag["residual_points"]),
        "conditional = true",
        "probe_depths = " + ",".join(str(d) for d in depths),
        f"overlaps_observed = {'true' if overlaps_observed else 'false'}",
        f"residue_criterion = {'true' if residue else 'false'}",
        f"min_gap = {frag['min_gap'] if gap is not None else 'none'}",
    ]
    with open(os.path.join(out_dir, "renewal.txt"), "w",
              encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return frag


def _frag_padic(ses: _Session, out_dir: str, args) -> dict:
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

    att, box = padic_attractor_box(psys, cfg.seed, args.depth,
                                   cfg.node_budget)
    log_p = math.log(p)
    rows = [(str(k), str(n), _f(math.log(n) / (k * log_p)))
            for k, n in zip(box.ks, box.counts)]
    _write_csv(os.path.join(out_dir, "padic.csv"),
               ["k", "N_k", "logN_k/(k log p)"], map(",".join, rows))

    frag = {
        "p": p,
        "clustering": clustering,
        "attractor": {
            "depth": att.depth,
            "size": len(att),
            "certified_k": att.certified_k,
        },
        "box": {
            "counts": [[k, n] for k, n in zip(box.ks, box.counts)],
            "fit": _fit_dict(box.fit),
        },
        "csv": "padic.csv",
        "sandwich": sandwich,
    }
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


_ANALYSES = (
    ("similarity", _frag_solve_s),
    ("diagnosis", _frag_diagnose),
    ("orbit", _frag_orbit),
    ("dims", _frag_dims),
    ("discrete_hausdorff", _frag_dhd),
    ("attractor", _frag_attractor),
    ("density", _frag_density),
    ("renewal", _frag_renewal),
    ("padic", _frag_padic),
)


_ABSORBED = (ConfigError, DomainError, BudgetExceededError)


def _frag_report(ses: _Session, out_dir: str, args) -> dict:
    """Every analysis into one report.json, each failure recorded in place.

    This process first computes what the analyses share, the similarity
    dimension and the orbit sample at the config's radius; an error there
    is left for each fragment that needs them to record.  The analyses'
    indices then go into one pipe, and W = min(_workers(), analyses)
    copies of one loop drain it, one index at a time: this process runs
    one copy and W - 1 forked children the others (`_run_forked`).  The
    attractor walk may split again inside a fragment worker, into up to
    _workers() processes, so at most W + _workers() - 1 processes are
    alive at once (3 on 2 CPUs); the cover-cost table runs in its
    worker.  Each fragment writes only its own artifact, and report.json
    is assembled here in _ANALYSES order: every file is the same bytes on
    any number of CPUs.
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
    jobs = [i for i, (name, _) in enumerate(_ANALYSES)
            if name != "padic" or cfg.padic is not None]

    def drain() -> dict:
        done = {}
        while index := os.read(queue, 1):
            name, builder = _ANALYSES[index[0]]
            try:
                done[name] = builder(ses, out_dir, args)
            except _ABSORBED as exc:
                done[name] = {"error": str(exc)}
        return done

    fragments = {"padic": {"skipped": "no padic block in config"}}
    queue, write_fd = os.pipe()
    try:
        with os.fdopen(write_fd, "wb") as fh:
            # the long analyses (cover table, attractor, density, p-adic)
            # come late in _ANALYSES: queued from the end, they start first
            fh.write(bytes(reversed(jobs)))
        for done in _run_forked([drain] * min(_workers(), len(jobs))):
            fragments.update(done)
    finally:
        os.close(queue)
    doc.update((name, fragments[name]) for name, _ in _ANALYSES)
    with open(os.path.join(out_dir, "report.json"), "w",
              encoding="utf-8") as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return doc


_DISPATCH = {
    "solve-s": _frag_solve_s,
    "diagnose": _frag_diagnose,
    "orbit": _frag_orbit,
    "dims": _frag_dims,
    "dhd": _frag_dhd,
    "attractor": _frag_attractor,
    "density": _frag_density,
    "renewal": _frag_renewal,
    "padic": _frag_padic,
    "report": _frag_report,
}

_HELP = {
    "solve-s": "solve the similarity dimension",
    "diagnose": "degeneracy, exact overlaps, separation table",
    "orbit": "enumerate the orbit and dump it",
    "dims": "mass and window-maximum dimension fits",
    "dhd": "cover-cost table and discrete Hausdorff estimates",
    "attractor": "dual attractor hull and box counts",
    "density": "normalized counts, extrema, periodicity",
    "renewal": "density constant with tail bound and evidence",
    "padic": "ball clustering, p-adic box fit, mass-vs-box check",
    "report": "run every analysis into one report.json",
}


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
    for name in _DISPATCH:
        subparsers.add_parser(name, parents=[common], help=_HELP[name])
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.depth is not None and args.depth < 1:
            raise ConfigError("--depth: must be >= 1")
        cfg = load_config(args.config, _config_patch(args))
        session = _Session(cfg)
        os.makedirs(cfg.out_dir, exist_ok=True)
        fragment = _DISPATCH[args.command](session, cfg.out_dir, args)
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
