"""Output checks, run outside the timed region.

For the identity variant (seed 0) every artifact `report` writes must
be byte-identical to the sha256 digests in goldens.json.  For every seed,
reduced instances of the run's system are checked against the reference
implementations in tests/_oracles.py and the pairwise p-adic clustering.
Each failed check counts once in outputs_mismatched.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from pathlib import Path

GOLDENS = Path(__file__).with_name("goldens.json")

ORBIT_DEPTHS = (8, 12, 16)
COVER_POINTS = 12  # the oracle walks 2**(points-1) partitions
BALL_POINTS = 48
BALL_LEVELS = range(1, 7)
BOX_LEVELS = 6


def artifact_digests(out_dir) -> dict[str, str]:
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(Path(out_dir).iterdir()) if path.is_file()}


def digest_mismatches(actual: dict, expected: dict) -> list[str]:
    """Artifacts whose bytes differ, or that only one side has."""
    return [name for name in sorted(set(actual) | set(expected))
            if actual.get(name) != expected.get(name)]


def load_goldens() -> dict:
    return json.loads(GOLDENS.read_text(encoding="utf-8"))


def count_errors(node) -> int:
    """Number of error strings in a report document, nested ones too."""
    if isinstance(node, dict):
        return sum((key == "error" or key.endswith("_error"))
                   + count_errors(value) for key, value in node.items())
    if isinstance(node, list):
        return sum(count_errors(value) for value in node)
    return 0


def load_oracles(tests_dir) -> dict:
    """The reference implementations the spot checks compare against."""
    sys.path.insert(0, str(tests_dir))
    import _oracles
    from rifslab import ball_count

    return {
        "brute_orbit": _oracles.brute_orbit,
        "box_count_cylinders": _oracles.box_count_cylinders,
        "consecutive_cover_min": _oracles.consecutive_cover_min,
        "ball_count_pairwise": lambda points, p, k: ball_count(
            points, p, k, method="pairwise").count,
    }


def spot_check(doc: dict, oracles: dict) -> list[str]:
    """Names of the reduced-instance checks that fail for this config."""
    from rifslab import (attractor_box_counts, ball_count, enumerate_orbit,
                         integerize, make_system, min_cover_cost,
                         parse_config)

    cfg = parse_config(doc)
    system, seed = cfg.system, cfg.seed
    failed = []

    radius = cfg.grid_base ** 8
    sample = enumerate_orbit(system, seed, radius)
    for depth in ORBIT_DEPTHS:
        brute, saturated = oracles["brute_orbit"](system, seed, radius, depth)
        if saturated:
            break
    if not saturated or brute != sample.points:
        failed.append("orbit")

    # The cylinder oracle is exact only when all ratios are equal.  Its
    # cells are max|r|**-k wide where the library's are span/max|r|**k;
    # box counts do not change under dilation, so the oracle runs on the
    # system dilated to a hull of unit span.
    if len({m.ratio for m in system.maps}) == 1:
        box = attractor_box_counts(system, BOX_LEVELS)
        u, v = box.hull
        unit = make_system([(m.ratio, m.offset / (v - u))
                            for m in system.maps])
        if list(box.counts) != [oracles["box_count_cylinders"](unit, k)
                                for k in box.ks]:
            failed.append("attractor")

    if cfg.padic is not None:
        points, p = sample.points[:BALL_POINTS], cfg.padic.p
        if any(ball_count(points, p, k).count
               != oracles["ball_count_pairwise"](points, p, k)
               for k in BALL_LEVELS):
            failed.append("padic")

    # the largest centred cube that the exhaustive oracle can afford
    points = sorted(set(integerize(sample)[0]))
    for n in range(cfg.nu_stop, -1, -1):
        half = 2**n / 2
        inside = [x for x in points if -half <= x < half]
        if len(inside) <= COVER_POINTS:
            break
    for alpha in cfg.alpha_values():
        got = min_cover_cost(inside, alpha, n)
        cost, blocks = oracles["consecutive_cover_min"](inside, alpha, n)
        if (not math.isclose(got.cost, cost, rel_tol=0.0, abs_tol=1e-12)
                or len(got.optimal_partition) != blocks):
            failed.append("cover")
            break
    return failed
