"""Orbit statistics for expanding affine systems on the rationals.

Enumerates forward orbits exactly, fits the usual growth exponents
(mass, Beurling, discrete Hausdorff, attractor box, p-adic box), and
evaluates central densities and the renewal-style density constant.

`import rifslab` loads no submodule.  Each exported name imports the
module that defines it on first use (PEP 562), so `rifslab.load_config`
loads config, errors, rational and systems, and none of the analysis
modules.
"""

import importlib

__version__ = "0.1.0"

# module -> the names the package exports from it
_EXPORTS = {
    "config": ("RunConfig", "load_config", "parse_config"),
    "dimension": (
        "BoxCounts", "CoverCost", "DensityReport", "DimensionFit",
        "DiscreteHausdorffReport", "RenewalEstimate", "SimilaritySolution",
        "attractor_box_counts", "density_profile", "dual_attractor_hull",
        "estimate_beurling_dimension", "estimate_box_dimension",
        "estimate_discrete_hausdorff", "estimate_mass_dimension",
        "integerize", "min_cover_cost", "renewal_constant",
        "solve_similarity_dimension", "window_density_sup",
    ),
    "errors": ("BudgetExceededError", "ConfigError", "DomainError"),
    "orbit": (
        "CountingProfile", "OrbitSample", "OverlapMatrix", "counting_profile",
        "enumerate_orbit", "min_gap", "overlap_probe", "residual_points",
        "window_max_count", "write_orbit_dump",
    ),
    "padic": (
        "BallClustering", "MassBoxComparison", "PAdicAttractorSample",
        "PAdicBoxReport", "attractor_sample", "ball_count", "ball_counts",
        "compare_mass_and_box", "mass_box_sandwich", "mass_versus_box",
        "padic_attractor_box", "padic_box_dimension", "padic_distance",
    ),
    "rational": (
        "PAdicValue", "check_prime", "format_rational", "is_prime",
        "padic_valuation", "parse_rational",
    ),
    "systems": (
        "AffineMap", "PAdicSystem", "Rifs", "affine_map", "common_fixed_point",
        "find_exact_overlaps", "fixed_point",
        "has_incongruent_offsets", "make_padic_system", "make_system",
        "min_word_separation",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)


def __getattr__(name):
    # Resolved on every access, never stored here: a name rebound in its
    # module (a tracer's wrapper, and its removal) shows through at once.
    # The modules of the table resolve too, so `rifslab.padic` needs no
    # import of its own.
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _OWNER:
        module = importlib.import_module(f"{__name__}.{_OWNER[name]}")
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_EXPORTS, *__all__})
