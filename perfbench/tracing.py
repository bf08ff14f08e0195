"""Layer tracing from outside the package.

`Tracer.install` rebinds every public function of each rifslab module,
in every rifslab namespace that holds it (cli, dimension and padic import
by name), to a wrapper that records a span: name, start, end, parent span
and run id.  The cli fragments of `report` and the session's orbit cache
get spans too.  Functions called up to millions of times per report get a
call counter, or nothing, instead of a span.  Spans stay in memory;
`layer_metrics` reduces them to the per-layer metrics and `write_spans`
dumps them.
"""

from __future__ import annotations

import collections
import importlib
import inspect
import json
import sys
import time
import types

MODULES = ("config", "dimension", "orbit", "padic", "rational", "systems",
           "cli")

# Hot callees.  padic_valuation and the prime check under it run 1.6M
# times in one cantor-padic report, and a span each made that report 35%
# slower: the valuation gets a call counter, the prime check and the
# per-point formatter of the orbit dump are left unwrapped.
COUNTED = {"rational.padic_valuation": "rational.valuation_calls"}
UNTRACED = {"rational.check_prime", "rational.is_prime",
            "rational.format_rational"}
COUNTED_METHODS = {
    ("systems", "Rifs", "dual_maps"): "systems.dual_maps_calls",
    ("systems", "AffineMap", "inverse"): "systems.inverse_calls",
}

ANALYSES = ("similarity", "diagnosis", "orbit", "dims", "discrete_hausdorff",
            "attractor", "density", "renewal", "padic")

# metric -> traced function whose span durations it sums
SPAN_SECONDS = {
    "orbit.enumerate_s": "orbit.enumerate_orbit",
    "orbit.window_scan_s": "orbit.window_max_count",
    "orbit.count_s": "orbit.counting_profile",
    "dimension.cover_dp_s": "dimension.min_cover_cost",
    "dimension.attractor_s": "dimension.attractor_box_counts",
    "padic.ball_count_s": "padic.ball_count",
    "padic.attractor_sample_s": "padic.attractor_sample",
    "padic.sandwich_s": "padic.mass_box_sandwich",
    "padic.mass_vs_box_s": "padic.compare_mass_and_box",
    "systems.overlaps_s": "systems.find_exact_overlaps",
    "systems.separation_s": "systems.min_word_separation",
    "config.load_s": "config.load_config",
}
# metric -> traced function whose spans it counts
SPAN_CALLS = {
    "orbit.enumerate_calls": "orbit.enumerate_orbit",
    "orbit.window_scan_calls": "orbit.window_max_count",
    "dimension.cover_dp_calls": "dimension.min_cover_cost",
    "padic.ball_count_calls": "padic.ball_count",
}
COUNTERS = ("orbit.points", "orbit.nodes_used", "orbit.int_path_calls",
            "orbit.fraction_path_calls", "dimension.cover_points",
            "dimension.cover_cells_bound", "dimension.box_cells",
            "padic.ball_points", "rational.valuation_calls",
            "systems.dual_maps_calls", "systems.inverse_calls")


def orbit_path(system) -> str:
    """The representation enumerate_orbit walks for this system: the
    scaled integer lattice when every ratio is an integer, else Fraction."""
    if all(m.ratio.denominator == 1 for m in system.maps):
        return "int"
    return "fraction"


def points_bytes(points) -> int:
    """Computed size of a sample's point list: the list plus every
    distinct Fraction and integer object it references."""
    seen = set()
    total = sys.getsizeof(points)
    for x in points:
        for obj in (x, x.numerator, x.denominator):
            if id(obj) not in seen:
                seen.add(id(obj))
                total += sys.getsizeof(obj)
    return total


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: collections.Counter = collections.Counter()
        self.samples: list = []
        self.paths: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn, observe=None):
        spans, stack = self.spans, self._stack
        signature = inspect.signature(fn) if observe else None

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if observe:
                observe(signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def _counter(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _rebind(self, namespace, attr, value):
        self._restore.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, value)

    # -- per-call observations ------------------------------------------

    def _observe_orbit(self, args, sample):
        self.samples.append(sample)
        path = orbit_path(args["system"])
        self.paths.append(path)
        self.counts[f"orbit.{path}_path_calls"] += 1
        self.counts["orbit.points"] += len(sample.points)
        self.counts["orbit.nodes_used"] += sample.node_budget_used

    def _observe_cover(self, args, result):
        k = len(args["points"])
        self.counts["dimension.cover_points"] += k
        self.counts["dimension.cover_cells_bound"] += k * k

    def _observe_box(self, args, box):
        self.counts["dimension.box_cells"] += sum(box.counts)

    def _observe_balls(self, args, result):
        self.counts["padic.ball_points"] += len(args["points"])

    # -- installation -----------------------------------------------------

    def install(self, package) -> None:
        """Wrap the package's layers; `uninstall` undoes it."""
        modules = {short: importlib.import_module(f"{package.__name__}.{short}")
                   for short in MODULES}
        namespaces = [package, *modules.values()]
        observers = {
            "orbit.enumerate_orbit": self._observe_orbit,
            "dimension.min_cover_cost": self._observe_cover,
            "dimension.attractor_box_counts": self._observe_box,
            "padic.ball_count": self._observe_balls,
        }
        for short, module in modules.items():
            for attr, fn in list(vars(module).items()):
                name = f"{short}.{attr}"
                if (attr.startswith("_") or not isinstance(fn, types.FunctionType)
                        or fn.__module__ != module.__name__
                        or name in UNTRACED):
                    continue
                if name in COUNTED:
                    wrapper = self._counter(COUNTED[name], fn)
                else:
                    wrapper = self._span(name, fn, observers.get(name))
                for namespace in namespaces:
                    for held, value in list(vars(namespace).items()):
                        if value is fn:
                            self._rebind(namespace, held, wrapper)
        for (short, cls_name, method), counter in COUNTED_METHODS.items():
            cls = getattr(modules[short], cls_name)
            self._rebind(cls, method, self._counter(counter, getattr(cls, method)))
        cli = modules["cli"]
        self._rebind(cli, "_ANALYSES", tuple(
            (name, self._span(f"cli.{name}", builder))
            for name, builder in cli._ANALYSES))
        self._rebind(cli._Session, "orbit",
                     self._span("cli.session_orbit", cli._Session.orbit))

    def uninstall(self) -> None:
        while self._restore:
            namespace, attr, value = self._restore.pop()
            setattr(namespace, attr, value)

    # -- reduction --------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything traced so far."""
        seconds = collections.defaultdict(float)
        calls = collections.Counter()
        child_seconds = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            seconds[name] += end - start
            calls[name] += 1
            if parent >= 0:
                child_seconds[parent] += end - start
        metrics = {f"cli.{name}_s": seconds[f"cli.{name}"] for name in ANALYSES}
        metrics["cli.self_s"] = sum(
            end - start - child_seconds[i]
            for i, (name, start, end, _) in enumerate(self.spans)
            if name.startswith("cli."))
        cache_calls = calls["cli.session_orbit"]
        misses = sum(1 for name, _, _, parent in self.spans
                     if name == "orbit.enumerate_orbit" and parent >= 0
                     and self.spans[parent][0] == "cli.session_orbit")
        metrics["cli.orbit_cache_hit_ratio"] = (
            (cache_calls - misses) / cache_calls if cache_calls else 0.0)
        for metric, name in SPAN_SECONDS.items():
            metrics[metric] = seconds[name]
        for metric, name in SPAN_CALLS.items():
            metrics[metric] = calls[name]
        for counter in COUNTERS:
            metrics[counter] = self.counts[counter]
        metrics["orbit.sample_bytes"] = max(
            (points_bytes(s.points) for s in self.samples), default=0)
        return metrics

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": self.run_id})
                         + "\n")
