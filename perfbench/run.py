"""Benchmark `rifslab report` end to end, or layer by layer.

Run from the root of a rifslab checkout:

    python3 perfbench/run.py --workload cantor-padic --seed 0 --seconds 30 --trace 0

The workloads and the seeded config generator are in workloads.py.  Each
report runs in a fresh interpreter (child.py), one after another (a
closed loop with one client), until --seconds have passed.

--trace 0 times reports with tracing off: report_s (wall time of the
report after import) and peak_rss_mb (the child's peak resident set
size), each the median over the run's reports.  Before each report it
starts an interpreter a few times to time `import rifslab` plus
`load_config`, and setup_s is the median of those start-ups.  --trace 1
alternates untraced and traced reports and reports the per-layer metrics
of tracing.py, medians over the traced reports, plus trace_overhead_s
(traced minus untraced report_s).

After each report, outside the timing, gate.py checks its artifacts, and
after the loop it spot-checks reduced instances against the reference
oracles.  Human-readable lines come first; the last line of stdout is
one JSON object with correct, attempted (analyses run), failed (error
strings in report.json) and the metrics named in BENCHMARK.json.  The
full record, with every sample and the environment, is written to
perfbench/out/<workload>-seed<seed>-trace<0|1>/result.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import workloads  # noqa: E402

SETUP_STARTS = 5  # per report
DEADLINE_S = 170  # a run must end within 180 s


class Runner:
    """Launches the child interpreters of one run, one at a time."""

    def __init__(self, run_dir: Path, deadline: float):
        self.run_dir = run_dir
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def _child(self, *args) -> None:
        with open(self.run_dir / "stdout.txt", "wb") as out, \
                open(self.run_dir / "stderr.txt", "wb") as err:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), *map(str, args)],
                cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL, stdout=out,
                stderr=err, timeout=max(1.0, self.deadline - time.monotonic()),
                check=False)
        if proc.returncode != 0:
            tail = (self.run_dir / "stderr.txt").read_text(errors="replace")
            raise RuntimeError(f"child {args[0]} exited {proc.returncode}:\n"
                               f"{tail[-2000:]}")

    def start_up(self, config: Path) -> float:
        """Seconds from launching an interpreter to a loaded config."""
        result = self.run_dir / "setup.txt"
        launched = time.monotonic()
        self._child("setup", config, result)
        return float(result.read_text()) - launched

    def report(self, config: Path, index: int, traced: bool) -> dict:
        """One report in a fresh interpreter; its artifacts stay in
        run_dir/report until the next one."""
        out = self.run_dir / "report"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        result = self.run_dir / "child.json"
        spans = ([self.run_dir / f"spans-{index}.jsonl",
                  f"{self.run_dir.name}/{index}"] if traced else [])
        self._child("report", config, out, result, *spans)
        record = json.loads(result.read_text())
        record["traced"] = traced
        return record


def prepare(run_dir: Path, doc: dict) -> tuple[Runner, Path]:
    """An emptied run directory holding the config; its runner and the
    config's path."""
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    config = run_dir / "config.json"
    config.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return Runner(run_dir, time.monotonic() + DEADLINE_S), config


def median_layers(records: list[dict]) -> dict:
    """Per-layer medians; counts stay whole numbers."""
    medians = {}
    for name in records[0]["layers"]:
        values = [r["layers"][name] for r in records]
        medians[name] = (statistics.median_low(values)
                         if isinstance(values[0], int)
                         else statistics.median(values))
    return medians


def check_report(out: Path, expected: dict) -> tuple[list[str], int, int]:
    """One report's mismatched artifacts, analyses attempted and error
    strings; a report that wrote no report.json counts one failure."""
    mismatched = gate.digest_mismatches(gate.artifact_digests(out), expected)
    report_path = out / "report.json"
    if not report_path.is_file():
        return mismatched, 1, 1
    doc = json.loads(report_path.read_text(encoding="utf-8"))
    attempted = sum(1 for value in doc.values()
                    if isinstance(value, dict) and "skipped" not in value)
    return mismatched, attempted, gate.count_errors(doc)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not ((ROOT / "src" / "rifslab" / "__init__.py").is_file()
            and (ROOT / "tests" / "_oracles.py").is_file()
            and spec_path.is_file()):
        print("perfbench: not a rifslab checkout (needs src/rifslab, "
              "tests/_oracles.py and BENCHMARK.json)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    sys.path.insert(0, str(ROOT / "src"))

    doc, variant = workloads.make_config(args.workload, args.seed)
    run_dir = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    runner, config = prepare(run_dir, doc)
    expected = (gate.load_goldens()[args.workload]
                if variant == (1, False) else None)

    setups = []
    if not args.trace:
        runner.start_up(config)  # writes the bytecode caches

    records = []
    mismatches = []
    attempted = failed = 0
    stop = time.monotonic() + args.seconds
    while not records or time.monotonic() < stop:
        if not args.trace:
            # spread over the run, so that a short burst of load on the
            # machine moves few of them
            setups += [runner.start_up(config) for _ in range(SETUP_STARTS)]
        for traced in ((False, True) if args.trace else (False,)):
            records.append(runner.report(config, len(records), traced))
            out = run_dir / "report"
            # Outside the timing.  Without goldens, every report must
            # repeat the first one byte for byte.
            if expected is None:
                expected = gate.artifact_digests(out)
            names, tried, errors = check_report(out, expected)
            mismatches += [f"report {len(records) - 1}: {n}" for n in names]
            attempted += tried
            failed += errors
    oracles = gate.load_oracles(ROOT / "tests")
    mismatches += [f"oracle: {name}" for name in gate.spot_check(doc, oracles)]

    plain = [r for r in records if not r["traced"]]
    report_s = statistics.median(r["report_s"] for r in plain)
    if args.trace:
        traced = [r for r in records if r["traced"]]
        metrics = median_layers(traced)
        metrics["trace_overhead_s"] = (
            statistics.median(r["report_s"] for r in traced) - report_s)
    else:
        metrics = {
            "report_s": report_s,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"perfbench: metrics not produced: {missing}", file=sys.stderr)
        return 1
    # the traced record lists the path of every enumerate call
    env = records[-1]["env"]

    summary = {
        "workload": args.workload, "seed": args.seed,
        "variant": list(variant), "trace": args.trace,
        "seconds": args.seconds, "env": env,
        "samples": {"report_s": [r["report_s"] for r in plain],
                    "traced_report_s": [r["report_s"] for r in records
                                        if r["traced"]],
                    "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
                    "setup_s": setups},
        "analyses_attempted": attempted, "analyses_failed": failed,
        "outputs_mismatched": len(mismatches), "mismatches": mismatches,
        "metrics": {m["name"]: metrics[m["name"]] for m in wanted},
    }
    (run_dir / "result.json").write_text(json.dumps(summary, indent=2) + "\n",
                                         encoding="utf-8")

    sign, reverse = variant
    print(f"workload {args.workload}, seed {args.seed}: config conjugated by "
          f"x -> {'-' if sign < 0 else ''}x, maps "
          f"{'reversed' if reverse else 'in order'}")
    print(f"environment: python {env['python']}, nproc {env['nproc']}, "
          f"have_kernel {env['have_kernel']}, orbit paths "
          f"{','.join(sorted(set(env['orbit_paths'])))}")
    print(f"{len(plain)} untraced reports"
          + (f", {len(records) - len(plain)} traced" if args.trace else "")
          + (f", {len(setups)} start-ups" if setups else ""))
    for m in wanted:
        print(f"  {m['name']:<32} {metrics[m['name']]!r} {m['unit']}")
    print(f"  analyses_failed {failed} count, of analyses_attempted "
          f"{attempted} count")
    print(f"  outputs_mismatched {len(mismatches)} count")
    for line in mismatches:
        print(f"    mismatch: {line}")
    print(json.dumps({
        "correct": not mismatches,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
