"""Compare two sets of end-to-end results, workload by workload.

    python3 perfbench/compare.py BEFORE AFTER
    python3 perfbench/compare.py --summary DIR > summary.json

BEFORE and AFTER are each a directory searched for the result.json files
that run.py writes (--trace 0 runs only), or a summary written by
--summary, such as baseline.json.  For every end-to-end metric of
BENCHMARK.json it prints both medians, the quartile spread of BEFORE as a
share of its median, and a verdict against the metric's bound.  Results
whose environments took different orbit paths, or disagree on the
compiled kernel, are not compared.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def summarise(directory: Path) -> dict:
    runs = {}
    for path in sorted(directory.rglob("result.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        if record["trace"] == 0:
            runs.setdefault(record["workload"], []).append(record)
    summary = {}
    for workload, records in runs.items():
        values = {name: [r["metrics"][name] for r in records]
                  for name in records[0]["metrics"]}
        summary[workload] = {
            "runs": len(records),
            "seeds": [r["seed"] for r in records],
            "env": {"have_kernel": records[0]["env"]["have_kernel"],
                    "orbit_paths": sorted({p for r in records
                                           for p in r["env"]["orbit_paths"]}),
                    "python": records[0]["env"]["python"],
                    "nproc": records[0]["env"]["nproc"]},
            "failed": sum(r["analyses_failed"] for r in records),
            "mismatched": sum(r["outputs_mismatched"] for r in records),
            "metrics": {name: {"median": statistics.median(v),
                               "q1": statistics.quantiles(v, n=4)[0],
                               "q3": statistics.quantiles(v, n=4)[2]}
                        if len(v) > 1 else {"median": v[0], "q1": v[0],
                                            "q3": v[0]}
                        for name, v in values.items()},
        }
    return summary


def load(path: str) -> dict:
    p = Path(path)
    if p.is_dir():
        return summarise(p)
    return json.loads(p.read_text(encoding="utf-8"))["workloads"]


def compare(before: dict, after: dict) -> int:
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    regressions = 0
    for workload in sorted(set(before) & set(after)):
        old, new = before[workload], after[workload]
        paths = [(s["env"]["have_kernel"], s["env"]["orbit_paths"])
                 for s in (old, new)]
        if paths[0] != paths[1]:
            print(f"{workload}: not compared, kernel/orbit paths "
                  f"{paths[0]} -> {paths[1]}")
            continue
        print(f"{workload}: {old['runs']} -> {new['runs']} runs, failed "
              f"{old['failed']} -> {new['failed']}, mismatched "
              f"{old['mismatched']} -> {new['mismatched']}")
        regressions += new["failed"] > old["failed"] or new["mismatched"] > 0
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a, b = old["metrics"][name], new["metrics"][name]
            spread = (a["q3"] - a["q1"]) / a["median"]
            change = b["median"] / a["median"] - 1
            worse = change if metric["better"] == "lower" else -change
            if worse > bound:
                verdict = "REGRESSION"
                regressions += 1
            elif spread > bound:
                verdict = "unresolved (spread above bound)"
            else:
                verdict = "within bound"
            print(f"  {name:<12} {a['median']:.6g} -> {b['median']:.6g} "
                  f"{metric['unit']} ({change:+.1%}; spread {spread:.1%}, "
                  f"bound {bound:.0%}): {verdict}")
    return 1 if regressions else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--summary", metavar="DIR",
                        help="print a summary of the results under DIR")
    parser.add_argument("paths", nargs="*", metavar="BEFORE AFTER")
    args = parser.parse_args()
    if args.summary:
        print(json.dumps({"workloads": summarise(Path(args.summary))},
                         indent=2))
        return 0
    if len(args.paths) != 2:
        parser.error("give BEFORE and AFTER")
    return compare(load(args.paths[0]), load(args.paths[1]))


if __name__ == "__main__":
    sys.exit(main())
