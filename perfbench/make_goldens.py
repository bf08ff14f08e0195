"""Rewrite goldens.json from the current code.

    python3 perfbench/make_goldens.py

Runs one untraced seed-0 report per workload and records the sha256 of
every artifact it writes.  Run it only when a change to the outputs is
intended, and say so in the change: the goldens are the benchmark's
byte-identity gate.
"""

import json

import gate
import run
import workloads


def main() -> int:
    goldens = {}
    for name in sorted(workloads.WORKLOADS):
        run_dir = run.HERE / "out" / f"goldens-{name}"
        runner, config = run.prepare(run_dir, workloads.make_config(name, 0)[0])
        runner.report(config, 0, traced=False)
        goldens[name] = gate.artifact_digests(run_dir / "report")
    gate.GOLDENS.write_text(json.dumps(goldens, indent=2, sort_keys=True)
                            + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
