"""One start-up or one `rifslab report`, in a fresh interpreter.

    python3 child.py setup CONFIG RESULT
    python3 child.py report CONFIG OUT RESULT [SPANS RUN_ID]

`setup` imports rifslab, loads CONFIG and writes the monotonic clock
reading taken right after, so the parent can subtract the time at which
it launched this interpreter.  `report` times `cli.main(["report", ...])`
after import, traced when SPANS is given, and writes the timing, the
peak resident set size and the environment record to RESULT as JSON.
The parent sets PYTHONPATH to the checkout's src directory.
"""

import sys
import time


def setup(config, result):
    import rifslab

    rifslab.load_config(config)
    loaded = time.monotonic()
    with open(result, "w", encoding="utf-8") as fh:
        fh.write(repr(loaded))


def report(config, out, result, spans=None, run_id=None):
    import json
    import os
    import platform
    import resource

    import rifslab
    from rifslab import cli

    tracer = None
    if spans:
        from tracing import Tracer

        tracer = Tracer(run_id)
        tracer.install(rifslab)
    start = time.perf_counter()
    cli.main(["report", "--config", config, "--out", out])
    sys.stdout.flush()
    report_s = time.perf_counter() - start
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    from tracing import orbit_path

    record = {
        "report_s": report_s,
        "peak_rss_mb": peak_kib / 1024,
        "env": {
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "have_kernel": bool(getattr(rifslab, "HAVE_KERNEL", False)),
            "orbit_paths": (tracer.paths if tracer else
                            [orbit_path(rifslab.load_config(config).system)]),
        },
    }
    if tracer:
        tracer.uninstall()
        record["layers"] = tracer.layer_metrics()
        tracer.write_spans(spans)
    with open(result, "w", encoding="utf-8") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    mode, *rest = sys.argv[1:]
    {"setup": setup, "report": report}[mode](*rest)
