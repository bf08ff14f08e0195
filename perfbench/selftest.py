"""The benchmark's own tests.

    python3 perfbench/selftest.py

Runs eleven reports (about two minutes on a 2-core machine), so it is
kept out of the package's pytest suite.  It shows that every variant the
generator may pick leaves every analysis error-free, that seed 0
reproduces goldens.json, and that a one-byte golden change or a wrong
oracle count makes outputs_mismatched nonzero.
"""

import contextlib
import io
import json
import shutil
import sys
import unittest

import gate
import run
import tracing
import workloads

sys.path.insert(0, str(run.ROOT / "src"))

_reports = {}


def report_dir(name, variant):
    """Artifacts of one untraced report of a workload variant."""
    key = (name, variant)
    if key not in _reports:
        sign, reverse = variant
        run_dir = run.HERE / "out" / "selftest" / f"{name}-{sign}-{reverse}"
        runner, config = run.prepare(run_dir,
                                     workloads.variant_config(name, *variant))
        runner.report(config, 0, traced=False)
        _reports[key] = run_dir / "report"
    return _reports[key]


class Variants(unittest.TestCase):
    def test_every_listed_variant_is_error_free(self):
        for name, spec in workloads.WORKLOADS.items():
            for variant in spec["variants"]:
                with self.subTest(workload=name, variant=variant):
                    out = report_dir(name, variant)
                    doc = json.loads((out / "report.json").read_text())
                    self.assertEqual(gate.count_errors(doc), 0)

    def test_seed_zero_matches_goldens(self):
        goldens = gate.load_goldens()
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                digests = gate.artifact_digests(report_dir(name, (1, False)))
                self.assertEqual(gate.digest_mismatches(digests, goldens[name]), [])

    def test_seed_picks_are_repeatable(self):
        for name, spec in workloads.WORKLOADS.items():
            self.assertEqual(workloads.pick_variant(name, 0), (1, False))
            picks = [workloads.pick_variant(name, seed) for seed in range(1, 30)]
            self.assertEqual(set(picks), set(spec["variants"]))
            self.assertEqual(picks, [workloads.pick_variant(name, seed)
                                     for seed in range(1, 30)])


class Gate(unittest.TestCase):
    def setUp(self):
        self.oracles = gate.load_oracles(run.ROOT / "tests")

    def test_one_byte_artifact_change_is_a_mismatch(self):
        out = report_dir("rational-wide", (1, False))
        digests = gate.artifact_digests(out)
        copy = run.HERE / "out" / "selftest" / "flipped"
        shutil.rmtree(copy, ignore_errors=True)
        shutil.copytree(out, copy)
        data = bytearray((copy / "dims.csv").read_bytes())
        data[-2] ^= 1
        (copy / "dims.csv").write_bytes(bytes(data))
        self.assertEqual(gate.digest_mismatches(gate.artifact_digests(copy), digests),
                         ["dims.csv"])

    def test_each_wrong_oracle_count_is_a_mismatch(self):
        doc = workloads.make_config("cantor-padic", 0)[0]
        self.assertEqual(gate.spot_check(doc, self.oracles), [])
        real = self.oracles
        wrong = {
            "orbit": ("brute_orbit",
                      lambda *a: (real["brute_orbit"](*a)[0][1:], True)),
            "attractor": ("box_count_cylinders",
                          lambda *a: real["box_count_cylinders"](*a) + 1),
            "padic": ("ball_count_pairwise",
                      lambda *a: real["ball_count_pairwise"](*a) + 1),
            "cover": ("consecutive_cover_min",
                      lambda *a: (real["consecutive_cover_min"](*a)[0],
                                  real["consecutive_cover_min"](*a)[1] + 1)),
        }
        for check, (key, fake) in wrong.items():
            with self.subTest(check=check):
                self.assertEqual(gate.spot_check(doc, {**real, key: fake}), [check])

    def test_run_counts_golden_and_oracle_mismatches(self):
        goldens = gate.load_goldens()
        digest = goldens["rational-wide"]["report.json"]
        goldens["rational-wide"]["report.json"] = (
            ("1" if digest[0] == "0" else "0") + digest[1:])
        changed = run.HERE / "out" / "selftest" / "goldens.json"
        changed.parent.mkdir(parents=True, exist_ok=True)
        changed.write_text(json.dumps(goldens))
        real_goldens, real_loader = gate.GOLDENS, gate.load_oracles
        wrong = dict(self.oracles)
        wrong["box_count_cylinders"] = lambda *a: 0
        gate.GOLDENS, gate.load_oracles = changed, lambda tests_dir: wrong
        stdout = io.StringIO()
        try:
            with contextlib.redirect_stdout(stdout):
                code = run.main(["--workload", "rational-wide", "--seed", "0",
                                 "--seconds", "0", "--trace", "0"])
        finally:
            gate.GOLDENS, gate.load_oracles = real_goldens, real_loader
        self.assertEqual(code, 0)
        result = json.loads(stdout.getvalue().splitlines()[-1])
        self.assertFalse(result["correct"])
        record = json.loads((run.HERE / "out" / "rational-wide-seed0-trace0"
                             / "result.json").read_text())
        self.assertEqual(record["mismatches"],
                         ["report 0: report.json", "oracle: attractor"])


class Tracing(unittest.TestCase):
    def test_spans_nest_and_uninstall_restores(self):
        import rifslab
        from rifslab import padic

        original = padic.ball_count
        system = rifslab.make_padic_system(3, [(1, 1, 0), (1, 1, 2)])
        tracer = tracing.Tracer("selftest")
        tracer.install(rifslab)
        try:
            rifslab.compare_mass_and_box(system, 0, mass_kmax=6, depth=6)
        finally:
            tracer.uninstall()
        self.assertIs(padic.ball_count, original)
        names = [span[0] for span in tracer.spans]
        top = names.index("padic.compare_mass_and_box")
        self.assertEqual(tracer.spans[top][3], -1)
        parents = {tracer.spans[span[3]][0] for span in tracer.spans
                   if span[0] == "padic.ball_count"}
        self.assertEqual(parents, {"padic.padic_box_dimension"})
        metrics = tracer.layer_metrics()
        self.assertEqual(metrics["orbit.enumerate_calls"], 1)
        self.assertGreater(metrics["padic.ball_count_calls"], 0)
        self.assertGreater(metrics["rational.valuation_calls"], 0)


if __name__ == "__main__":
    unittest.main()
