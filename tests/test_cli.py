import json
import math
import os
import subprocess
import sys
import time

import pytest

import rifslab
from rifslab import cli, pool
from rifslab.cli import main

LOG2_3 = math.log(2) / math.log(3)


def write_config(tmp_path, doc, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def cantor_config(tmp_path, **extra):
    doc = {"maps": [{"r": "3", "b": "0"}, {"r": "3", "b": "2"}],
           "seed": "0", "grid": {"base": "3", "kmax": 6}}
    doc.update(extra)
    return write_config(tmp_path, doc)


def binary_padic_config(tmp_path, kmax=12):
    doc = {"maps": [{"r": "2", "b": "0"}, {"r": "2", "b": "1"}],
           "seed": "0", "grid": {"base": "2", "kmax": kmax},
           "radius": str(2 ** (kmax + 1)),
           "padic": {"p": 2, "exponents": [1, 1], "signs": [1, 1]}}
    return write_config(tmp_path, doc)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


# --------------------------------------------------------------------------
# happy paths, one subcommand each


def test_solve_s_stdout(tmp_path, capsys):
    cfg = cantor_config(tmp_path)
    code, frag = run_json(capsys, ["solve-s", "--config", cfg,
                                   "--out", str(tmp_path / "out")])
    assert code == 0
    assert frag["s"] == pytest.approx(LOG2_3, abs=1e-9)
    assert frag["residual"] <= 1e-12


def test_diagnose_fields(tmp_path, capsys):
    cfg = cantor_config(tmp_path)
    code, frag = run_json(capsys, ["diagnose", "--config", cfg,
                                   "--out", str(tmp_path / "out")])
    assert code == 0
    assert frag["degenerate"] is False
    assert frag["exact_overlaps"]["count"] == 0
    assert frag["exact_overlaps"]["conditional"] is True
    assert frag["exact_overlaps"]["scanned_to_length"] == 6
    assert frag["residue_criterion"] is True
    assert len(frag["separation_table"]) == 8
    first = frag["separation_table"][0]
    assert first["n"] == 1 and first["delta"] == "2/3"


def test_diagnose_depth_overrides_scan(tmp_path, capsys):
    cfg = cantor_config(tmp_path)
    code, frag = run_json(capsys, ["diagnose", "--config", cfg, "--depth", "3",
                                   "--out", str(tmp_path / "out")])
    assert code == 0
    assert frag["exact_overlaps"]["scanned_to_length"] == 3


def test_orbit_writes_dump(tmp_path, capsys):
    cfg = cantor_config(tmp_path)
    out = tmp_path / "out"
    code, frag = run_json(capsys, ["orbit", "--config", cfg,
                                   "--out", str(out)])
    assert code == 0
    assert frag["size"] == 2**6
    assert frag["complete"] is True
    assert frag["min_gap"]["value"] == "2"
    assert frag["min_gap"]["conditional"] is True
    assert frag["overlap_probe"]["overlaps_observed"] is False
    lines = (out / "orbit.txt").read_text().splitlines()
    assert lines[0].startswith("# system=")
    assert lines[3] == "# complete=true"
    assert lines[4:7] == ["0", "2", "6"]
    assert len(lines) == 4 + 2**6


def test_overlap_branch_reported_by_orbit_and_renewal(tmp_path, capsys):
    # 3x + 3 = 3(x + 1): f_1 and f_3 meet at f_1(x + 1) = f_3(x) as soon
    # as x and x + 1 are both in the truncated orbit
    cfg = cantor_config(tmp_path, maps=[{"r": "3", "b": "0"},
                                        {"r": "3", "b": "1"},
                                        {"r": "3", "b": "3"}])
    out = str(tmp_path / "out")
    code, frag = run_json(capsys, ["orbit", "--config", cfg, "--out", out])
    assert code == 0
    probe = frag["overlap_probe"]
    assert probe["overlaps_observed"] is True
    assert all(m["max_offdiagonal"] > 0 for m in probe["matrices"])
    assert probe["matrices"][0]["cells"][0][2] > 0
    code, frag = run_json(capsys, ["renewal", "--config", cfg, "--out", out])
    assert code == 0
    assert frag["overlaps_observed"] is True
    assert "overlaps_observed = true" in (
        (tmp_path / "out" / "renewal.txt").read_text().splitlines())


def test_dims_fits_only_the_tail_window(tmp_path, capsys, monkeypatch):
    # kmin 0 puts h = 1, which fails h >= 2, on the grid; the tail window
    # of both fits starts at h = 27, and only the window is scanned
    cfg = cantor_config(tmp_path, grid={"base": "3", "kmin": 0, "kmax": 12})
    scanned = []
    window_max_count = rifslab.dimension.window_max_count

    def counted(sample, h):
        scanned.append(h)
        return window_max_count(sample, h)

    monkeypatch.setattr(rifslab.dimension, "window_max_count", counted)
    code, frag = run_json(capsys, ["dims", "--config", cfg,
                                   "--out", str(tmp_path / "out")])
    assert code == 0
    assert frag["beurling"]["window"] == [27.0, 531441.0]
    assert frag["beurling"]["window"] == frag["mass"]["window"]
    assert scanned == [3**k for k in range(3, 13)]


def test_dims_csv(tmp_path, capsys):
    cfg = cantor_config(tmp_path)
    out = tmp_path / "out"
    code, frag = run_json(capsys, ["dims", "--config", cfg, "--out", str(out)])
    assert code == 0
    lines = (out / "dims.csv").read_text().splitlines()
    assert lines[0] == "h,N,logN/logh"
    assert len(lines) == 1 + 6
    h, n, expo = lines[1].split(",")
    assert (h, n) == ("3", "2")
    assert float(expo) == pytest.approx(LOG2_3, abs=1e-12)
    assert frag["mass"]["slope"] == pytest.approx(LOG2_3, abs=1e-12)


def test_dhd_csv(tmp_path, capsys):
    cfg = cantor_config(tmp_path)
    out = tmp_path / "out"
    code, frag = run_json(capsys, ["dhd", "--config", cfg, "--out", str(out),
                                   "--alpha-grid", "0.3:0.9:0.3"])
    assert code == 0
    lines = (out / "nu.csv").read_text().splitlines()
    assert lines[0] == "alpha,n,nu,partial_sum"
    # three alphas, levels 0..18
    assert len(lines) == 1 + 3 * 19
    assert frag["scale"] == 1


def test_attractor_fragment(tmp_path, capsys):
    cfg = cantor_config(tmp_path)
    code, frag = run_json(capsys, ["attractor", "--config", cfg,
                                   "--out", str(tmp_path / "out")])
    assert code == 0
    assert frag["hull"] == ["-1", "0"]
    assert frag["counts"] == [[k, 2**k] for k in range(1, 7)]


def test_density_csv(tmp_path, capsys):
    cfg = cantor_config(tmp_path)
    out = tmp_path / "out"
    code, frag = run_json(capsys, ["density", "--config", cfg,
                                   "--out", str(out)])
    assert code == 0
    lines = (out / "density.csv").read_text().splitlines()
    assert lines[0] == "h,phase,N_over_hs"
    assert len(lines) > 100
    assert frag["period"] == "3"
    assert frag["defect"] is not None
    assert frag["sup_tail"] >= frag["inf_tail"]


@pytest.mark.parametrize("rows", [[], ["1,2,nan", "-0.5,3,1e-05"]])
def test_csv_is_the_joined_rows(tmp_path, rows):
    # _write_csv streams its rows; the bytes are those of the header and
    # the rows joined in memory, a header alone when there are no rows
    path = tmp_path / "table.csv"
    cli._write_csv(path, ["h", "N", "x"], iter(rows))
    assert path.read_bytes() == ("\n".join(["h,N,x", *rows])
                                 + "\n").encode()


def test_renewal_file(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "maps": [{"r": "2", "b": "0"}, {"r": "3", "b": "1"}],
        "seed": "5", "cutoff": "1000"})
    out = tmp_path / "out"
    code, frag = run_json(capsys, ["renewal", "--config", cfg,
                                   "--out", str(out)])
    assert code == 0
    assert frag["conditional"] is True
    assert frag["value"] > 0
    text = (out / "renewal.txt").read_text().splitlines()
    keys = [line.split(" = ")[0] for line in text]
    assert keys == ["value", "tail_bound", "cutoff", "tail_density_sup", "s",
                    "residual_points", "conditional", "probe_depths",
                    "overlaps_observed", "residue_criterion", "min_gap"]
    assert "conditional = true" in text


@pytest.mark.parametrize("maps, seed, disjoint", [
    # the seed -2/3 puts the orbit on L = 3, where 3 divides 3 (1 - 0):
    # -2 = f1(-2/3) = f2(f2(-2/3))
    ([("3", "0"), ("3", "1")], "-2/3", False),
    # mixed integer ratios: gcd(2, 4) = 2 does not divide 1
    ([("2", "0"), ("4", "1")], "3", True),
    # the offset 1/2 puts the orbit on L = 2, where 3 does not divide 1
    ([("3", "0"), ("3", "1/2")], "0", True),
], ids=["seed-off-lattice", "mixed-ratios", "half-offset"])
def test_residue_criterion_reads_the_seed_lattice(tmp_path, capsys, maps,
                                                  seed, disjoint):
    cfg = write_config(tmp_path, {
        "maps": [{"r": r, "b": b} for r, b in maps], "seed": seed})
    out = tmp_path / "out"
    code, diag = run_json(capsys, ["diagnose", "--config", cfg,
                                   "--out", str(out)])
    assert code == 0 and diag["residue_criterion"] is disjoint
    code, renewal = run_json(capsys, ["renewal", "--config", cfg,
                                      "--out", str(out)])
    assert code == 0 and renewal["residue_criterion"] is disjoint
    # disjoint images admit no observed overlap; the first system's is real
    assert renewal["overlaps_observed"] is not disjoint
    text = (out / "renewal.txt").read_text().splitlines()
    assert f"residue_criterion = {str(disjoint).lower()}" in text


def count_padic_calls(monkeypatch, names):
    """Count the calls of the named rifslab.padic functions, made from
    padic itself or from the cli, which imports them by name; returns the
    live name -> count dict."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        fn = getattr(rifslab.padic, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        for module in (rifslab.padic, rifslab.cli):
            if getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, counted)
    return counts


def test_padic_csv_and_sandwich(tmp_path, capsys, monkeypatch):
    cfg = binary_padic_config(tmp_path)
    out = tmp_path / "out"
    calls = count_padic_calls(monkeypatch, ("attractor_ball_counts",
                                            "attractor_sample",
                                            "padic_box_dimension"))
    code, frag = run_json(capsys, ["padic", "--config", cfg,
                                   "--out", str(out)])
    assert code == 0
    # one exact count serves both the fragment's box and the mass-vs-box
    # check; {2x, 2x + 1} has disjoint lattice images, so its 2**16 words
    # are counted without being built
    assert calls == {"attractor_ball_counts": 1, "attractor_sample": 0,
                     "padic_box_dimension": 0}
    assert frag["attractor"] == {"depth": 16, "size": 2**16,
                                 "certified_k": 16}
    assert frag["mass_vs_box"]["box"] == frag["box"]["fit"]
    assert frag["clustering"] == [[k, 2**k] for k in range(1, 13)]
    assert frag["box"]["fit"]["slope"] == pytest.approx(1.0, abs=1e-12)
    assert frag["sandwich"]["all_hold"] is True
    assert frag["mass_vs_box"]["mass"]["slope"] == pytest.approx(
        0.9946562139296281)
    assert frag["mass_vs_box"]["difference"] <= 0.02
    lines = (out / "padic.csv").read_text().splitlines()
    assert lines[0] == "k,N_k,logN_k/(k log p)"
    k, nk, ratio = lines[1].split(",")
    assert (k, nk) == ("2", "4")
    assert float(ratio) == pytest.approx(1.0, abs=1e-12)


def test_padic_counts_each_ball_level_once(tmp_path, capsys, monkeypatch):
    # clustering reads the sandwich's ball counts at k = 1..12, counted in
    # one pass; the box fit reads the residue recursion, no sample
    cfg = binary_padic_config(tmp_path)
    calls = count_padic_calls(monkeypatch, ("ball_count", "ball_counts"))
    code, frag = run_json(capsys, ["padic", "--config", cfg,
                                   "--out", str(tmp_path / "out")])
    assert code == 0
    assert calls == {"ball_count": 0, "ball_counts": 1}
    assert frag["clustering"] == [[r["k"], r["balls"]]
                                  for r in frag["sandwich"]["rows"]]


def test_padic_clusters_when_sandwich_refuses(tmp_path, capsys):
    # radius 64 holds the orbit 0..64 of {2x, 2x + 1}, but the sandwich
    # at k = 6 needs radius 128
    with open(binary_padic_config(tmp_path, kmax=6)) as fh:
        doc = json.load(fh)
    cfg = write_config(tmp_path, dict(doc, radius="64"), name="small.json")
    code, frag = run_json(capsys, ["padic", "--config", cfg, "--depth", "8",
                                   "--out", str(tmp_path / "out")])
    assert code == 0
    assert frag["sandwich"] == {
        "error": "sandwich at k=6 needs radius >= 128, sample has 64"}
    assert frag["clustering"] == [[k, 2**k] for k in range(1, 7)]


def test_padic_depth_sets_mass_vs_box_attractor(tmp_path, capsys):
    cfg = binary_padic_config(tmp_path)
    code, frag = run_json(capsys, ["padic", "--config", cfg, "--depth", "8",
                                   "--out", str(tmp_path / "out")])
    assert code == 0
    assert frag["attractor"]["depth"] == 8
    assert frag["box"]["fit"]["window"] == [2.0, 8.0]
    assert frag["mass_vs_box"]["box"] == frag["box"]["fit"]


def test_padic_refuses_clustering_on_partial_sample(tmp_path, capsys):
    # the budget cuts the 2**13-point orbit sample at 1000 points, which
    # would read as 1000 balls at the levels k >= 10
    cfg = binary_padic_config(tmp_path)
    code, frag = run_json(capsys, ["padic", "--config", cfg, "--budget",
                                   "1000", "--depth", "8",
                                   "--out", str(tmp_path / "out")])
    assert code == 0
    assert frag["clustering"] == {
        "error": "clustering requires a complete sample"}
    assert frag["sandwich"] == {
        "error": "sandwich at k=1 requires a complete sample"}


def test_padic_shallow_attractor_keeps_sandwich_and_clustering(tmp_path,
                                                               capsys):
    # depth 3 certifies ball levels up to 3 only, too few for a box fit;
    # the sandwich and the clustering do not read the attractor
    cfg = binary_padic_config(tmp_path)
    out = tmp_path / "out"
    code, frag = run_json(capsys, ["padic", "--config", cfg, "--depth", "3",
                                   "--out", str(out)])
    assert code == 0
    assert frag["attractor"] == {"error": "need at least 4 ball levels"}
    assert frag["mass_vs_box"] == {
        "error": "no p-adic box fit to compare with"}
    assert "box" not in frag and not (out / "padic.csv").exists()
    assert frag["sandwich"]["all_hold"] is True
    assert frag["clustering"] == [[k, 2**k] for k in range(1, 13)]
    code, doc = run_json(capsys, ["report", "--config", cfg, "--depth", "3",
                                  "--out", str(tmp_path / "report")])
    assert code == 0
    assert doc["padic"] == frag


def test_padic_attractor_over_budget_exits_3(tmp_path, capsys):
    # the default depth of a 2-map system walks 2**16 words
    cfg = binary_padic_config(tmp_path)
    code = main(["padic", "--config", cfg, "--budget", "1000",
                 "--out", str(tmp_path / "out")])
    assert code == 3
    assert "budget exhausted: depth 16 needs 65536 words" in (
        capsys.readouterr().err)


def test_padic_residues_over_budget_exits_3(tmp_path, capsys):
    # depth 8 walks 256 words, within the budget, but the residue sets of
    # levels 1..8 hold 2 + 4 + ... + 256 = 510 residues
    cfg = binary_padic_config(tmp_path)
    code = main(["padic", "--config", cfg, "--budget", "300", "--depth", "8",
                 "--out", str(tmp_path / "out")])
    assert code == 3
    assert ("budget exhausted: ball level 8 needs 510 residues, "
            "budget is 300") in capsys.readouterr().err


def test_padic_requires_block(tmp_path, capsys):
    cfg = cantor_config(tmp_path)
    code = main(["padic", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 2
    assert "config error:" in capsys.readouterr().err


# --------------------------------------------------------------------------
# report

def test_report_runs_everything(tmp_path, capsys):
    cfg = cantor_config(tmp_path)
    out = tmp_path / "out"
    code, frag = run_json(capsys, ["report", "--config", cfg,
                                   "--out", str(out)])
    assert code == 0
    expected = {"version", "system", "seed", "similarity", "diagnosis",
                "orbit", "dims", "discrete_hausdorff", "attractor",
                "density", "renewal", "padic"}
    assert set(frag) == expected
    assert frag["padic"] == {"skipped": "no padic block in config"}
    for name in ("similarity", "orbit", "dims", "density", "renewal"):
        assert "error" not in frag[name]
    on_disk = json.loads((out / "report.json").read_text())
    assert on_disk == frag


def test_report_is_deterministic(tmp_path, capsys):
    cfg = cantor_config(tmp_path)
    out = tmp_path / "out"
    names = ["report.json", "orbit.txt", "dims.csv", "nu.csv",
             "density.csv", "renewal.txt"]

    assert main(["report", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    first = {n: (out / n).read_bytes() for n in names}

    assert main(["report", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    for n in names:
        assert (out / n).read_bytes() == first[n], n


def big_ratio_config(tmp_path, exponent):
    r = str(10**exponent)
    return write_config(tmp_path, {
        "maps": [{"r": r, "b": "0"}, {"r": r, "b": "1"}], "seed": "0",
        "grid": {"base": "2"}})


def test_report_rates_a_gap_below_binary64(tmp_path, capsys):
    # the least gap of n-words of {10**100 x, 10**100 x + 1} is 10**(-100 n),
    # which binary64 rounds to 0 from n = 4 on; every rate is log 10**100
    cfg = big_ratio_config(tmp_path, 100)
    code, frag = run_json(capsys, ["report", "--config", cfg,
                                   "--out", str(tmp_path / "out")])
    assert code == 0
    assert "error" not in json.dumps(frag)
    rates = [row["rate"] for row in frag["diagnosis"]["separation_table"]]
    assert rates == pytest.approx([100 * math.log(10)] * 8)


def test_report_records_a_ratio_past_binary64(tmp_path, capsys):
    # no similarity dimension for 10**400: every analysis that needs one
    # records the refusal in place
    cfg = big_ratio_config(tmp_path, 400)
    code, frag = run_json(capsys, ["report", "--config", cfg,
                                   "--out", str(tmp_path / "out")])
    assert code == 0
    refused = sorted(key for key, value in frag.items()
                     if isinstance(value, dict) and "past the binary64 range"
                     in value.get("error", ""))
    assert refused == ["attractor", "density", "diagnosis", "renewal",
                       "similarity"]


def report_bytes(capsys, argv, out):
    assert main(["report", *argv, "--out", str(out)]) == 0
    capsys.readouterr()
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("flag, value, edit", [
    # no radius in either config: it follows the grid the flag sets
    ("--kmax", "9", {"grid": {"base": "3", "kmax": 9}}),
    ("--kmax", "5", {"grid": {"base": "3", "kmax": 5}}),
    ("--grid-base", "2", {"grid": {"base": "2", "kmax": 6}}),
    ("--budget", "1000", {"node_budget": 1000}),
    ("--cutoff", "1000", {"cutoff": "1000"}),
    ("--alpha-grid", "0.3:0.9:0.3",
     {"alpha_grid": {"start": 0.3, "stop": 0.9, "step": 0.3}}),
])
def test_override_runs_the_config_it_edits(tmp_path, capsys, flag, value,
                                           edit):
    base = {"maps": [{"r": "3", "b": "0"}, {"r": "3", "b": "2"}],
            "seed": "0", "grid": {"base": "3", "kmax": 6}}
    flagged = report_bytes(capsys, ["--config", write_config(tmp_path, base),
                                    flag, value], tmp_path / "flag")
    edited = report_bytes(capsys, ["--config", write_config(
        tmp_path, {**base, **edit}, "edited.json")], tmp_path / "edited")
    assert flagged == edited
    assert "report.json" in flagged


def test_out_flag_runs_the_config_it_edits(tmp_path, capsys):
    doc = {"maps": [{"r": "3", "b": "0"}, {"r": "3", "b": "2"}],
           "seed": "0", "grid": {"base": "3", "kmax": 6}}
    flagged = report_bytes(capsys, ["--config", write_config(tmp_path, doc)],
                           tmp_path / "flag")
    edited = tmp_path / "edited"
    doc["out"] = str(edited)
    assert main(["report", "--config",
                 write_config(tmp_path, doc, "edited.json")]) == 0
    capsys.readouterr()
    assert flagged == {p.name: p.read_bytes() for p in sorted(edited.iterdir())}


def test_kmax_flag_lowers_a_default_radius(tmp_path, capsys):
    # the file's grid defaults to kmax 12, and its radius to 3**12
    doc = {"maps": [{"r": "3", "b": "0"}, {"r": "3", "b": "2"}], "seed": "0"}
    flagged = report_bytes(capsys, ["--config", write_config(tmp_path, doc),
                                    "--kmax", "9"], tmp_path / "flag")
    edited = report_bytes(capsys, ["--config", write_config(
        tmp_path, {**doc, "grid": {"kmax": 9}}, "edited.json")],
        tmp_path / "edited")
    assert flagged == edited
    orbit = json.loads(flagged["report.json"])["orbit"]
    assert (orbit["size"], orbit["radius"]) == (512, "19683")


def test_cube_overflow_is_a_precondition(tmp_path, capsys):
    # 2.0**n overflows a float from n = 1024 on
    cfg = cantor_config(tmp_path, nu_range={"start": 1020, "stop": 1030})
    out = tmp_path / "out"
    code, frag = run_json(capsys, ["report", "--config", cfg,
                                   "--out", str(out)])
    assert code == 0
    assert "2.0**1030 overflows" in frag["discrete_hausdorff"]["error"]
    assert (json.loads((out / "report.json").read_text())
            ["discrete_hausdorff"] == frag["discrete_hausdorff"])
    assert main(["dhd", "--config", cfg, "--out", str(out)]) == 4
    assert "2.0**1030 overflows" in capsys.readouterr().err


def assert_report_absorbs_fragment_failure(tmp_path, capsys):
    # degenerate system: renewal must fail in place, everything else runs
    cfg = write_config(tmp_path, {
        "maps": [{"r": "2", "b": "0"}, {"r": "4", "b": "0"}],
        "seed": "1", "grid": {"base": "2", "kmax": 8}})
    code, frag = run_json(capsys, ["report", "--config", cfg,
                                   "--out", str(tmp_path / "out")])
    assert code == 0
    assert "error" in frag["renewal"]
    assert "degenerate" in frag["renewal"]["error"]
    assert frag["diagnosis"]["degenerate"] is True
    assert "error" not in frag["dims"]


def test_report_absorbs_fragment_failure(tmp_path, capsys):
    assert_report_absorbs_fragment_failure(tmp_path, capsys)


# --------------------------------------------------------------------------
# report across processes


def cantor_padic_config(tmp_path):
    return cantor_config(tmp_path, radius="2187",
                         padic={"p": 3, "exponents": [1, 1],
                                "signs": [1, 1]})


def test_split_report_is_byte_identical(tmp_path, capsys, monkeypatch,
                                        assert_no_child_left):
    cfg = cantor_padic_config(tmp_path)
    runs = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(pool, "workers", lambda: workers)
        runs.append(report_bytes(capsys, ["--config", cfg],
                                 tmp_path / f"out{workers}"))
    assert runs[0] == runs[1] == runs[2]
    assert set(runs[0]) == {"report.json", "orbit.txt", "dims.csv", "nu.csv",
                            "density.csv", "renewal.txt", "padic.csv"}
    doc = json.loads(runs[0]["report.json"])
    assert not [name for name, frag in doc.items()
                if isinstance(frag, dict) and "error" in frag]
    assert_no_child_left()


def test_split_report_absorbs_fragment_failure(tmp_path, capsys,
                                               monkeypatch,
                                               assert_no_child_left):
    monkeypatch.setattr(pool, "workers", lambda: 2)
    assert_report_absorbs_fragment_failure(tmp_path, capsys)
    assert_no_child_left()


def test_split_report_raises_a_workers_error(tmp_path, capsys,
                                             monkeypatch,
                                             assert_no_child_left):
    parent = os.getpid()
    ran = tmp_path / "ran_in_a_child"

    def failing_in_children(ses):
        if os.getpid() != parent:
            ran.touch()
            raise ZeroDivisionError("fragment worker failed")
        # hold this process's first fragment until a child has taken one
        deadline = time.monotonic() + 60
        while not ran.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        return {}

    monkeypatch.setattr(cli, "_ANALYSES", tuple(
        (name, failing_in_children) for name, _ in cli._ANALYSES))
    monkeypatch.setattr(pool, "workers", lambda: 2)
    out = tmp_path / "out"
    with pytest.raises(ZeroDivisionError, match="fragment worker failed"):
        main(["report", "--config", cantor_config(tmp_path),
              "--out", str(out)])
    assert not (out / "report.json").exists()
    assert_no_child_left()


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_report_forks_one_worker_fewer_than_it_may_use(
        tmp_path, capsys, monkeypatch, count_forks, workers,
        assert_no_child_left):
    # the box walk never forks: every fork is a fragment worker
    monkeypatch.setattr(pool, "workers", lambda: workers)
    report_bytes(capsys, ["--config", cantor_padic_config(tmp_path)],
                 tmp_path / "out")
    assert len(count_forks) == workers - 1
    assert_no_child_left()


# --------------------------------------------------------------------------
# exit codes


def test_exit_2_bad_config(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "maps": [{"r": "1", "b": "0"}, {"r": "3", "b": "2"}], "seed": "0"})
    code = main(["solve-s", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "ratio magnitude must exceed 1" in err


def test_exit_4_ratio_that_rounds_to_one(tmp_path, capsys):
    ratio = "100000000000000000001/100000000000000000000"
    cfg = write_config(tmp_path, {
        "maps": [{"r": ratio, "b": "0"}, {"r": "3", "b": "2"}], "seed": "0"})
    code = main(["solve-s", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("precondition violated:")
    assert f"ratio {ratio}" in err and "binary64" in err


def test_exit_2_missing_file(tmp_path, capsys):
    code = main(["solve-s", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert "config error:" in capsys.readouterr().err


def test_exit_2_bad_alpha_grid(tmp_path, capsys):
    cfg = cantor_config(tmp_path)
    code = main(["dhd", "--config", cfg, "--alpha-grid", "oops",
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert "config error:" in capsys.readouterr().err


def test_exit_2_unbounded_alpha_grid(tmp_path, capsys):
    cfg = cantor_config(tmp_path)
    code = main(["solve-s", "--config", cfg, "--alpha-grid", "0.1:inf:0.1",
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert ("config error: alpha_grid: start, stop and step must be finite"
            in capsys.readouterr().err)


def test_exit_2_huge_nu_range(tmp_path, capsys):
    # refused before any list of exponents is built
    cfg = cantor_config(tmp_path, nu_range={"start": 0, "stop": 10**9})
    code = main(["dhd", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 2
    assert ("config error: nu_range: holds more than 1024 exponents"
            in capsys.readouterr().err)


@pytest.mark.parametrize("flag, value, message", [
    ("--budget", "0", "node_budget: must be an integer >= 1"),
    ("--kmax", "0", "grid: needs integers 0 <= kmin < kmax"),
    ("--grid-base", "1", "grid.base: must exceed 1"),
    ("--cutoff", "1/2", "cutoff: must exceed 1"),
    ("--alpha-grid", "0.5:0.2:0.1", "alpha_grid: needs 0 < start < stop"),
    ("--out", "", "out: must be a path string"),
])
def test_exit_2_bad_flag_names_its_key(tmp_path, capsys, flag, value,
                                       message):
    cfg = cantor_config(tmp_path)
    code = main(["solve-s", "--config", cfg, flag, value])
    assert code == 2
    assert f"config error: {message}" in capsys.readouterr().err


def test_exit_2_explicit_radius_must_cover_overridden_grid(tmp_path, capsys):
    # the radius is the default of the file's grid, but written in: kept
    cfg = cantor_config(tmp_path, radius=str(3**6))
    code = main(["orbit", "--config", cfg, "--kmax", "7",
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert "radius: must cover the h-grid" in capsys.readouterr().err


def test_exit_3_budget(tmp_path, capsys):
    cfg = cantor_config(tmp_path)
    code = main(["diagnose", "--config", cfg, "--budget", "10",
                 "--out", str(tmp_path / "out")])
    assert code == 3
    assert "budget exhausted:" in capsys.readouterr().err


def test_separation_scan_obeys_budget(tmp_path, capsys):
    # 2 words for the overlap scan; separation level 10 is the first over
    cfg = cantor_config(tmp_path, overlap_scan_length=1, separation_max_n=12)
    code = main(["diagnose", "--config", cfg, "--budget", "1000",
                 "--out", str(tmp_path / "out")])
    assert code == 3
    assert "separation scan needs 1024 words" in capsys.readouterr().err


def test_exit_4_precondition(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "maps": [{"r": "2", "b": "0"}, {"r": "4", "b": "0"}],
        "seed": "1", "grid": {"base": "2", "kmax": 8}})
    code = main(["renewal", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("precondition violated:")
    assert "degenerate" in err


def test_unknown_subcommand_rejected(tmp_path):
    with pytest.raises(SystemExit):
        main(["frobnicate", "--config", "x"])


# --------------------------------------------------------------------------
# installed entry point


def test_console_script_roundtrip(tmp_path):
    cfg = cantor_config(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from rifslab.cli import main; sys.exit(main())",
         "--help"],
        capture_output=True, text=True,
        input="")
    # argparse --help exits 0 from main's parser
    env_cmd = [sys.executable, "-c",
               "from rifslab.cli import main; import sys;"
               "sys.exit(main(sys.argv[1:]))",
               "solve-s", "--config", cfg, "--out", str(tmp_path / "out")]
    # the child imports the same rifslab as this run, installed or not
    package_root = os.path.dirname(os.path.dirname(rifslab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(env_cmd, capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["s"] == pytest.approx(LOG2_3, abs=1e-9)
