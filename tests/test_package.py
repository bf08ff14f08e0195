"""The package surface: lazy exports, what loading a config imports, and
the README's quick start."""

import ast
import importlib
import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rifslab

ANALYSIS_MODULES = ("rifslab.orbit", "rifslab.dimension", "rifslab.padic",
                    "rifslab.cli")


def test_load_config_imports_no_analysis_module(tmp_path):
    path = tmp_path / "cantor.json"
    path.write_text(json.dumps({
        "maps": [{"r": "3", "b": "0"}, {"r": "3", "b": "2"}], "seed": "0",
        "padic": {"p": 3, "exponents": [1, 1], "signs": [1, 1]}}))
    script = ("import json, sys, rifslab\n"
              "cfg = rifslab.load_config(sys.argv[1])\n"
              "assert cfg.padic is not None\n"
              "loaded = sorted(sys.modules)\n"
              "assert rifslab.padic.PAdicSystem is type(cfg.padic)\n"
              "print(json.dumps(loaded))\n")
    # the child imports the same rifslab as this run, installed or not
    package_root = os.path.dirname(os.path.dirname(rifslab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script, str(path)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout))
    assert "rifslab.config" in loaded
    assert loaded.isdisjoint(ANALYSIS_MODULES), sorted(
        loaded.intersection(ANALYSIS_MODULES))


def test_exports_are_their_modules_objects():
    for module, names in rifslab._EXPORTS.items():
        owner = importlib.import_module(f"rifslab.{module}")
        for name in names:
            assert getattr(rifslab, name) is getattr(owner, name), name
            assert getattr(owner, name).__module__ == owner.__name__, name
    assert sorted(rifslab.__all__) == rifslab.__all__
    assert len(set(rifslab.__all__)) == len(rifslab.__all__)


def test_dir_and_star_import_cover_all():
    assert set(rifslab.__all__) <= set(dir(rifslab))
    namespace = {}
    exec("from rifslab import *", namespace)
    assert set(rifslab.__all__) <= set(namespace)
    for name in rifslab.__all__:
        assert namespace[name] is getattr(rifslab, name)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="HAVE_KERNEL"):
        rifslab.HAVE_KERNEL
    assert getattr(rifslab, "HAVE_KERNEL", False) is False
    with pytest.raises(ImportError):
        exec("from rifslab import no_such_name", {})


def test_padic_system_lives_beside_rifs():
    from rifslab import padic, systems

    assert padic.PAdicSystem is systems.PAdicSystem is rifslab.PAdicSystem
    assert rifslab.make_padic_system is systems.make_padic_system


def test_exports_follow_a_tracer_install_and_uninstall(monkeypatch):
    # the tracer rebinds functions in their modules: the package must show
    # the wrapper while it is installed and the original after
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    tracing = importlib.import_module("tracing")
    from rifslab import padic

    original = padic.ball_count
    tracer = tracing.Tracer("test")
    tracer.install(rifslab)
    try:
        assert padic.ball_count is not original
        assert rifslab.ball_count is padic.ball_count
    finally:
        tracer.uninstall()
    assert rifslab.ball_count is padic.ball_count is original


def test_cli_imports_no_private_name_of_another_module():
    # each rule the cli reports lives in the module that computes it; a
    # dunder such as __version__ is no private name
    tree = ast.parse(Path(rifslab.__file__).with_name("cli.py").read_text())
    private = [alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               for alias in node.names
               if alias.name.startswith("_") and not alias.name.endswith("__")]
    assert private == []


def test_every_builder_takes_the_session_only():
    # a fragment reads its settings, --depth included, and its output
    # directory from the session alone
    from rifslab import cli
    shapes = {name: list(inspect.signature(builder).parameters)
              for name, _, builder, _ in cli._COMMANDS}
    assert shapes == {name: ["ses"] for name in shapes}


def test_readme_quick_start_prints_log2_over_log3(capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    values = [float(v) for v in capsys.readouterr().out.split()]
    # the block's comment: both log 2 / log 3
    assert len(values) == 2
    for value in values:
        assert abs(value - math.log(2) / math.log(3)) <= 1e-9
