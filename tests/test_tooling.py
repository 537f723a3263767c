"""Checks on the benchmark harness, the demos and the package's
imports that need only the standard library."""

import ast
import importlib
import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest

import rhodf

PERFBENCH = pathlib.Path(__file__).parent.parent / "perfbench"
SPANS = PERFBENCH / "spans.py"
MEDICAL = str(pathlib.Path(__file__).parent / "fixtures" / "medical.rnt")
DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))
SOURCES = sorted((pathlib.Path(__file__).parent.parent / "src" / "rhodf").glob("*.py"))


def test_every_traced_function_exists():
    """The tracer patches library functions by module and name, so a
    rename or a lazy import in the library would only surface when a
    traced benchmark run crashes."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.PATCHES
    for module, name, _, _ in spans.PATCHES:
        assert callable(getattr(importlib.import_module(module), name, None)), (module, name)


def traced_spans(tmp_path, *args):
    """(name, parent name) of every span a traced command records, in order."""
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(rhodf.__file__).parent.parent))
    out = tmp_path / "spans.json"
    done = subprocess.run(
        [sys.executable, str(PERFBENCH / "tracecli.py"), str(out), *args], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    spans = json.loads(out.read_text())
    return [(s["name"], None if s["parent"] is None else spans[s["parent"]]["name"]) for s in spans]


def test_traced_commands_record_every_layer(tmp_path):
    """A command that called a library function other than through the
    attribute the tracer patched would lose that span here, and a module
    that bound an already patched function would record it twice."""
    query = tmp_path / "q.rnt"
    query.write_text("morphine type drugTreatment .\n")
    assert traced_spans(tmp_path, "close", MEDICAL) == [
        ("parser.parse", None),
        ("reasoner.closure", None),
        ("parser.serialize", None),
    ]
    assert traced_spans(tmp_path, "model", MEDICAL) == [
        ("parser.parse", None),
        ("semantics.canonical_model", None),
        ("reasoner.closure", "semantics.canonical_model"),
        ("semantics.check_model", None),
        ("semantics.serialize", None),
    ]
    assert traced_spans(tmp_path, "entail", "--proof", MEDICAL, str(query)) == [
        ("parser.parse", None),
        ("parser.parse", None),
        ("entailment.entails", None),
        ("reasoner.closure", "entailment.entails"),
        ("entailment.proof", "entailment.entails"),
    ]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs_cleanly(demo):
    """Nothing else runs the demos, so a library change that breaks one
    would only surface when someone runs it by hand."""
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(rhodf.__file__).parent.parent))
    done = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stderr) == (0, "")


@pytest.mark.parametrize("source", SOURCES, ids=lambda path: path.name)
def test_runtime_imports_only_the_standard_library(source):
    """The runtime is dependency-free: every import of the package, at
    any depth, names a standard library module or the package itself."""
    for node in ast.walk(ast.parse(source.read_text(), str(source))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        for name in names:
            top = name.split(".")[0]
            assert top in sys.stdlib_module_names or top == "rhodf", (source.name, node.lineno, name)
