"""Checks on the benchmark harness that need only the standard library."""

import importlib
import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import rhodf

PERFBENCH = pathlib.Path(__file__).parent.parent / "perfbench"
SPANS = PERFBENCH / "spans.py"
MEDICAL = str(pathlib.Path(__file__).parent / "fixtures" / "medical.rnt")


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
