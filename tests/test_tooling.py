"""Checks on the benchmark harness that need only the standard library."""

import importlib
import importlib.util
import pathlib

SPANS = pathlib.Path(__file__).parent.parent / "perfbench" / "spans.py"


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
