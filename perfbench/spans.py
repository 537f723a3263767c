"""Spans around the calls into rhodf's layers, and per-layer sums.

Tracing replaces public functions with wrappers in the traced process;
the library's source is not touched.  A function is patched in every
module that imported it by name, so the closure that ``entails`` and
``canonical_model`` compute internally appears as a child span of
theirs, and a layer's self time is its span minus its children.
Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import importlib
import time
from typing import Callable, Dict, List, Optional, Sequence

Span = Dict[str, object]


def _closure_counts(result) -> dict:
    stats = result.stats
    return {
        "rounds": stats.iterations,
        "input": stats.input_size,
        "triples": stats.output_size,
        "fires": {k: v for k, v in stats.rule_fire_counts.items() if v},
    }


def _model_counts(model) -> dict:
    return {"pairs": sum(len(v) for v in model.ext_p_pos.values())}


# (module, function, span name, counts taken from the result)
PATCHES = (
    ("rhodf.cli", "parse_graph", "parser.parse", lambda g: {"triples": len(g)}),
    ("rhodf.parser", "parse_graph", "parser.parse", lambda g: {"triples": len(g)}),
    ("rhodf.cli", "serialize_graph", "parser.serialize", None),
    ("rhodf.cli", "closure", "reasoner.closure", _closure_counts),
    ("rhodf.reasoner", "closure", "reasoner.closure", _closure_counts),
    ("rhodf.entailment", "closure", "reasoner.closure", _closure_counts),
    ("rhodf.semantics", "closure", "reasoner.closure", _closure_counts),
    ("rhodf.cli", "entails", "entailment.entails", None),
    ("rhodf.entailment", "extract_proof", "entailment.proof", lambda p: {"steps": len(p)}),
    ("rhodf.cli", "canonical_model", "semantics.canonical_model", _model_counts),
    ("rhodf.semantics", "canonical_model", "semantics.canonical_model", _model_counts),
    ("rhodf.cli", "check_model", "semantics.check_model", lambda r: {"violations": len(r.violations)}),
    ("rhodf.semantics", "check_model", "semantics.check_model", lambda r: {"violations": len(r.violations)}),
    ("rhodf.cli", "serialize_interpretation", "semantics.serialize", None),
)


class Tracer:
    """Collects the spans of one process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []

    def wrap(self, name: str, fn: Callable, counts: Optional[Callable]) -> Callable:
        def traced(*args, **kwargs):
            span: Span = {
                "id": len(self.spans),
                "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "start": time.perf_counter(),
            }
            self.spans.append(span)
            self._stack.append(span["id"])
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if counts is not None:
                span.update(counts(result))
            return result

        return traced

    def install(self) -> None:
        """Wrap every function in PATCHES for the rest of the process."""
        for module, attr, name, counts in PATCHES:
            mod = importlib.import_module(module)
            setattr(mod, attr, self.wrap(name, getattr(mod, attr), counts))


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Each span's duration minus the durations of its direct children."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_breakdown(spans: Sequence[Span], wall: Optional[float]) -> Dict[str, float]:
    """Per-layer seconds and counts for the spans of one operation.

    ``wall`` is a command's wall time as its caller measured it; the part
    no top-level span covers is reported as ``overhead_s``, so the self
    times plus the overhead add up to the wall time.
    """
    own = self_times(spans)
    out: Dict[str, float] = {}
    if wall is not None:
        out["overhead_s"] = wall - sum(s["end"] - s["start"] for s in spans if s["parent"] is None)
    for s in spans:
        key = f"{s['name']}_self_s"
        out[key] = out.get(key, 0.0) + own[s["id"]]
        key = f"{s['name']}_s"
        out[key] = out.get(key, 0.0) + s["end"] - s["start"]
        for field in ("triples", "rounds", "input", "pairs", "violations", "steps"):
            if field in s:
                key = f"{s['name']}.{field}"
                out[key] = out.get(key, 0) + s[field]
        for rule, n in s.get("fires", {}).items():
            key = f"reasoner.fires.{rule}"
            out[key] = out.get(key, 0) + n
    return out
