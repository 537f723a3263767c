"""Reasoning over an RDFS fragment with negation, star terms and disjointness.

The package decides entailment for graphs built from the vocabulary
{sp, sc, type, dom, range} extended with negated resources ``!r``,
universal star terms ``*c`` and the disjointness predicates ``cdisj``
and ``pdisj``.  It computes rule closures, searches blank-node witness
maps, extracts replayable proofs, and builds canonical four-valued
models that witness satisfiability of any graph, contradictions
included.
"""

import importlib

# The module each public name lives in.  Names are loaded on first use
# (PEP 562), so importing the package or one of its modules compiles
# only what is used.
_HOMES = {
    "core": "BOTC BOTP DOM EMPTY_GRAPH PLAIN_VOCAB RANGE RESERVED_VOCAB SC SP TYPE Blank Graph InvalidTripleError Iri Literal "
    "Neg Star Term Triple VariableMap apply_map is_negatable is_reserved negate try_negate try_triple validate_triple",
    "parser": "GraphParseError ParseError SourceSpan parse_graph parse_graph_lenient parse_term serialize_graph serialize_term "
    "serialize_triple",
    "reasoner": "FULL_RULE_IDS RDF_RULE_IDS ClosureCapError ClosureResult ClosureStats ProofStep RuleId closure default_cap",
    "entailment": "EntailmentReport SearchBudgetExceeded entails extract_proof find_map",
    "semantics": "Interpretation SatisfactionReport Violation canonical_model check_model load_interpretation project "
    "serialize_interpretation",
    "generators": "cubic random_graph spchain",
}
_HOME = {name: module for module, names in _HOMES.items() for name in names.split()}
__all__ = sorted(_HOME)


def __getattr__(name: str) -> object:
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__() -> list:
    return sorted(set(globals()) | set(__all__))


__version__ = "0.1.0"
