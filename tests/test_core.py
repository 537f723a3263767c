"""Unit tests for terms, triples, graphs, variable maps and the record classes."""

import copy
import importlib
import pickle

import pytest

import rhodf
from rhodf import (
    BOTC,
    SC,
    SP,
    TYPE,
    Blank,
    ClosureResult,
    ClosureStats,
    EntailmentReport,
    Graph,
    Interpretation,
    InvalidTripleError,
    Iri,
    Literal,
    Neg,
    ParseError,
    ProofStep,
    RuleId,
    SatisfactionReport,
    SourceSpan,
    Star,
    Triple,
    VariableMap,
    Violation,
    apply_map,
    closure,
    is_reserved,
    negate,
    try_negate,
    try_triple,
    validate_triple,
)

A = Iri("a")
B = Iri("b")
C = Iri("c")


class TestTerms:
    def test_iri_equality_is_by_name(self):
        assert Iri("a") == Iri("a")
        assert Iri("a") != Iri("b")
        assert len({Iri("a"), Iri("a"), Iri("b")}) == 2

    def test_empty_names_are_rejected(self):
        with pytest.raises(ValueError):
            Iri("")
        with pytest.raises(ValueError):
            Blank("")

    def test_neg_wraps_only_plain_iris(self):
        assert Neg(A).base == A
        with pytest.raises(ValueError):
            Neg(Iri("type"))
        with pytest.raises(ValueError):
            Neg(Neg(A))
        with pytest.raises(ValueError):
            Neg(Blank("x"))

    def test_star_subscript_shapes(self):
        assert Star(A).cls == A
        assert Star(Neg(A)).cls == Neg(A)
        with pytest.raises(ValueError):
            Star(Iri("sc"))
        with pytest.raises(ValueError):
            Star(Blank("x"))

    def test_reserved_recognition(self):
        assert is_reserved(TYPE)
        assert is_reserved(BOTC)
        assert not is_reserved(A)
        assert not is_reserved(Literal("type"))


class TestNegation:
    def test_negate_collapses_double_negation(self):
        assert negate(A) == Neg(A)
        assert negate(Neg(A)) == A
        assert negate(negate(A)) == A

    def test_negate_rejects_non_resources(self):
        for bad in (Blank("x"), Literal("v"), Star(A), TYPE):
            with pytest.raises(ValueError):
                negate(bad)

    def test_try_negate_returns_none_instead(self):
        assert try_negate(A) == Neg(A)
        assert try_negate(Neg(A)) == A
        assert try_negate(Blank("x")) is None
        assert try_negate(SP) is None


class TestTripleValidity:
    def test_plain_triple_is_valid(self):
        assert validate_triple(A, B, C) == ()
        assert Triple(A, B, C).terms() == (A, B, C)

    def test_reserved_subject_or_object_is_invalid(self):
        assert "cond1" in validate_triple(TYPE, B, C)
        assert "cond1" in validate_triple(A, B, SC)

    def test_two_stars_are_invalid(self):
        assert "cond3" in validate_triple(Star(A), B, Star(C))

    def test_reserved_predicate_excludes_stars(self):
        assert "cond4" in validate_triple(Star(A), SC, C)
        assert "cond4" in validate_triple(A, TYPE, Star(C))
        assert validate_triple(Star(A), B, C) == ()

    def test_predicate_must_be_iri_or_negation(self):
        assert "predicate-shape" in validate_triple(A, Blank("x"), C)
        assert "predicate-shape" in validate_triple(A, Literal("v"), C)
        assert "predicate-shape" in validate_triple(A, Star(B), C)
        assert validate_triple(A, Neg(B), C) == ()

    def test_constructor_raises_with_codes(self):
        with pytest.raises(InvalidTripleError) as exc:
            Triple(TYPE, B, Star(C))
        assert "cond1" in exc.value.violations

    def test_try_triple_mirrors_validation(self):
        assert try_triple(A, B, C) == Triple(A, B, C)
        assert try_triple(TYPE, B, C) is None

    def test_literals_may_appear_on_either_end(self):
        assert try_triple(Literal("v"), B, C) is not None
        assert try_triple(A, B, Literal("v")) is not None


class TestGraph:
    def test_deduplication_and_membership(self):
        t = Triple(A, B, C)
        g = Graph([t, t, Triple(A, SC, B), t])
        assert len(g) == 2
        assert tuple(g) == (t, Triple(A, SC, B))
        assert t in g
        assert Triple(C, B, A) not in g
        with pytest.raises(TypeError):
            Graph([t, "x"])

    def test_equality_ignores_order(self):
        t1, t2 = Triple(A, B, C), Triple(A, SC, B)
        assert Graph([t1, t2]) == Graph([t2, t1])
        assert hash(Graph([t1, t2])) == hash(Graph([t2, t1]))

    def test_universe_covers_every_position(self):
        g = Graph([Triple(A, SC, B), Triple(A, B, C)])
        assert {A, B, C, SC} <= set(g.universe)

    def test_blanks_and_groundness(self):
        x = Blank("x")
        g = Graph([Triple(x, B, C)])
        assert g.blanks == frozenset({x})
        assert not g.is_ground
        assert Graph([Triple(A, B, C)]).is_ground

    def test_empty_graph_constant(self):
        assert len(Graph()) == 0
        assert Graph().is_ground


class TestVariableMap:
    def test_identity_map(self):
        mu = VariableMap.identity()
        assert mu.is_identity
        assert mu.apply(Blank("x")) == Blank("x")

    def test_blanks_are_substituted_and_everything_else_fixed(self):
        x = Blank("x")
        mu = VariableMap.of({x: A})
        assert not mu.is_identity
        assert mu.apply(x) == A
        assert mu.apply(Blank("y")) == Blank("y")
        assert mu.apply(Neg(B)) == Neg(B)
        assert mu.apply_triple(Triple(x, B, C)) == Triple(A, B, C)

    def test_apply_map_collapses_duplicate_images(self):
        x, y = Blank("x"), Blank("y")
        g = Graph([Triple(x, B, C), Triple(y, B, C)])
        mu = VariableMap.of({x: A, y: A})
        assert apply_map(mu, g) == Graph([Triple(A, B, C)])

    def test_apply_map_rejects_invalid_images(self):
        x = Blank("x")
        g = Graph([Triple(x, SC, C)])
        with pytest.raises(InvalidTripleError):
            apply_map(VariableMap.of({x: TYPE}), g)


T = Triple(A, SP, B)
STATS = ClosureStats(2, {"2a": 1}, 3, 4, 0.5, (1, 0), {"2a": 2})
# A closure graph, which holds id triples and builds its Triple values on
# first use; pickled and copied graphs come back without them.
ID_GRAPH = closure(Graph([T]), rule_ids=frozenset()).closure

# Every record class with its fields, in constructor order, and its repr.
RECORDS = [
    (Iri, ("a",), "Iri(name='a')"),
    (Literal, ("v",), "Literal(lexical='v')"),
    (Blank, ("x",), "Blank(name='x')"),
    (Neg, (C,), "Neg(base=Iri(name='c'))"),
    (Star, (Neg(C),), "Star(cls=Neg(base=Iri(name='c')))"),
    (Triple, (A, SP, B), "Triple(s=Iri(name='a'), p=Iri(name='sp'), o=Iri(name='b'))"),
    (VariableMap, ({Blank("x"): A},), "VariableMap(assignment={Blank(name='x'): Iri(name='a')})"),
    (SourceSpan, (1, 2), "SourceSpan(line=1, column=2)"),
    (ParseError, ("bad", SourceSpan(1, 2), "lexical"), "ParseError(message='bad', span=SourceSpan(line=1, column=2), kind='lexical')"),
    (
        ProofStep,
        (RuleId.R1B, (), T, None, ()),
        "ProofStep(rule=<RuleId.R1B: '1b'>, premises=(), conclusion=Triple(s=Iri(name='a'), p=Iri(name='sp'), o=Iri(name='b')), "
        "map=None, targets=())",
    ),
    (
        ClosureStats,
        (2, {"2a": 1}, 3, 4, 0.5, (1, 0), {"2a": 2}),
        "ClosureStats(iterations=2, rule_fire_counts={'2a': 1}, input_size=3, output_size=4, elapsed_s=0.5, round_deltas=(1, 0), "
        "rule_candidates={'2a': 2})",
    ),
    (
        ClosureResult,
        (ID_GRAPH, frozenset(), frozenset({SP}), STATS),
        "ClosureResult(closure=Graph(1 triples), class_terms=frozenset(), property_terms=frozenset({Iri(name='sp')}), "
        f"stats={STATS!r})",
    ),
    (EntailmentReport, (True, None, None, ()), "EntailmentReport(holds=True, map=None, proof=None, missing=())"),
    (Violation, ("Simple.1", "x"), "Violation(condition='Simple.1', detail='x')"),
    (
        SatisfactionReport,
        (False, (Violation("Simple.1", "x"),)),
        "SatisfactionReport(satisfied=False, violations=(Violation(condition='Simple.1', detail='x'),))",
    ),
    (
        Interpretation,
        (frozenset({A}), frozenset(), frozenset({A}), frozenset(), {}, {A: frozenset({A})}, {}, {A: A}),
        "Interpretation(delta_r=frozenset({Iri(name='a')}), delta_p=frozenset(), delta_c=frozenset({Iri(name='a')}), "
        "delta_l=frozenset(), ext_p_pos={}, ext_c_pos={Iri(name='a'): frozenset({Iri(name='a')})}, complement={}, "
        "denote={Iri(name='a'): Iri(name='a')})",
    ),
]


@pytest.mark.parametrize("cls, fields, text", RECORDS, ids=[r[0].__name__ for r in RECORDS])
class TestRecords:
    """Behaviour every record class keeps: set and dict order, proofs and
    the 6c/7c term order all depend on these hashes and reprs."""

    def test_repr(self, cls, fields, text):
        assert repr(cls(*fields)) == text

    def test_equal_and_hashed_by_fields(self, cls, fields, text):
        record = cls(*fields)
        assert record == cls(*fields)
        assert record != fields
        try:
            expected = hash(fields)
        except TypeError:
            with pytest.raises(TypeError):
                hash(record)
        else:
            assert hash(record) == expected

    def test_fields_cannot_be_assigned(self, cls, fields, text):
        record = cls(*fields)
        name = text[len(cls.__name__) + 1 :].split("=")[0]  # the first field
        with pytest.raises(AttributeError):
            setattr(record, name, fields[0])
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is fields[0]
        with pytest.raises(AttributeError):
            record.extra = 1

    def test_pickle_and_deepcopy_round_trips(self, cls, fields, text):
        record = cls(*fields)
        for twin in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record), copy.copy(record)):
            assert type(twin) is cls
            assert twin == record
            assert repr(twin) == text


class TestRecordDetails:
    def test_terms_of_different_kinds_differ(self):
        assert Iri("a") != Blank("a")
        assert Iri("a") != Literal("a")
        assert Blank("a") != Literal("a")
        assert len({Iri("a"), Blank("a"), Literal("a")}) == 3

    def test_constructor_defaults(self):
        step = ProofStep(RuleId.R1B, (), T)
        assert (step.map, step.targets) == (None, ())
        report = EntailmentReport(False)
        assert (report.map, report.proof, report.missing) == (None, None, ())
        assert SatisfactionReport(True).violations == ()
        assert EntailmentReport(holds=True, missing=(T,)) == EntailmentReport(True, None, None, (T,))

    @pytest.mark.parametrize(
        "term, field", [(A, "name"), (Literal("v"), "lexical"), (Blank("x"), "name"), (Neg(A), "base"), (Star(Neg(A)), "cls")]
    )
    def test_term_hash_is_cached_but_not_a_field(self, term, field):
        """Each term stores the hash of the tuple of its one field, so set
        and dict orders are those of an uncached hash."""
        value = getattr(term, field)
        for twin in (term, pickle.loads(pickle.dumps(term)), copy.copy(term), copy.deepcopy(term)):
            assert hash(twin) == hash((value,)) == twin._h
        assert type(term)._names == (field,)
        assert "_h" not in repr(term)
        assert term.__reduce__() == (type(term), (value,))
        stale = copy.copy(term)
        object.__setattr__(stale, "_h", term._h + 1)
        assert stale == term
        with pytest.raises(AttributeError):
            term._h = 0

    def test_interpretation_cache_is_not_a_field(self):
        i = Interpretation(*RECORDS[-1][1])
        twin = Interpretation(*RECORDS[-1][1])
        i._cache["x"] = 1
        assert i == twin
        assert "_cache" not in repr(i)


class TestPackage:
    def test_every_public_name_is_its_home_module_object(self):
        modules = [importlib.import_module(f"rhodf.{m}") for m in ("core", "parser", "reasoner", "entailment", "semantics", "generators")]
        for name in rhodf.__all__:
            homes = [m for m in modules if name in vars(m)]
            assert homes, name
            assert getattr(rhodf, name) is getattr(homes[0], name), name
        assert set(rhodf.__all__) <= set(dir(rhodf))

    def test_unknown_names_raise_attribute_error(self):
        with pytest.raises(AttributeError):
            rhodf.no_such_name
