"""Tests for the .rnt reader and writer."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rhodf import (
    Blank,
    Graph,
    GraphParseError,
    Iri,
    Literal,
    Neg,
    Star,
    Triple,
    cubic,
    parse_graph,
    parse_graph_lenient,
    parse_term,
    random_graph,
    serialize_graph,
    serialize_term,
    serialize_triple,
    try_triple,
)


class TestTermRoundTrip:
    @pytest.mark.parametrize(
        "text,term",
        [
            ("a", Iri("a")),
            ("hasTreatment", Iri("hasTreatment")),
            ("type", Iri("type")),
            ("!a", Neg(Iri("a"))),
            ("*c", Star(Iri("c"))),
            ("*!c", Star(Neg(Iri("c")))),
            ("_:x", Blank("x")),
            ('"v"', Literal("v")),
            ('"a \\"quoted\\" value"', Literal('a "quoted" value')),
            ("<urn:x/1>", Iri("urn:x/1")),
        ],
    )
    def test_parse_then_serialize(self, text, term):
        assert parse_term(text) == term
        assert parse_term(serialize_term(term)) == term

    def test_double_negation_collapses_in_the_reader(self):
        assert parse_term("!!a") == Iri("a")
        assert parse_term("!!!a") == Neg(Iri("a"))

    def test_unicode_aliases_are_read_but_not_written(self):
        assert parse_term("¬a") == Neg(Iri("a"))
        assert parse_term("⋆c") == Star(Iri("c"))
        assert serialize_term(Neg(Iri("a"))) == "!a"
        assert serialize_term(Star(Iri("c"))) == "*c"

    def test_angle_brackets_equal_bare_form(self):
        assert parse_term("<abc>") == parse_term("abc")

    def test_junk_is_rejected(self):
        for bad in ("", ".", "a b", "!*", "* c extra"):
            with pytest.raises(ValueError):
                parse_term(bad)


class TestGraphParsing:
    def test_comments_and_blank_lines_are_skipped(self):
        g = parse_graph("# heading\n\na b c .  # trailing\n")
        assert g == Graph([Triple(Iri("a"), Iri("b"), Iri("c"))])

    def test_several_statements_may_share_a_line(self):
        g = parse_graph("a b c . c b a .")
        assert len(g) == 2

    def test_fixture_files_parse(self, medical_text, medical_negative_text):
        assert len(parse_graph(medical_text)) == 12
        assert len(parse_graph(medical_negative_text)) == 20

    def test_errors_carry_line_and_column(self):
        with pytest.raises(GraphParseError) as exc:
            parse_graph("a b c .\nx y\nq r s .")
        spans = [(e.span.line, e.span.column) for e in exc.value.errors]
        assert any(line == 2 for line, _ in spans)

    def test_lenient_mode_keeps_the_good_statements(self):
        g, errors = parse_graph_lenient("a b c .\ntype b c .\nd e f .")
        assert len(g) == 2
        assert len(errors) == 1
        assert errors[0].kind == "validation"

    def test_one_diagnostic_per_bad_line(self):
        _, errors = parse_graph_lenient("x y\nz w\na b c .")
        assert len(errors) >= 2

    def test_validation_errors_describe_the_condition(self):
        _, errors = parse_graph_lenient("*a sc b .")
        assert errors and errors[0].kind == "validation"
        assert "star" in errors[0].message

    def test_every_violated_condition_is_reported_in_order(self):
        _, errors = parse_graph_lenient("type sp *a .\n*a sc *b .")
        assert [(e.span.line, e.message) for e in errors] == [
            (1, "reserved vocabulary cannot be a subject or object"),
            (1, "reserved predicates take no star subject or object"),
            (2, "subject and object cannot both be star terms"),
            (2, "reserved predicates take no star subject or object"),
        ]

    def test_empty_document(self):
        assert len(parse_graph("")) == 0
        assert serialize_graph(Graph()) == ""


class TestGraphRoundTrip:
    def test_serialize_is_sorted_and_parseable(self):
        g = parse_graph("z y x .\na b c .")
        text = serialize_graph(g)
        assert text.index("a b c .") < text.index("z y x .")
        assert parse_graph(text) == g

    def test_triple_serialization_shape(self):
        t = Triple(Iri("ebola"), Neg(Iri("hasTreatment")), Star(Iri("treatment")))
        assert serialize_triple(t) == "ebola !hasTreatment *treatment ."

    @given(st.integers(min_value=0, max_value=10_000))
    def test_random_graphs_round_trip(self, seed):
        g = random_graph(seed=seed)
        assert parse_graph(serialize_graph(g)) == g

    def test_fixture_round_trip(self, medical_negative_text):
        g = parse_graph(medical_negative_text)
        assert parse_graph(serialize_graph(g)) == g


def term_ordered(g):
    """Lines sorted by the (subject, predicate, object) strings as a
    tuple, the order serialize_graph promises."""
    keys = sorted((serialize_term(t.s), serialize_term(t.p), serialize_term(t.o)) for t in g)
    return "".join(f"{s} {p} {o} .\n" for s, p, o in keys)


class TestSerializedOrder:
    def test_line_order_is_the_term_order(self, medical_text, medical_negative_text):
        names = ["a", "a1", "a-", "a_b", "ab", "b", "A"]
        iris = [Iri(n) for n in names] + [Iri("a b"), Iri("a.b")]
        resources = iris + [Neg(i) for i in iris]
        terms = resources + [Star(r) for r in resources] + [Blank(n) for n in names + ["1", "_"]]
        terms += [Literal(x) for x in names + ["", "a b", 'a"', "a\\", "a\t", "\u00e9"]]
        graphs = [parse_graph(medical_text), parse_graph(medical_negative_text), cubic(8)]
        for seed in range(60):
            rng = random.Random(seed)
            picked = (try_triple(rng.choice(terms), rng.choice(resources), rng.choice(terms)) for _ in range(40))
            graphs.append(Graph(t for t in picked if t is not None))
        for g in graphs:
            assert serialize_graph(g) == term_ordered(g)
