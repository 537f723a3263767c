"""Tests for the .rnt reader and writer."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference_parser
from rhodf import (
    Blank,
    Graph,
    GraphParseError,
    Iri,
    Literal,
    Neg,
    Star,
    Triple,
    closure,
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

    def test_unrepresentable_terms_are_not_written(self):
        for term in (Iri("a>b"), Literal("x\ny"), Blank("a b")):
            with pytest.raises(ValueError):
                serialize_term(term)
        with pytest.raises(TypeError):
            serialize_term("a")

    def test_a_term_may_not_span_lines(self):
        """As in a statement, which parse_graph_lenient reports when split."""
        for text in ("!\na", "*\n c"):
            for parse in (parse_term, reference_parser.parse_term):
                with pytest.raises(ValueError, match="expected exactly one term"):
                    parse(text)
            assert parse_graph_lenient(f"x p {text} .")[1]
        assert parse_term("\n!a  # note\n\n") == Neg(Iri("a"))


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

    @pytest.mark.parametrize("prefix", ["!", "*"])
    def test_a_prefix_before_the_dot_keeps_the_next_statement(self, prefix):
        g, errors = parse_graph_lenient(f"a b {prefix} . c d e .")
        assert list(g) == [Triple(Iri("c"), Iri("d"), Iri("e"))]
        assert [(str(e.span), e.message) for e in errors] == [("1:7", "prefix without a following term")]


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


# Garbled documents are mostly statements, terms and dots, with junk
# between them.  The junk hits every lexical error: empty and
# unterminated IRIs, a bad escape (also as a trailing backslash), an
# unterminated literal, a malformed blank label and unexpected
# characters.  It also puts '#' inside IRIs and literals, and adds the
# line breaks that str.splitlines knows besides '\n'.
WORDS = ["a ", "b ", "c ", "sp ", "sc ", "type ", "cdisj ", "x-1 ", "!a ", "*b ", "_:b ", '"lit" ', "<u r> ", ". ", ". "]
WORDS += ["a sc b . ", '_:b !p "lit" . ', "*b type c . ", "<u r> p x-1 . "]
JUNK = [
    "!", "*", "\u00ac", "\u22c6", "!!", "*!", "\t", "<>", "<open", "<u r#i>", '"a#b"', '"bad\\q"',
    '"x\\"y"', '"open', "\\", "_x", "_", "1", "\u00e9", "'", "#", "# c", "\n", "\n",
    "\r", "\r\n", "\x0b", "\u2028",
]


def garbled(seed, most):
    rng = random.Random(seed)
    pieces = (rng.choice(JUNK if rng.random() < 0.2 else WORDS) for _ in range(rng.randint(0, most)))
    return "".join(pieces)


class TestReferenceParser:
    """The reader against the token-cursor reader in reference_parser.py."""

    @staticmethod
    def assert_same_graph(text):
        graph, errors = parse_graph_lenient(text)
        ref_graph, ref_errors = reference_parser.parse_graph_lenient(text)
        assert list(graph) == list(ref_graph), repr(text)
        got = [(e.message, e.span.line, e.span.column, e.kind) for e in errors]
        assert got == [(e.message, e.span.line, e.span.column, e.kind) for e in ref_errors], repr(text)
        return graph, errors

    @staticmethod
    def term_outcome(parse, text):
        try:
            return parse(text)
        except ValueError as exc:
            return str(exc)

    def test_fixtures(self, medical_text, medical_negative_text):
        for text in (medical_text, medical_negative_text):
            self.assert_same_graph(text)

    def test_serialized_graphs(self):
        for seed in range(200):
            self.assert_same_graph(serialize_graph(random_graph(seed=seed)))
        self.assert_same_graph(serialize_graph(closure(cubic(8)).closure))

    def test_garbled_documents(self):
        messages, triples = set(), 0
        for seed in range(5000):
            graph, errors = self.assert_same_graph(garbled(seed, 30))
            messages.update(e.message.split(" '")[0] for e in errors)
            triples += len(graph)
        assert {
            "empty IRI reference",
            "unterminated IRI reference",
            "unsupported escape in literal (only \\\" and \\\\ exist)",
            "unterminated literal",
            "malformed blank node label",
            "unexpected character",
            "prefix without a following term",
            "statement is missing its terminating",
            "expected 3 terms before",
            "reserved vocabulary cannot be a subject or object",
        } <= messages
        assert triples > 2000, triples

    def test_garbled_terms(self):
        for seed in range(5000):
            text = garbled(seed, 4)
            assert self.term_outcome(parse_term, text) == self.term_outcome(reference_parser.parse_term, text), repr(text)
