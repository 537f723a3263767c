"""Unit tests for terms, triples, graphs and variable maps."""

import pytest

from rhodf import (
    BOTC,
    EMPTY_GRAPH,
    SC,
    SP,
    TYPE,
    Blank,
    Graph,
    InvalidTripleError,
    Iri,
    Literal,
    Neg,
    Star,
    Triple,
    VariableMap,
    apply_map,
    is_negatable,
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

    def test_is_negatable_matches_try_negate(self):
        for t in (A, Neg(A), Blank("x"), Literal("v"), Star(A), TYPE):
            assert is_negatable(t) == (try_negate(t) is not None)


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

    def test_union_and_subset(self):
        g = Graph([Triple(A, B, C)])
        h = Graph([Triple(A, SC, B)])
        u = g.union(h)
        assert len(u) == 2
        assert g.issubset(u) and h.issubset(u)
        assert not u.issubset(g)

    def test_universe_covers_every_position(self):
        g = Graph([Triple(A, SC, B), Triple(A, B, C)])
        assert {A, B, C, SC} <= set(g.universe)

    def test_blanks_and_groundness(self):
        x = Blank("x")
        g = Graph([Triple(x, B, C)])
        assert g.blanks == frozenset({x})
        assert not g.is_ground
        assert Graph([Triple(A, B, C)]).is_ground

    def test_star_subscripts_are_collected(self):
        g = Graph([Triple(A, B, Star(C)), Triple(Star(Neg(A)), B, C)])
        assert g.star_subscripts == frozenset({C, Neg(A)})

    def test_empty_graph_constant(self):
        assert len(EMPTY_GRAPH) == 0
        assert EMPTY_GRAPH.is_ground


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
