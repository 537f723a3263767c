"""Model checker, canonical models and interpretation fixtures."""

import itertools
import random
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference_semantics
from rhodf import (
    BOTC,
    BOTP,
    SC,
    SP,
    TYPE,
    Blank,
    Graph,
    Interpretation,
    Iri,
    Literal,
    Neg,
    RuleId,
    Star,
    Triple,
    canonical_model,
    check_model,
    closure,
    cubic,
    load_interpretation,
    parse_graph,
    project,
    random_graph,
    serialize_interpretation,
    spchain,
    try_triple,
)
from rhodf import semantics
from rhodf.semantics import _fmt, _fmt_pair, _simple_violations

seeds = st.integers(min_value=0, max_value=10_000)


class TestProject:
    def test_projections(self):
        pairs = {("a", "b"), ("a", "c")}
        assert project(pairs, "up") == frozenset({"a"})
        assert project(pairs, "down") == frozenset({"b", "c"})
        assert project(set(), "up") == frozenset()

    def test_unknown_side_is_rejected(self):
        with pytest.raises(ValueError):
            project(set(), "sideways")


class TestCanonicalModel:
    def test_single_type_statement(self):
        m = canonical_model(parse_graph("a type c ."))
        assert m.pos_members(Iri("c")) == frozenset({Iri("a")})
        assert (Iri("a"), Iri("c")) in m.pos_pairs(TYPE)

    def test_empty_graph_is_trivially_satisfied(self):
        m = canonical_model(Graph())
        assert check_model(m, Graph()).satisfied

    def test_medical_graph_is_its_own_model(self, medical_text):
        g = parse_graph(medical_text)
        assert check_model(canonical_model(g), g).satisfied

    def test_extended_graph_is_its_own_model(self, medical_negative_text):
        g = parse_graph(medical_negative_text)
        m = canonical_model(g)
        assert check_model(m, g).satisfied
        assert Iri("morphine") in m.pos_members(Neg(Iri("antipyretic")))

    def test_model_satisfies_the_whole_closure(self, medical_negative_text):
        g = parse_graph(medical_negative_text)
        m = canonical_model(g)
        assert check_model(m, closure(g).closure).satisfied

    def test_negative_extensions_mirror_complement_positives(self):
        m = canonical_model(parse_graph("x !p y ."))
        assert m.neg_pairs(Iri("p")) == m.pos_pairs(Neg(Iri("p")))

    def test_contradictory_memberships_are_tolerated(self):
        g = parse_graph("a type b .\na type c .\nb cdisj c .")
        assert check_model(canonical_model(g), g).satisfied

    @given(seeds)
    def test_random_graphs_are_satisfiable_with_checked_witness(self, seed):
        g = random_graph(seed=seed, salt_contradiction=bool(seed % 2))
        assert check_model(canonical_model(g), g).satisfied


class TestSaturationCorners:
    """Subproperty statements whose object cannot be a predicate.

    No triple can carry a blank or a literal in predicate position, so
    the deductive rules cannot move pairs below such a term.  The model
    builder has to add those pairs directly, and everything they force
    downstream, for the canonical model to stay a model.
    """

    def test_blank_below_a_subproperty_absorbs_its_pairs(self):
        g = parse_graph("a sp _:b .\nx a y .")
        m = canonical_model(g)
        assert (Iri("x"), Iri("y")) in m.pos_pairs(Blank("b"))
        assert check_model(m, g).satisfied

    def test_literal_below_a_subproperty_absorbs_its_pairs(self):
        g = parse_graph('a sp "v" .\nx a y .')
        m = canonical_model(g)
        assert (Iri("x"), Iri("y")) in m.pos_pairs(Literal("v"))
        assert check_model(m, g).satisfied

    def test_chain_through_a_blank_still_derives_triples(self):
        g = parse_graph("a sp _:b .\n_:b sp c .\nx a y .")
        cl = closure(g).closure
        assert Triple(Iri("x"), Iri("c"), Iri("y")) in cl
        assert check_model(canonical_model(g), g).satisfied

    def test_domain_through_a_blank_is_covered_by_implicit_typing(self):
        g = parse_graph("a sp _:b .\n_:b dom c .\nx a y .")
        m = canonical_model(g)
        cl = closure(g)
        typed = Triple(Iri("x"), TYPE, Iri("c"))
        assert typed in cl.closure
        assert cl.provenance[typed].rule is RuleId.R5A
        assert Iri("x") in m.pos_members(Iri("c"))
        assert check_model(m, g).satisfied

    def test_members_typed_through_a_blank_reach_star_statements(self):
        g = parse_graph("a sp _:b .\n_:b dom c .\nx a y .\ns p *c .")
        m = canonical_model(g)
        assert (Iri("s"), Iri("x")) in m.pos_pairs(Iri("p"))
        assert check_model(m, g).satisfied

    def test_blank_property_negative_typing_is_vacuous(self):
        g = parse_graph("a sp _:b .\n_:b dom c .\nx a y .\nm type !c .")
        report = check_model(canonical_model(g), g)
        assert not any(v.condition == "Typing I.4" for v in report.violations)
        assert report.satisfied


class TestCheckModelAgainstGraphs:
    def test_unregistered_terms_are_a_vocabulary_gap(self):
        i = load_interpretation("C c\n")
        report = check_model(i, parse_graph("q type c ."))
        assert not report.satisfied
        assert any(v.condition == "Interpretation.Vocabulary" for v in report.violations)

    def test_blank_is_an_existential(self):
        i = load_interpretation("C c\nC+ c a\nP+ type a c\n")
        assert check_model(i, parse_graph("_:x type c .")).satisfied

    def test_blank_without_witness_fails(self):
        i = load_interpretation("C c\nR a\n")
        report = check_model(i, parse_graph("_:x type c ."))
        assert not report.satisfied
        assert any(v.condition == "Simple.Existential" for v in report.violations)

    def test_star_object_is_a_bounded_universal(self):
        base = "C c\nP p\nR s\nC+ c a\nC+ c b\nP+ type a c\nP+ type b c\n"
        covered = base + "P+ p s a\nP+ p s b\n"
        partial = base + "P+ p s a\n"
        g = parse_graph("s p *c .")
        assert check_model(load_interpretation(covered), g).satisfied
        assert not check_model(load_interpretation(partial), g).satisfied


class TestExistentialSearch:
    """The blank-node search of ``check_model`` against brute force."""

    @staticmethod
    def brute_force_exists(i, open_triples, free):
        for values in itertools.product(sorted(i.delta_r, key=repr), repeat=len(free)):
            alpha = dict(zip(free, values))
            if all(not _simple_violations(i, t, alpha) for t in open_triples):
                return True
        return False

    def test_search_matches_brute_force(self):
        pool = [Blank(f"q{k}") for k in range(1, 4)]
        outcomes = []
        for seed in range(60):
            rng = random.Random(seed)
            g = random_graph(seed=seed, max_triples=6, max_terms=5)
            m = canonical_model(g)
            terms = sorted((x for x in m.denote if x in g.universe), key=repr)
            triples = list(closure(g).closure)
            query = []
            for _ in range(rng.randint(1, 3)):
                t = rng.choice(triples)
                if rng.random() < 0.5:
                    t = try_triple(rng.choice(terms), t.p, rng.choice(terms)) or t
                s = rng.choice(pool) if rng.random() < 0.6 else t.s
                o = rng.choice(pool) if rng.random() < 0.6 else t.o
                t = try_triple(s, t.p, o)
                if t is not None and all(x in m.denote for x in (t.s, t.p, t.o) if x not in pool):
                    query.append(t)
            h = Graph(query)
            free = sorted(h.blanks - set(m.denote), key=repr)
            if not free:
                continue
            open_triples = [t for t in h if {t.s, t.o} & set(free)]
            exists = self.brute_force_exists(m, open_triples, free)
            report = check_model(m, h)
            reported = any(v.condition == "Simple.Existential" for v in report.violations)
            assert reported is not exists, (seed, h.triples())
            outcomes.append(exists)
        assert True in outcomes and False in outcomes

    def test_independent_patterns_are_checked_one_at_a_time(self):
        m = canonical_model(parse_graph("a p b ."))
        patterns = "".join(f"_:x{k} p _:y{k} .\n" for k in range(8))
        for query, expected in ((patterns, []), (patterns + "_:z p _:z .\n", ["Simple.Existential"])):
            start = time.perf_counter()
            report = check_model(m, parse_graph(query))
            assert time.perf_counter() - start < 0.5
            assert [v.condition for v in report.violations] == expected


def defect(fixture, condition, graph=""):
    # The id is the fixture and the condition, whether or not a graph is given.
    return pytest.param(fixture, condition, graph, id=f"{fixture}-{condition}")


class TestCountermodels:
    @pytest.mark.parametrize(
        "fixture,condition,graph",
        [
            defect("C c\nC d\nP+ cdisj c d\n", "Disjointness I.3.Symmetry"),
            defect(
                "C a\nC b\nC c\nP+ cdisj a b\nP+ cdisj b a\nP+ sc c a\n",
                "Disjointness I.3.Sub-Transitivity",
            ),
            defect("C c\nC d\nP+ cdisj c c\n", "Disjointness I.3.Exhaustive"),
            defect("C c\nC d\nC+ c x\nP+ type x c\nP+ sc c d\n", "Subclass.2"),
            defect("C c\nC+ c x\n", "Typing I.1"),
            defect("P p\nP q\nP r\nP+ sp p q\nP+ sp q r\n", "Subproperty.1"),
            defect("P p\nP q\nP+ sp p q\nP+ p x y\n", "Subproperty.2"),
            defect("P+ sp p q\n", "Subproperty.2"),
            defect("P p\nP q\nP !p\nP !q\nP+ sp p q\n", "Subproperty.3"),
            defect("C a\nC b\nC c\nP+ sc a b\nP+ sc b c\n", "Subclass.1"),
            defect("P p\nC c\nP+ dom p c\nP+ p x y\n", "Typing I.2"),
            defect("P p\nC c\nP+ range p c\nP+ p x y\n", "Typing I.3"),
            defect("P p\nP !p\nC c\nC !c\nP+ range p c\nP+ p x y\nC+ !c z\nP+ type z !c\n", "Typing I.5"),
            defect("P+ dom p c\n", "Typing II.2"),
            defect("P+ range p c\n", "Typing II.3"),
            defect("P p\nP q\nP+ pdisj p q\n", "Disjointness I.4.Symmetry"),
            defect("P p\nP q\nC c\nC d\nP+ dom p c\nP+ dom q d\nP+ cdisj c d\nP+ cdisj d c\n", "Disjointness II.1"),
            defect("P p\nP q\nC c\nC d\nP+ range p c\nP+ range q d\nP+ cdisj c d\nP+ cdisj d c\n", "Disjointness II.2"),
            defect("P p\nP q\nP !q\nP+ pdisj p q\n", "Disjointness II.4"),
            defect("C c\nP p\nR o\nC+ c x\nP+ type x c\n", "Simple.3", "*c p o ."),
            defect("C c\nP p\nP !p\nR o\nP+ !p x o\n", "Simple.5", "*c p o ."),
        ],
    )
    def test_known_defects_are_reported(self, fixture, condition, graph):
        report = check_model(load_interpretation(fixture), parse_graph(graph))
        assert not report.satisfied
        assert condition in {v.condition for v in report.violations}

    def test_complemented_subclass_pair_forces_disjointness(self):
        # The complement partners !c and !d exist, so the subclass pair
        # (c,d) must come with the disjointness pair (c,!d).
        fixture = "C c\nC d\nC !c\nC !d\nP+ sc c d\n"
        report = check_model(load_interpretation(fixture), Graph())
        assert "Disjointness II.3" in {v.condition for v in report.violations}

    def test_negative_pairs_do_not_force_fresh_complements(self):
        # Introduction conditions stop at elements that are already
        # negative, mirroring the closure rules.
        fixture = "C c\nC d\nC !c\nC !d\nP+ sc !c !d\nP+ cdisj !c d\nP+ cdisj d !c\nP+ sc d c\nP+ cdisj !c !c\nP+ cdisj !c !d\nP+ cdisj !d !c\n"
        report = check_model(load_interpretation(fixture), Graph())
        labels = {v.condition for v in report.violations}
        assert "Subclass.3" not in labels


class TestCanonicalModelIsACountermodel:
    """The canonical model falsifies what the closure does not derive.

    Only star-free, blank-free triples are asked about: ``a p *c`` holds
    vacuously in the canonical model when ``c`` has no members, whether
    or not the closure derives it.
    """

    def test_ground_triples_outside_the_closure_are_false(self):
        checked = 0
        for seed in range(60):
            g = random_graph(seed=seed, max_triples=10, max_terms=6, salt_contradiction=seed % 3 == 0)
            cl = closure(g).closure
            m = canonical_model(g)
            nodes = sorted({x for t in cl for x in (t.s, t.o) if not isinstance(x, (Star, Blank))}, key=repr)
            preds = sorted({t.p for t in cl}, key=repr)
            for s, p, o in itertools.product(nodes, preds, nodes):
                t = try_triple(s, p, o)
                if t is None or t in cl:
                    continue
                report = check_model(m, Graph([t]))
                assert [v.condition for v in report.violations] == ["Simple.1"], (seed, t)
                checked += 1
        assert checked > 10_000


class TestDisjointnessScan:
    """Sub-Transitivity, indexed by the object of ``sub``, against the
    double loop over every (disjointness pair, sub pair) it replaced."""

    @staticmethod
    def double_loop(rel, sub, label):
        out = []
        for c, d in rel:
            for e, c2 in sub:
                if c2 == c and (e, d) not in rel:
                    out.append(f"{label}.Sub-Transitivity: {_fmt(e)} below {_fmt(c)} but {_fmt_pair((e, d))} missing")
        return out

    @staticmethod
    def fixture(rng):
        lines = []
        for kind, sub, rel in (("C", "sc", "cdisj"), ("P", "sp", "pdisj")):
            names = [f"{kind.lower()}{k}" for k in range(rng.randint(2, 7))]
            lines += [f"{kind} {x}" for x in names]
            # A chain with some links and some shortcuts left out.
            for k, a in enumerate(names):
                for b in names[k + 1 :]:
                    if rng.random() < 0.6:
                        lines.append(f"P+ {sub} {a} {b}")
            # Disjointness pairs, each mirrored or not.
            for _ in range(rng.randint(0, 5)):
                a, b = rng.choice(names), rng.choice(names)
                lines.append(f"P+ {rel} {a} {b}")
                if rng.random() < 0.5:
                    lines.append(f"P+ {rel} {b} {a}")
        return load_interpretation("\n".join(lines) + "\n")

    def test_indexed_scan_matches_the_double_loop(self):
        found = {"Disjointness I.3": 0, "Disjointness I.4": 0}
        for seed in range(80):
            i = self.fixture(random.Random(seed))
            report = check_model(i, Graph())
            for label, sub, rel in (("Disjointness I.3", SC, BOTC), ("Disjointness I.4", SP, BOTP)):
                got = [str(v) for v in report.violations if v.condition == f"{label}.Sub-Transitivity"]
                assert got == self.double_loop(i.pos_pairs(rel), i.pos_pairs(sub), label), seed
                found[label] += len(got)
        assert all(n > 20 for n in found.values()), found


DUMPED_OBJECTS = ['"hello world"', "<a b>", "<a#b>", '"a\\"b"', '"a\\\\b"', '""', '"a \\"b\\\\ c"', '"!x"']


class TestInterpretationFixtures:
    def test_serialize_then_load_is_stable(self, medical_text, medical_negative_text):
        """Reloading a dump gives back the canonical model in every
        field, except that blanks get no denotation, and a reloaded dump
        is a fixed point.  A reserved name that is a property element
        but denotes another element stays in the property domain."""
        renamed = load_interpretation("P sp\nR e\nI sp e\n")
        assert SP in renamed.delta_p
        assert load_interpretation(serialize_interpretation(renamed)) == renamed
        texts = [medical_text, medical_negative_text, 'x p "!x" .'] + [f"s p {obj} ." for obj in DUMPED_OBJECTS]
        graphs = [parse_graph(text) for text in texts] + [cubic(n) for n in range(1, 7)] + [spchain(16)]
        graphs += [random_graph(seed=seed, salt_contradiction=seed % 4 == 0) for seed in range(300)]
        for g in graphs:
            model = canonical_model(g)
            first = serialize_interpretation(model)
            loaded = load_interpretation(first)
            denote = {t: el for t, el in model.denote.items() if not isinstance(t, Blank)}
            fields = (model.delta_r, model.delta_p, model.delta_c, model.delta_l, model.ext_p_pos, model.ext_c_pos, model.complement)
            assert loaded == Interpretation(*fields, denote), g.triples()
            assert serialize_interpretation(loaded) == first, g.triples()

    def test_bracketed_and_quoted_terms_reload_unchanged(self):
        """A bracketed field is an IRI, with a ``!`` its complement, and
        a quoted field is a literal, each denoting itself."""
        i = load_interpretation('C <a b>\nR !<a b>\nR "a b"\nL ""\n')
        assert {Iri("a b"), Neg(Iri("a b")), Literal("a b"), Literal("")} <= i.delta_r
        assert i.complement[Iri("a b")] == Neg(Iri("a b"))
        assert all(i.denote[el] == el for el in i.delta_r)
        assert load_interpretation(serialize_interpretation(i)) == i

    def test_reloaded_model_still_satisfies_the_graph(self, medical_text):
        g = parse_graph(medical_text)
        text = serialize_interpretation(canonical_model(g))
        assert check_model(load_interpretation(text), g).satisfied

    def test_comments_and_blanks_are_ignored(self):
        i = load_interpretation("# heading\n\nC c  # trailing\n")
        assert Iri("c") in i.delta_c

    def test_complement_registration_closes_domains(self):
        i = load_interpretation("C !c\n")
        assert {Iri("c"), Neg(Iri("c"))} <= i.delta_c
        assert i.complement[Iri("c")] == Neg(Iri("c"))
        assert i.complement[Neg(Iri("c"))] == Iri("c")

    def test_explicit_denotation_wins_over_the_default(self):
        i = load_interpretation("R e1\nR e2\nI a e2\n")
        assert i.denote[Iri("a")] == Iri("e2")

    @pytest.mark.parametrize("obj", DUMPED_OBJECTS)
    def test_dumped_model_with_spaces_hashes_and_escapes_reloads(self, obj):
        g = parse_graph(f"x p {obj} .")
        dump = serialize_interpretation(canonical_model(g))
        assert check_model(load_interpretation(dump), g).satisfied

    @pytest.mark.parametrize("bad", ["X y\n", "C\n", "P+ p s\n", "I ! e\n", "R !\n", "C *c\n", "P !sp\n", 'R !"a b"\n', "R !_:b\n"])
    def test_malformed_lines_name_their_position(self, bad):
        with pytest.raises(ValueError) as exc:
            load_interpretation("C c\n" + bad)
        assert "line 2" in str(exc.value)


class TestReferenceSemantics:
    """The model checker and the canonical model against
    ``tests/reference_semantics.py``, where every mirrored condition is
    written out once per side."""

    NAMES = ["a", "b", "c", "d"]
    VOCAB = ["sp", "sc", "type", "dom", "range", "cdisj", "pdisj"]
    CONDITIONS = {
        *(f"Interpretation.{name}" for name in ("ClassDomain", "LiteralDomain", "Vocabulary")),
        *(f"Interpretation.Complement.{name}" for name in ("Involution", "Domain")),
        *(f"Interpretation.{ext}Extension.{name}" for ext in ("Property", "Class") for name in ("Domain", "Range")),
        *(f"Interpretation.Denotation.{name}" for name in ("Range", "Blank", "Literal", "Complement")),
        *(f"{family}.{k}" for family in ("Subproperty", "Subclass") for k in (1, 2, 3)),
        *(f"Typing I.{k}" for k in range(1, 6)),
        *(f"Typing II.{k}" for k in range(1, 5)),
        "Disjointness I.1",
        "Disjointness I.2",
        *(f"Disjointness I.{k}.{name}" for k in (3, 4) for name in ("Symmetry", "Sub-Transitivity", "Exhaustive")),
        *(f"Disjointness II.{k}" for k in range(1, 5)),
        *(f"Simple.{k}" for k in range(1, 6)),
        "Simple.Existential",
    }

    @classmethod
    def interpretation(cls, rng):
        negated = ["!a", "!b", "!c"]
        elements = cls.NAMES + negated + ['"v"', '"a b"']

        def pick():
            return rng.choice(elements)

        lines = [f"{rng.choice('RPCL')} {pick()}" for _ in range(rng.randint(0, 8))]
        for _ in range(rng.randint(0, 14)):
            p = rng.choice(cls.VOCAB + negated) if rng.random() < 0.7 else pick()
            lines.append(f"P+ {p} {pick()} {pick()}")
        lines += [f"C+ {pick()} {pick()}" for _ in range(rng.randint(0, 5))]
        terms = ["a", "!a", "_:x", '"v"', "sp", "dom"]
        lines += [f"I {rng.choice(terms)} {pick()}" for _ in range(rng.randint(0, 2))]
        i = load_interpretation("\n".join(lines) + "\n")
        if rng.random() < 0.75:
            return i

        # load_interpretation closes the domains over the extensions and
        # the complements; thinning them out again reaches the structural
        # conditions.
        def thin(items):
            return [x for x in items if rng.random() < 0.85]

        return Interpretation(
            frozenset(thin(i.delta_r)),
            frozenset(thin(i.delta_p)),
            frozenset(thin(i.delta_c)),
            i.delta_l,
            i.ext_p_pos,
            i.ext_c_pos,
            {x: i.complement[x] for x in thin(i.complement)},
            {t: i.denote[t] for t in thin(i.denote)},
        )

    @classmethod
    def graph(cls, rng):
        names = [Iri(n) for n in cls.NAMES + ["z"]]
        nodes = names + [Neg(x) for x in names[:2]] + [Star(x) for x in names[:3]] + [Blank("x"), Blank("y"), Literal("v")]
        preds = (names[:3] + [Neg(names[0])], [Iri(v) for v in cls.VOCAB])
        triples = [try_triple(rng.choice(nodes), rng.choice(rng.choice(preds)), rng.choice(nodes)) for _ in range(rng.randint(0, 5))]
        return Graph([t for t in triples if t is not None])

    def test_violations_match_the_reference(self):
        seen = set()
        for seed in range(2000):
            rng = random.Random(seed)
            i, g = self.interpretation(rng), self.graph(rng)
            report = check_model(i, g)
            assert [str(v) for v in report.violations] == [str(v) for v in reference_semantics.check_model(i, g).violations], seed
            seen.update(v.condition for v in report.violations)
        assert seen == self.CONDITIONS, self.CONDITIONS ^ seen

    def test_canonical_models_match_the_reference(self, medical_text, medical_negative_text):
        graphs = [parse_graph(medical_text), parse_graph(medical_negative_text), spchain(48)]
        graphs += [cubic(n) for n in range(1, 9)]
        graphs += [random_graph(seed=seed, max_triples=20, max_terms=8, salt_contradiction=seed % 4 == 0) for seed in range(600)]
        for g in graphs:
            got, want = canonical_model(g), reference_semantics.canonical_model(g)
            assert got == want, g.triples()
            assert serialize_interpretation(got) == serialize_interpretation(want)
            assert check_model(got, g) == reference_semantics.check_model(want, g)


class TestWholeSetShortcuts:
    """The subset tests ``_global_violations`` runs before enumerating,
    each made to fail, and the one sp pass of ``canonical_model``,
    against ``tests/reference_semantics.py``."""

    @staticmethod
    def edited(i, drop=(), add=()):
        ext = dict(i.ext_p_pos)
        for p, pair in drop:
            assert pair in ext[Iri(p)]
            ext[Iri(p)] = ext[Iri(p)] - {pair}
        for p, pair in add:
            ext[Iri(p)] = ext[Iri(p)] | {pair}
        return Interpretation(i.delta_r, i.delta_p, i.delta_c, i.delta_l, ext, i.ext_c_pos, i.complement, i.denote)

    def test_failed_subset_tests_enumerate_as_the_reference(self):
        g = Graph(list(spchain(8)) + list(parse_graph("c1 sc c2 .\nc2 sc c3 .\nc3 cdisj d .\n")))
        model = canonical_model(g)
        assert not semantics._global_violations(model)
        edits = [
            ((("sp", (Iri("p2"), Iri("p5"))),), ()),
            ((("sc", (Iri("c1"), Iri("c3"))),), ()),
            ((("pdisj", (Neg(Iri("p6")), Iri("p2"))),), ()),
            ((), (("cdisj", (Iri("c2"), Iri("c2"))),)),
        ]
        # All four edits at once.
        edits.append((sum((drop for drop, _ in edits), ()), sum((add for _, add in edits), ())))
        seen = set()
        for drop, add in edits:
            i = self.edited(model, drop, add)
            got = [str(v) for v in semantics._global_violations(i)]
            assert got == [str(v) for v in reference_semantics._global_violations(i)], (drop, add)
            seen.update(v.split(":")[0] for v in got)
        family = {"Subproperty.1", "Subclass.1", "Disjointness I.3.Sub-Transitivity", "Disjointness I.4.Sub-Transitivity"}
        assert family | {"Disjointness I.3.Exhaustive"} <= seen, seen

    def test_blank_and_literal_below_sp_match_the_reference_model(self):
        g = parse_graph('a sp _:b .\na sp "v" .\n_:b sp q .\nx a y .\n_:b dom c .\n"v" range d .\ns r *c .\nz !q w .\n')
        got, want = canonical_model(g), reference_semantics.canonical_model(g)
        assert got == want
        assert (Iri("x"), Iri("y")) in got.pos_pairs(Blank("b")) & got.pos_pairs(Literal("v"))
        assert serialize_interpretation(got) == serialize_interpretation(want)
        assert check_model(got, g).satisfied


class TestModelIsClosurePlusOneSpPass:
    """The canonical model is the closure plus one pass along ``sp`` into
    blanks and literals: each fill the reference model still runs is a
    closure rule here."""

    @pytest.mark.parametrize(
        "text, rule, added",
        [
            ("x type c .\nc sc d .\n", "3b", "x type d"),
            ("p dom c .\nx p y .\n", "4a", "x type c"),
            ("p range c .\nx p y .\n", "4b", "y type c"),
            ("a sp _:b .\n_:b dom c .\nx a y .\n", "5a", "x type c"),
            ('a sp "v" .\n"v" range c .\nx a y .\n', "5b", "y type c"),
            ("d dom b .\nx type !b .\nz d y .\n", "4c", "x !d y"),
            ("d range b .\nx type !b .\nz d y .\n", "4d", "z !d x"),
            ("e r *c .\nx type c .\n", "4e", "e r x"),
            ("*c t u .\nx type c .\n", "4f", "x t u"),
            ("e s *m .\ne !s w .\n", "4g", "w type !m"),
            ("*m s u .\nw !s u .\n", "4h", "w type !m"),
        ],
    )
    def test_each_reference_fill_is_a_closure_rule(self, text, rule, added):
        """sc members, dom/range typing (directly and through a blank or
        a literal below sp), negative typing, and a star's members and
        negative side at the object and at the subject."""
        g = parse_graph(text)
        (t,) = parse_graph(added + " .\n")
        assert closure(g).provenance[t].rule is RuleId(rule)
        got = canonical_model(g)
        assert got == reference_semantics.canonical_model(g)
        assert (t.s, t.o) in got.pos_pairs(t.p)
        if t.p == TYPE:
            assert t.s in got.pos_members(t.o)

    def test_only_blanks_and_literals_gain_pairs(self, medical_text, medical_negative_text):
        graphs = [parse_graph(medical_text), parse_graph(medical_negative_text), spchain(48)]
        graphs += [cubic(n) for n in range(1, 9)]
        graphs += [random_graph(seed=seed, max_triples=20, max_terms=8, salt_contradiction=seed % 4 == 0) for seed in range(600)]
        gained = 0
        for g in graphs:
            cl = closure(g).closure
            m = canonical_model(g)
            own = {(t.p, (t.s, t.o)) for t in cl if not isinstance(t.s, Star) and not isinstance(t.o, Star)}
            pairs = {(p, pr) for p, prs in m.ext_p_pos.items() for pr in prs}
            assert own <= pairs
            extra = pairs - own
            assert all(isinstance(p, (Blank, Literal)) for p, _ in extra), g.triples()
            gained += len(extra)
            types = {}
            for t in cl:
                if t.p == TYPE:
                    types.setdefault(t.o, set()).add(t.s)
            assert m.ext_c_pos == types, g.triples()
        assert gained
