"""Closure engine tests: fixpoints, rule sets, provenance and growth."""

import itertools
import pathlib
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rhodf import (
    BOTC,
    BOTP,
    SC,
    SP,
    TYPE,
    ClosureCapError,
    Domains,
    FULL_RULE_IDS,
    Graph,
    Iri,
    Neg,
    RDF_RULE_IDS,
    RuleId,
    Star,
    Triple,
    closure,
    cubic,
    default_cap,
    instantiate,
    parse_graph,
    random_graph,
    spchain,
    validate_triple,
)
from rhodf.reasoner import MODE_RULE_IDS, TermTable
from term_engine import term_closure, term_domains, term_instantiate

A, B, C, D = Iri("a"), Iri("b"), Iri("c"), Iri("d")

seeds = st.integers(min_value=0, max_value=10_000)


class TestRuleSets:
    def test_mode_sizes(self):
        assert len(RDF_RULE_IDS) == 10
        assert len(FULL_RULE_IDS) == 34
        assert RDF_RULE_IDS < FULL_RULE_IDS

    def test_rule_ids_render_as_their_names(self):
        assert str(RuleId.R4E) == "4e"
        assert str(RuleId.R1A) == "1a"

    def test_unknown_mode_is_rejected(self):
        with pytest.raises(ValueError):
            closure(Graph(), mode="owl")


class TestSmallFixpoints:
    def test_empty_graph_has_empty_closure(self):
        assert len(closure(Graph()).closure) == 0

    def test_closure_contains_the_input(self):
        g = Graph([Triple(A, SC, B), Triple(C, B, D)])
        assert set(g) <= set(closure(g).closure)

    def test_subclass_statement_full_fixpoint(self):
        got = set(closure(Graph([Triple(A, SC, B)])).closure)
        assert got == {
            Triple(A, SC, B),
            Triple(Neg(B), SC, Neg(A)),
            Triple(A, BOTC, Neg(B)),
            Triple(Neg(B), BOTC, A),
        }

    def test_class_disjointness_full_fixpoint(self):
        got = set(closure(Graph([Triple(C, BOTC, D)])).closure)
        assert got == {
            Triple(C, BOTC, D),
            Triple(D, BOTC, C),
            Triple(C, SC, Neg(D)),
            Triple(D, SC, Neg(C)),
        }

    def test_disjointness_to_subclass_needs_full_mode(self):
        g = Graph([Triple(A, BOTC, B)])
        derived = Triple(A, SC, Neg(B))
        assert derived not in closure(g, mode="rdf").closure
        assert derived in closure(g, mode="full").closure

    def test_property_disjointness_mirrors_the_class_case(self):
        got = set(closure(Graph([Triple(C, BOTP, D)])).closure)
        assert got == {
            Triple(C, BOTP, D),
            Triple(D, BOTP, C),
            Triple(C, SP, Neg(D)),
            Triple(D, SP, Neg(C)),
        }

    def test_self_disjoint_class_spreads_over_the_class_domain(self):
        g = parse_graph("a cdisj a .\nx type b .\n")
        cl = closure(g).closure
        assert Triple(A, BOTC, B) in cl


class TestFreshNegationBoundary:
    def test_contrapositive_fires_on_plain_pairs_only(self):
        cl = set(closure(Graph([Triple(Neg(A), SC, B)])).closure)
        assert Triple(Neg(B), SC, A) not in cl
        assert Triple(Neg(A), BOTC, Neg(B)) in cl

    def test_no_collapse_when_introducing_disjointness(self):
        got = set(closure(Graph([Triple(A, BOTC, Neg(B))])).closure)
        assert got == {
            Triple(A, BOTC, Neg(B)),
            Triple(Neg(B), BOTC, A),
            Triple(Neg(B), SC, Neg(A)),
        }

    def test_subproperty_contrapositive_same_boundary(self):
        cl = set(closure(Graph([Triple(Neg(A), SP, B)])).closure)
        assert Triple(Neg(B), SP, A) not in cl
        assert Triple(Neg(A), BOTP, Neg(B)) in cl

    def test_negative_types_still_propagate(self):
        # Complement elimination (not introduction) keeps full strength.
        g = parse_graph("p dom b .\nx type !b .\nz p y .\n")
        cl = closure(g).closure
        assert Triple(Iri("x"), Neg(Iri("p")), Iri("y")) in cl


class TestGrowthFamilies:
    def test_chain_closure_counts(self):
        assert len(closure(spchain(10), mode="rdf").closure) == 45
        assert len(closure(spchain(10), mode="full").closure) == 180

    @pytest.mark.parametrize("n,full_size,rdf_size", [(2, 18, 7), (4, 108, 26), (6, 318, 57)])
    def test_cubic_closure_counts(self, n, full_size, rdf_size):
        g = cubic(n)
        assert len(closure(g, mode="full").closure) == full_size
        assert len(closure(g, mode="rdf").closure) == rdf_size

    def test_cubic_ground_triples_without_star_elimination_stay_quadratic(self):
        cl = closure(cubic(4), mode="rdf").closure
        ground = [t for t in cl if t.p not in (TYPE, SP) and not isinstance(t.o, Star)]
        assert ground == []


class TestResourceCap:
    def test_default_cap_formula(self):
        assert default_cap(0) == 1000
        assert default_cap(10) == 11000

    def test_cap_violation_raises(self):
        with pytest.raises(ClosureCapError) as exc:
            closure(spchain(10), cap=50)
        assert exc.value.cap == 50
        assert exc.value.size > 50

    def test_cap_exactly_at_result_size_passes(self):
        assert len(closure(spchain(10), mode="rdf", cap=45).closure) == 45


class TestProvenance:
    def test_every_derived_triple_has_a_step(self):
        g = parse_graph("a sc b .\nb sc c .\nx type a .\n")
        result = closure(g)
        derived = set(result.closure) - set(g)
        assert derived
        for t in derived:
            step = result.provenance[t]
            assert step.conclusion == t
            assert all(p in result.closure for p in step.premises)

    def test_input_triples_have_no_step(self):
        g = parse_graph("a sc b .\n")
        result = closure(g)
        assert Triple(A, SC, B) not in result.provenance

    def test_steps_replay_through_instantiate(self):
        """Every step of both modes replays; rules 6c/7c range over the
        closure's domains, so they replay with those, and every other
        step from its premises alone."""
        graphs = [parse_graph("a sc b .\nb sc c .\nx type a .\n"), *fixture_graphs()]
        graphs += [cubic(n) for n in range(1, 9)] + [spchain(16)]
        graphs += [random_graph(seed=seed, max_triples=20, max_terms=8, salt_contradiction=seed % 4 == 0) for seed in range(40)]
        failed, replayed = [], 0
        for g, mode in itertools.product(graphs, ("rdf", "full")):
            result = closure(g, mode)
            domains = Domains(result.class_terms, result.property_terms)
            for t, step in result.provenance.items():
                free = step.rule in (RuleId.R6C, RuleId.R7C)
                conclusions = {s.conclusion for s in instantiate(step.rule, Graph(step.premises), domains if free else None)}
                if t not in conclusions:
                    failed.append(step)
                replayed += 1
        assert failed == []
        assert replayed > 1000

    def test_provenance_is_built_once(self):
        result = closure(cubic(3))
        first = result.provenance
        assert result.provenance is first
        assert len(first) == len(result.closure) - len(cubic(3))
        twin = pickle.loads(pickle.dumps(result))
        assert twin == result
        assert twin.provenance == first


class TestInstantiate:
    def test_map_rules_are_not_closure_rules(self):
        for rule in (RuleId.R1A, RuleId.R1B):
            with pytest.raises(ValueError):
                instantiate(rule, Graph())

    def test_single_transitivity_application(self):
        g = Graph([Triple(A, SC, B), Triple(B, SC, C)])
        steps = instantiate(RuleId.R3A, g)
        assert [s.conclusion for s in steps] == [Triple(A, SC, C)]

    def test_existing_conclusions_are_not_reported(self):
        g = Graph([Triple(A, SC, B), Triple(B, SC, C), Triple(A, SC, C)])
        assert instantiate(RuleId.R3A, g) == []


def recognized(g):
    """The class and property terms ``g`` names: a closure with no rules
    runs only the first round's recognition."""
    result = closure(g, rule_ids=frozenset())
    return Domains(result.class_terms, result.property_terms)


class TestDomainRecognition:
    def test_medical_domains(self, medical_text):
        domains = recognized(parse_graph(medical_text))
        assert Iri("hasTreatment") in domains.property_terms
        assert TYPE in domains.property_terms
        assert Iri("illness") in domains.class_terms
        assert Iri("treatment") in domains.class_terms

    def test_domains_close_under_complement(self):
        domains = recognized(parse_graph("x type c .\n"))
        assert Iri("c") in domains.class_terms
        assert Neg(Iri("c")) in domains.class_terms


def fixture_graphs():
    return [parse_graph(p.read_text()) for p in sorted((pathlib.Path(__file__).parent / "fixtures").glob("*.rnt"))]


def reference_closure(g, rule_ids):
    """Naive fixpoint: every rule of the set, applied to the whole graph,
    until a round adds nothing.  Every matcher runs with its delta equal
    to the whole graph, which the semi-naive engine only does in its
    first round, so a broken delta-side loop shows up as a difference.
    It lifts every triple and runs 2d/2e, as :func:`instantiate` does."""
    rules = [r for r in RuleId if r in rule_ids and r not in (RuleId.R1A, RuleId.R1B)]
    current = set(g)
    while True:
        snapshot = Graph(current)
        new = {step.conclusion for rule in rules for step in instantiate(rule, snapshot)}
        if not new:
            return current
        current |= new


def reference_inputs(seeds):
    yield from fixture_graphs()
    for n in range(1, 7):
        yield cubic(n)
    yield spchain(12)
    for seed in range(seeds):
        yield random_graph(seed=seed, max_triples=20, max_terms=8, salt_contradiction=seed % 4 == 0)


class TestReferenceClosure:
    @pytest.mark.parametrize("mode", ["rdf", "full"])
    def test_semi_naive_closure_matches_the_naive_fixpoint(self, mode):
        rule_ids = MODE_RULE_IDS[mode]
        mismatches = [k for k, g in enumerate(reference_inputs(80)) if set(closure(g, mode).closure) != reference_closure(g, rule_ids)]
        assert mismatches == []

    @pytest.mark.parametrize("transitivity", [RuleId.R2A, RuleId.R3A])
    def test_lifting_rules_lift_every_triple_without_transitivity(self, transitivity):
        """Without 2a or 3a no rule closes the hierarchy, so the lifting
        rules must take the triples they derived themselves again."""
        rule_ids = FULL_RULE_IDS - {transitivity}
        mismatches = [k for k, g in enumerate(reference_inputs(40)) if set(closure(g, rule_ids=rule_ids).closure) != reference_closure(g, rule_ids)]
        assert mismatches == []


def oracle_inputs():
    """Graphs the id engine is diffed on against the term engine."""
    yield from fixture_graphs()
    for n in (1, 2, 3, 4, 5, 6, 7, 8, 12, 16):
        yield cubic(n)
    yield spchain(48)
    for seed in range(300):
        yield random_graph(seed=seed, max_triples=20, max_terms=8, salt_contradiction=seed % 4 == 0)


class TestTermTable:
    def test_valid_agrees_with_validate_triple(self):
        """The closure builds its triples without validating them again,
        so the table's check must be validate_triple's on every id triple:
        here over the terms of the fixtures and of 50 random graphs, with
        the complements and stars the table interns beside them."""
        fixtures = fixture_graphs()
        for graphs in (fixtures, [random_graph(seed=seed) for seed in range(50)]):
            table = TermTable()
            for g in graphs:
                for t in g:
                    table.encode(t)
            terms = table.terms
            keys = list(itertools.product(range(len(terms)), repeat=3))
            assert [table.valid(*k) for k in keys] == [not validate_triple(terms[s], terms[p], terms[o]) for s, p, o in keys]
            assert any(isinstance(t, Star) for t in terms) and any(isinstance(t, Neg) for t in terms)


class TestTermEngineOracle:
    """The closure engine over term ids against the engine over terms
    (``tests/term_engine.py``): same order, provenance and counts,
    the candidates each rule listed included."""

    @pytest.mark.parametrize("mode", ["rdf", "full"])
    def test_id_engine_matches_the_term_engine(self, mode):
        mismatches = []
        for k, g in enumerate(oracle_inputs()):
            got, want = closure(g, mode), term_closure(g, mode)
            if (
                tuple(got.closure) != want.order
                or tuple(got.provenance.items()) != want.provenance
                or got.stats.rule_fire_counts != want.fires
                or got.stats.rule_candidates != want.candidates
                or got.stats.iterations != want.iterations
                or got.class_terms != want.class_terms
                or got.property_terms != want.property_terms
            ):
                mismatches.append(k)
        assert mismatches == []

    def test_cap_overflow_reports_the_same_size(self):
        graphs = [spchain(10), cubic(4), parse_graph("a cdisj a .\nx type b .\nq dom b .\n")]
        graphs += [random_graph(seed=seed, max_triples=20, max_terms=8, salt_contradiction=True) for seed in range(20)]
        checked = 0
        for g in graphs:
            size = len(closure(g).closure)
            for cap in {max(1, len(g) - 1), len(g), (len(g) + size) // 2, size - 1}:
                if cap >= size:
                    continue
                with pytest.raises(ClosureCapError) as got:
                    closure(g, cap=cap)
                with pytest.raises(ClosureCapError) as want:
                    term_closure(g, cap=cap)
                assert (got.value.cap, got.value.size) == (want.value.cap, want.value.size)
                checked += 1
        assert checked > 40


class TestEntryPointOracles:
    """The domains a graph names and :func:`instantiate` against the term
    engine's per-triple tracker and its matchers."""

    def test_recognize_domains_matches_the_term_tracker(self):
        mismatches = [k for k, g in enumerate(oracle_inputs()) if recognized(g) != Domains(*term_domains(g))]
        assert mismatches == []

    def test_instantiate_matches_the_term_matchers(self):
        """Three small graphs beside the usual inputs let 4c, 4h and 6b
        derive something too."""
        rules = [r for r in RuleId if r not in (RuleId.R1A, RuleId.R1B)]
        extra = ["d dom b .\nx type !b .\nz d y .\n", "*c d b .\nx !d b .\n", "a cdisj b .\nc sc a .\n"]
        mismatches, fired = [], set()
        for k, g in enumerate([*reference_inputs(80), *map(parse_graph, extra)]):
            for rule in rules:
                got = instantiate(rule, g)
                if got != term_instantiate(rule, g):
                    mismatches.append((k, rule))
                if got:
                    fired.add(rule)
        assert mismatches == []
        assert fired == set(rules), set(rules) - fired


class TestClosureCounters:
    @pytest.mark.parametrize("mode", ["rdf", "full"])
    def test_round_deltas_and_candidates_add_up(self, mode):
        graphs = [cubic(6), spchain(12), parse_graph("a cdisj a .\nx type b .\np dom b .\n")]
        graphs += [random_graph(seed=seed, salt_contradiction=seed % 3 == 0) for seed in range(40)]
        for g in graphs:
            stats = closure(g, mode).stats
            assert len(stats.round_deltas) == stats.iterations
            assert stats.round_deltas[-1] == 0
            assert sum(stats.round_deltas) == stats.output_size - stats.input_size
            assert set(stats.rule_candidates) == set(stats.rule_fire_counts)
            for rule, fired in stats.rule_fire_counts.items():
                assert stats.rule_candidates[rule] >= fired
            assert sum(stats.rule_fire_counts.values()) == stats.output_size - stats.input_size

    def test_rediscovery_shows_in_the_candidates(self):
        stats = closure(cubic(8)).stats
        assert sum(stats.rule_candidates.values()) > 2 * sum(stats.rule_fire_counts.values())

    def test_lifted_triples_are_not_lifted_again(self):
        """2b lifts each instance triple of cubic(12) once per property
        above its own, not once per path; 2d/2e do not run beside 2b."""
        stats = closure(cubic(12)).stats
        assert sum(stats.rule_candidates.values()) < 3 * (stats.output_size - stats.input_size)
        assert (stats.rule_candidates["2d"], stats.rule_candidates["2e"]) == (0, 0)


class TestClosureProperties:
    @given(seeds)
    def test_idempotence(self, seed):
        g = random_graph(seed=seed)
        once = closure(g).closure
        twice = closure(once).closure
        assert set(twice) == set(once)

    @given(seeds)
    def test_monotonicity(self, seed):
        g = random_graph(seed=seed, max_triples=6)
        extra = random_graph(seed=seed + 90_001, max_triples=4)
        small = closure(g).closure
        large = closure(Graph([*g, *extra])).closure
        assert set(small) <= set(large)

    @given(seeds)
    def test_rdf_mode_is_a_restriction(self, seed):
        g = random_graph(seed=seed)
        assert set(closure(g, mode="rdf").closure) <= set(closure(g, mode="full").closure)

    @given(seeds)
    def test_stats_are_consistent(self, seed):
        g = random_graph(seed=seed)
        result = closure(g)
        assert result.stats.input_size == len(g)
        assert result.stats.output_size == len(result.closure)
        assert result.stats.iterations >= 1
        assert result.stats.elapsed_s >= 0.0
        names = {str(r) for r in RuleId}
        assert set(result.stats.rule_fire_counts) <= names
