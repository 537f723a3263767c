"""Entailment, blank-node search and proof extraction tests."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rhodf import (
    TYPE,
    Blank,
    Graph,
    Iri,
    Neg,
    RuleId,
    SearchBudgetExceeded,
    Triple,
    VariableMap,
    closure,
    entails,
    extract_proof,
    find_map,
    parse_graph,
    canonical_model,
    random_graph,
    try_triple,
)
from rhodf.entailment import _match_candidates, solve
from rhodf.reasoner import TermTable
from rhodf.semantics import _holding_assignments, _take
from term_engine import term_instantiate

seeds = st.integers(min_value=0, max_value=10_000)

X, Y = Blank("x"), Blank("y")
A, B, C = Iri("a"), Iri("b"), Iri("c")
E = Iri("e")


@pytest.fixture(scope="module")
def medical_negative(medical_negative_text):
    return parse_graph(medical_negative_text)


class TestGoldenJudgments:
    def test_treatment_query_with_negative_type(self, medical_negative):
        h = Graph([
            Triple(Iri("brainTumour"), Iri("hasTreatment"), X),
            Triple(X, TYPE, Neg(Iri("antipyretic"))),
        ])
        report = entails(medical_negative, h)
        assert report.holds
        assert report.map is not None
        witness = report.map.apply(X)
        assert witness in (Iri("morphine"), Iri("radioTherapy"))

    def test_universal_statement_grounds_to_an_instance(self, medical_negative):
        h = Graph([Triple(Iri("ebola"), Neg(Iri("hasTreatment")), Iri("paracetamol"))])
        assert entails(medical_negative, h).holds

    def test_untyped_resource_escapes_the_universal(self, medical_negative):
        h = Graph([Triple(Iri("ebola"), Neg(Iri("hasTreatment")), Iri("ebola"))])
        report = entails(medical_negative, h)
        assert not report.holds
        assert report.missing

    def test_rdf_mode_misses_the_negative_consequence(self, medical_negative):
        h = Graph([Triple(Iri("ebola"), Neg(Iri("hasTreatment")), Iri("paracetamol"))])
        assert not entails(medical_negative, h, mode="rdf").holds


class TestEntailsInterface:
    def test_ground_queries_agree_with_find_map_and_closure_membership(self, medical_negative):
        cl = closure(medical_negative).closure
        for t in (
            Triple(Iri("morphine"), TYPE, Iri("drugTreatment")),
            Triple(Iri("morphine"), TYPE, Iri("illness")),
        ):
            h = Graph([t])
            assert entails(medical_negative, h).holds is (t in cl)
            assert (find_map(h, cl) is not None) is (t in cl)

    def test_one_term_table_per_call(self, medical_negative, monkeypatch):
        # The witness search reads the closure engine's own table and
        # index, for ground and blank queries alike.
        built = []
        init = TermTable.__init__

        def counting(table):
            built.append(table)
            init(table)

        monkeypatch.setattr(TermTable, "__init__", counting)
        cl = closure(medical_negative).closure
        for h in (
            Graph([Triple(Iri("morphine"), TYPE, Iri("drugTreatment"))]),
            Graph([Triple(Iri("brainTumour"), Iri("hasTreatment"), X), Triple(X, TYPE, Neg(Iri("antipyretic")))]),
            Graph([Triple(X, TYPE, Iri("nothing"))]),
        ):
            built.clear()
            entails(medical_negative, h, with_proof=True)
            assert len(built) == 1
            # find_map reuses the index a closure graph brings.
            built.clear()
            find_map(h, cl)
            assert built == []

    def test_map_is_reported_only_for_blank_queries(self, medical_negative):
        ground = Graph([Triple(Iri("morphine"), TYPE, Iri("opioid"))])
        assert entails(medical_negative, ground).map is None

    def test_with_proof_attaches_a_derivation(self, medical_negative):
        h = Graph([Triple(Iri("morphine"), TYPE, Neg(Iri("antipyretic")))])
        report = entails(medical_negative, h, with_proof=True)
        assert report.holds
        assert report.proof
        assert report.proof[-1].conclusion in h

    def test_missing_lists_unmatchable_triples(self):
        g = parse_graph("a b c .\n")
        h = parse_graph("a b c .\nq r s .\n")
        report = entails(g, h)
        assert not report.holds
        assert Triple(Iri("q"), Iri("r"), Iri("s")) in report.missing

    @given(seeds)
    def test_every_graph_entails_itself(self, seed):
        g = random_graph(seed=seed)
        assert entails(g, g).holds

    @given(seeds)
    def test_every_graph_entails_its_closure_members(self, seed):
        g = random_graph(seed=seed, max_triples=6)
        cl = closure(g).closure
        for t in list(cl.triples())[:10]:
            assert entails(g, Graph([t])).holds


class TestFindMap:
    def test_two_cycle_embeds_into_a_symmetric_triangle(self):
        h = Graph([Triple(X, E, Y), Triple(Y, E, X)])
        target = Graph([
            Triple(A, E, B), Triple(B, E, A),
            Triple(B, E, C), Triple(C, E, B),
            Triple(C, E, A), Triple(A, E, C),
        ])
        mu = find_map(h, target)
        assert mu is not None
        assert mu.apply_triple(Triple(X, E, Y)) in target
        assert mu.apply_triple(Triple(Y, E, X)) in target

    def test_self_loop_pattern_has_no_image_in_a_plain_edge(self):
        h = Graph([Triple(X, E, X)])
        target = Graph([Triple(A, E, B)])
        assert find_map(h, target) is None

    def test_shared_blank_constrains_both_occurrences(self):
        h = Graph([Triple(A, E, X), Triple(X, E, C)])
        target = Graph([Triple(A, E, B), Triple(B, E, C), Triple(A, E, C)])
        mu = find_map(h, target)
        assert mu is not None
        assert mu.apply(X) == B

    def test_ground_pattern_is_plain_subset(self):
        target = Graph([Triple(A, E, B)])
        assert find_map(Graph([Triple(A, E, B)]), target) is not None
        assert find_map(Graph([Triple(B, E, A)]), target) is None

    def test_budget_exhaustion_raises(self):
        h = Graph([Triple(X, E, Y), Triple(Y, E, X)])
        target = Graph([Triple(Iri(f"n{i}"), E, Iri(f"n{i + 1}")) for i in range(8)])
        with pytest.raises(SearchBudgetExceeded):
            find_map(h, target, budget=1)

    def test_budget_error_propagates_through_entails(self):
        g = Graph([Triple(Iri(f"n{i}"), E, Iri(f"n{i + 1}")) for i in range(8)])
        h = Graph([Triple(X, E, Y), Triple(Y, E, X)])
        with pytest.raises(SearchBudgetExceeded):
            entails(g, h, budget=1)


def rescanning_solve(patterns, candidates, bind):
    """The search as it was before candidate lists were kept: every
    remaining pattern is listed again at every step.  Returns the
    bindings (or None) and the number of candidates tried."""
    sigma = {}
    remaining = list(patterns)
    stack = []
    attempts = 0
    while remaining:
        best_i, best_c = 0, candidates(remaining[0], sigma)
        for i in range(1, len(remaining)):
            if not best_c:
                break
            c = candidates(remaining[i], sigma)
            if len(c) < len(best_c):
                best_i, best_c = i, c
        stack.append([best_i, remaining.pop(best_i), iter(best_c), ()])
        while True:
            if not stack:
                return None, attempts
            top = stack[-1]
            for k in top[3]:
                del sigma[k]
            new = None
            for cand in top[2]:
                attempts += 1
                new = bind(top[1], cand, sigma)
                if new is not None:
                    break
            if new is not None:
                sigma.update(new)
                top[3] = tuple(new)
                break
            stack.pop()
            remaining.insert(top[0], top[1])
    return sigma, attempts


def criterion_9_cases():
    """The 100 (query, target) pairs of acceptance criterion 9."""
    pool = [Blank(f"q{i}") for i in range(1, 5)]
    for seed in range(100):
        rng = random.Random(seed)
        target = random_graph(seed=seed, max_triples=10)
        source = random_graph(seed=seed + 1000) if seed % 3 == 0 else target
        picked = rng.sample(list(source), min(len(source), rng.randint(1, 3)))
        pattern = []
        for t in picked:
            s = rng.choice(pool) if rng.random() < 0.5 else t.s
            o = rng.choice(pool) if rng.random() < 0.5 else t.o
            abstracted = try_triple(s, t.p, o)
            if abstracted is not None:
                pattern.append(abstracted)
        yield Graph(pattern), target


def existential_cases():
    """Open triples of random queries against canonical models, with the
    lister ``check_model`` gives the search."""
    pool = [Blank(f"q{k}") for k in range(1, 4)]
    for seed in range(40):
        rng = random.Random(seed)
        g = random_graph(seed=seed, max_triples=6, max_terms=5)
        m = canonical_model(g)
        triples = list(closure(g).closure)
        query = []
        for _ in range(rng.randint(1, 4)):
            t = rng.choice(triples)
            s = rng.choice(pool) if rng.random() < 0.6 else t.s
            o = rng.choice(pool) if rng.random() < 0.6 else t.o
            t = try_triple(s, t.p, o)
            if t is not None and all(x in m.denote for x in (t.s, t.p, t.o) if x not in pool):
                query.append(t)
        free = set(Graph(query).blanks)
        open_triples = [t for t in Graph(query) if {t.s, t.o} & free]
        if open_triples:
            yield open_triples, _holding_assignments(m, free)


class TestSolve:
    def test_chain_query_lists_candidates_a_constant_number_of_times_per_pattern(self):
        n = 1500
        target = Graph(Triple(Iri(f"n{i}"), E, Iri(f"n{i + 1}")) for i in range(n))
        query = [Triple(Blank(f"x{i}"), E, Blank(f"x{i + 1}")) for i in range(n)]
        lister, unify = _match_candidates(target)
        calls = 0

        def counting(t, sigma):
            nonlocal calls
            calls += 1
            return lister(t, sigma)

        sigma = solve(query, counting, unify)
        assert sigma[Blank(f"x{n}")] == Iri(f"n{n}")
        assert calls < 10 * n

    def assert_same_search(self, patterns, candidates, bind):
        calls = [0, 0]

        def counting(side):
            def lister(t, sigma):
                calls[side] += 1
                return candidates(t, sigma)

            return lister

        expected, attempts = rescanning_solve(patterns, counting(0), bind)
        assert solve(patterns, counting(1), bind, budget=attempts) == expected
        assert calls[1] <= calls[0]
        if attempts:
            with pytest.raises(SearchBudgetExceeded):
                solve(patterns, candidates, bind, budget=attempts - 1)

    def test_witness_search_matches_the_rescanning_search(self):
        for h, target in criterion_9_cases():
            self.assert_same_search(list(h), *_match_candidates(target))

    def test_backtracking_search_matches_the_rescanning_search(self):
        # Sparse random digraphs against patterns over few blanks: most
        # placements fail late, so stale candidate lists would show.
        nodes = [Iri(f"n{k}") for k in range(6)]
        blanks = [Blank(f"v{k}") for k in range(4)]
        for seed in range(100):
            rng = random.Random(seed)
            target = Graph(Triple(rng.choice(nodes), E, rng.choice(nodes)) for _ in range(rng.randint(4, 12)))
            h = Graph(Triple(rng.choice(blanks), E, rng.choice(blanks)) for _ in range(rng.randint(2, 6)))
            self.assert_same_search(list(h), *_match_candidates(target))

    def test_existential_search_matches_the_rescanning_search(self):
        cases = list(existential_cases())
        assert len(cases) > 20
        for open_triples, lister in cases:
            self.assert_same_search(open_triples, lister, _take)


class TestExtractProof:
    def test_blank_query_ends_with_the_map_rule(self, medical_negative):
        result = closure(medical_negative)
        h = Graph([
            Triple(Iri("brainTumour"), Iri("hasTreatment"), X),
            Triple(X, TYPE, Neg(Iri("antipyretic"))),
        ])
        mu = VariableMap.of({X: Iri("morphine")})
        proof = extract_proof(h, mu, result)
        assert proof[-1].rule == RuleId.R1A
        assert proof[-1].map == mu
        assert set(proof[-1].targets) == set(h.triples())

    def test_ground_identity_query_needs_no_map_step(self):
        g = parse_graph("a sc b .\nx type a .\n")
        result = closure(g)
        h = Graph([Triple(Iri("x"), TYPE, B)])
        proof = extract_proof(h, VariableMap.identity(), result)
        assert all(step.rule != RuleId.R1A for step in proof)
        assert proof[-1].conclusion == Triple(Iri("x"), TYPE, B)

    def test_input_triples_enter_through_rule_1b(self):
        g = parse_graph("a sc b .\nx type a .\n")
        proof = extract_proof(Graph([Triple(Iri("x"), TYPE, B)]), VariableMap.identity(), closure(g))
        starts = [step for step in proof if step.rule == RuleId.R1B]
        assert {step.conclusion for step in starts} <= set(g.triples())
        assert all(step.premises == () for step in starts)

    def test_premises_precede_their_conclusions(self, medical_negative):
        """And each conclusion is listed once, also where two goal triples
        share premises."""
        shared = parse_graph("a sc b .\nb sc c .\nx type a .\np dom a .\ny p z .\n")
        cases = [
            (medical_negative, "ebola !hasTreatment paracetamol ."),
            (shared, "x type b .\nx type c ."),
            (shared, "y type c .\ny type b ."),
        ]
        for g, query in cases:
            proof = extract_proof(parse_graph(query), VariableMap.identity(), closure(g))
            seen = set()
            for step in proof:
                assert all(p in seen for p in step.premises)
                assert step.conclusion not in seen, query
                seen.add(step.conclusion)

    def test_non_derivable_goal_is_rejected(self):
        g = parse_graph("a sc b .\n")
        result = closure(g)
        with pytest.raises(ValueError):
            extract_proof(Graph([Triple(Iri("q"), TYPE, B)]), VariableMap.identity(), result)

    def test_replay_re_derives_every_step(self, medical_negative):
        """Through the term rules, over each step's premises and the
        closure's domains."""
        result = closure(medical_negative)
        domains = (result.class_terms, result.property_terms)
        h = Graph([Triple(X, TYPE, Neg(Iri("antipyretic")))])
        mu = VariableMap.of({X: Iri("morphine")})
        proof = extract_proof(h, mu, result)
        for step in proof:
            if step.rule in (RuleId.R1A, RuleId.R1B):
                continue
            assert step in term_instantiate(step.rule, Graph(step.premises), domains)
