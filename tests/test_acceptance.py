"""End-to-end acceptance checks, one numbered test per criterion.

Each test pins an externally visible behaviour of the library: golden
closure facts and entailment judgments on the medical ontologies, proof
extraction and replay, satisfiability of contradictory graphs, soundness
of the canonical model, closure growth rates on structured families,
the quadratic bound for star-free graphs, agreement between entailment
and closure membership, agreement between the witness search and brute
force, and the parser round trip.  The conftest hook prints one
PASS/FAIL line per criterion after the run.
"""

import itertools
import math
import pathlib
import random
import time

from conftest import METRICS
from term_engine import term_instantiate

from rhodf import (
    BOTC,
    Blank,
    Graph,
    Iri,
    Neg,
    RuleId,
    SC,
    SP,
    TYPE,
    Triple,
    VariableMap,
    apply_map,
    canonical_model,
    check_model,
    closure,
    cubic,
    entails,
    extract_proof,
    find_map,
    parse_graph,
    random_graph,
    serialize_graph,
    spchain,
    try_triple,
)

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

X = Blank("x")


def test_criterion_01_base_closure_contains_derived_types(medical_text):
    """The plain rule set already grounds the two expected type facts."""
    g = parse_graph(medical_text)
    start = time.perf_counter()
    cl = closure(g, "rdf").closure
    elapsed = time.perf_counter() - start
    assert Triple(Iri("morphine"), TYPE, Iri("drugTreatment")) in cl
    assert Triple(Iri("brainTumour"), TYPE, Iri("illness")) in cl
    assert elapsed < 1.0


def test_criterion_02_golden_entailments_on_extended_ontology(medical_negative_text):
    g = parse_graph(medical_negative_text)
    h_witness = Graph([
        Triple(Iri("brainTumour"), Iri("hasTreatment"), X),
        Triple(X, TYPE, Neg(Iri("antipyretic"))),
    ])
    h_grounded = Graph([
        Triple(Iri("ebola"), Neg(Iri("hasTreatment")), Iri("paracetamol")),
    ])
    h_escaped = Graph([
        Triple(Iri("ebola"), Neg(Iri("hasTreatment")), Iri("ebola")),
    ])
    start = time.perf_counter()
    witness_report = entails(g, h_witness)
    grounded = entails(g, h_grounded).holds
    escaped = entails(g, h_escaped).holds
    elapsed = time.perf_counter() - start
    assert witness_report.holds is True
    assert witness_report.map is not None
    assert witness_report.map.apply(X) == Iri("morphine")
    assert grounded is True
    assert escaped is False
    assert elapsed < 1.0


def test_criterion_03_proof_replays_and_ends_with_the_map_rule(medical_negative_text):
    """Replaying the extracted derivation re-derives the negative type
    fact: each step is an instance of its rule as ``tests/term_engine.py``
    states it, over its own premises and the closure's domains."""
    g = parse_graph(medical_negative_text)
    h = Graph([
        Triple(Iri("brainTumour"), Iri("hasTreatment"), X),
        Triple(X, TYPE, Neg(Iri("antipyretic"))),
    ])
    mu = VariableMap.of({X: Iri("morphine")})
    result = closure(g)
    start = time.perf_counter()
    proof = extract_proof(h, mu, result)
    elapsed = time.perf_counter() - start

    map_steps = [step for step in proof if step.rule is RuleId.R1A]
    assert len(map_steps) == 1
    assert proof[-1].rule is RuleId.R1A

    domains = (result.class_terms, result.property_terms)
    derived = set()
    for step in proof[:-1]:
        if step.rule is RuleId.R1B:
            assert step.conclusion in g
        else:
            assert all(p in derived for p in step.premises)
            assert step in term_instantiate(step.rule, Graph(step.premises), domains)
        derived.add(step.conclusion)

    final = proof[-1]
    assert all(p in derived for p in final.premises)
    assert set(apply_map(final.map, Graph(final.targets))) == set(final.premises)
    assert Triple(Iri("morphine"), TYPE, Neg(Iri("antipyretic"))) in derived
    assert elapsed < 1.0


def test_criterion_04_salted_contradictions_stay_satisfiable():
    failures = []
    for seed in range(100):
        g = random_graph(seed=seed, salt_contradiction=True)
        if not check_model(canonical_model(g), g).satisfied:
            failures.append(seed)
    assert failures == []


def test_criterion_05_canonical_model_satisfies_every_closure_triple():
    start = time.perf_counter()
    failures = []
    for seed in range(200):
        g = random_graph(seed=seed)
        cl = closure(g).closure
        model = canonical_model(g)
        report = check_model(model, cl)
        if not report.satisfied:
            failures.append((seed, report.violations[:1]))
    elapsed = time.perf_counter() - start
    assert failures == []
    assert elapsed < 60.0


def test_criterion_06_growth_rates_of_structured_families():
    start = time.perf_counter()
    sizes = {}
    for n in (4, 6, 8, 10, 12):
        cl = closure(cubic(n)).closure
        members = {Iri(f"a{i}") for i in range(1, n + 1)}
        props = {Iri(f"p{i}") for i in range(1, n + 1)}
        ground = sum(
            1 for t in cl if t.s in members and t.p in props and t.o in members
        )
        assert ground == n ** 3
        sizes[n] = len(cl)

    xs = [math.log(n) for n in sizes]
    ys = [math.log(sizes[n]) for n in sizes]
    mean_x = sum(xs) / len(xs)
    mean_y = sum(ys) / len(ys)
    slope = sum(
        (x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)
    ) / sum((x - mean_x) ** 2 for x in xs)
    METRICS["cubic family log-log slope"] = round(slope, 3)
    assert slope >= 2.7

    for n in (10, 20, 40, 80):
        cl = closure(spchain(n), "rdf").closure
        sp_count = sum(1 for t in cl if t.p == SP)
        assert sp_count == n * (n - 1) // 2
    assert time.perf_counter() - start < 120.0


def test_criterion_07_star_free_closures_stay_quadratic():
    worst = 0.0
    violations = []
    for seed in range(50):
        g = random_graph(seed=seed, max_triples=15, allow_star=False)
        cl = closure(g).closure
        worst = max(worst, len(cl) / len(g) ** 2)
        if len(cl) > 20 * len(g) ** 2:
            violations.append(seed)
    METRICS["star-free quadratic constant"] = round(worst, 3)
    assert violations == []


def test_criterion_08_ground_entailment_matches_closure_membership():
    disagreements = []
    for seed in range(100):
        rng = random.Random(seed)
        g = random_graph(seed=seed)
        cl = closure(g).closure
        ground = [
            t
            for t in cl
            if not any(isinstance(term, Blank) for term in (t.s, t.p, t.o))
        ]
        candidates = []
        if ground:
            candidates.extend(rng.sample(ground, min(3, len(ground))))
        terms = sorted(
            {
                term
                for t in g
                for term in (t.s, t.p, t.o)
                if not isinstance(term, Blank)
            },
            key=str,
        )
        for _ in range(3):
            made = try_triple(
                rng.choice(terms), rng.choice(terms), rng.choice(terms)
            )
            if made is not None:
                candidates.append(made)
        h = Graph(candidates)
        expected = all(t in cl for t in h)
        searched = find_map(h, cl) is not None
        fast = entails(g, h).holds
        if searched is not expected or fast is not expected:
            disagreements.append(seed)
    assert disagreements == []


def test_criterion_09_witness_search_matches_brute_force():
    pool = [Blank(f"q{i}") for i in range(1, 5)]
    disagreements = []
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
        h = Graph(pattern)

        universe = sorted(
            {term for t in target for term in (t.s, t.p, t.o)}, key=str
        )
        variables = sorted(h.blanks, key=str)
        target_set = set(target)
        exists = False
        for image in itertools.product(universe, repeat=len(variables)):
            mu = dict(zip(variables, image))
            ok = True
            for t in h:
                mapped = try_triple(mu.get(t.s, t.s), t.p, mu.get(t.o, t.o))
                if mapped is None or mapped not in target_set:
                    ok = False
                    break
            if ok:
                exists = True
                break

        found = find_map(h, target)
        if (found is not None) != exists:
            disagreements.append(seed)
            continue
        if found is not None:
            for t in h:
                mapped = try_triple(
                    found.apply(t.s), t.p, found.apply(t.o)
                )
                assert mapped is not None
                assert mapped in target_set
    assert disagreements == []


def test_criterion_10_disjointness_to_subclass_needs_extended_rules():
    g = Graph([Triple(Iri("a"), BOTC, Iri("b"))])
    consequence = Triple(Iri("a"), SC, Neg(Iri("b")))
    assert consequence not in closure(g, "rdf").closure
    assert consequence in closure(g, "full").closure


def test_criterion_11_parse_and_serialize_are_mutually_inverse():
    for path in sorted(FIXTURES.glob("*.rnt")):
        g = parse_graph(path.read_text())
        assert parse_graph(serialize_graph(g)) == g
    for seed in range(200):
        g = random_graph(seed=seed)
        assert parse_graph(serialize_graph(g)) == g
