"""Closure engine tests: fixpoints, rule sets, provenance and growth."""

import itertools
import os
import pathlib
import pickle
import subprocess
import sys
import tempfile

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
import rhodf
from rhodf import cli
from rhodf.parser import serialize_graph, serialize_triple
from rhodf.reasoner import TermTable
from term_engine import RULES, term_closure, term_domains, term_instantiate

A, B, C, D = Iri("a"), Iri("b"), Iri("c"), Iri("d")

FIXTURES = sorted((pathlib.Path(__file__).parent / "fixtures").glob("*.rnt"))
GOLDEN = pathlib.Path(__file__).parent / "golden"

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

    def test_cap_trips_exactly_below_the_closure_size(self):
        """The closure raises iff the cap is below its size, and then
        reports the size of the input, if that is already over the cap,
        or one past the cap, where the first triple too many was derived;
        checked at the caps around the input size and the closure size."""
        graphs = [spchain(10), cubic(4), parse_graph("a cdisj a .\nx type b .\nq dom b .\n")]
        graphs += [random_graph(seed=seed, max_triples=20, max_terms=8, salt_contradiction=True) for seed in range(20)]
        wrong = []
        for k, g in enumerate(graphs):
            size = len(closure(g).closure)
            caps = {1, len(g) - 1, len(g), len(g) + 1, (len(g) + size) // 2, size - 1, size, size + 1}
            for cap in caps - {0}:
                try:
                    got = len(closure(g, cap=cap).closure)
                except ClosureCapError as exc:
                    got = (exc.cap, exc.size)
                if got != (size if cap >= size else (cap, max(len(g), cap + 1))):
                    wrong.append((k, cap, got))
        assert wrong == []


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
    return [parse_graph(p.read_text()) for p in FIXTURES]


# Small graphs on which 6c/7c, 4c, 4h and 6b derive something.
SMALL_GRAPHS = {
    "self_disjoint": "a cdisj a .\nx type b .\np dom b .\n",
    "negative_domain": "d dom b .\nx type !b .\nz d y .\n",
    "star_subject": "*c d b .\nx !d b .\n",
    "disjoint_below": "a cdisj b .\nc sc a .\n",
}


def oracle_inputs(seeds=300):
    """Graphs the engine is diffed on against the term rules."""
    yield from fixture_graphs()
    for n in (1, 2, 3, 4, 5, 6, 7, 8, 12, 16):
        yield cubic(n)
    yield spchain(48)
    for seed in range(seeds):
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


# The rule sets the engine is checked in: with 2a and 3a the lifting
# rules lift only their roots, without one of them every triple.
RULE_SETS = {
    "rdf": RDF_RULE_IDS,
    "full": FULL_RULE_IDS,
    "full-2a": FULL_RULE_IDS - {RuleId.R2A},
    "full-3a": FULL_RULE_IDS - {RuleId.R3A},
    "rdf-2a": RDF_RULE_IDS - {RuleId.R2A},
}


def golden_inputs():
    """The graphs whose closure schedules ``tests/golden/`` pins.  In
    full mode they fire every closure rule but 2d/2e, which do not run
    beside 2b."""
    graphs = {p.stem: parse_graph(p.read_text()) for p in FIXTURES}
    graphs.update(cubic4=cubic(4), spchain8=spchain(8))
    graphs.update({name: parse_graph(text) for name, text in SMALL_GRAPHS.items()})
    for seed in (0, 7, 16):
        graphs[f"random{seed}"] = random_graph(seed=seed, max_triples=20, max_terms=8, salt_contradiction=seed % 4 == 0)
    return graphs


GOLDEN_CASES = [(name, mode) for name in golden_inputs() for mode in ("rdf", "full")]


def without_wall_time(text):
    return "".join(line for line in text.splitlines(keepends=True) if not line.startswith("wall time:"))


def golden_text(g, mode, tmp):
    """The closure of ``g`` in insertion order, each derived triple
    followed by `` # rule: premise ; premise``, then a blank line and the
    lines of ``rhodf stats`` but the wall time; ``tmp`` is a directory for
    the command's files.  The annotation is the goldens' own format: it
    looks like ``rhodf close --trace``'s, but does not follow changes to
    it."""
    result = closure(g, mode)
    lines = []
    for t in result.closure:
        line = serialize_triple(t)
        step = result.provenance.get(t)
        if step is not None:
            line += f" # {step.rule}: " + " ; ".join(serialize_triple(p)[:-2] for p in step.premises)
        lines.append(line + "\n")
    graph, stats = tmp / "graph.rnt", tmp / "stats.txt"
    graph.write_text(serialize_graph(g))
    assert cli.main(["stats", "--mode", mode, str(graph), "--out", str(stats)]) == 0
    return "".join(lines) + "\n" + without_wall_time(stats.read_text())


def write_goldens():
    """Write ``tests/golden/`` anew, after a change to the closure
    schedule: ``PYTHONPATH=src:tests python -c "import test_reasoner;
    test_reasoner.write_goldens()"``."""
    GOLDEN.mkdir(exist_ok=True)
    inputs = golden_inputs()
    with tempfile.TemporaryDirectory() as tmp:
        for name, mode in GOLDEN_CASES:
            (GOLDEN / f"{name}.{mode}.txt").write_text(golden_text(inputs[name], mode, pathlib.Path(tmp)))


class TestTermEngineOracle:
    """The closure engine against the rules as ``tests/term_engine.py``
    states them: equal closures and domains, and every provenance step
    an instance of its rule.  What only the engine's schedule fixes,
    the closure order, the step kept for each triple, the rounds and
    the per-rule counts, the golden files pin."""

    @pytest.mark.parametrize("rule_set", RULE_SETS)
    def test_closure_and_domains_match_the_naive_fixpoint(self, rule_set):
        rule_ids = RULE_SETS[rule_set]
        mismatches = []
        for k, g in enumerate(oracle_inputs()):
            got, want = closure(g, rule_ids=rule_ids), term_closure(g, rule_ids)
            if got.closure != want or (got.class_terms, got.property_terms) != term_domains(want):
                mismatches.append(k)
        assert mismatches == []

    @pytest.mark.parametrize("rule_set", RULE_SETS)
    def test_every_step_is_an_instance_of_its_rule(self, rule_set):
        """Over its own premises, in their order, with the closure's
        domains for 6c/7c; and each premise is an input triple or comes
        earlier in closure order."""
        wrong = []
        for k, g in enumerate(oracle_inputs()):
            result = closure(g, rule_ids=RULE_SETS[rule_set])
            domains = (result.class_terms, result.property_terms)
            position = {t: n for n, t in enumerate(result.closure)}
            for t, step in result.provenance.items():
                later = [p for p in step.premises if position[p] >= position[t]]
                if later or step not in term_instantiate(step.rule, Graph(step.premises), domains):
                    wrong.append((k, step))
        assert wrong == []

    @pytest.mark.parametrize("name,mode", GOLDEN_CASES)
    def test_schedule_matches_its_golden_file(self, name, mode, tmp_path):
        """A change to the schedule regenerates the files with
        :func:`write_goldens` and says what moved."""
        assert golden_text(golden_inputs()[name], mode, tmp_path) == (GOLDEN / f"{name}.{mode}.txt").read_text()

    def test_golden_inputs_fire_every_rule_that_runs(self):
        """So a change to how any rule is scheduled shows in a golden file."""
        fired = {rule for g in golden_inputs().values() for rule, n in closure(g).stats.rule_fire_counts.items() if n}
        assert fired == {str(rule) for rule in RULES} - {"2d", "2e"}

    @pytest.mark.parametrize("hash_seed", ["0", "1"])
    def test_stats_do_not_depend_on_the_hash_seed(self, hash_seed, tmp_path):
        """``rhodf stats`` in a fresh process prints the golden lines
        whatever the seed of ``str`` hashing."""
        cases, inputs = [], golden_inputs()
        for name, mode in GOLDEN_CASES:
            path = tmp_path / f"{name}.rnt"
            path.write_text(serialize_graph(inputs[name]))
            cases.append(["stats", "--mode", mode, str(path)])
        script = f"from rhodf.cli import main\nfor argv in {cases!r}:\n    main(argv)\n"
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(pathlib.Path(rhodf.__file__).parent.parent))
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
        assert (done.returncode, done.stderr) == (0, "")
        want = "".join((GOLDEN / f"{name}.{mode}.txt").read_text().split("\n\n")[1] for name, mode in GOLDEN_CASES)
        assert without_wall_time(done.stdout) == want


class TestEntryPointOracles:
    """The domains a graph names and :func:`instantiate` against the term
    tracker and the term rules."""

    def test_recognize_domains_matches_the_term_tracker(self):
        mismatches = [k for k, g in enumerate(oracle_inputs()) if recognized(g) != Domains(*term_domains(g))]
        assert mismatches == []

    def test_instantiate_matches_the_term_rules(self):
        """As sets of steps; the small graphs let 4c, 4h and 6b derive
        something too."""
        mismatches, fired = [], set()
        for k, g in enumerate([*oracle_inputs(80), *map(parse_graph, SMALL_GRAPHS.values())]):
            domains = term_domains(g)
            for rule in RULES:
                got = instantiate(rule, g)
                if set(got) != term_instantiate(rule, g, domains):
                    mismatches.append((k, rule))
                if got:
                    fired.add(rule)
        assert mismatches == []
        assert fired == set(RULES), set(RULES) - fired


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
