"""Seeded inputs and output oracles for the four benchmark workloads.

Every workload runs all four operations (``close``, ``model``,
``entail`` and the in-process ``batch``) on graphs of one family.  The
operation a workload is named after runs at full size and takes most of
the run; the other three run on small members of the same family, so a
change that adds fixed cost per call shows on every workload.

The inputs depend only on the workload name and the seed.  The oracles
check outputs without rhodf's parser or reasoner: they count lines with
regular expressions, look for lines the input forces into the output,
and compare exit codes with the verdict a query was built for.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from rhodf.core import SC, SP, TYPE, BOTC, DOM, RANGE, Blank, Graph, Iri, Neg, Star, Triple
from rhodf.generators import cubic, random_graph, spchain
from rhodf.parser import serialize_triple

WORKLOADS = ("cubic-close", "spchain-model", "onto-entail", "random-batch")

# Full-size inputs of the named operations.  On a 2-core x86 box a close
# or model command takes two to three seconds and a query half a second.
CUBIC_N = 24
SPCHAIN_N = 48
ONTO_SHAPE = dict(classes=40, props=10, instances=80, edges=250, star_members=12)
BATCH_GRAPHS = 240
# Small members of each family for the operations a workload is not
# named after.
SMALL_CUBIC_MODEL_N = 6
SMALL_CUBIC_ENTAIL_N = 8
SMALL_CUBIC_BATCH_N = 4
SMALL_SPCHAIN_CLOSE_N = 20
SMALL_SPCHAIN_ENTAIL_N = 16
SMALL_SPCHAIN_BATCH_N = 8
MEDIUM_ONTO_SHAPE = dict(classes=15, props=5, instances=30, edges=100, star_members=6)
SMALL_ONTO_SHAPE = dict(classes=6, props=3, instances=5, edges=8, star_members=2)
SMALL_BATCH_GRAPHS = 60
QUERIES = 60
RANDOM_POOL = 10
RANDOM_ENTAIL_GRAPHS = 4

Oracle = Callable[[str], Optional[str]]
"""Takes a command's standard output; returns None or what is wrong."""


@dataclass
class Command:
    """One ``rhodf`` invocation: its arguments, expected exit code and oracle."""

    op: str
    args: List[str]
    expect_code: int
    oracle: Oracle


@dataclass
class Plan:
    """The generated inputs of one workload and seed."""

    primary: str
    files: Dict[str, str] = field(default_factory=dict)
    ops: Dict[str, List[Command]] = field(default_factory=dict)
    batch: List[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------

_CUBIC_CLOSE = re.compile(r"^a(\d+) p(\d+) a(\d+) \.$", re.M)
_CUBIC_MODEL = re.compile(r"^P\+ p(\d+) a(\d+) a(\d+)$", re.M)
_SPCHAIN_CLOSE = re.compile(r"^p(\d+) sp p(\d+) \.$", re.M)
_SPCHAIN_MODEL = re.compile(r"^P\+ sp p(\d+) p(\d+)$", re.M)


def _cube_count(pattern: re.Pattern, n: int) -> Oracle:
    def check(out: str) -> Optional[str]:
        found = pattern.findall(out)
        distinct = {m for m in found if all(1 <= int(x) <= n for x in m)}
        if len(found) != n**3 or len(distinct) != n**3:
            return f"expected {n**3} distinct a_i p_k a_j lines, found {len(found)} ({len(distinct)} distinct)"
        return None

    return check


def _chain_count(pattern: re.Pattern, n: int) -> Oracle:
    want = n * (n - 1) // 2

    def check(out: str) -> Optional[str]:
        found = {(int(i), int(j)) for i, j in pattern.findall(out)}
        up = {(i, j) for i, j in found if 1 <= i < j <= n}
        down = found - up - {(i, i) for i in range(1, n + 1)}
        if len(up) != want or down:
            return f"expected {want} sp pairs p_i p_j with i<j and none other, found {len(up)} and {len(down)} other"
        return None

    return check


def _has_lines(lines: Sequence[str]) -> Oracle:
    def check(out: str) -> Optional[str]:
        present = set(out.splitlines())
        missing = [line for line in lines if line not in present]
        if missing:
            return f"{len(missing)} required lines missing, first {missing[0]!r}"
        return None

    return check


def _satisfiable(then: Optional[Oracle] = None) -> Oracle:
    def check(out: str) -> Optional[str]:
        lines = out.rstrip("\n").splitlines()
        if not lines or lines[-1] != "satisfiable":
            return "model output does not end with 'satisfiable'"
        return then(out) if then else None

    return check


def _ends_with_map_rule(out: str) -> Optional[str]:
    lines = out.rstrip("\n").splitlines()
    if not lines or " by rule 1a " not in lines[-1] + " ":
        return "proof of a blank query does not end in a rule 1a step"
    return None


def _no_check(out: str) -> Optional[str]:
    return None


def cubic_close_oracle(n: int) -> Oracle:
    return _cube_count(_CUBIC_CLOSE, n)


def cubic_model_oracle(n: int) -> Oracle:
    return _satisfiable(_cube_count(_CUBIC_MODEL, n))


def spchain_close_oracle(n: int) -> Oracle:
    return _chain_count(_SPCHAIN_CLOSE, n)


def spchain_model_oracle(n: int) -> Oracle:
    return _satisfiable(_chain_count(_SPCHAIN_MODEL, n))


def entail_oracle(proof_of_blank_query: bool) -> Oracle:
    return _ends_with_map_rule if proof_of_blank_query else _no_check


def batch_oracle(report) -> Optional[str]:
    """Criterion 5: the canonical model satisfies the closure."""
    if not report.satisfied:
        return f"canonical model violates its closure: {report.violations[0]}"
    return None


# ---------------------------------------------------------------------------
# Graph text and query mixes
# ---------------------------------------------------------------------------


def graph_text(g: Graph, rng: random.Random) -> str:
    """The graph one triple per line, in a seeded order."""
    lines = [serialize_triple(t) + "\n" for t in g]
    lines.sort()
    rng.shuffle(lines)
    return "".join(lines)


def _walk(edges: Sequence[Triple], rng: random.Random, hops: int) -> List[Triple]:
    by_subject: Dict[object, List[Triple]] = {}
    for e in edges:
        by_subject.setdefault(e.s, []).append(e)
    for _ in range(20):
        path = [rng.choice(edges)]
        while len(path) < hops and by_subject.get(path[-1].o):
            path.append(rng.choice(by_subject[path[-1].o]))
        if len(path) >= 2:
            return path
    return path


def _blank_inner(path: Sequence[Triple]) -> List[Triple]:
    """The walk with every node but the two ends replaced by a blank."""
    ends = {path[0].s, path[-1].o}
    names: Dict[object, Blank] = {}

    def term(x):
        if x in ends:
            return x
        return names.setdefault(x, Blank(f"w{len(names) + 1}"))

    return [Triple(term(t.s), t.p, term(t.o)) for t in path]


def query_mix(
    edges: Sequence[Triple], typings: Sequence[Triple], rng: random.Random, count: int
) -> List[Tuple[List[Triple], int, bool]]:
    """A seeded mix of (query triples, expected exit code, --proof).

    ``edges`` and ``typings`` must be ground, star-free triples the graph
    entails.
    Ground and typing queries are entailed, walks of 2-6 hops with their
    inner nodes blanked are entailed, and walks or triples re-pointed at
    a term absent from the graph are not.  One query in four asks for a
    proof.
    """
    queries = []
    for k in range(count):
        kind = rng.choice(("ground", "walk", "walk", "typing", "absent-walk", "absent-ground"))
        if kind == "typing" and not typings:
            kind = "ground"
        if kind == "ground":
            q, code = [rng.choice(edges)], 0
        elif kind == "typing":
            q, code = [rng.choice(typings)], 0
        elif kind == "absent-ground":
            e = rng.choice(edges)
            q, code = [Triple(e.s, e.p, Iri(f"absent{k}"))], 1
        else:
            q = _blank_inner(_walk(edges, rng, rng.randint(2, 6)))
            code = 0
            if kind == "absent-walk":
                last = q[-1]
                q[-1] = Triple(last.s, last.p, Iri(f"absent{k}"))
                code = 1
        queries.append((q, code, rng.random() < 0.25))
    return queries


def _entail_commands(plan: Plan, graph_file: str, edges, typings, rng: random.Random, count: int = QUERIES) -> List[Command]:
    cmds = []
    for q, code, proof in query_mix(edges, typings, rng, count):
        name = f"{graph_file[:-4]}-q{len(cmds):02d}.rnt"
        plan.files[name] = "".join(serialize_triple(t) + "\n" for t in q)
        blank = any(isinstance(x, Blank) for t in q for x in (t.s, t.o))
        args = [graph_file, name] + (["--proof"] if proof else [])
        cmds.append(Command("entail", args, code, entail_oracle(proof and blank and code == 0)))
    return cmds


def _add_graph(plan: Plan, op: str, name: str, text: str, oracle: Oracle) -> None:
    plan.files[name] = text
    plan.ops.setdefault(op, []).append(Command(op, [name], 0, oracle))


# ---------------------------------------------------------------------------
# Families
# ---------------------------------------------------------------------------


def _cubic_edges(n: int, rng: random.Random, count: int = 400) -> List[Triple]:
    a = [Iri(f"a{i}") for i in range(1, n + 1)]
    p = [Iri(f"p{i}") for i in range(1, n + 1)]
    return [Triple(rng.choice(a), rng.choice(p), rng.choice(a)) for _ in range(count)]


def _chain_edges(n: int) -> List[Triple]:
    p = [Iri(f"p{i}") for i in range(1, n + 1)]
    return [Triple(p[i], SP, p[j]) for i in range(n) for j in range(i + 1, n)]


def ontology(shape: random.Random, names: random.Random, classes: int, props: int, instances: int, edges: int, star_members: int):
    """A graph shaped like the negative medical fixture.

    Class and property trees, dom/range on every property, typed
    instances, property edges, one ``cdisj`` pair between two leaves of
    different subtrees, negated edges and resources, and a star triple.
    The star's class is a leaf with exactly ``star_members`` members.
    ``shape`` draws the structure and ``names`` the labels, so callers
    that fix the first get graphs of equal cost that differ by seed.
    Returns the graph, the property edges it states and every ``type``
    fact implied by the class tree.
    """
    rng = shape
    cls = [Iri(f"cls{i}") for i in names.sample(range(classes), classes)]
    prop = [Iri(f"prop{i}") for i in names.sample(range(props), props)]
    ind = [Iri(f"ind{i}") for i in names.sample(range(instances), instances)]
    star = classes - 1  # no class has a higher index, so no class is below it
    cparent = {i: rng.randrange(i) for i in range(1, classes)}
    pparent = {i: rng.randrange(i) for i in range(1, props)}

    def ancestors(i: int) -> List[int]:
        out = [i]
        while out[-1] in cparent:
            out.append(cparent[out[-1]])
        return out

    # The disjoint pair are leaves in different subtrees that no dom or
    # range names, so negative typing stays linear in the instances
    # instead of meeting every edge of a property through rules 4c/4d.
    leaves = [i for i in range(star) if i not in cparent.values()]
    a = rng.choice(leaves)
    b = rng.choice([j for j in leaves if not set(ancestors(a)[:-1]) & set(ancestors(j)[:-1])] or leaves)
    targets = [i for i in range(star) if i not in (a, b)]
    triples = [Triple(cls[i], SC, cls[j]) for i, j in cparent.items()]
    triples += [Triple(prop[i], SP, prop[j]) for i, j in pparent.items()]
    for p in prop:
        triples.append(Triple(p, DOM, cls[rng.choice(targets)]))
        triples.append(Triple(p, RANGE, cls[rng.choice(targets)]))
    home = [(x, rng.randrange(star)) for x in ind]
    home += [(x, star) for x in rng.sample(ind, star_members)]
    triples += [Triple(x, TYPE, cls[c]) for x, c in home]
    stated = [Triple(rng.choice(ind), rng.choice(prop), rng.choice(ind)) for _ in range(edges)]
    triples += stated
    triples.append(Triple(cls[a], BOTC, cls[b]))
    for _ in range(max(1, edges // 10)):
        triples.append(Triple(rng.choice(ind), Neg(rng.choice(prop)), rng.choice(ind)))
    # Negated resources below their own parents, as in the fixture's
    # "!hasDrugTreatment sp hasTreatment".
    c = rng.choice(leaves)
    triples.append(Triple(Neg(cls[c]), SC, cls[cparent[c]]))
    p = rng.randrange(1, props)
    triples.append(Triple(Neg(prop[p]), SP, prop[pparent[p]]))
    triples.append(Triple(Neg(prop[0]), DOM, cls[rng.choice(targets)]))
    triples.append(Triple(rng.choice(ind), Neg(prop[0]), Star(cls[star])))
    typings = sorted({Triple(x, TYPE, cls[j]) for x, c in home for j in ancestors(c)}, key=serialize_triple)
    return Graph(triples), stated, typings


def _typing_lines(typings: Sequence[Triple]) -> Tuple[List[str], List[str]]:
    close = [serialize_triple(t) for t in typings]
    model = [f"C+ {t.o.name} {t.s.name}" for t in typings]
    return close, model


def _random_batch_graph(rng: random.Random) -> Graph:
    return random_graph(rng, max_triples=40, max_terms=12, salt_contradiction=rng.random() < 0.25)


def _random_star_free(rng: random.Random, salt: bool = False) -> Graph:
    """A star-free random graph with at least ten triples.

    About one random graph in two hundred has a closure that takes
    seconds, always through star triples, while star-free closures stay
    quadratic; a command's latency and memory must not hang on drawing
    one.  The batch keeps the stars.
    """
    while True:
        g = random_graph(rng, max_triples=40, max_terms=12, allow_star=False, salt_contradiction=salt)
        if len(g) >= 10:
            return g


def build(workload: str, seed: int) -> Plan:
    """Generate every input of ``workload`` for ``seed``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}/{seed}")
    # The batches of the structured families cost the same for every
    # seed: one size in seeded line orders, or a fixed set of ontology
    # structures.  With a mix of sizes the throughput would depend on
    # where in the pool the run stops.
    pool = list(range(SMALL_BATCH_GRAPHS))
    if workload == "cubic-close":
        plan = Plan("close")
        n = CUBIC_N
        _add_graph(plan, "close", "close.rnt", graph_text(cubic(n), rng), cubic_close_oracle(n))
        m = SMALL_CUBIC_MODEL_N
        _add_graph(plan, "model", "model.rnt", graph_text(cubic(m), rng), cubic_model_oracle(m))
        e = SMALL_CUBIC_ENTAIL_N
        plan.files["entail.rnt"] = graph_text(cubic(e), rng)
        typings = [Triple(Iri(f"a{i}"), TYPE, Iri("c")) for i in range(1, e + 1)]
        plan.ops["entail"] = _entail_commands(plan, "entail.rnt", _cubic_edges(e, rng), typings, rng)
        plan.batch = [graph_text(cubic(SMALL_CUBIC_BATCH_N), rng) for _ in pool]
    elif workload == "spchain-model":
        plan = Plan("model")
        n = SPCHAIN_N
        _add_graph(plan, "model", "model.rnt", graph_text(spchain(n), rng), spchain_model_oracle(n))
        c = SMALL_SPCHAIN_CLOSE_N
        _add_graph(plan, "close", "close.rnt", graph_text(spchain(c), rng), spchain_close_oracle(c))
        e = SMALL_SPCHAIN_ENTAIL_N
        plan.files["entail.rnt"] = graph_text(spchain(e), rng)
        plan.ops["entail"] = _entail_commands(plan, "entail.rnt", _chain_edges(e), [], rng)
        plan.batch = [graph_text(spchain(SMALL_SPCHAIN_BATCH_N), rng) for _ in pool]
    elif workload == "onto-entail":
        # One structure per shape, relabelled by the seed: the closure
        # size differs by about 15% between random structures of a shape.
        plan = Plan("entail")
        g, stated, typings = ontology(random.Random("ontology"), rng, **ONTO_SHAPE)
        plan.files["onto.rnt"] = graph_text(g, rng)
        plan.ops["entail"] = _entail_commands(plan, "onto.rnt", stated, typings, rng)
        g, _, typings = ontology(random.Random("ontology/medium"), rng, **MEDIUM_ONTO_SHAPE)
        text = graph_text(g, rng)
        plan.files["medium.rnt"] = text
        close_lines, model_lines = _typing_lines(typings)
        plan.ops["close"] = [Command("close", ["medium.rnt"], 0, _has_lines(text.splitlines() + close_lines))]
        plan.ops["model"] = [Command("model", ["medium.rnt"], 0, _satisfiable(_has_lines(model_lines)))]
        rng.shuffle(pool)
        plan.batch = [graph_text(ontology(random.Random(f"ontology/small/{k}"), rng, **SMALL_ONTO_SHAPE)[0], rng) for k in pool]
    else:
        # The graphs are drawn once, from a fixed generator, and the seed
        # draws their order, their line order and the queries.  Random
        # graphs differ in cost by orders of magnitude: pools drawn per
        # seed differed in mean cost by about 15%, so the spread across
        # seeds measured the draw, not the machine.
        shape = random.Random("random-batch/graphs")
        plan = Plan("batch")
        batch = [_random_batch_graph(shape) for _ in range(BATCH_GRAPHS)]
        rng.shuffle(batch)
        plan.batch = [graph_text(g, rng) for g in batch]
        # Pools of graphs, cycled, so no single graph sets a command's
        # latency.
        closes = [_random_star_free(shape) for _ in range(RANDOM_POOL)]
        models = [_random_star_free(shape, salt=True) for _ in range(RANDOM_POOL)]
        rng.shuffle(closes)
        rng.shuffle(models)
        for k, (c, m) in enumerate(zip(closes, models)):
            text = graph_text(c, rng)
            _add_graph(plan, "close", f"close{k}.rnt", text, _has_lines(text.splitlines()))
            _add_graph(plan, "model", f"model{k}.rnt", graph_text(m, rng), _satisfiable())
        per_graph = []
        for k in range(RANDOM_ENTAIL_GRAPHS):
            g = _random_star_free(shape)
            plan.files[f"entail{k}.rnt"] = graph_text(g, rng)
            stated = sorted(g, key=serialize_triple)
            typings = [t for t in stated if t.p == TYPE]
            per_graph.append(_entail_commands(plan, f"entail{k}.rnt", stated, typings, rng, QUERIES // RANDOM_ENTAIL_GRAPHS))
        plan.ops["entail"] = [cmd for group in zip(*per_graph) for cmd in group]
    return plan
