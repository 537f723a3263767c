"""Rule instantiation and fixpoint closure.

Two rule sets are supported.  The ``rdf`` mode applies the classic RDFS
rules (subproperty and subclass transitivity, predicate lifting, typing
by domain and range, and the implicit-typing variants 5a/5b), treating
negated, star and disjointness triples as ordinary statements.  The
``full`` mode adds the rules for negation (contrapositives 2c/3c, the
negative typing rules 4c/4d), for star terms (2d/2e, 3d/3e, 4e-4h) and
for disjointness (6a-6e, 7a-7e, 8a/8b).

A rule instance fires only when every premise and the conclusion are
valid triples after meta-variable replacement; instances that would need
to negate a blank node or build a malformed triple are silently skipped.

The closure engine is a deterministic semi-naive fixpoint: each round
only matches instantiations touching triples derived in the previous
round, rules fire in ascending :class:`RuleId` order, and triples keep
first-insertion order.  The first derivation of every new triple is
recorded for proof extraction.

Rules join over integers.  A :class:`TermTable` gives every term a dense
id and answers, per id, what the rules ask of a term: its complement,
its star, a star's subscript and the validity flags.  The index, the
rounds' deltas and the matchers hold ``(s, p, o)`` id tuples, and a
candidate is deduplicated and validated as such.  The engine builds no
:class:`Triple`: the closure's :class:`~rhodf.core.Graph` keeps the id
triples with the term table and builds its triples, unchecked, only
when something first iterates, compares or hashes it; its length,
membership and serialization answer from the ids.  The index keeps the
id triples by predicate, by subject and predicate, by predicate and
object, and by star subscript.  Each round is one record, its delta:
the new triples by predicate and by star position, and what rules 6c/7c
read.  Every matcher takes the index and the delta, ``(ix, dx)``, and
reads the term table as ``ix.table``.

Rules 6c/7c have a free conclusion variable, which ranges over the class
and property terms recognized in the current partial closure: those
that each round's delta names in the positions :data:`_RECOGNIZED`
lists, as predicates and as star subscripts.  The round's delta lists
them, sorted, only while a self-disjointness statement needs them.

Rules 2b/3b lift instances up the ``sp``/``sc`` hierarchies and 6b/7b
push disjointness down them, one hierarchy edge at a time.  While the
transitivity rule of the hierarchy runs (2a for 2b and 7b, 3a for 3b
and 6b), a lifting rule lifts only its *roots*, the triples it did not
derive itself.  Nothing is lost: if ``t'`` came from ``t`` along the
edge ``(A h B)``, lifting ``t'`` along the next edge ``(B h C)`` gives
what lifting ``t`` along ``(A h C)`` gives, and the transitivity rule
derives ``(A h C)``, a valid triple since ``A`` and ``C`` are neither
reserved nor stars.  Without the transitivity rule, every triple is a
root.  Rules 2d/2e list a subset of what 2b lists, so they do not run
when 2b does; they still count in the stats, with 0.

The closure keeps the rule and premise id triples of each derived
triple, and :attr:`ClosureResult.provenance` builds a :class:`ProofStep`
of triples from each when it is first read.  It also keeps the engine's
index and term table, which :func:`~rhodf.entailment.entails` and
:func:`~rhodf.semantics.canonical_model` read instead of encoding the
closure again.

Each mirrored pair of rules comes from one matcher factory, closed over
a predicate id or a triple position (2 = object, 0 = subject); rules 2b
and 3b have no mirror and are written out.
"""

from __future__ import annotations

import itertools
import time
from enum import Enum
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from .core import (
    BOTC,
    BOTP,
    DOM,
    RANGE,
    SC,
    SP,
    TYPE,
    Graph,
    Iri,
    Neg,
    Record,
    Star,
    Term,
    Triple,
    VariableMap,
    _IdGraph,
    _Memo,
    _trusted_triple,
    try_negate,
)


class RuleId(Enum):
    """Identifiers of the deductive rules, in canonical firing order."""

    R1A = "1a"
    R1B = "1b"
    R2A = "2a"
    R2B = "2b"
    R2C = "2c"
    R2D = "2d"
    R2E = "2e"
    R3A = "3a"
    R3B = "3b"
    R3C = "3c"
    R3D = "3d"
    R3E = "3e"
    R4A = "4a"
    R4B = "4b"
    R4C = "4c"
    R4D = "4d"
    R4E = "4e"
    R4F = "4f"
    R4G = "4g"
    R4H = "4h"
    R5A = "5a"
    R5B = "5b"
    R6A = "6a"
    R6B = "6b"
    R6C = "6c"
    R6D = "6d"
    R6E = "6e"
    R7A = "7a"
    R7B = "7b"
    R7C = "7c"
    R7D = "7d"
    R7E = "7e"
    R8A = "8a"
    R8B = "8b"

    def __str__(self) -> str:
        return self.value


#: Rules admitted in rdf mode (1a via entailment, 1b implicitly).
RDF_RULE_IDS: FrozenSet[RuleId] = frozenset(
    {
        RuleId.R1A,
        RuleId.R1B,
        RuleId.R2A,
        RuleId.R2B,
        RuleId.R3A,
        RuleId.R3B,
        RuleId.R4A,
        RuleId.R4B,
        RuleId.R5A,
        RuleId.R5B,
    }
)

#: All rules.
FULL_RULE_IDS: FrozenSet[RuleId] = frozenset(RuleId)

MODE_RULE_IDS: Mapping[str, FrozenSet[RuleId]] = {
    "rdf": RDF_RULE_IDS,
    "full": FULL_RULE_IDS,
}


class ProofStep(Record):
    """One derivation step.

    ``conclusion`` is the derived triple, except for the map rule 1a
    where it is ``None`` and ``map`` carries the blank-node substitution
    whose application to ``targets`` yields the listed premises.
    Rule 1b steps introduce input triples and have no premises.
    """

    __slots__ = ("rule", "premises", "conclusion", "map", "targets")

    def __init__(
        self,
        rule: RuleId,
        premises: Tuple[Triple, ...],
        conclusion: Optional[Triple],
        map: Optional[VariableMap] = None,
        targets: Tuple[Triple, ...] = (),
    ) -> None:
        object.__setattr__(self, "rule", rule)
        object.__setattr__(self, "premises", premises)
        object.__setattr__(self, "conclusion", conclusion)
        object.__setattr__(self, "map", map)
        object.__setattr__(self, "targets", targets)

    def _fields(self) -> tuple:
        return (self.rule, self.premises, self.conclusion, self.map, self.targets)


class ClosureStats(Record):
    """Counters of one closure run: ``round_deltas`` are the new triples
    of each round, ``rule_candidates`` the instantiations each rule
    listed, and ``rule_fire_counts`` those that added a triple."""

    __slots__ = ("iterations", "rule_fire_counts", "input_size", "output_size", "elapsed_s", "round_deltas", "rule_candidates")

    def __init__(
        self,
        iterations: int,
        rule_fire_counts: Mapping[str, int],
        input_size: int,
        output_size: int,
        elapsed_s: float,
        round_deltas: Tuple[int, ...],
        rule_candidates: Mapping[str, int],
    ) -> None:
        self._init(iterations, rule_fire_counts, input_size, output_size, elapsed_s, round_deltas, rule_candidates)


class ClosureResult(Record):
    """Closure graph plus provenance and domain bookkeeping.

    :func:`closure` gives a ``closure`` graph of the engine's id triples,
    which builds its :class:`Triple` values on first use.
    ``provenance`` maps each derived (non-input) triple to the first
    :class:`ProofStep` that produced it.  :func:`closure` passes
    ``None`` for it and, as ``_steps``, the rule and id premises of each
    derived triple in closure order: the mapping is then built on first
    read, so a caller that never reads it never builds its steps.
    ``_index`` is the engine's :class:`TripleIndex` of the closure, with
    its :class:`TermTable`, or ``None``; like ``_steps``, it is not a field.
    """

    __slots__ = ("closure", "provenance", "class_terms", "property_terms", "stats", "_steps", "_index")

    def __init__(
        self,
        closure: Graph,
        provenance: Optional[Mapping[Triple, ProofStep]],
        class_terms: FrozenSet[Term],
        property_terms: FrozenSet[Term],
        stats: ClosureStats,
        _steps: Sequence[Tuple[RuleId, Tuple[IdTriple, ...]]] = (),
        _index: Optional[TripleIndex] = None,
    ) -> None:
        self._init(closure, provenance, class_terms, property_terms, stats)
        object.__setattr__(self, "_steps", _steps)
        object.__setattr__(self, "_index", _index)
        if provenance is None:
            object.__delattr__(self, "provenance")

    def __getattr__(self, name: str) -> object:
        # Reached only for an unset slot: build ``provenance`` once.
        if name != "provenance":
            raise AttributeError(name)
        derived = self._derived().items() if self._steps else ()
        provenance = {t: ProofStep(rule, premises, t) for t, (rule, premises) in derived}
        object.__setattr__(self, "provenance", provenance)
        object.__setattr__(self, "_steps", ())
        return provenance

    def _derived(self) -> Union[_Derived, Dict[Triple, Tuple[RuleId, Tuple[Triple, ...]]]]:
        """The rule and premises of each derived triple, in closure order,
        by ``get`` or ``items`` as of a dict; no step is built."""
        if not self._steps:
            return {t: (step.rule, step.premises) for t, step in self.provenance.items()}
        return _Derived(self.closure, self._steps, self._index.table)


class _Derived:
    """The rule and premises of each derived triple, read off the engine's
    id steps.  A triple is built when a lookup or the listing reaches it,
    once per id triple, so a proof builds only its own."""

    def __init__(self, graph: _IdGraph, steps: Sequence[Tuple[RuleId, Tuple[IdTriple, ...]]], table: TermTable) -> None:
        self.graph, keys = graph, graph._keys
        self.steps = dict(zip(itertools.islice(keys, len(keys) - len(steps), None), steps))
        self.ids, terms = table.ids, table.terms
        self.triple = _Memo(lambda k: _trusted_triple(terms[k[0]], terms[k[1]], terms[k[2]]))

    def _decode(self, step: Tuple[RuleId, Tuple[IdTriple, ...]]) -> Tuple[RuleId, Tuple[Triple, ...]]:
        rule, premises = step
        return rule, tuple(map(self.triple.__getitem__, premises))

    def get(self, t: Triple, default: object = None) -> object:
        ids = self.ids
        step = self.steps.get((ids.get(t.s), ids.get(t.p), ids.get(t.o)))
        return default if step is None else self._decode(step)

    def items(self) -> Iterator[Tuple[Triple, Tuple[RuleId, Tuple[Triple, ...]]]]:
        # The listing reaches every triple, so it shares the graph's.
        self.triple.update(zip(self.graph._keys, self.graph.triples()))
        return ((self.triple[k], self._decode(step)) for k, step in self.steps.items())


class ClosureCapError(RuntimeError):
    """The closure grew past the configured triple cap."""

    def __init__(self, cap: int, size: int):
        super().__init__(f"closure exceeded the cap of {cap} triples (reached {size})")
        self.cap = cap
        self.size = size


def default_cap(input_size: int) -> int:
    return 10 * input_size**3 + 1000


# ---------------------------------------------------------------------------
# Term ids
# ---------------------------------------------------------------------------

IdTriple = Tuple[int, int, int]

# The reserved names take the first seven ids, so ``x < 7`` tests
# whether a term is reserved.
_SP, _SC, _TYPE, _DOM, _RANGE, _BOTC, _BOTP = range(7)


class TermTable:
    """Dense integer ids for terms, assigned on first sight.

    Per id: ``neg`` is the complement (:func:`~rhodf.core.try_negate`),
    ``fresh`` the complement of a plain resource only, ``star`` the star
    term over it, ``sub`` a star's subscript (each an id, or -1 where
    there is none) and ``pred`` whether it is an IRI or a negated IRI.
    Interning a term interns its complement and its star too, so these
    lists answer every rule without building a term.
    """

    __slots__ = ("ids", "terms", "neg", "fresh", "star", "sub", "pred")

    def __init__(self) -> None:
        self.ids: Dict[Term, int] = {}
        self.terms: List[Term] = []
        self.neg: List[int] = []
        self.fresh: List[int] = []
        self.star: List[int] = []
        self.sub: List[int] = []
        self.pred: List[bool] = []
        for t in (SP, SC, TYPE, DOM, RANGE, BOTC, BOTP):
            self.intern(t)

    def intern(self, t: Term) -> int:
        i = self.ids.get(t)
        if i is not None:
            return i
        i = self.ids[t] = len(self.terms)
        self.terms.append(t)
        for column in (self.neg, self.fresh, self.star, self.sub):
            column.append(-1)
        self.pred.append(isinstance(t, (Iri, Neg)))
        if isinstance(t, Star):
            self.sub[i] = self.intern(t.cls)
        elif (mate := try_negate(t)) is not None:
            self.neg[i] = self.intern(mate)
            if isinstance(t, Iri):
                self.fresh[i] = self.neg[i]
            self.star[i] = self.intern(Star(t))
        return i

    def encode(self, t: Triple) -> IdTriple:
        return (self.intern(t.s), self.intern(t.p), self.intern(t.o))

    def valid(self, s: int, p: int, o: int) -> bool:
        """The four conditions of :func:`~rhodf.core.validate_triple`."""
        stars = (self.sub[s] >= 0) + (self.sub[o] >= 0)
        return s > 6 and o > 6 and self.pred[p] and (stars == 0 or (stars == 1 and p > 6))


# ---------------------------------------------------------------------------
# Triple index
# ---------------------------------------------------------------------------


class TripleIndex:
    """``(s, p, o)`` id triples of one :class:`TermTable`, keyed by
    predicate and by pair.

    ``by_pred[p]``, ``by_sp[(s, p)]`` and ``by_po[(p, o)]`` list the
    matching id triples in insertion order, so ``by_sp[(x, _SP)]`` are
    the subproperty statements of ``x`` and ``by_po[(_TYPE, c)]`` the
    typings into ``c``.  ``star_by_sub[pos][c]`` lists the triples with
    a star over ``c`` at position ``pos``, 2 for the object and 0 for
    the subject.  It keeps no :class:`Triple`.  :class:`ClosureResult`
    keeps the engine's; :func:`~rhodf.entailment.find_map` builds one.

    ``root_by_pred``, ``root_by_po`` and ``root_by_sp`` are keyed as
    their full twins and list the roots given to :meth:`add_root`, in
    the buckets the lifting rules read: triples with a non-reserved
    predicate by predicate (2b), typings by class (3b) and ``cdisj`` or
    ``pdisj`` statements by subject (6b, 7b).
    """

    __slots__ = (
        "table",
        "by_pred",
        "by_sp",
        "by_po",
        "star_by_sub",
        "root_by_pred",
        "root_by_po",
        "root_by_sp",
    )

    def __init__(self, table: TermTable, triples: Iterable[IdTriple] = ()):
        self.table = table
        self.by_pred: Dict[int, List[IdTriple]] = {}
        self.by_sp: Dict[Tuple[int, int], List[IdTriple]] = {}
        self.by_po: Dict[Tuple[int, int], List[IdTriple]] = {}
        self.star_by_sub: Dict[int, Dict[int, List[IdTriple]]] = {2: {}, 0: {}}
        self.root_by_pred: Dict[int, List[IdTriple]] = {}
        self.root_by_po: Dict[Tuple[int, int], List[IdTriple]] = {}
        self.root_by_sp: Dict[Tuple[int, int], List[IdTriple]] = {}
        for t in triples:
            self.add(t)

    def add(self, t: IdTriple) -> None:
        s, p, o = t
        sub = self.table.sub
        self.by_pred.setdefault(p, []).append(t)
        self.by_sp.setdefault((s, p), []).append(t)
        self.by_po.setdefault((p, o), []).append(t)
        for pos in (2, 0):
            c = sub[t[pos]]
            if c >= 0:
                self.star_by_sub[pos].setdefault(c, []).append(t)

    def add_root(self, t: IdTriple) -> None:
        """Let the lifting rules lift ``t``, already added."""
        s, p, o = t
        if p > 6:
            self.root_by_pred.setdefault(p, []).append(t)
        elif p == _TYPE:
            self.root_by_po.setdefault((p, o), []).append(t)
        elif p == _BOTC or p == _BOTP:
            self.root_by_sp.setdefault((s, p), []).append(t)


class _Delta:
    """One round: its new triples in the buckets the matchers read from
    their delta side, all of them, by predicate and by star position
    (2 = object, 0 = subject), and the roots among them, all and by
    predicate.  The pair buckets of a full index would go unused here.

    The free-variable rules 6c/7c read the rest, each keyed by ``_BOTC``
    or ``_BOTP``, which :meth:`_Engine.start_round` fills in: the class
    or property ``terms``, the ``new_terms`` this round names, and the
    self-disjointness statements of this round and of earlier rounds."""

    __slots__ = ("all", "by_pred", "star", "roots", "root_by_pred", "terms", "new_terms", "self_delta", "self_old")

    def __init__(self, triples: List[IdTriple], roots: List[IdTriple], table: TermTable):
        self.all = triples
        self.by_pred: Dict[int, List[IdTriple]] = {}
        self.star: Dict[int, List[IdTriple]] = {2: [], 0: []}
        for t in triples:
            self.by_pred.setdefault(t[1], []).append(t)
            for pos in (2, 0):
                if table.sub[t[pos]] >= 0:
                    self.star[pos].append(t)
        self.roots = roots
        # ``roots`` is a subsequence of ``triples``, so equal lengths mean
        # that every new triple is a root.
        self.root_by_pred = self.by_pred
        if len(roots) != len(triples):
            self.root_by_pred = {}
            for t in roots:
                self.root_by_pred.setdefault(t[1], []).append(t)
        self.terms: Dict[int, Sequence[int]] = {}
        self.new_terms: Dict[int, Sequence[int]] = {}
        self.self_delta: Dict[int, List[IdTriple]] = {}
        self.self_old: Dict[int, List[IdTriple]] = {}


# ---------------------------------------------------------------------------
# Rule matchers
# ---------------------------------------------------------------------------

# Each matcher takes (ix, dx) and yields (premises, (s, p, o)) in ids
# for every instantiation with at least one premise in the round's
# delta `dx`; the full state, with the term table, is in `ix`.
# Candidates are validated and deduplicated by the caller, so listing
# one twice, as when the delta is the whole graph, is harmless.  Loop
# order decides closure order and provenance.  A loop over every delta
# triple runs only when the predicate of some delta triple can join,
# which is asked once per predicate of the delta, not once per triple.
#
# A mirrored family is one factory closed over a predicate id (sp or sc,
# dom or range, cdisj or pdisj) or a triple position, 2 = object and
# 0 = subject: where the star sits for the star rules, and where the
# typed term sits in the property's triple for the typing rules.

_Candidate = Tuple[Tuple[IdTriple, ...], IdTriple]
_Matcher = Callable[[TripleIndex, _Delta], Iterator[_Candidate]]


def _transitive(q: int) -> _Matcher:
    """2a, 3a: (A,q,B), (B,q,C) -> (A,q,C)."""

    def match(ix, dx):
        for t1 in dx.by_pred.get(q, ()):
            for t2 in ix.by_sp.get((t1[2], q), ()):
                yield (t1, t2), (t1[0], q, t2[2])
        for t2 in dx.by_pred.get(q, ()):
            for t1 in ix.by_po.get((q, t2[0]), ()):
                yield (t1, t2), (t1[0], q, t2[2])

    return match


def _joins(ix: TripleIndex, dx: _Delta, q: int) -> bool:
    """Whether some predicate ``p`` of the delta has a ``(p, q)`` statement."""
    return any((p, q) in ix.by_sp for p in dx.by_pred)


def _m_2b(ix, dx):
    for t1 in dx.by_pred.get(_SP, ()):
        for t2 in ix.root_by_pred.get(t1[0], ()):
            yield (t1, t2), (t2[0], t1[2], t2[2])
    for t2 in dx.roots:
        for t1 in ix.by_sp.get((t2[1], _SP), ()):
            yield (t1, t2), (t2[0], t1[2], t2[2])


def _m_3b(ix, dx):
    for t1 in dx.by_pred.get(_SC, ()):
        for t2 in ix.root_by_po.get((_TYPE, t1[0]), ()):
            yield (t1, t2), (t2[0], _TYPE, t1[2])
    for t2 in dx.root_by_pred.get(_TYPE, ()):
        for t1 in ix.by_sp.get((t2[2], _SC), ()):
            yield (t1, t2), (t2[0], _TYPE, t1[2])


def _contrapositive(q: int) -> _Matcher:
    """2c, 3c: (A,q,B) -> (!B,q,!A) for plain resources A and B."""

    def match(ix, dx):
        fresh = ix.table.fresh
        for t in dx.by_pred.get(q, ()):
            nb, na = fresh[t[2]], fresh[t[0]]
            if nb >= 0 and na >= 0:
                yield (t,), (nb, q, na)

    return match


def _star_lift(pos: int) -> _Matcher:
    """2d, 2e: (A,D,B), (D,sp,E) -> (A,E,B) with a star at ``pos``."""

    def match(ix, dx):
        for t1 in dx.star[pos]:
            for t2 in ix.by_sp.get((t1[1], _SP), ()):
                yield (t1, t2), (t1[0], t2[2], t1[2])
        sub = ix.table.sub
        for t2 in dx.by_pred.get(_SP, ()):
            for t1 in ix.by_pred.get(t2[0], ()):
                if sub[t1[pos]] >= 0:
                    yield (t1, t2), (t1[0], t2[2], t1[2])

    return match


def _star_sc(pos: int) -> _Matcher:
    """3d, 3e: (C,sc,B) turns a star over B at ``pos`` into *C, as (A,D,*B) -> (A,D,*C)."""

    def match(ix, dx):
        star, sub = ix.table.star, ix.table.sub
        for t1 in dx.star[pos]:
            for t2 in ix.by_po.get((_SC, sub[t1[pos]]), ()):
                st = star[t2[0]]
                if st >= 0:
                    yield (t1, t2), ((t1[0], t1[1], st) if pos == 2 else (st, t1[1], t1[2]))
        starred = ix.star_by_sub[pos]
        for t2 in dx.by_pred.get(_SC, ()):
            for t1 in starred.get(t2[2], ()):
                st = star[t2[0]]
                if st >= 0:
                    yield (t1, t2), ((t1[0], t1[1], st) if pos == 2 else (st, t1[1], t1[2]))

    return match


def _typing(q: int, pos: int) -> _Matcher:
    """4a, 4b: (D,q,B), (X,D,Y) -> (Z,type,B), Z at ``pos`` of (X,D,Y)."""

    def match(ix, dx):
        for t1 in dx.by_pred.get(q, ()):
            for t2 in ix.by_pred.get(t1[0], ()):
                yield (t1, t2), (t2[pos], _TYPE, t1[2])
        if _joins(ix, dx, q):
            for t2 in dx.all:
                for t1 in ix.by_sp.get((t2[1], q), ()):
                    yield (t1, t2), (t2[pos], _TYPE, t1[2])

    return match


def _neg_typing(q: int, pos: int) -> _Matcher:
    """4c, 4d: (D,q,B), (X,type,!B), (Z,D,Y) -> (X,!D,Y) or (Z,!D,X), X at ``pos``."""

    def match(ix, dx):
        neg = ix.table.neg
        for t1 in dx.by_pred.get(q, ()):
            nd, nb = neg[t1[0]], neg[t1[2]]
            if nd < 0 or nb < 0:
                continue
            for t2 in ix.by_po.get((_TYPE, nb), ()):
                for t3 in ix.by_pred.get(t1[0], ()):
                    yield (t1, t2, t3), ((t2[0], nd, t3[2]) if pos == 0 else (t3[0], nd, t2[0]))
        for t2 in dx.by_pred.get(_TYPE, ()):
            b = neg[t2[2]]
            if b < 0:
                continue
            for t1 in ix.by_po.get((q, b), ()):
                nd = neg[t1[0]]
                if nd < 0:
                    continue
                for t3 in ix.by_pred.get(t1[0], ()):
                    yield (t1, t2, t3), ((t2[0], nd, t3[2]) if pos == 0 else (t3[0], nd, t2[0]))
        if _joins(ix, dx, q):
            for t3 in dx.all:
                for t1 in ix.by_sp.get((t3[1], q), ()):
                    nd, nb = neg[t1[0]], neg[t1[2]]
                    if nd < 0 or nb < 0:
                        continue
                    for t2 in ix.by_po.get((_TYPE, nb), ()):
                        yield (t1, t2, t3), ((t2[0], nd, t3[2]) if pos == 0 else (t3[0], nd, t2[0]))

    return match


def _star_type(pos: int) -> _Matcher:
    """4e, 4f: (X,type,C) puts X for a star over C at ``pos``, as (A,D,*C) -> (A,D,X)."""

    def match(ix, dx):
        sub = ix.table.sub
        for t1 in dx.star[pos]:
            for t2 in ix.by_po.get((_TYPE, sub[t1[pos]]), ()):
                yield (t1, t2), ((t1[0], t1[1], t2[0]) if pos == 2 else (t2[0], t1[1], t1[2]))
        starred = ix.star_by_sub[pos]
        for t2 in dx.by_pred.get(_TYPE, ()):
            for t1 in starred.get(t2[2], ()):
                yield (t1, t2), ((t1[0], t1[1], t2[0]) if pos == 2 else (t2[0], t1[1], t1[2]))

    return match


def _star_neg(pos: int) -> _Matcher:
    """4g: (A,D,*C), (A,!D,Y) -> (Y,type,!C); 4h: (*C,D,B), (X,!D,B) -> (X,type,!C)."""

    def match(ix, dx):
        neg, sub = ix.table.neg, ix.table.sub
        pairs = ix.by_sp if pos == 2 else ix.by_po
        for t1 in dx.star[pos]:
            nd = neg[t1[1]]
            if nd < 0:
                continue
            for t2 in pairs.get((t1[0], nd) if pos == 2 else (nd, t1[2]), ()):
                yield (t1, t2), (t2[pos], _TYPE, neg[sub[t1[pos]]])
        if any(neg[p] in ix.by_pred for p in dx.by_pred):
            for t2 in dx.all:
                nd = neg[t2[1]]
                if nd < 0:
                    continue
                for t1 in pairs.get((t2[0], nd) if pos == 2 else (nd, t2[2]), ()):
                    if sub[t1[pos]] >= 0:
                        yield (t1, t2), (t2[pos], _TYPE, neg[sub[t1[pos]]])

    return match


def _sp_typing(q: int, pos: int) -> _Matcher:
    """5a, 5b: (A,q,B), (D,sp,A), (X,D,Y) -> (Z,type,B), Z at ``pos`` of (X,D,Y)."""

    def match(ix, dx):
        for t1 in dx.by_pred.get(q, ()):
            for t2 in ix.by_po.get((_SP, t1[0]), ()):
                for t3 in ix.by_pred.get(t2[0], ()):
                    yield (t1, t2, t3), (t3[pos], _TYPE, t1[2])
        for t2 in dx.by_pred.get(_SP, ()):
            for t1 in ix.by_sp.get((t2[2], q), ()):
                for t3 in ix.by_pred.get(t2[0], ()):
                    yield (t1, t2, t3), (t3[pos], _TYPE, t1[2])
        # The index holds still during a call, so the (t1, t2) pairs of a
        # predicate are listed once, not once per delta triple using it.
        pairs = {p: [(t1, t2) for t2 in ix.by_sp.get((p, _SP), ()) for t1 in ix.by_sp.get((t2[2], q), ())] for p in dx.by_pred}
        if any(pairs.values()):
            for t3 in dx.all:
                for t1, t2 in pairs[t3[1]]:
                    yield (t1, t2, t3), (t3[pos], _TYPE, t1[2])

    return match


def _symmetric(q: int) -> _Matcher:
    """6a, 7a: (A,q,B) -> (B,q,A)."""

    def match(ix, dx):
        for t in dx.by_pred.get(q, ()):
            yield (t,), (t[2], q, t[0])

    return match


def _disjoint_below(q: int, h: int) -> _Matcher:
    """6b, 7b: (A,q,B), (C,h,A) -> (C,q,B) for the hierarchy ``h`` below ``q``."""

    def match(ix, dx):
        for t1 in dx.root_by_pred.get(q, ()):
            for t2 in ix.by_po.get((h, t1[0]), ()):
                yield (t1, t2), (t2[0], q, t1[2])
        for t2 in dx.by_pred.get(h, ()):
            for t1 in ix.root_by_sp.get((t2[2], q), ()):
                yield (t1, t2), (t2[0], q, t1[2])

    return match


def _self_disjoint(q: int) -> _Matcher:
    """6c, 7c: (A,q,A) -> (A,q,B) for every class (cdisj) or property (pdisj) term B."""

    def match(ix, dx):
        for t in dx.self_delta[q]:
            for b in dx.terms[q]:
                yield (t,), (t[0], q, b)
        for t in dx.self_old[q]:
            for b in dx.new_terms[q]:
                yield (t,), (t[0], q, b)

    return match


def _fresh(q: int, r: int) -> _Matcher:
    """6d, 6e, 7d, 7e: (A,q,B) -> (A,r,!B) for a plain resource B."""

    def match(ix, dx):
        fresh = ix.table.fresh
        for t in dx.by_pred.get(q, ()):
            nb = fresh[t[2]]
            if nb >= 0:
                yield (t,), (t[0], r, nb)

    return match


def _disjoint_typing(q: int) -> _Matcher:
    """8a, 8b: (A,q,C), (B,q,D), (C,cdisj,D) -> (A,pdisj,B)."""

    def match(ix, dx):
        for t1 in dx.by_pred.get(q, ()):
            for t3 in ix.by_sp.get((t1[2], _BOTC), ()):
                for t2 in ix.by_po.get((q, t3[2]), ()):
                    yield (t1, t2, t3), (t1[0], _BOTP, t2[0])
        for t2 in dx.by_pred.get(q, ()):
            for t3 in ix.by_po.get((_BOTC, t2[2]), ()):
                for t1 in ix.by_po.get((q, t3[0]), ()):
                    yield (t1, t2, t3), (t1[0], _BOTP, t2[0])
        for t3 in dx.by_pred.get(_BOTC, ()):
            for t1 in ix.by_po.get((q, t3[0]), ()):
                for t2 in ix.by_po.get((q, t3[2]), ()):
                    yield (t1, t2, t3), (t1[0], _BOTP, t2[0])

    return match


_MATCHERS: Dict[RuleId, _Matcher] = {
    RuleId.R2A: _transitive(_SP),
    RuleId.R2B: _m_2b,
    RuleId.R2C: _contrapositive(_SP),
    RuleId.R2D: _star_lift(2),
    RuleId.R2E: _star_lift(0),
    RuleId.R3A: _transitive(_SC),
    RuleId.R3B: _m_3b,
    RuleId.R3C: _contrapositive(_SC),
    RuleId.R3D: _star_sc(2),
    RuleId.R3E: _star_sc(0),
    RuleId.R4A: _typing(_DOM, 0),
    RuleId.R4B: _typing(_RANGE, 2),
    RuleId.R4C: _neg_typing(_DOM, 0),
    RuleId.R4D: _neg_typing(_RANGE, 2),
    RuleId.R4E: _star_type(2),
    RuleId.R4F: _star_type(0),
    RuleId.R4G: _star_neg(2),
    RuleId.R4H: _star_neg(0),
    RuleId.R5A: _sp_typing(_DOM, 0),
    RuleId.R5B: _sp_typing(_RANGE, 2),
    RuleId.R6A: _symmetric(_BOTC),
    RuleId.R6B: _disjoint_below(_BOTC, _SC),
    RuleId.R6C: _self_disjoint(_BOTC),
    RuleId.R6D: _fresh(_BOTC, _SC),
    RuleId.R6E: _fresh(_SC, _BOTC),
    RuleId.R7A: _symmetric(_BOTP),
    RuleId.R7B: _disjoint_below(_BOTP, _SP),
    RuleId.R7C: _self_disjoint(_BOTP),
    RuleId.R7D: _fresh(_BOTP, _SP),
    RuleId.R7E: _fresh(_SP, _BOTP),
    RuleId.R8A: _disjoint_typing(_DOM),
    RuleId.R8B: _disjoint_typing(_RANGE),
}

# Each lifting rule with the transitivity rule that lets it lift only
# its roots, and each rule with the rule that lists all it lists first.
_LIFTS: Dict[RuleId, RuleId] = {RuleId.R2B: RuleId.R2A, RuleId.R7B: RuleId.R2A, RuleId.R3B: RuleId.R3A, RuleId.R6B: RuleId.R3A}
_SUBSUMED: Dict[RuleId, RuleId] = {RuleId.R2D: RuleId.R2B, RuleId.R2E: RuleId.R2B}


# ---------------------------------------------------------------------------
# Closure engine
# ---------------------------------------------------------------------------

# Each reserved predicate with the domain, class (``_BOTC``) or property
# (``_BOTP``) terms, that its subject and its object name a term of, if
# any.  Predicates are property terms and star subscripts class terms.
_RECOGNIZED = (
    (_SP, _BOTP, _BOTP),
    (_SC, _BOTC, _BOTC),
    (_TYPE, None, _BOTC),
    (_DOM, _BOTP, _BOTC),
    (_RANGE, _BOTP, _BOTC),
    (_BOTC, _BOTC, _BOTC),
    (_BOTP, _BOTP, None),
)


class _Engine:
    def __init__(self, g: Graph, rule_ids: FrozenSet[RuleId], cap: int):
        self.cap = cap
        known = [r for r in RuleId if r in rule_ids and r in _MATCHERS]
        self.rules = [r for r in known if _SUBSUMED.get(r) not in rule_ids]
        # The rules whose own conclusions are not roots.
        self.lifts = {r for r in self.rules if _LIFTS.get(r) in rule_ids}
        self.table = TermTable()
        self.index = TripleIndex(self.table)
        # Every installed or pending id triple, in first-insertion order:
        # it drops rediscovered candidates and becomes the closure's graph.
        self.triples: Dict[IdTriple, None] = {}
        # The rule and premises of each derived triple, in that order.
        self.steps: List[Tuple[RuleId, Tuple[IdTriple, ...]]] = []
        self.fires: Dict[str, int] = {r.value: 0 for r in known}
        self.candidates: Dict[str, int] = dict.fromkeys(self.fires, 0)
        self.round_deltas: List[int] = []
        # The class (``_BOTC``) and property (``_BOTP``) terms of the
        # rounds so far, each set closed under single negation.
        self.domains: Dict[int, Set[int]] = {_BOTC: set(), _BOTP: set(range(7))}
        # The self-disjointness statements of the rounds so far, by
        # predicate, for 6c/7c.
        self.self_disjoint: Dict[int, List[IdTriple]] = {_BOTC: [], _BOTP: []}
        for t in g:
            key = self.table.encode(t)
            self.triples[key] = None
            self.index.add(key)
            self.index.add_root(key)
        if len(self.triples) > self.cap:
            raise ClosureCapError(self.cap, len(self.triples))

    def start_round(self, delta: List[IdTriple], roots: List[IdTriple]) -> _Delta:
        """The round over ``delta``, installed last, with its ``roots``.
        The terms the delta names join the domains, and the delta gets
        what 6c/7c read."""
        table = self.table
        dx = _Delta(delta, roots, table)
        new = {_BOTC: set(), _BOTP: set(dx.by_pred)}
        for p, *domains in _RECOGNIZED:
            for pos, q in zip((0, 2), domains):
                if q is not None:
                    new[q].update([t[pos] for t in dx.by_pred.get(p, ())])
        sub, neg = table.sub, table.neg
        for pos in (2, 0):
            new[_BOTC].update([sub[t[pos]] for t in dx.star[pos]])
        for q, xs in new.items():
            xs.update([neg[x] for x in xs if neg[x] >= 0])
            xs -= self.domains[q]
            self.domains[q] |= xs
            dx.self_old[q] = self.self_disjoint[q]
            dx.self_delta[q] = [t for t in dx.by_pred.get(q, ()) if t[0] == t[2]]
            self.self_disjoint[q] = dx.self_old[q] + dx.self_delta[q]
            # Only a self-disjointness statement reads the terms.
            dx.terms[q] = dx.new_terms[q] = ()
            if self.self_disjoint[q]:
                dx.terms[q] = sorted(self.domains[q], key=lambda x: repr(table.terms[x]))
                dx.new_terms[q] = [x for x in dx.terms[q] if x in xs]
        return dx

    def run(self) -> int:
        triples, steps = self.triples, self.steps
        valid = self.table.valid
        delta = roots = list(triples)  # the input, all installed so far
        while delta:
            dx = self.start_round(delta, roots)
            delta, roots = [], []
            for rule in self.rules:
                first = len(delta)
                listed = 0
                for listed, (premises, key) in enumerate(_MATCHERS[rule](self.index, dx), 1):
                    if key in triples or not valid(*key):
                        continue
                    if len(triples) + 1 > self.cap:
                        raise ClosureCapError(self.cap, len(triples) + 1)
                    triples[key] = None
                    steps.append((rule, premises))
                    delta.append(key)
                self.fires[rule.value] += len(delta) - first
                self.candidates[rule.value] += listed
                if rule not in self.lifts:
                    roots += delta[first:]
            for key in delta:
                self.index.add(key)
            for key in roots:
                self.index.add_root(key)
            self.round_deltas.append(len(delta))
        return len(self.round_deltas)


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def closure(
    g: Graph,
    mode: str = "full",
    *,
    cap: Optional[int] = None,
    rule_ids: Optional[FrozenSet[RuleId]] = None,
) -> ClosureResult:
    """Least fixpoint of the selected rule set over ``g``.

    ``mode`` picks the rule set (``rdf`` or ``full``); ``rule_ids``
    overrides it for experiments such as disabling rules 5a/5b.  Raises
    :class:`ClosureCapError` when the result would exceed ``cap``
    (default ``10 * len(g)**3 + 1000``).
    """
    if rule_ids is None:
        if mode not in MODE_RULE_IDS:
            raise ValueError(f"unknown mode {mode!r}")
        rule_ids = MODE_RULE_IDS[mode]
    if cap is None:
        cap = default_cap(len(g))
    if cap <= 0:
        raise ValueError("triple cap must be positive")
    start = time.perf_counter()
    engine = _Engine(g, rule_ids, cap)
    iterations = engine.run()
    elapsed = time.perf_counter() - start
    terms = engine.table.terms
    return ClosureResult(
        closure=_IdGraph(engine.triples, engine.table),
        provenance=None,
        class_terms=frozenset([terms[x] for x in engine.domains[_BOTC]]),
        property_terms=frozenset([terms[x] for x in engine.domains[_BOTP]]),
        stats=ClosureStats(
            iterations=iterations,
            rule_fire_counts=dict(engine.fires),
            input_size=len(g),
            output_size=len(engine.triples),
            elapsed_s=elapsed,
            round_deltas=tuple(engine.round_deltas),
            rule_candidates=dict(engine.candidates),
        ),
        _steps=engine.steps,
        _index=engine.index,
    )


# The function itself, for the modules that call it.  They may load after
# a caller has replaced ``closure`` in this module, as a tracer does, and
# would otherwise bind that replacement and have it run twice.
_closure = closure
