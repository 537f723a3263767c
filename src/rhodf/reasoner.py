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
Rules 6c/7c have a free conclusion variable, which ranges over the class
and property terms recognized in the current partial closure.

The closure engine is a deterministic semi-naive fixpoint: each round
only matches instantiations touching triples derived in the previous
round, rules fire in ascending :class:`RuleId` order, and triples keep
first-insertion order.  The first derivation of every new triple is
recorded for proof extraction.

Rules join over integers.  A :class:`TermTable` gives every term a dense
id and answers, per id, what the rules ask of a term: its complement,
its star, a star's subscript and the validity flags.  The index, the
rounds' deltas and the matchers hold ``(s, p, o)`` id tuples, and a
candidate is deduplicated and validated as such.  A :class:`Triple`
and its :class:`ProofStep` are built only for a candidate that passes
both, so once per closure triple, and the triple is not validated again.

The rules are mirrored pairs, and each family has one matcher factory,
closed over a predicate id or a triple position (2 = object, 0 =
subject): transitivity 2a/3a, contrapositive 2c/3c, the star rules
2d/2e, 3d/3e, 4e/4f and 4g/4h, typing 4a/4b, 4c/4d, 5a/5b and 8a/8b,
and disjointness 6a/7a, 6b/7b, 6c/7c and 6d/6e/7d/7e.  Rules 2b and 3b
have no mirror and are written out.
"""

from __future__ import annotations

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


class Domains(Record):
    """Class and property terms recognized in a graph."""

    __slots__ = ("class_terms", "property_terms")

    def __init__(self, class_terms: FrozenSet[Term], property_terms: FrozenSet[Term]) -> None:
        self._init(class_terms, property_terms)


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

    ``provenance`` maps each derived (non-input) triple to the first
    :class:`ProofStep` that produced it.
    """

    __slots__ = ("closure", "provenance", "class_terms", "property_terms", "stats")

    def __init__(
        self,
        closure: Graph,
        provenance: Mapping[Triple, ProofStep],
        class_terms: FrozenSet[Term],
        property_terms: FrozenSet[Term],
        stats: ClosureStats,
    ) -> None:
        self._init(closure, provenance, class_terms, property_terms, stats)


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
# Domain recognition
# ---------------------------------------------------------------------------


class _DomainTracker:
    """Accumulates class/property term ids triple by triple.

    Both sets are kept closed under single negation as they grow.
    """

    __slots__ = ("table", "class_terms", "property_terms")

    def __init__(self, table: TermTable) -> None:
        self.table = table
        self.class_terms: Set[int] = set()
        self.property_terms: Set[int] = set(range(7))

    def _add(self, bucket: Set[int], x: int) -> None:
        bucket.add(x)
        mate = self.table.neg[x]
        if mate >= 0:
            bucket.add(mate)

    def add_triple(self, t: IdTriple) -> None:
        s, p, o = t
        self._add(self.property_terms, p)
        if p == _SP:
            self._add(self.property_terms, s)
            self._add(self.property_terms, o)
        elif p in (_SC, _BOTC):
            self._add(self.class_terms, s)
            self._add(self.class_terms, o)
        elif p == _TYPE:
            self._add(self.class_terms, o)
        elif p in (_DOM, _RANGE):
            self._add(self.property_terms, s)
            self._add(self.class_terms, o)
        elif p == _BOTP:
            self._add(self.property_terms, s)
        for x in (s, o):
            if self.table.sub[x] >= 0:
                self._add(self.class_terms, self.table.sub[x])

    def terms(self, bucket: Set[int]) -> FrozenSet[Term]:
        return frozenset(self.table.terms[x] for x in bucket)


def recognize_domains(g: Graph) -> Domains:
    """Collect the class and property terms a graph talks about.

    Property terms: every predicate, subjects and objects of ``sp``,
    subjects of ``dom``/``range``/``pdisj``, plus the reserved
    vocabulary.  Class terms: objects of ``type``/``dom``/``range``,
    subjects and objects of ``sc``/``cdisj``, and star subscripts.  Both
    sets are closed under single negation.
    """
    table = TermTable()
    tracker = _DomainTracker(table)
    for t in g:
        tracker.add_triple(table.encode(t))
    return Domains(tracker.terms(tracker.class_terms), tracker.terms(tracker.property_terms))


# ---------------------------------------------------------------------------
# Triple index
# ---------------------------------------------------------------------------


class TripleIndex:
    """``(s, p, o)`` id triples of one :class:`TermTable`, in insertion
    order, keyed by predicate and by pair.

    ``by_pred[p]``, ``by_sp[(s, p)]`` and ``by_po[(p, o)]`` list the
    matching id triples in insertion order, so ``by_sp[(x, _SP)]`` are
    the subproperty statements of ``x`` and ``by_po[(_TYPE, c)]`` the
    typings into ``c``.  The star buckets are keyed by the position of
    the star in the triple, 2 for the object and 0 for the subject:
    ``star_by_sub[pos][c]`` lists the triples with a star over ``c``
    there, and ``star_by_pred[pos][p]`` those with predicate ``p``.  The
    closure engine and the witness search share this class; neither
    keeps a :class:`Triple` in it.
    """

    __slots__ = (
        "table",
        "all",
        "by_pred",
        "by_sp",
        "by_po",
        "star_by_sub",
        "star_by_pred",
    )

    def __init__(self, table: TermTable, triples: Iterable[IdTriple] = ()):
        self.table = table
        self.all: List[IdTriple] = []
        self.by_pred: Dict[int, List[IdTriple]] = {}
        self.by_sp: Dict[Tuple[int, int], List[IdTriple]] = {}
        self.by_po: Dict[Tuple[int, int], List[IdTriple]] = {}
        self.star_by_sub: Dict[int, Dict[int, List[IdTriple]]] = {2: {}, 0: {}}
        self.star_by_pred: Dict[int, Dict[int, List[IdTriple]]] = {2: {}, 0: {}}
        for t in triples:
            self.add(t)

    def add(self, t: IdTriple) -> None:
        s, p, o = t
        sub = self.table.sub
        self.all.append(t)
        self.by_pred.setdefault(p, []).append(t)
        self.by_sp.setdefault((s, p), []).append(t)
        self.by_po.setdefault((p, o), []).append(t)
        for pos in (2, 0):
            c = sub[t[pos]]
            if c >= 0:
                self.star_by_sub[pos].setdefault(c, []).append(t)
                self.star_by_pred[pos].setdefault(p, []).append(t)


class _Delta:
    """New triples in the buckets the matchers read from their delta
    side: all of them, by predicate, and by star position as in
    :class:`TripleIndex`.  The pair buckets of a full index would go
    unused here."""

    __slots__ = ("all", "by_pred", "star")

    def __init__(self, triples: List[IdTriple], table: TermTable):
        self.all = triples
        self.by_pred: Dict[int, List[IdTriple]] = {}
        self.star: Dict[int, List[IdTriple]] = {2: [], 0: []}
        for t in triples:
            self.by_pred.setdefault(t[1], []).append(t)
            for pos in (2, 0):
                if table.sub[t[pos]] >= 0:
                    self.star[pos].append(t)


# ---------------------------------------------------------------------------
# Rule matchers
# ---------------------------------------------------------------------------

# Each matcher yields (premises, (s, p, o)) in ids for every
# instantiation with at least one premise in the delta `dx`; the full
# state is in `ix`.  Candidates are validated and deduplicated by the
# caller, so listing one twice, as when the delta is the whole graph,
# is harmless.  Loop order decides closure order and provenance.
#
# A mirrored family is one factory closed over a predicate id (sp or sc,
# dom or range, cdisj or pdisj) or a triple position, 2 = object and
# 0 = subject: where the star sits for the star rules, and where the
# typed term sits in the property's triple for the typing rules.

_Candidate = Tuple[Tuple[IdTriple, ...], IdTriple]
_Matcher = Callable[[TripleIndex, _Delta, "_RoundContext"], Iterator[_Candidate]]


class _RoundContext(Record):
    """The term table, and the state of the free-variable rules 6c/7c,
    each keyed by ``_BOTC`` or ``_BOTP``: the class or property terms,
    those new this round, and the self-disjointness statements of the
    delta and of earlier rounds."""

    __slots__ = ("table", "terms", "new_terms", "self_delta", "self_old")

    def __init__(
        self,
        table: TermTable,
        terms: Mapping[int, Sequence[int]],
        new_terms: Mapping[int, Sequence[int]],
        self_delta: Mapping[int, Sequence[IdTriple]],
        self_old: Mapping[int, Sequence[IdTriple]],
    ) -> None:
        self._init(table, terms, new_terms, self_delta, self_old)


def _transitive(q: int) -> _Matcher:
    """2a, 3a: (A,q,B), (B,q,C) -> (A,q,C)."""

    def match(ix, dx, ctx):
        for t1 in dx.by_pred.get(q, ()):
            for t2 in ix.by_sp.get((t1[2], q), ()):
                yield (t1, t2), (t1[0], q, t2[2])
        for t2 in dx.by_pred.get(q, ()):
            for t1 in ix.by_po.get((q, t2[0]), ()):
                yield (t1, t2), (t1[0], q, t2[2])

    return match


def _m_2b(ix, dx, ctx):
    for t1 in dx.by_pred.get(_SP, ()):
        for t2 in ix.by_pred.get(t1[0], ()):
            yield (t1, t2), (t2[0], t1[2], t2[2])
    for t2 in dx.all:
        for t1 in ix.by_sp.get((t2[1], _SP), ()):
            yield (t1, t2), (t2[0], t1[2], t2[2])


def _m_3b(ix, dx, ctx):
    for t1 in dx.by_pred.get(_SC, ()):
        for t2 in ix.by_po.get((_TYPE, t1[0]), ()):
            yield (t1, t2), (t2[0], _TYPE, t1[2])
    for t2 in dx.by_pred.get(_TYPE, ()):
        for t1 in ix.by_sp.get((t2[2], _SC), ()):
            yield (t1, t2), (t2[0], _TYPE, t1[2])


def _contrapositive(q: int) -> _Matcher:
    """2c, 3c: (A,q,B) -> (!B,q,!A) for plain resources A and B."""

    def match(ix, dx, ctx):
        fresh = ctx.table.fresh
        for t in dx.by_pred.get(q, ()):
            nb, na = fresh[t[2]], fresh[t[0]]
            if nb >= 0 and na >= 0:
                yield (t,), (nb, q, na)

    return match


def _star_lift(pos: int) -> _Matcher:
    """2d, 2e: (A,D,B), (D,sp,E) -> (A,E,B) with a star at ``pos``."""

    def match(ix, dx, ctx):
        for t1 in dx.star[pos]:
            for t2 in ix.by_sp.get((t1[1], _SP), ()):
                yield (t1, t2), (t1[0], t2[2], t1[2])
        starred = ix.star_by_pred[pos]
        for t2 in dx.by_pred.get(_SP, ()):
            for t1 in starred.get(t2[0], ()):
                yield (t1, t2), (t1[0], t2[2], t1[2])

    return match


def _star_sc(pos: int) -> _Matcher:
    """3d, 3e: (C,sc,B) turns a star over B at ``pos`` into *C, as (A,D,*B) -> (A,D,*C)."""

    def match(ix, dx, ctx):
        star, sub = ctx.table.star, ctx.table.sub
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

    def match(ix, dx, ctx):
        for t1 in dx.by_pred.get(q, ()):
            for t2 in ix.by_pred.get(t1[0], ()):
                yield (t1, t2), (t2[pos], _TYPE, t1[2])
        for t2 in dx.all:
            for t1 in ix.by_sp.get((t2[1], q), ()):
                yield (t1, t2), (t2[pos], _TYPE, t1[2])

    return match


def _neg_typing(q: int, pos: int) -> _Matcher:
    """4c, 4d: (D,q,B), (X,type,!B), (Z,D,Y) -> (X,!D,Y) or (Z,!D,X), X at ``pos``."""

    def match(ix, dx, ctx):
        neg = ctx.table.neg
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

    def match(ix, dx, ctx):
        sub = ctx.table.sub
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

    def match(ix, dx, ctx):
        neg, sub = ctx.table.neg, ctx.table.sub
        pairs = ix.by_sp if pos == 2 else ix.by_po
        for t1 in dx.star[pos]:
            nd = neg[t1[1]]
            if nd < 0:
                continue
            for t2 in pairs.get((t1[0], nd) if pos == 2 else (nd, t1[2]), ()):
                yield (t1, t2), (t2[pos], _TYPE, neg[sub[t1[pos]]])
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

    def match(ix, dx, ctx):
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
        pairs: Dict[int, List[Tuple[IdTriple, IdTriple]]] = {}
        for t3 in dx.all:
            found = pairs.get(t3[1])
            if found is None:
                found = pairs[t3[1]] = [(t1, t2) for t2 in ix.by_sp.get((t3[1], _SP), ()) for t1 in ix.by_sp.get((t2[2], q), ())]
            for t1, t2 in found:
                yield (t1, t2, t3), (t3[pos], _TYPE, t1[2])

    return match


def _symmetric(q: int) -> _Matcher:
    """6a, 7a: (A,q,B) -> (B,q,A)."""

    def match(ix, dx, ctx):
        for t in dx.by_pred.get(q, ()):
            yield (t,), (t[2], q, t[0])

    return match


def _disjoint_below(q: int, h: int) -> _Matcher:
    """6b, 7b: (A,q,B), (C,h,A) -> (C,q,B) for the hierarchy ``h`` below ``q``."""

    def match(ix, dx, ctx):
        for t1 in dx.by_pred.get(q, ()):
            for t2 in ix.by_po.get((h, t1[0]), ()):
                yield (t1, t2), (t2[0], q, t1[2])
        for t2 in dx.by_pred.get(h, ()):
            for t1 in ix.by_sp.get((t2[2], q), ()):
                yield (t1, t2), (t2[0], q, t1[2])

    return match


def _self_disjoint(q: int) -> _Matcher:
    """6c, 7c: (A,q,A) -> (A,q,B) for every class (cdisj) or property (pdisj) term B."""

    def match(ix, dx, ctx):
        for t in ctx.self_delta[q]:
            for b in ctx.terms[q]:
                yield (t,), (t[0], q, b)
        for t in ctx.self_old[q]:
            for b in ctx.new_terms[q]:
                yield (t,), (t[0], q, b)

    return match


def _fresh(q: int, r: int) -> _Matcher:
    """6d, 6e, 7d, 7e: (A,q,B) -> (A,r,!B) for a plain resource B."""

    def match(ix, dx, ctx):
        fresh = ctx.table.fresh
        for t in dx.by_pred.get(q, ()):
            nb = fresh[t[2]]
            if nb >= 0:
                yield (t,), (t[0], r, nb)

    return match


def _disjoint_typing(q: int) -> _Matcher:
    """8a, 8b: (A,q,C), (B,q,D), (C,cdisj,D) -> (A,pdisj,B)."""

    def match(ix, dx, ctx):
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


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def instantiate(rule: RuleId, g: Graph, domains: Optional[Domains] = None) -> List[ProofStep]:
    """All applications of ``rule`` to ``g`` that derive something new.

    Premises are drawn from ``g``; instantiations whose conclusion is
    invalid or already present are dropped.  ``domains`` feeds the free
    variable of rules 6c/7c and defaults to ``recognize_domains(g)``.
    """
    if rule in (RuleId.R1A, RuleId.R1B):
        raise ValueError(f"rule {rule} is not a closure rule")
    if domains is None:
        domains = recognize_domains(g)
    table = TermTable()
    triples = {table.encode(t): t for t in g}
    ix = TripleIndex(table, triples)
    empty = {_BOTC: (), _BOTP: ()}
    ctx = _RoundContext(
        table,
        terms={
            _BOTC: [table.intern(c) for c in sorted(domains.class_terms, key=repr)],
            _BOTP: [table.intern(p) for p in sorted(domains.property_terms, key=repr)],
        },
        new_terms=empty,
        self_delta={q: [k for k in triples if k[0] == k[2] and k[1] == q] for q in (_BOTC, _BOTP)},
        self_old=empty,
    )
    steps: List[ProofStep] = []
    seen: Set[Tuple[Tuple[IdTriple, ...], IdTriple]] = set()
    terms = table.terms
    for premises, key in _MATCHERS[rule](ix, _Delta(list(triples), table), ctx):
        if key in triples or not table.valid(*key) or (premises, key) in seen:
            continue
        seen.add((premises, key))
        conclusion = _trusted_triple(terms[key[0]], terms[key[1]], terms[key[2]])
        steps.append(ProofStep(rule, tuple(triples[k] for k in premises), conclusion))
    return steps


class _Engine:
    def __init__(self, g: Graph, rule_ids: FrozenSet[RuleId], cap: int):
        self.cap = cap
        self.rules = [r for r in RuleId if r in rule_ids and r in _MATCHERS]
        self.table = TermTable()
        self.index = TripleIndex(self.table)
        self.tracker = _DomainTracker(self.table)
        # Every installed or pending triple by its ids: one dict both
        # drops rediscovered candidates and finds the Triple of a
        # premise.  It keeps first-insertion order.
        self.triples: Dict[IdTriple, Triple] = {}
        self.provenance: Dict[Triple, ProofStep] = {}
        self.fires: Dict[str, int] = {r.value: 0 for r in self.rules}
        self.candidates: Dict[str, int] = dict.fromkeys(self.fires, 0)
        self.round_deltas: List[int] = []
        # The self-disjointness statements, by predicate, for 6c/7c.
        self.self_disjoint: Dict[int, List[IdTriple]] = {_BOTC: [], _BOTP: []}
        for t in g:
            key = self.table.encode(t)
            self.triples[key] = t
            self._install(key)
        if len(self.triples) > self.cap:
            raise ClosureCapError(self.cap, len(self.triples))

    def _install(self, key: IdTriple) -> None:
        self.index.add(key)
        self.tracker.add_triple(key)
        if key[0] == key[2] and key[1] in self.self_disjoint:
            self.self_disjoint[key[1]].append(key)

    def run(self) -> int:
        table, triples, tracker = self.table, self.triples, self.tracker
        terms, valid = table.terms, table.valid
        iterations = 0
        delta = list(triples)  # the input, all installed so far
        domains = {_BOTC: tracker.class_terms, _BOTP: tracker.property_terms}
        known: Dict[int, Set[int]] = {q: set() for q in domains}
        old = dict.fromkeys(domains, 0)
        while delta:
            iterations += 1
            dx = _Delta(delta, table)
            now = {q: sorted(d, key=lambda x: repr(terms[x])) for q, d in domains.items()}
            ctx = _RoundContext(
                table,
                terms=now,
                new_terms={q: [x for x in now[q] if x not in known[q]] for q in now},
                # The delta was installed last, so its self-disjointness
                # statements are the tails of the two lists.
                self_delta={q: s[old[q]:] for q, s in self.self_disjoint.items()},
                self_old={q: s[:old[q]] for q, s in self.self_disjoint.items()},
            )
            old = {q: len(s) for q, s in self.self_disjoint.items()}
            known = {q: set(xs) for q, xs in now.items()}
            delta, pending = [], []
            for rule in self.rules:
                listed = 0
                for listed, (premises, key) in enumerate(_MATCHERS[rule](self.index, dx, ctx), 1):
                    if key in triples or not valid(*key):
                        continue
                    if len(triples) + 1 > self.cap:
                        raise ClosureCapError(self.cap, len(triples) + 1)
                    t = triples[key] = _trusted_triple(terms[key[0]], terms[key[1]], terms[key[2]])
                    pending.append(ProofStep(rule, tuple(map(triples.__getitem__, premises)), t))
                    delta.append(key)
                    self.fires[rule.value] += 1
                self.candidates[rule.value] += listed
            for key, step in zip(delta, pending):
                self._install(key)
                self.provenance[step.conclusion] = step
            self.round_deltas.append(len(delta))
        return iterations


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
    order = list(engine.triples.values())
    # Free the id dict and index before the Graph builds its own set,
    # so they stay out of the peak memory.
    engine.triples = engine.index = None
    elapsed = time.perf_counter() - start
    tracker = engine.tracker
    return ClosureResult(
        closure=Graph(order),
        provenance=engine.provenance,
        class_terms=tracker.terms(tracker.class_terms),
        property_terms=tracker.terms(tracker.property_terms),
        stats=ClosureStats(
            iterations=iterations,
            rule_fire_counts=dict(engine.fires),
            input_size=len(g),
            output_size=len(order),
            elapsed_s=elapsed,
            round_deltas=tuple(engine.round_deltas),
            rule_candidates=dict(engine.candidates),
        ),
    )


# The function itself, for the modules that call it.  They may load after
# a caller has replaced ``closure`` in this module, as a tracer does, and
# would otherwise bind that replacement and have it run twice.
_closure = closure
