"""The closure rules stated once, over terms: an oracle for the closure.

Each rule of the paper's table (2a-8b) is one function below.  It
takes a whole graph, in a :class:`TermIndex`, and the graph's class and
property terms, and yields ``(premises, (s, p, o))`` for every instance
of the rule, premises in the table's order.  An instance fires only
when its conclusion is a valid triple; the caller checks that.

:func:`term_closure` applies every rule of a set to the whole graph
until a round adds nothing, and :func:`term_instantiate` applies one
rule once.  There are no deltas, no roots and nothing is skipped or
counted, so this module fixes the closure set, the domains and what
counts as an instance of a rule; the order, provenance and counts of
:func:`rhodf.reasoner.closure` come from its schedule and are pinned by
the golden files under ``tests/golden/``.  From the library it uses only
the term model and, from the reasoner, the rule ids and the proof step
record; nothing in the library imports it.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

from rhodf.core import (
    BOTC,
    BOTP,
    DOM,
    RANGE,
    RESERVED_VOCAB,
    SC,
    SP,
    TYPE,
    Graph,
    Iri,
    Neg,
    Star,
    Term,
    Triple,
    is_reserved,
    try_negate,
    try_triple,
)
from rhodf.reasoner import ProofStep, RuleId

# The class terms and the property terms of a graph.
TermDomains = Tuple[FrozenSet[Term], FrozenSet[Term]]


def _add(bucket: Set[Term], t: Term) -> None:
    """Add ``t`` and its complement, so the bucket stays closed under negation."""
    bucket.add(t)
    mate = try_negate(t)
    if mate is not None:
        bucket.add(mate)


def term_domains(g: Iterable[Triple]) -> TermDomains:
    """The class and property terms of ``g``, recognized triple by triple."""
    classes: Set[Term] = set()
    props: Set[Term] = set(RESERVED_VOCAB)
    for t in g:
        _add(props, t.p)
        if t.p in (SP, DOM, RANGE, BOTP):
            _add(props, t.s)
        if t.p in (SC, BOTC):
            _add(classes, t.s)
        if t.p == SP:
            _add(props, t.o)
        if t.p in (SC, TYPE, DOM, RANGE, BOTC):
            _add(classes, t.o)
        for x in (t.s, t.o):
            if isinstance(x, Star):
                _add(classes, x.cls)
    return frozenset(classes), frozenset(props)


class TermIndex:
    """A graph's triples, all of them and by predicate, by subject and
    predicate, and by predicate and object."""

    def __init__(self, triples: Iterable[Triple]):
        self.all: List[Triple] = list(triples)
        self.by_pred: Dict[Term, List[Triple]] = {}
        self.by_sp: Dict[Tuple[Term, Term], List[Triple]] = {}
        self.by_po: Dict[Tuple[Term, Term], List[Triple]] = {}
        for t in self.all:
            self.by_pred.setdefault(t.p, []).append(t)
            self.by_sp.setdefault((t.s, t.p), []).append(t)
            self.by_po.setdefault((t.p, t.o), []).append(t)

    def star_obj(self) -> Iterator[Triple]:
        return (t for t in self.all if isinstance(t.o, Star))

    def star_subj(self) -> Iterator[Triple]:
        return (t for t in self.all if isinstance(t.s, Star))


def _star(t: Term) -> Optional[Star]:
    """The star over ``t``; only plain resources and their complements have one."""
    return Star(t) if try_negate(t) is not None else None


def _fresh(t: Term) -> Optional[Neg]:
    """The complement of a plain resource: the rules that introduce a
    negation never apply to a term that is already negated."""
    return Neg(t) if isinstance(t, Iri) and not is_reserved(t) else None


def r2a(ix, domains):  # (A,sp,B), (B,sp,C) -> (A,sp,C)
    for t1 in ix.by_pred.get(SP, ()):
        for t2 in ix.by_sp.get((t1.o, SP), ()):
            yield (t1, t2), (t1.s, SP, t2.o)


def r2b(ix, domains):  # (A,sp,B), (X,A,Y) -> (X,B,Y)
    for t1 in ix.by_pred.get(SP, ()):
        for t2 in ix.by_pred.get(t1.s, ()):
            yield (t1, t2), (t2.s, t1.o, t2.o)


def r2c(ix, domains):  # (A,sp,B) -> (!B,sp,!A)
    for t in ix.by_pred.get(SP, ()):
        if (nb := _fresh(t.o)) and (na := _fresh(t.s)):
            yield (t,), (nb, SP, na)


def r2d(ix, domains):  # (A,D,*B), (D,sp,E) -> (A,E,*B)
    for t1 in ix.star_obj():
        for t2 in ix.by_sp.get((t1.p, SP), ()):
            yield (t1, t2), (t1.s, t2.o, t1.o)


def r2e(ix, domains):  # (*B,D,A), (D,sp,E) -> (*B,E,A)
    for t1 in ix.star_subj():
        for t2 in ix.by_sp.get((t1.p, SP), ()):
            yield (t1, t2), (t1.s, t2.o, t1.o)


def r3a(ix, domains):  # (A,sc,B), (B,sc,C) -> (A,sc,C)
    for t1 in ix.by_pred.get(SC, ()):
        for t2 in ix.by_sp.get((t1.o, SC), ()):
            yield (t1, t2), (t1.s, SC, t2.o)


def r3b(ix, domains):  # (A,sc,B), (X,type,A) -> (X,type,B)
    for t1 in ix.by_pred.get(SC, ()):
        for t2 in ix.by_po.get((TYPE, t1.s), ()):
            yield (t1, t2), (t2.s, TYPE, t1.o)


def r3c(ix, domains):  # (A,sc,B) -> (!B,sc,!A)
    for t in ix.by_pred.get(SC, ()):
        if (nb := _fresh(t.o)) and (na := _fresh(t.s)):
            yield (t,), (nb, SC, na)


def r3d(ix, domains):  # (A,D,*B), (C,sc,B) -> (A,D,*C)
    for t1 in ix.star_obj():
        for t2 in ix.by_po.get((SC, t1.o.cls), ()):
            if st := _star(t2.s):
                yield (t1, t2), (t1.s, t1.p, st)


def r3e(ix, domains):  # (*B,D,A), (C,sc,B) -> (*C,D,A)
    for t1 in ix.star_subj():
        for t2 in ix.by_po.get((SC, t1.s.cls), ()):
            if st := _star(t2.s):
                yield (t1, t2), (st, t1.p, t1.o)


def r4a(ix, domains):  # (D,dom,B), (X,D,Y) -> (X,type,B)
    for t1 in ix.by_pred.get(DOM, ()):
        for t2 in ix.by_pred.get(t1.s, ()):
            yield (t1, t2), (t2.s, TYPE, t1.o)


def r4b(ix, domains):  # (D,range,B), (X,D,Y) -> (Y,type,B)
    for t1 in ix.by_pred.get(RANGE, ()):
        for t2 in ix.by_pred.get(t1.s, ()):
            yield (t1, t2), (t2.o, TYPE, t1.o)


def r4c(ix, domains):  # (D,dom,B), (X,type,!B), (Z,D,Y) -> (X,!D,Y)
    for t1 in ix.by_pred.get(DOM, ()):
        nd, nb = try_negate(t1.s), try_negate(t1.o)
        if nd and nb:
            for t2 in ix.by_po.get((TYPE, nb), ()):
                for t3 in ix.by_pred.get(t1.s, ()):
                    yield (t1, t2, t3), (t2.s, nd, t3.o)


def r4d(ix, domains):  # (D,range,B), (Y,type,!B), (X,D,Z) -> (X,!D,Y)
    for t1 in ix.by_pred.get(RANGE, ()):
        nd, nb = try_negate(t1.s), try_negate(t1.o)
        if nd and nb:
            for t2 in ix.by_po.get((TYPE, nb), ()):
                for t3 in ix.by_pred.get(t1.s, ()):
                    yield (t1, t2, t3), (t3.s, nd, t2.s)


def r4e(ix, domains):  # (A,D,*C), (X,type,C) -> (A,D,X)
    for t1 in ix.star_obj():
        for t2 in ix.by_po.get((TYPE, t1.o.cls), ()):
            yield (t1, t2), (t1.s, t1.p, t2.s)


def r4f(ix, domains):  # (*C,D,B), (X,type,C) -> (X,D,B)
    for t1 in ix.star_subj():
        for t2 in ix.by_po.get((TYPE, t1.s.cls), ()):
            yield (t1, t2), (t2.s, t1.p, t1.o)


def r4g(ix, domains):  # (A,D,*C), (A,!D,Y) -> (Y,type,!C)
    for t1 in ix.star_obj():
        for t2 in ix.by_sp.get((t1.s, try_negate(t1.p)), ()):
            yield (t1, t2), (t2.o, TYPE, try_negate(t1.o.cls))


def r4h(ix, domains):  # (*C,D,B), (X,!D,B) -> (X,type,!C)
    for t1 in ix.star_subj():
        for t2 in ix.by_po.get((try_negate(t1.p), t1.o), ()):
            yield (t1, t2), (t2.s, TYPE, try_negate(t1.s.cls))


def r5a(ix, domains):  # (A,dom,B), (D,sp,A), (X,D,Y) -> (X,type,B)
    for t1 in ix.by_pred.get(DOM, ()):
        for t2 in ix.by_po.get((SP, t1.s), ()):
            for t3 in ix.by_pred.get(t2.s, ()):
                yield (t1, t2, t3), (t3.s, TYPE, t1.o)


def r5b(ix, domains):  # (A,range,B), (D,sp,A), (X,D,Y) -> (Y,type,B)
    for t1 in ix.by_pred.get(RANGE, ()):
        for t2 in ix.by_po.get((SP, t1.s), ()):
            for t3 in ix.by_pred.get(t2.s, ()):
                yield (t1, t2, t3), (t3.o, TYPE, t1.o)


def r6a(ix, domains):  # (A,cdisj,B) -> (B,cdisj,A)
    for t in ix.by_pred.get(BOTC, ()):
        yield (t,), (t.o, BOTC, t.s)


def r6b(ix, domains):  # (A,cdisj,B), (C,sc,A) -> (C,cdisj,B)
    for t1 in ix.by_pred.get(BOTC, ()):
        for t2 in ix.by_po.get((SC, t1.s), ()):
            yield (t1, t2), (t2.s, BOTC, t1.o)


def r6c(ix, domains):  # (A,cdisj,A) -> (A,cdisj,B) for every class term B
    for t in ix.by_pred.get(BOTC, ()):
        if t.s == t.o:
            for b in domains[0]:
                yield (t,), (t.s, BOTC, b)


def r6d(ix, domains):  # (A,cdisj,B) -> (A,sc,!B)
    for t in ix.by_pred.get(BOTC, ()):
        if nb := _fresh(t.o):
            yield (t,), (t.s, SC, nb)


def r6e(ix, domains):  # (A,sc,B) -> (A,cdisj,!B)
    for t in ix.by_pred.get(SC, ()):
        if nb := _fresh(t.o):
            yield (t,), (t.s, BOTC, nb)


def r7a(ix, domains):  # (A,pdisj,B) -> (B,pdisj,A)
    for t in ix.by_pred.get(BOTP, ()):
        yield (t,), (t.o, BOTP, t.s)


def r7b(ix, domains):  # (A,pdisj,B), (C,sp,A) -> (C,pdisj,B)
    for t1 in ix.by_pred.get(BOTP, ()):
        for t2 in ix.by_po.get((SP, t1.s), ()):
            yield (t1, t2), (t2.s, BOTP, t1.o)


def r7c(ix, domains):  # (A,pdisj,A) -> (A,pdisj,B) for every property term B
    for t in ix.by_pred.get(BOTP, ()):
        if t.s == t.o:
            for b in domains[1]:
                yield (t,), (t.s, BOTP, b)


def r7d(ix, domains):  # (A,pdisj,B) -> (A,sp,!B)
    for t in ix.by_pred.get(BOTP, ()):
        if nb := _fresh(t.o):
            yield (t,), (t.s, SP, nb)


def r7e(ix, domains):  # (A,sp,B) -> (A,pdisj,!B)
    for t in ix.by_pred.get(SP, ()):
        if nb := _fresh(t.o):
            yield (t,), (t.s, BOTP, nb)


def r8a(ix, domains):  # (A,dom,C), (B,dom,D), (C,cdisj,D) -> (A,pdisj,B)
    for t1 in ix.by_pred.get(DOM, ()):
        for t3 in ix.by_sp.get((t1.o, BOTC), ()):
            for t2 in ix.by_po.get((DOM, t3.o), ()):
                yield (t1, t2, t3), (t1.s, BOTP, t2.s)


def r8b(ix, domains):  # (A,range,C), (B,range,D), (C,cdisj,D) -> (A,pdisj,B)
    for t1 in ix.by_pred.get(RANGE, ()):
        for t3 in ix.by_sp.get((t1.o, BOTC), ()):
            for t2 in ix.by_po.get((RANGE, t3.o), ()):
                yield (t1, t2, t3), (t1.s, BOTP, t2.s)


# Each closure rule with its function; 1a and 1b belong to entailment.
RULES = {rule: globals()[f"r{rule}"] for rule in RuleId if rule not in (RuleId.R1A, RuleId.R1B)}


def term_instantiate(rule: RuleId, g: Graph, domains: TermDomains) -> Set[ProofStep]:
    """The instances of ``rule`` over ``g`` whose conclusion is valid and
    not in ``g``; ``domains`` are the class and property terms 6c/7c
    range over."""
    steps = set()
    for premises, key in RULES[rule](TermIndex(g), domains):
        t = try_triple(*key)
        if t is not None and t not in g:
            steps.add(ProofStep(rule, premises, t))
    return steps


def term_closure(g: Graph, rule_ids: FrozenSet[RuleId]) -> Graph:
    """The least fixpoint of the rules in ``rule_ids`` over ``g``: every
    rule on the whole graph, round after round, until a round adds
    nothing."""
    closed = Graph(g)
    while True:
        ix, domains = TermIndex(closed), term_domains(closed)
        found = {key for rule in RULES if rule in rule_ids for _, key in RULES[rule](ix, domains)}
        new = [t for key in found - {(t.s, t.p, t.o) for t in closed} if (t := try_triple(*key)) is not None]
        if not new:
            return closed
        closed = Graph([*closed, *new])
