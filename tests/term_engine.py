"""The closure engine over terms, kept as an independent oracle.

This is the semi-naive engine as it stood before the engine in
:mod:`rhodf.reasoner` moved to integer term ids: the same rules, round
structure, firing order and first-derivation provenance, but every
index, delta and matcher works on :class:`~rhodf.core.Term` and
:class:`~rhodf.core.Triple` objects.  ``tests/test_reasoner.py`` diffs
the library's closure against :func:`term_closure`, so a fault in an id
matcher or in the term table shows up as a difference.  Nothing in the
library imports this module.

It follows the library's two savings in the hierarchy rules, so that
order, provenance and candidate counts still compare exactly: while the
matching transitivity rule runs, 2b, 3b, 6b and 7b skip a premise to
lift that they derived themselves (it is kept in ``lifted``), and 2d/2e
do not run when 2b does.  Here that is a test on each premise, not a
separate index of roots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Callable, Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from rhodf.core import (
    BOTC,
    BOTP,
    DOM,
    RANGE,
    SC,
    SP,
    TYPE,
    RESERVED_VOCAB,
    Graph,
    Iri,
    Neg,
    Star,
    Term,
    Triple,
    is_reserved,
    negate,
    try_negate,
    try_triple,
)
from rhodf.reasoner import MODE_RULE_IDS, ClosureCapError, ProofStep, RuleId, default_cap

class _DomainTracker:
    """Accumulates class/property terms triple by triple.

    Both sets are kept closed under single negation as they grow.
    """

    __slots__ = ("class_terms", "property_terms")

    def __init__(self) -> None:
        self.class_terms: Set[Term] = set()
        self.property_terms: Set[Term] = set(RESERVED_VOCAB)

    def _add(self, bucket: Set[Term], t: Term) -> None:
        bucket.add(t)
        mate = try_negate(t)
        if mate is not None:
            bucket.add(mate)

    def add_triple(self, t: Triple) -> None:
        self._add(self.property_terms, t.p)
        p = t.p
        if p == SP:
            self._add(self.property_terms, t.s)
            self._add(self.property_terms, t.o)
        elif p == SC:
            self._add(self.class_terms, t.s)
            self._add(self.class_terms, t.o)
        elif p == TYPE:
            self._add(self.class_terms, t.o)
        elif p in (DOM, RANGE):
            self._add(self.property_terms, t.s)
            self._add(self.class_terms, t.o)
        elif p == BOTC:
            self._add(self.class_terms, t.s)
            self._add(self.class_terms, t.o)
        elif p == BOTP:
            self._add(self.property_terms, t.s)
        for x in (t.s, t.o):
            if isinstance(x, Star):
                self._add(self.class_terms, x.cls)


class TermIndex:
    """A triple set in insertion order, keyed by predicate and by pair.

    ``by_pred[p]``, ``by_sp[(s, p)]`` and ``by_po[(p, o)]`` list the
    matching triples in insertion order, so ``by_sp[(x, SP)]`` are the
    subproperty statements of ``x`` and ``by_po[(TYPE, c)]`` the typings
    into ``c``.  Triples with a star object or subject are also kept by
    the star's subscript class and by predicate, for the star rules.
    The closure engine and the witness search share this class.
    """

    __slots__ = (
        "all",
        "by_pred",
        "by_sp",
        "by_po",
        "star_obj",
        "star_obj_by_sub",
        "star_obj_by_pred",
        "star_subj",
        "star_subj_by_sub",
        "star_subj_by_pred",
    )

    def __init__(self, triples: Iterable[Triple] = ()):
        self.all: List[Triple] = []
        self.by_pred: Dict[Term, List[Triple]] = {}
        self.by_sp: Dict[Tuple[Term, Term], List[Triple]] = {}
        self.by_po: Dict[Tuple[Term, Term], List[Triple]] = {}
        self.star_obj: List[Triple] = []
        self.star_obj_by_sub: Dict[Term, List[Triple]] = {}
        self.star_obj_by_pred: Dict[Term, List[Triple]] = {}
        self.star_subj: List[Triple] = []
        self.star_subj_by_sub: Dict[Term, List[Triple]] = {}
        self.star_subj_by_pred: Dict[Term, List[Triple]] = {}
        for t in triples:
            self.add(t)

    def add(self, t: Triple) -> None:
        self.all.append(t)
        self.by_pred.setdefault(t.p, []).append(t)
        self.by_sp.setdefault((t.s, t.p), []).append(t)
        self.by_po.setdefault((t.p, t.o), []).append(t)
        if isinstance(t.o, Star):
            self.star_obj.append(t)
            self.star_obj_by_sub.setdefault(t.o.cls, []).append(t)
            self.star_obj_by_pred.setdefault(t.p, []).append(t)
        if isinstance(t.s, Star):
            self.star_subj.append(t)
            self.star_subj_by_sub.setdefault(t.s.cls, []).append(t)
            self.star_subj_by_pred.setdefault(t.p, []).append(t)


class _Delta:
    """A round's new triples in the buckets the matchers read from their
    delta side: all of them, by predicate, and those with a star object
    or subject.  The pair buckets of a full :class:`TermIndex` would go
    unused here."""

    __slots__ = ("all", "by_pred", "star_obj", "star_subj")

    def __init__(self, triples: List[Triple]):
        self.all = triples
        self.by_pred: Dict[Term, List[Triple]] = {}
        self.star_obj: List[Triple] = []
        self.star_subj: List[Triple] = []
        for t in triples:
            self.by_pred.setdefault(t.p, []).append(t)
            if isinstance(t.o, Star):
                self.star_obj.append(t)
            if isinstance(t.s, Star):
                self.star_subj.append(t)


def _try_star(t: Term) -> Optional[Star]:
    if isinstance(t, Neg):
        return Star(t)
    if isinstance(t, Iri) and not is_reserved(t):
        return Star(t)
    return None


def _neg_fresh(t: Term) -> Optional[Neg]:
    # Negation-introducing rules only manufacture complements of plain
    # resources; a term that is already negated never collapses here.
    if isinstance(t, Iri) and not is_reserved(t):
        return Neg(t)
    return None


# Each matcher yields (premises, s, p, o) for every instantiation with at
# least one premise in the delta index `dx`; the full state is in `ix`.
# Candidates are validated and deduplicated by the caller, so overlapping
# enumeration when dx == ix is harmless.

_Candidate = Tuple[Tuple[Triple, ...], Term, Term, Term]
_Matcher = Callable[[TermIndex, TermIndex, "_RoundContext"], Iterator[_Candidate]]


@dataclass
class _RoundContext:
    """Extra state for the free-variable rules 6c/7c."""

    class_terms: Sequence[Term] = ()
    property_terms: Sequence[Term] = ()
    new_class_terms: Sequence[Term] = ()
    new_property_terms: Sequence[Term] = ()
    self_botc_delta: Sequence[Triple] = ()
    self_botc_old: Sequence[Triple] = ()
    self_botp_delta: Sequence[Triple] = ()
    self_botp_old: Sequence[Triple] = ()
    lifted: AbstractSet[Triple] = frozenset()


def _m_2a(ix, dx, ctx):
    for t1 in dx.by_pred.get(SP, ()):
        for t2 in ix.by_sp.get((t1.o, SP), ()):
            yield (t1, t2), t1.s, SP, t2.o
    for t2 in dx.by_pred.get(SP, ()):
        for t1 in ix.by_po.get((SP, t2.s), ()):
            yield (t1, t2), t1.s, SP, t2.o


def _m_2b(ix, dx, ctx):
    for t1 in dx.by_pred.get(SP, ()):
        for t2 in ix.by_pred.get(t1.s, ()):
            if t2 not in ctx.lifted:
                yield (t1, t2), t2.s, t1.o, t2.o
    for t2 in dx.all:
        if t2 in ctx.lifted:
            continue
        for t1 in ix.by_sp.get((t2.p, SP), ()):
            yield (t1, t2), t2.s, t1.o, t2.o


def _m_2c(ix, dx, ctx):
    for t in dx.by_pred.get(SP, ()):
        nb, na = _neg_fresh(t.o), _neg_fresh(t.s)
        if nb is not None and na is not None:
            yield (t,), nb, SP, na


def _m_2d(ix, dx, ctx):
    for t1 in dx.star_obj:
        for t2 in ix.by_sp.get((t1.p, SP), ()):
            yield (t1, t2), t1.s, t2.o, t1.o
    for t2 in dx.by_pred.get(SP, ()):
        for t1 in ix.star_obj_by_pred.get(t2.s, ()):
            yield (t1, t2), t1.s, t2.o, t1.o


def _m_2e(ix, dx, ctx):
    for t1 in dx.star_subj:
        for t2 in ix.by_sp.get((t1.p, SP), ()):
            yield (t1, t2), t1.s, t2.o, t1.o
    for t2 in dx.by_pred.get(SP, ()):
        for t1 in ix.star_subj_by_pred.get(t2.s, ()):
            yield (t1, t2), t1.s, t2.o, t1.o


def _m_3a(ix, dx, ctx):
    for t1 in dx.by_pred.get(SC, ()):
        for t2 in ix.by_sp.get((t1.o, SC), ()):
            yield (t1, t2), t1.s, SC, t2.o
    for t2 in dx.by_pred.get(SC, ()):
        for t1 in ix.by_po.get((SC, t2.s), ()):
            yield (t1, t2), t1.s, SC, t2.o


def _m_3b(ix, dx, ctx):
    for t1 in dx.by_pred.get(SC, ()):
        for t2 in ix.by_po.get((TYPE, t1.s), ()):
            if t2 not in ctx.lifted:
                yield (t1, t2), t2.s, TYPE, t1.o
    for t2 in dx.by_pred.get(TYPE, ()):
        if t2 in ctx.lifted:
            continue
        for t1 in ix.by_sp.get((t2.o, SC), ()):
            yield (t1, t2), t2.s, TYPE, t1.o


def _m_3c(ix, dx, ctx):
    for t in dx.by_pred.get(SC, ()):
        nb, na = _neg_fresh(t.o), _neg_fresh(t.s)
        if nb is not None and na is not None:
            yield (t,), nb, SC, na


def _m_3d(ix, dx, ctx):
    for t1 in dx.star_obj:
        for t2 in ix.by_po.get((SC, t1.o.cls), ()):
            st = _try_star(t2.s)
            if st is not None:
                yield (t1, t2), t1.s, t1.p, st
    for t2 in dx.by_pred.get(SC, ()):
        for t1 in ix.star_obj_by_sub.get(t2.o, ()):
            st = _try_star(t2.s)
            if st is not None:
                yield (t1, t2), t1.s, t1.p, st


def _m_3e(ix, dx, ctx):
    for t1 in dx.star_subj:
        for t2 in ix.by_po.get((SC, t1.s.cls), ()):
            st = _try_star(t2.s)
            if st is not None:
                yield (t1, t2), st, t1.p, t1.o
    for t2 in dx.by_pred.get(SC, ()):
        for t1 in ix.star_subj_by_sub.get(t2.o, ()):
            st = _try_star(t2.s)
            if st is not None:
                yield (t1, t2), st, t1.p, t1.o


def _m_4a(ix, dx, ctx):
    for t1 in dx.by_pred.get(DOM, ()):
        for t2 in ix.by_pred.get(t1.s, ()):
            yield (t1, t2), t2.s, TYPE, t1.o
    for t2 in dx.all:
        for t1 in ix.by_sp.get((t2.p, DOM), ()):
            yield (t1, t2), t2.s, TYPE, t1.o


def _m_4b(ix, dx, ctx):
    for t1 in dx.by_pred.get(RANGE, ()):
        for t2 in ix.by_pred.get(t1.s, ()):
            yield (t1, t2), t2.o, TYPE, t1.o
    for t2 in dx.all:
        for t1 in ix.by_sp.get((t2.p, RANGE), ()):
            yield (t1, t2), t2.o, TYPE, t1.o


def _m_4c(ix, dx, ctx):
    # (D,dom,B), (X,type,!B), (Z,D,Y) -> (X,!D,Y)
    def combos(t1):
        nd = try_negate(t1.s)
        nb = try_negate(t1.o)
        return nd, nb

    for t1 in dx.by_pred.get(DOM, ()):
        nd, nb = combos(t1)
        if nd is None or nb is None:
            continue
        for t2 in ix.by_po.get((TYPE, nb), ()):
            for t3 in ix.by_pred.get(t1.s, ()):
                yield (t1, t2, t3), t2.s, nd, t3.o
    for t2 in dx.by_pred.get(TYPE, ()):
        b = try_negate(t2.o)
        if b is None:
            continue
        for t1 in ix.by_po.get((DOM, b), ()):
            nd = try_negate(t1.s)
            if nd is None:
                continue
            for t3 in ix.by_pred.get(t1.s, ()):
                yield (t1, t2, t3), t2.s, nd, t3.o
    for t3 in dx.all:
        for t1 in ix.by_sp.get((t3.p, DOM), ()):
            nd, nb = combos(t1)
            if nd is None or nb is None:
                continue
            for t2 in ix.by_po.get((TYPE, nb), ()):
                yield (t1, t2, t3), t2.s, nd, t3.o


def _m_4d(ix, dx, ctx):
    # (D,range,B), (Y,type,!B), (X,D,Z) -> (X,!D,Y)
    for t1 in dx.by_pred.get(RANGE, ()):
        nd, nb = try_negate(t1.s), try_negate(t1.o)
        if nd is None or nb is None:
            continue
        for t2 in ix.by_po.get((TYPE, nb), ()):
            for t3 in ix.by_pred.get(t1.s, ()):
                yield (t1, t2, t3), t3.s, nd, t2.s
    for t2 in dx.by_pred.get(TYPE, ()):
        b = try_negate(t2.o)
        if b is None:
            continue
        for t1 in ix.by_po.get((RANGE, b), ()):
            nd = try_negate(t1.s)
            if nd is None:
                continue
            for t3 in ix.by_pred.get(t1.s, ()):
                yield (t1, t2, t3), t3.s, nd, t2.s
    for t3 in dx.all:
        for t1 in ix.by_sp.get((t3.p, RANGE), ()):
            nd, nb = try_negate(t1.s), try_negate(t1.o)
            if nd is None or nb is None:
                continue
            for t2 in ix.by_po.get((TYPE, nb), ()):
                yield (t1, t2, t3), t3.s, nd, t2.s


def _m_4e(ix, dx, ctx):
    for t1 in dx.star_obj:
        for t2 in ix.by_po.get((TYPE, t1.o.cls), ()):
            yield (t1, t2), t1.s, t1.p, t2.s
    for t2 in dx.by_pred.get(TYPE, ()):
        for t1 in ix.star_obj_by_sub.get(t2.o, ()):
            yield (t1, t2), t1.s, t1.p, t2.s


def _m_4f(ix, dx, ctx):
    for t1 in dx.star_subj:
        for t2 in ix.by_po.get((TYPE, t1.s.cls), ()):
            yield (t1, t2), t2.s, t1.p, t1.o
    for t2 in dx.by_pred.get(TYPE, ()):
        for t1 in ix.star_subj_by_sub.get(t2.o, ()):
            yield (t1, t2), t2.s, t1.p, t1.o


def _m_4g(ix, dx, ctx):
    # (A,D,*C), (A,!D,Y) -> (Y,type,!C)
    for t1 in dx.star_obj:
        nd = try_negate(t1.p)
        if nd is None:
            continue
        for t2 in ix.by_sp.get((t1.s, nd), ()):
            yield (t1, t2), t2.o, TYPE, negate(t1.o.cls)
    for t2 in dx.all:
        nd = try_negate(t2.p)
        if nd is None:
            continue
        for t1 in ix.by_sp.get((t2.s, nd), ()):
            if isinstance(t1.o, Star):
                yield (t1, t2), t2.o, TYPE, negate(t1.o.cls)


def _m_4h(ix, dx, ctx):
    # (*C,D,B), (X,!D,B) -> (X,type,!C)
    for t1 in dx.star_subj:
        nd = try_negate(t1.p)
        if nd is None:
            continue
        for t2 in ix.by_po.get((nd, t1.o), ()):
            yield (t1, t2), t2.s, TYPE, negate(t1.s.cls)
    for t2 in dx.all:
        nd = try_negate(t2.p)
        if nd is None:
            continue
        for t1 in ix.by_po.get((nd, t2.o), ()):
            if isinstance(t1.s, Star):
                yield (t1, t2), t2.s, TYPE, negate(t1.s.cls)


def _m_5a(ix, dx, ctx):
    # (A,dom,B), (D,sp,A), (X,D,Y) -> (X,type,B)
    for t1 in dx.by_pred.get(DOM, ()):
        for t2 in ix.by_po.get((SP, t1.s), ()):
            for t3 in ix.by_pred.get(t2.s, ()):
                yield (t1, t2, t3), t3.s, TYPE, t1.o
    for t2 in dx.by_pred.get(SP, ()):
        for t1 in ix.by_sp.get((t2.o, DOM), ()):
            for t3 in ix.by_pred.get(t2.s, ()):
                yield (t1, t2, t3), t3.s, TYPE, t1.o
    for t3 in dx.all:
        for t2 in ix.by_sp.get((t3.p, SP), ()):
            for t1 in ix.by_sp.get((t2.o, DOM), ()):
                yield (t1, t2, t3), t3.s, TYPE, t1.o


def _m_5b(ix, dx, ctx):
    for t1 in dx.by_pred.get(RANGE, ()):
        for t2 in ix.by_po.get((SP, t1.s), ()):
            for t3 in ix.by_pred.get(t2.s, ()):
                yield (t1, t2, t3), t3.o, TYPE, t1.o
    for t2 in dx.by_pred.get(SP, ()):
        for t1 in ix.by_sp.get((t2.o, RANGE), ()):
            for t3 in ix.by_pred.get(t2.s, ()):
                yield (t1, t2, t3), t3.o, TYPE, t1.o
    for t3 in dx.all:
        for t2 in ix.by_sp.get((t3.p, SP), ()):
            for t1 in ix.by_sp.get((t2.o, RANGE), ()):
                yield (t1, t2, t3), t3.o, TYPE, t1.o


def _m_6a(ix, dx, ctx):
    for t in dx.by_pred.get(BOTC, ()):
        yield (t,), t.o, BOTC, t.s


def _m_6b(ix, dx, ctx):
    for t1 in dx.by_pred.get(BOTC, ()):
        if t1 in ctx.lifted:
            continue
        for t2 in ix.by_po.get((SC, t1.s), ()):
            yield (t1, t2), t2.s, BOTC, t1.o
    for t2 in dx.by_pred.get(SC, ()):
        for t1 in ix.by_sp.get((t2.o, BOTC), ()):
            if t1 not in ctx.lifted:
                yield (t1, t2), t2.s, BOTC, t1.o


def _m_6c(ix, dx, ctx):
    for t in ctx.self_botc_delta:
        for b in ctx.class_terms:
            yield (t,), t.s, BOTC, b
    for t in ctx.self_botc_old:
        for b in ctx.new_class_terms:
            yield (t,), t.s, BOTC, b


def _m_6d(ix, dx, ctx):
    for t in dx.by_pred.get(BOTC, ()):
        nb = _neg_fresh(t.o)
        if nb is not None:
            yield (t,), t.s, SC, nb


def _m_6e(ix, dx, ctx):
    for t in dx.by_pred.get(SC, ()):
        nb = _neg_fresh(t.o)
        if nb is not None:
            yield (t,), t.s, BOTC, nb


def _m_7a(ix, dx, ctx):
    for t in dx.by_pred.get(BOTP, ()):
        yield (t,), t.o, BOTP, t.s


def _m_7b(ix, dx, ctx):
    for t1 in dx.by_pred.get(BOTP, ()):
        if t1 in ctx.lifted:
            continue
        for t2 in ix.by_po.get((SP, t1.s), ()):
            yield (t1, t2), t2.s, BOTP, t1.o
    for t2 in dx.by_pred.get(SP, ()):
        for t1 in ix.by_sp.get((t2.o, BOTP), ()):
            if t1 not in ctx.lifted:
                yield (t1, t2), t2.s, BOTP, t1.o


def _m_7c(ix, dx, ctx):
    for t in ctx.self_botp_delta:
        for b in ctx.property_terms:
            yield (t,), t.s, BOTP, b
    for t in ctx.self_botp_old:
        for b in ctx.new_property_terms:
            yield (t,), t.s, BOTP, b


def _m_7d(ix, dx, ctx):
    for t in dx.by_pred.get(BOTP, ()):
        nb = _neg_fresh(t.o)
        if nb is not None:
            yield (t,), t.s, SP, nb


def _m_7e(ix, dx, ctx):
    for t in dx.by_pred.get(SP, ()):
        nb = _neg_fresh(t.o)
        if nb is not None:
            yield (t,), t.s, BOTP, nb


def _m_8a(ix, dx, ctx):
    # (A,dom,C), (B,dom,D), (C,botc,D) -> (A,botp,B)
    for t1 in dx.by_pred.get(DOM, ()):
        for t3 in ix.by_sp.get((t1.o, BOTC), ()):
            for t2 in ix.by_po.get((DOM, t3.o), ()):
                yield (t1, t2, t3), t1.s, BOTP, t2.s
    for t2 in dx.by_pred.get(DOM, ()):
        for t3 in ix.by_po.get((BOTC, t2.o), ()):
            for t1 in ix.by_po.get((DOM, t3.s), ()):
                yield (t1, t2, t3), t1.s, BOTP, t2.s
    for t3 in dx.by_pred.get(BOTC, ()):
        for t1 in ix.by_po.get((DOM, t3.s), ()):
            for t2 in ix.by_po.get((DOM, t3.o), ()):
                yield (t1, t2, t3), t1.s, BOTP, t2.s


def _m_8b(ix, dx, ctx):
    for t1 in dx.by_pred.get(RANGE, ()):
        for t3 in ix.by_sp.get((t1.o, BOTC), ()):
            for t2 in ix.by_po.get((RANGE, t3.o), ()):
                yield (t1, t2, t3), t1.s, BOTP, t2.s
    for t2 in dx.by_pred.get(RANGE, ()):
        for t3 in ix.by_po.get((BOTC, t2.o), ()):
            for t1 in ix.by_po.get((RANGE, t3.s), ()):
                yield (t1, t2, t3), t1.s, BOTP, t2.s
    for t3 in dx.by_pred.get(BOTC, ()):
        for t1 in ix.by_po.get((RANGE, t3.s), ()):
            for t2 in ix.by_po.get((RANGE, t3.o), ()):
                yield (t1, t2, t3), t1.s, BOTP, t2.s


_MATCHERS: Dict[RuleId, _Matcher] = {
    RuleId.R2A: _m_2a,
    RuleId.R2B: _m_2b,
    RuleId.R2C: _m_2c,
    RuleId.R2D: _m_2d,
    RuleId.R2E: _m_2e,
    RuleId.R3A: _m_3a,
    RuleId.R3B: _m_3b,
    RuleId.R3C: _m_3c,
    RuleId.R3D: _m_3d,
    RuleId.R3E: _m_3e,
    RuleId.R4A: _m_4a,
    RuleId.R4B: _m_4b,
    RuleId.R4C: _m_4c,
    RuleId.R4D: _m_4d,
    RuleId.R4E: _m_4e,
    RuleId.R4F: _m_4f,
    RuleId.R4G: _m_4g,
    RuleId.R4H: _m_4h,
    RuleId.R5A: _m_5a,
    RuleId.R5B: _m_5b,
    RuleId.R6A: _m_6a,
    RuleId.R6B: _m_6b,
    RuleId.R6C: _m_6c,
    RuleId.R6D: _m_6d,
    RuleId.R6E: _m_6e,
    RuleId.R7A: _m_7a,
    RuleId.R7B: _m_7b,
    RuleId.R7C: _m_7c,
    RuleId.R7D: _m_7d,
    RuleId.R7E: _m_7e,
    RuleId.R8A: _m_8a,
    RuleId.R8B: _m_8b,
}


# The lifting rules, each with the transitivity rule it needs to skip the
# premises it derived itself.
_LIFTS = {RuleId.R2B: RuleId.R2A, RuleId.R7B: RuleId.R2A, RuleId.R3B: RuleId.R3A, RuleId.R6B: RuleId.R3A}


def _is_self_botc(t: Triple) -> bool:
    return t.p == BOTC and t.s == t.o


def _is_self_botp(t: Triple) -> bool:
    return t.p == BOTP and t.s == t.o


class _Engine:
    def __init__(self, g: Graph, rule_ids: FrozenSet[RuleId], cap: int):
        self.cap = cap
        known = [r for r in RuleId if r in rule_ids and r in _MATCHERS]
        # 2d/2e list a subset of what 2b lists, earlier in the same round.
        self.rules = [r for r in known if not (r in (RuleId.R2D, RuleId.R2E) and RuleId.R2B in rule_ids)]
        self.lifts = {r for r in self.rules if r in _LIFTS and _LIFTS[r] in rule_ids}
        # Triples a lifting rule in ``lifts`` derived first.
        self.lifted: Set[Triple] = set()
        # Raw (s, p, o) keys of the installed and pending triples, so a
        # rediscovered candidate is dropped before a Triple is validated
        # and built for it.
        self.seen: Set[Tuple[Term, Term, Term]] = set()
        self.index = TermIndex()
        self.tracker = _DomainTracker()
        self.provenance: Dict[Triple, ProofStep] = {}
        self.fires: Dict[str, int] = {r.value: 0 for r in known}
        self.candidates: Dict[str, int] = dict.fromkeys(self.fires, 0)
        self.self_botc: List[Triple] = []
        self.self_botp: List[Triple] = []
        self.pending: List[ProofStep] = []
        self.input = [t for t in g]
        for t in self.input:
            self.seen.add((t.s, t.p, t.o))
            self._install(t)
        if len(self.index.all) > self.cap:
            raise ClosureCapError(self.cap, len(self.index.all))

    def _install(self, t: Triple) -> None:
        self.index.add(t)
        self.tracker.add_triple(t)
        if _is_self_botc(t):
            self.self_botc.append(t)
        elif _is_self_botp(t):
            self.self_botp.append(t)

    def _emit(self, rule: RuleId, premises: Tuple[Triple, ...], s: Term, p: Term, o: Term) -> None:
        key = (s, p, o)
        if key in self.seen:
            return
        t = try_triple(s, p, o)
        if t is None:
            return
        if len(self.seen) + 1 > self.cap:
            raise ClosureCapError(self.cap, len(self.seen) + 1)
        self.seen.add(key)
        self.pending.append(ProofStep(rule, premises, t))
        self.fires[rule.value] += 1

    def run(self) -> Tuple[int, int]:
        iterations = 0
        delta = list(self.input)
        prev_classes: Set[Term] = set()
        prev_props: Set[Term] = set()
        old_botc = old_botp = 0
        while delta:
            iterations += 1
            dx = _Delta(delta)
            classes = sorted(self.tracker.class_terms, key=repr)
            props = sorted(self.tracker.property_terms, key=repr)
            ctx = _RoundContext(
                class_terms=classes,
                property_terms=props,
                new_class_terms=[c for c in classes if c not in prev_classes],
                new_property_terms=[p for p in props if p not in prev_props],
                # The delta was installed last, so its self-disjointness
                # statements are the tails of the two lists.
                self_botc_delta=self.self_botc[old_botc:],
                self_botc_old=self.self_botc[:old_botc],
                self_botp_delta=self.self_botp[old_botp:],
                self_botp_old=self.self_botp[:old_botp],
                lifted=self.lifted,
            )
            old_botc, old_botp = len(self.self_botc), len(self.self_botp)
            prev_classes = set(classes)
            prev_props = set(props)
            self.pending = []
            for rule in self.rules:
                for premises, s, p, o in _MATCHERS[rule](self.index, dx, ctx):
                    self.candidates[rule.value] += 1
                    self._emit(rule, premises, s, p, o)
            for step in self.pending:
                self._install(step.conclusion)
                self.provenance[step.conclusion] = step
                if step.rule in self.lifts:
                    self.lifted.add(step.conclusion)
            delta = [step.conclusion for step in self.pending]
        return iterations, len(self.index.all)


@dataclass(frozen=True)
class TermClosure:
    """What :class:`~rhodf.reasoner.ClosureResult` reports, as plain data."""

    order: Tuple[Triple, ...]
    provenance: Tuple[Tuple[Triple, ProofStep], ...]
    fires: Dict[str, int]
    candidates: Dict[str, int]
    iterations: int
    class_terms: FrozenSet[Term]
    property_terms: FrozenSet[Term]


def term_domains(g: Graph) -> Tuple[FrozenSet[Term], FrozenSet[Term]]:
    """The class and property terms of ``g``, recognized triple by triple."""
    tracker = _DomainTracker()
    for t in g:
        tracker.add_triple(t)
    return frozenset(tracker.class_terms), frozenset(tracker.property_terms)


def term_instantiate(rule: RuleId, g: Graph) -> List[ProofStep]:
    """The applications of ``rule`` to ``g`` that derive something new,
    listed by the term-level matcher with all of ``g`` as its delta and
    every triple liftable, deduplicated on premises and conclusion, as
    :func:`~rhodf.reasoner.instantiate` lists them."""
    triples = list(g)
    class_terms, property_terms = term_domains(g)
    ctx = _RoundContext(
        class_terms=sorted(class_terms, key=repr),
        property_terms=sorted(property_terms, key=repr),
        self_botc_delta=[t for t in triples if _is_self_botc(t)],
        self_botp_delta=[t for t in triples if _is_self_botp(t)],
    )
    steps: List[ProofStep] = []
    seen: Set[Tuple[Tuple[Triple, ...], Triple]] = set()
    for premises, s, p, o in _MATCHERS[rule](TermIndex(triples), _Delta(triples), ctx):
        t = try_triple(s, p, o)
        if t is None or t in g or (premises, t) in seen:
            continue
        seen.add((premises, t))
        steps.append(ProofStep(rule, premises, t))
    return steps


def term_closure(g: Graph, mode: str = "full", cap: Optional[int] = None) -> TermClosure:
    """The closure of ``g`` by the term-level engine."""
    engine = _Engine(g, MODE_RULE_IDS[mode], default_cap(len(g)) if cap is None else cap)
    iterations, _ = engine.run()
    return TermClosure(
        order=tuple(engine.index.all),
        provenance=tuple(engine.provenance.items()),
        fires=dict(engine.fires),
        candidates=dict(engine.candidates),
        iterations=iterations,
        class_terms=frozenset(engine.tracker.class_terms),
        property_terms=frozenset(engine.tracker.property_terms),
    )
