"""Four-valued interpretations, canonical models and model checking.

Every element of an interpretation is a term: an ``Iri``, a ``Neg``, a
``Literal`` or a ``Blank``, in a canonical model and in a loaded
fixture alike, so a dump writes each element in term syntax and the
fixture reader reads it back with the term parser.

An interpretation keeps positive extensions explicitly and derives the
negative extension of an element from the positive extension of its
complement.  The complement map is partial and involutive: elements
with no registered complement simply have empty negative extensions,
and every semantic condition that would mention a missing complement is
vacuous for it.

``canonical_model`` builds the interpretation induced by a graph's full
closure: elements are the closure's own terms, denotation is identity,
and extensions start from the closure's triples.  Star terms denote
nothing; a triple with a star term constrains extensions through its
subscript class instead, so star positions are excluded from the pair
extensions.  The result satisfies every graph, including contradictory
ones, which is the paraconsistency property the test suite exercises.

The closure rules decide entailment, so the model only has to repair
what triple syntax cannot say.  Only an ``Iri`` or a ``Neg`` can be a
predicate, so no triple gives a blank or a literal a pair, even below a
subproperty pair (Subproperty.2).  One pass adds the pairs of ``p`` to
each blank or literal ``q`` with ``(p, q)`` in the extension of ``sp``.
One pass is enough because rule 2a makes ``sp`` transitive: a blank or
literal ``p`` gets its pairs only from the ``p'`` below it, and rule 2a
puts each such ``p'`` below ``q`` as well.  The closure already meets every other condition
that moves entries between extensions:

- members along ``sc`` (Subclass.2), by rule 3b;
- members by ``dom``/``range`` (Typing I.2/I.3), by 4a/4b, and for a
  blank or literal with a domain or range by 5a/5b, from the predicates
  below it in ``sp`` that its pairs come from;
- negative pairs into complements (Typing I.4/I.5), by 4c/4d; a blank
  or a literal has no complement, so these stay vacuous for it;
- a star's members (Simple.2/.3), by 4e/4f, and its negative side
  (Simple.4/.5), by 4g/4h; a star's predicate is never a blank or a
  literal.

The pass adds no member, so the class extensions are exactly the
closure's ``type`` triples.

``check_model`` verifies a graph against an interpretation and reports
each failed condition by name, e.g. ``Simple.2`` or ``Disjointness
I.3.Symmetry``.  Blank nodes without a fixed denotation are treated
existentially.  Their assignments over the resource domain are found by
:func:`rhodf.entailment.solve`, the same search that :func:`find_map
<rhodf.entailment.find_map>` runs: each triple's candidates are the
values of its unbound blanks under which it holds, so a triple that can
no longer hold cuts the search off before its other blanks are tried.

The conditions come in mirrored pairs, and each family is one
definition (a nested function or a loop over a two-row table) run once
per side, with a pair index that is 0 on the subject or domain side
and 1 on the object or range side: Subproperty/Subclass .1-.3, Typing
I.2-I.5 and II.2/II.3, Disjointness I.1-I.4 and II.1-II.4, Simple.2-.5
and the extension checks of ``_structural_violations``.

The hierarchy and disjointness families of ``_global_violations`` work
on whole sets, so that the hash each element stores is reused instead
of being computed in Python per element.  They first run one subset
test per pair, such as ``succ[b] <= succ[a]`` for Subproperty.1, and
enumerate the pair's elements one by one only when it fails, so the
violations and their order are those of the plain loops.
"""

from __future__ import annotations

import itertools
import re
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
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
    RESERVED_VOCAB,
    SC,
    SP,
    TYPE,
    Blank,
    Graph,
    Literal,
    Neg,
    Record,
    Star,
    Term,
    Triple,
    _Memo,
)
from .parser import parse_term, serialize_term
from .reasoner import _closure as closure

Element = Term
Pair = Tuple[Element, Element]

_EMPTY_PAIRS: FrozenSet[Pair] = frozenset()
_EMPTY_MEMBERS: FrozenSet[Element] = frozenset()


class Violation(Record):
    """One failed semantic condition with the offending elements."""

    __slots__ = ("condition", "detail")

    def __init__(self, condition: str, detail: str) -> None:
        self._init(condition, detail)

    def __str__(self) -> str:
        return f"{self.condition}: {self.detail}"


class SatisfactionReport(Record):
    __slots__ = ("satisfied", "violations")

    def __init__(self, satisfied: bool, violations: Tuple[Violation, ...] = ()) -> None:
        self._init(satisfied, violations)


class Interpretation(Record):
    """A four-valued interpretation.

    Elements are terms (``Element = Term``), and ``denote`` maps terms
    to them.  ``ext_p_pos`` and ``ext_c_pos`` store positive extensions
    sparsely; elements without an entry have empty extensions.  Negative
    extensions are not stored: they are read off the complement map,
    so ``neg_pairs(p)`` is the positive extension of ``p``'s complement
    when one is registered and, as no element is ``None``, empty
    otherwise.  ``_cache`` keeps the model checker's graph-independent
    findings; it is not a field.
    """

    __slots__ = ("delta_r", "delta_p", "delta_c", "delta_l", "ext_p_pos", "ext_c_pos", "complement", "denote", "_cache")

    def __init__(
        self,
        delta_r: FrozenSet[Element],
        delta_p: FrozenSet[Element],
        delta_c: FrozenSet[Element],
        delta_l: FrozenSet[Element],
        ext_p_pos: Mapping[Element, FrozenSet[Pair]],
        ext_c_pos: Mapping[Element, FrozenSet[Element]],
        complement: Mapping[Element, Element],
        denote: Mapping[Term, Element],
        _cache: Optional[Dict[str, object]] = None,
    ) -> None:
        self._init(delta_r, delta_p, delta_c, delta_l, ext_p_pos, ext_c_pos, complement, denote)
        object.__setattr__(self, "_cache", {} if _cache is None else _cache)

    def pos_pairs(self, p: Element) -> FrozenSet[Pair]:
        return self.ext_p_pos.get(p, _EMPTY_PAIRS)

    def neg_pairs(self, p: Element) -> FrozenSet[Pair]:
        return self.pos_pairs(self.complement.get(p))

    def pos_members(self, c: Element) -> FrozenSet[Element]:
        return self.ext_c_pos.get(c, _EMPTY_MEMBERS)

    def neg_members(self, c: Element) -> FrozenSet[Element]:
        return self.pos_members(self.complement.get(c))


def _frozen(
    domains: Sequence[Iterable[Element]],
    ext_p_pos: Mapping[Element, Iterable[Pair]],
    ext_c_pos: Mapping[Element, Iterable[Element]],
    complement: Dict[Element, Element],
    denote: Dict[Term, Element],
) -> Interpretation:
    """The interpretation over built-up domains, given in field order, and extensions."""
    return Interpretation(
        *map(frozenset, domains),
        {k: frozenset(v) for k, v in ext_p_pos.items()},
        {k: frozenset(v) for k, v in ext_c_pos.items()},
        complement,
        denote,
    )


def project(pairs: Iterable[Pair], side: str) -> FrozenSet[Element]:
    """First ("up") or second ("down") components of a pair set."""
    if side == "up":
        return frozenset(x for x, _ in pairs)
    if side == "down":
        return frozenset(y for _, y in pairs)
    raise ValueError(f"unknown projection side {side!r}")


_fmt = serialize_term


def _fmt_pair(pair: Pair) -> str:
    return f"({_fmt(pair[0])}, {_fmt(pair[1])})"


# ---------------------------------------------------------------------------
# Canonical model
# ---------------------------------------------------------------------------


def canonical_model(g: Graph, cap: Optional[int] = None) -> "Interpretation":
    """The interpretation induced by the full closure of ``g``.

    Every term of the closure denotes itself.  The property and class
    domains are the recognized property/class terms, the resource
    domain collects subjects, objects and star subscripts, and the
    extensions hold the closure's triples, with star positions left
    out of the pair extensions.  One pass along ``sp`` then gives each
    blank or literal below a subproperty pair the pairs that no triple
    can record for it; see the module docstring.  All of it is read off
    the closure's own index, with star positions and complements from
    its term table.

    The model is a countermodel for ground star-free queries: a valid
    star-free, blank-free triple over the closure's terms holds in it
    only if the closure contains it.  Star triples are excluded, since
    ``a p *c`` holds vacuously when ``c`` has no members, derived or not.
    """
    result = closure(g, "full", cap=cap)
    ix = result.closure._index
    ids, terms, neg, sub, pred = ix.table.ids, ix.table.terms, ix.table.neg, ix.table.sub, ix.table.pred
    sp, typ = ids[SP], ids[TYPE]
    ext_p_pos: Dict[Element, FrozenSet[Pair]] = {}
    for p, ts in ix.by_pred.items():
        pairs = frozenset([(terms[s], terms[o]) for s, _, o in ts if sub[s] < 0 and sub[o] < 0])
        if pairs:
            ext_p_pos[terms[p]] = pairs
    ext_c_pos = {terms[c]: frozenset([terms[x] for x, _, _ in ts]) for (p, c), ts in ix.by_po.items() if p == typ}
    # Only an Iri or a Neg can be a predicate, so the closure gives a blank
    # or a literal no pairs.  Rule 2a makes sp transitive, so one pass
    # reaches each such element from every predicate below it.
    for p, _, q in ix.by_pred.get(sp, ()):
        prs = ext_p_pos.get(terms[p])
        if prs and not pred[q]:
            ext_p_pos[terms[q]] = ext_p_pos.get(terms[q], _EMPTY_PAIRS) | prs
    # Subjects and objects, a star replaced by its subscript, and their
    # complements; the class terms are among them.
    resources = {sub[x] if sub[x] >= 0 else x for x in [s for s, _ in ix.by_sp] + [o for _, o in ix.by_po]}
    resources.update([neg[x] for x in resources if neg[x] >= 0])
    elements = resources | {ids[p] for p in result.property_terms}
    complement = {terms[x]: terms[neg[x]] for x in elements if neg[x] >= 0}
    delta_r = [terms[x] for x in resources]
    delta_l = [el for el in delta_r if isinstance(el, Literal)]
    denote = {terms[x]: terms[x] for x in elements}
    return _frozen((delta_r, result.property_terms, result.class_terms, delta_l), ext_p_pos, ext_c_pos, complement, denote)


# ---------------------------------------------------------------------------
# Model checking
# ---------------------------------------------------------------------------


def _structural_violations(i: Interpretation) -> List[Violation]:
    out: List[Violation] = []
    for name, dom in (("Class", i.delta_c), ("Literal", i.delta_l)):
        for el in dom - i.delta_r:
            out.append(Violation(f"Interpretation.{name}Domain", f"{name.lower()} element {_fmt(el)} is not a resource"))
    for x, y in i.complement.items():
        if i.complement.get(y) != x:
            out.append(Violation("Interpretation.Complement.Involution", f"complement of {_fmt(x)} is {_fmt(y)} but not back"))
        for name, dom in (("resource", i.delta_r), ("property", i.delta_p), ("class", i.delta_c)):
            if x in dom and y not in dom:
                out.append(
                    Violation(
                        "Interpretation.Complement.Domain",
                        f"{_fmt(x)} is a {name} element but its complement {_fmt(y)} is not",
                    )
                )
    for name, ext, dom, entries, inside, outside in (
        ("Property", i.ext_p_pos, i.delta_p, "pairs", i.delta_r.issuperset, lambda pr, p: f"pair {_fmt_pair(pr)} of {p} leaves the resource domain"),
        ("Class", i.ext_c_pos, i.delta_c, "members", i.delta_r.__contains__, lambda x, c: f"member {_fmt(x)} of {c} is not a resource"),
    ):
        for e, items in ext.items():
            if e not in dom:
                out.append(Violation(f"Interpretation.{name}Extension.Domain", f"{_fmt(e)} has {entries} but is not a {name.lower()} element"))
            for x in items:
                if not inside(x):
                    out.append(Violation(f"Interpretation.{name}Extension.Range", outside(x, _fmt(e))))
    union = i.delta_r | i.delta_p
    for t, el in i.denote.items():
        if el not in union:
            out.append(Violation("Interpretation.Denotation.Range", f"{serialize_term(t)} denotes {_fmt(el)} outside the domains"))
        if isinstance(t, Blank) and el not in i.delta_r:
            out.append(Violation("Interpretation.Denotation.Blank", f"blank {serialize_term(t)} denotes a non-resource"))
        if isinstance(t, Literal) and el != t:
            out.append(Violation("Interpretation.Denotation.Literal", f"literal {serialize_term(t)} does not denote itself"))
        if isinstance(t, Neg):
            base = i.denote.get(t.base)
            if base is None or i.complement.get(base) != el:
                out.append(
                    Violation(
                        "Interpretation.Denotation.Complement",
                        f"{serialize_term(t)} does not denote the complement of {serialize_term(t.base)}",
                    )
                )
    return out


def _global_violations(i: Interpretation) -> List[Violation]:
    out: List[Violation] = []
    vocab_el: Dict[Term, Optional[Element]] = {v: i.denote.get(v) for v in RESERVED_VOCAB}
    for v, el in sorted(vocab_el.items(), key=lambda kv: kv[0].name):
        if el is None:
            out.append(Violation("Interpretation.Vocabulary", f"reserved term {serialize_term(v)} has no denotation"))
        elif el not in i.delta_p:
            out.append(Violation("Typing II.1", f"{serialize_term(v)} denotes {_fmt(el)} outside the property domain"))
    vocab_els = {el for el in vocab_el.values() if el is not None}

    def pairs(v: Term) -> FrozenSet[Pair]:
        el = vocab_el.get(v)
        return i.pos_pairs(el) if el is not None else _EMPTY_PAIRS

    sp_p, sc_p, typ_p = pairs(SP), pairs(SC), pairs(TYPE)
    dom_p, rng_p = pairs(DOM), pairs(RANGE)
    botc_p, botp_p = pairs(BOTC), pairs(BOTP)

    def hierarchy(
        name: str,
        rel: FrozenSet[Pair],
        dom: FrozenSet[Element],
        kind: str,
        ext: Callable[[Element], FrozenSet[Hashable]],
        entry: Callable[[Hashable], str],
    ) -> None:
        # Subproperty.1-3 over sp and pair extensions, Subclass.1-3 over
        # sc and members; ``entry`` names one pair or one member.
        succ: Dict[Element, Set[Element]] = {}
        for x, y in rel:
            succ.setdefault(x, set()).add(y)
        for a, bs in succ.items():
            for b in bs:
                cs = succ.get(b)
                if cs is None or cs <= bs:
                    continue
                for c in cs:
                    if c not in bs:
                        out.append(Violation(f"{name}.1", f"{_fmt(a)} under {_fmt(b)} under {_fmt(c)} but not {_fmt(a)} under {_fmt(c)}"))
        for p, q in rel:
            if p not in dom or q not in dom:
                out.append(Violation(f"{name}.2", f"{name.lower()} pair {_fmt_pair((p, q))} leaves the {kind} domain"))
                continue
            for x in ext(p) - ext(q):
                out.append(Violation(f"{name}.2", f"{entry(x)} of {_fmt(p)} is missing from {_fmt(q)}"))
            # Conditions that introduce complements bind only at elements
            # that are not negations already, as the closure rules do.
            if isinstance(p, Neg) or isinstance(q, Neg):
                continue
            cp, cq = i.complement.get(p), i.complement.get(q)
            if cp is not None and cq is not None and (cq, cp) not in rel:
                out.append(Violation(f"{name}.3", f"{_fmt_pair((p, q))} holds but not the contrapositive {_fmt_pair((cq, cp))}"))

    hierarchy("Subproperty", sp_p, i.delta_p, "property", i.pos_pairs, lambda pr: f"pair {_fmt_pair(pr)}")
    hierarchy("Subclass", sc_p, i.delta_c, "class", i.pos_members, lambda x: f"member {_fmt(x)}")

    # Typing I: extension of type agrees with class membership.
    for c in i.ext_c_pos:
        if c not in i.delta_c:
            continue
        for x in i.pos_members(c):
            if (x, c) not in typ_p:
                out.append(Violation("Typing I.1", f"member {_fmt(x)} of {_fmt(c)} has no type pair"))
    for x, c in typ_p:
        if c in i.delta_c and x not in i.pos_members(c):
            out.append(Violation("Typing I.1", f"type pair {_fmt_pair((x, c))} without class membership"))
    # Typing I.2/I.4 at pair index 0 (domain), I.3/I.5 at index 1 (range).
    for k, rel, cond, neg_cond, side, kind in (
        (0, dom_p, "Typing I.2", "Typing I.4", "subject", "domain"),
        (1, rng_p, "Typing I.3", "Typing I.5", "object", "range"),
    ):
        for p, c in rel:
            if c not in i.delta_c:
                continue
            for pr in i.pos_pairs(p):
                if pr[k] not in i.pos_members(c):
                    out.append(Violation(cond, f"{side} {_fmt(pr[k])} of {_fmt(p)} is not in {kind} class {_fmt(c)}"))
            nm = i.neg_members(c)
            if nm and i.complement.get(p) is not None:
                # The condition constrains the negative extension of p, so it
                # is vacuous for an element with no complement.
                npairs = i.neg_pairs(p)
                for y in project(i.pos_pairs(p), ("down", "up")[k]):
                    for x in nm:
                        if ((x, y) if k == 0 else (y, x)) not in npairs:
                            out.append(Violation(neg_cond, f"{_fmt(x)} outside {kind} class {_fmt(c)} lacks negative pair with {_fmt(y)} for {_fmt(p)}"))

    # Typing II: domain membership of the reserved machinery.
    for rel, cond, kind in ((dom_p, "Typing II.2", "domain"), (rng_p, "Typing II.3", "range")):
        for p, c in rel:
            if p not in i.delta_p or c not in i.delta_c:
                out.append(Violation(cond, f"{kind} pair {_fmt_pair((p, c))} leaves the property/class domains"))
    for x, c in typ_p:
        if c not in i.delta_c:
            out.append(Violation("Typing II.4", f"type pair {_fmt_pair((x, c))} targets a non-class"))

    # Disjointness I: the disjointness relations themselves.
    for rel, dom, cond, kind in ((botc_p, i.delta_c, "Disjointness I.1", "class"), (botp_p, i.delta_p, "Disjointness I.2", "property")):
        for c, d in rel:
            if c not in dom or d not in dom:
                out.append(Violation(cond, f"{kind} disjointness pair {_fmt_pair((c, d))} leaves the {kind} domain"))

    def disjointness_family(rel: FrozenSet[Pair], sub: FrozenSet[Pair], dom: FrozenSet[Element], label: str) -> None:
        for c, d in rel:
            if (d, c) not in rel:
                out.append(Violation(f"{label}.Symmetry", f"{_fmt_pair((c, d))} without {_fmt_pair((d, c))}"))
        # below[c] lists the e with (e, c) in sub, in sub's iteration order;
        # firsts[d] holds the c with (c, d) in rel, seconds[c] the d.
        below: Dict[Element, List[Element]] = {}
        for e, c in sub:
            below.setdefault(c, []).append(e)
        below_set = {c: set(es) for c, es in below.items()}
        firsts: Dict[Element, Set[Element]] = {}
        seconds: Dict[Element, Set[Element]] = {}
        for c, d in rel:
            firsts.setdefault(d, set()).add(c)
            seconds.setdefault(c, set()).add(d)
        for c, d in rel:
            es = below_set.get(c)
            if es is None or es <= firsts[d]:
                continue
            for e in below[c]:
                if (e, d) not in rel:
                    out.append(Violation(f"{label}.Sub-Transitivity", f"{_fmt(e)} below {_fmt(c)} but {_fmt_pair((e, d))} missing"))
        for c, d in rel:
            if c != d:
                continue
            others = dom - vocab_els
            if others <= seconds[c]:
                continue
            for e in others:
                if (c, e) not in rel:
                    out.append(Violation(f"{label}.Exhaustive", f"self-disjoint {_fmt(c)} is not disjoint from {_fmt(e)}"))

    disjointness_family(botc_p, sc_p, i.delta_c, "Disjointness I.3")
    disjointness_family(botp_p, sp_p, i.delta_p, "Disjointness I.4")

    # Disjointness II.1/II.2: disjoint domain or range classes make their
    # properties disjoint.  One pass over botc_p, so the two interleave.
    typed_by_class: List[Tuple[str, str, Dict[Element, Set[Element]]]] = []
    for rel, cond, kind in ((dom_p, "Disjointness II.1", "domains"), (rng_p, "Disjointness II.2", "ranges")):
        by_class: Dict[Element, Set[Element]] = {}
        for p, c in rel:
            by_class.setdefault(c, set()).add(p)
        typed_by_class.append((cond, kind, by_class))
    for c, d in botc_p:
        for cond, kind, by_class in typed_by_class:
            for p in by_class.get(c, ()):
                for q in by_class.get(d, ()):
                    if (p, q) not in botp_p:
                        out.append(Violation(cond, f"{kind} {_fmt(c)}, {_fmt(d)} disjoint but properties {_fmt_pair((p, q))} are not"))
    # Disjointness II.3 over cdisj and sc, II.4 over pdisj and sp.
    for cond, disj, sub in (("Disjointness II.3", botc_p, sc_p), ("Disjointness II.4", botp_p, sp_p)):
        for c, d in disj:
            if isinstance(d, Neg):
                continue
            cd = i.complement.get(d)
            if cd is not None and (c, cd) not in sub:
                out.append(Violation(cond, f"{_fmt_pair((c, d))} disjoint but {_fmt(c)} not below complement {_fmt(cd)}"))
        for c, e in sub:
            if isinstance(e, Neg):
                continue
            ce = i.complement.get(e)
            if ce is not None and (c, ce) not in disj:
                out.append(Violation(cond, f"{_fmt(c)} below {_fmt(e)} but not disjoint from complement {_fmt(ce)}"))
    return out


# Per star position (1 = object, 0 = subject): the condition on the star's
# members, its wording, and the condition on the negative pairs.
_STAR_CONDITIONS = {1: ("Simple.2", "is not reached", "Simple.4"), 0: ("Simple.3", "does not reach it", "Simple.5")}


def _simple_violations(i: Interpretation, t: Triple, alpha: Mapping[Blank, Element]) -> List[Violation]:
    def el(x: Term) -> Optional[Element]:
        if isinstance(x, Blank) and x in alpha:
            return alpha[x]
        return i.denote.get(x)

    k = 1 if isinstance(t.o, Star) else 0 if isinstance(t.s, Star) else None
    p_el = el(t.p)
    if p_el is None or p_el not in i.delta_p:
        cond = "Simple.1" if k is None else _STAR_CONDITIONS[k][0]
        return [Violation(cond, f"predicate of {_fmt_triple(t)} does not denote a property")]
    if k is None:
        s_el, o_el = el(t.s), el(t.o)
        if s_el is None or o_el is None:
            return [Violation("Simple.1", f"terms of {_fmt_triple(t)} lack denotations")]
        if (s_el, o_el) not in i.pos_pairs(p_el):
            return [Violation("Simple.1", f"{_fmt_triple(t)} has no pair in the extension of {_fmt(p_el)}")]
        return []
    # The star at pair index k ranges over the members of its class; the
    # term at the other index is the fixed element e.
    cond, unreached, neg_cond = _STAR_CONDITIONS[k]
    star = t.o if k else t.s
    e_el, c_el = el(t.s if k else t.o), i.denote.get(star.cls)
    if e_el is None or c_el is None or c_el not in i.delta_c:
        return [Violation(cond, f"terms of {_fmt_triple(t)} lack denotations in the right domains")]
    out: List[Violation] = []
    ppos = i.pos_pairs(p_el)
    for x in i.pos_members(c_el):
        if ((x, e_el) if k == 0 else (e_el, x)) not in ppos:
            out.append(Violation(cond, f"{_fmt_triple(t)}: member {_fmt(x)} of {_fmt(c_el)} {unreached}"))
    nneg = i.neg_members(c_el)
    for pr in i.neg_pairs(p_el):
        if pr[1 - k] == e_el and pr[k] not in nneg:
            out.append(Violation(neg_cond, f"{_fmt_triple(t)}: negative pair with {_fmt(pr[k])} outside the complement of {_fmt(c_el)}"))
    return out


def _fmt_triple(t: Triple) -> str:
    return f"({serialize_term(t.s)}, {serialize_term(t.p)}, {serialize_term(t.o)})"


def _required_terms(t: Triple) -> List[Term]:
    req: List[Term] = []
    for x in (t.s, t.p, t.o):
        if isinstance(x, Blank):
            continue
        if isinstance(x, Star):
            req.append(x.cls)
        else:
            req.append(x)
    return req


def _holding_assignments(i: Interpretation, free: Set[Blank]):
    """Candidate lister for :func:`~rhodf.entailment.solve`: the
    assignments of a triple's still unbound blanks, over the resource
    domain, under which the triple holds in ``i``."""
    domain = sorted(i.delta_r, key=_fmt)

    def candidates(t: Triple, alpha: Mapping[Blank, Element]) -> List[Dict[Blank, Element]]:
        unbound = [x for x in dict.fromkeys((t.s, t.o)) if x in free and x not in alpha]
        out = []
        for values in itertools.product(domain, repeat=len(unbound)):
            new = dict(zip(unbound, values))
            if not _simple_violations(i, t, {**alpha, **new}):
                out.append(new)
        return out

    return candidates


def _take(t: Triple, new: Dict[Blank, Element], alpha: Mapping[Blank, Element]) -> Dict[Blank, Element]:
    return new


def check_model(i: Interpretation, g: Graph) -> SatisfactionReport:
    """Check that ``i`` is well formed and satisfies ``g``.

    Blanks that already have a denotation keep it; the others are bound
    by an exhaustive search over the resource domain.  Condition names
    in the report follow the semantics: ``Interpretation.*`` for
    structural defects, ``Simple.*`` per triple, and the global
    ``Subproperty``/``Subclass``/``Typing``/``Disjointness`` families.
    """
    if "structural" not in i._cache:
        i._cache["structural"] = _structural_violations(i)
    if "global" not in i._cache:
        i._cache["global"] = _global_violations(i)
    violations: List[Violation] = list(i._cache["structural"]) + list(i._cache["global"])

    missing_terms: List[Term] = []
    seen_missing: Set[Term] = set()
    for t in g:
        for x in _required_terms(t):
            if x not in i.denote and x not in seen_missing:
                seen_missing.add(x)
                missing_terms.append(x)
    for x in missing_terms:
        violations.append(Violation("Interpretation.Vocabulary", f"term {serialize_term(x)} has no denotation"))

    free = sorted((b for b in g.blanks if b not in i.denote), key=lambda b: b.name)
    free_set = set(free)
    checkable = [t for t in g if not any(x in seen_missing for x in _required_terms(t))]
    ground = [t for t in checkable if not ({t.s, t.o} & free_set)]
    open_triples = [t for t in checkable if {t.s, t.o} & free_set]
    for t in ground:
        violations.extend(_simple_violations(i, t, {}))
    if open_triples:
        # Only this search needs the entailment module, and it never runs
        # on a canonical model, where every blank of the graph denotes.
        from .entailment import solve

        if solve(open_triples, _holding_assignments(i, free_set), _take) is None:
            names = ", ".join(serialize_term(b) for b in free)
            violations.append(Violation("Simple.Existential", f"no assignment of {names} over the resource domain satisfies the graph"))
    return SatisfactionReport(satisfied=not violations, violations=tuple(violations))


def serialize_interpretation(i: Interpretation) -> str:
    """Fixture-format dump of an interpretation, sorted for stability.

    Every field is an element written in term syntax, so complements
    come out with their ``!`` prefix and reload as complement partners.
    A reserved name in the property domain gets no ``P`` line while it
    denotes itself.  A term gets an ``I`` line when it has another
    denotation, or when it is a reserved name that denotes itself outside
    the property domain, where the loader would otherwise put it.
    """
    lines: List[str] = []
    # Each element is serialized once, both as the sort key and as the field.
    text = _Memo(serialize_term)

    plain_r = i.delta_r - i.delta_c - i.delta_l
    implicit_p = {v for v in RESERVED_VOCAB if i.denote.get(v) == v}
    outside_p = implicit_p - i.delta_p
    for directive, dom in (("R", plain_r), ("P", i.delta_p - implicit_p), ("C", i.delta_c), ("L", i.delta_l)):
        for el in sorted(dom, key=text.__getitem__):
            lines.append(f"{directive} {text[el]}")
    for p in sorted(i.ext_p_pos, key=text.__getitem__):
        for s, o in sorted(i.ext_p_pos[p], key=lambda pr: (text[pr[0]], text[pr[1]])):
            lines.append(f"P+ {text[p]} {text[s]} {text[o]}")
    for c in sorted(i.ext_c_pos, key=text.__getitem__):
        for x in sorted(i.ext_c_pos[c], key=text.__getitem__):
            lines.append(f"C+ {text[c]} {text[x]}")
    for t in sorted(i.denote, key=text.__getitem__):
        if i.denote[t] != t or t in outside_p:
            lines.append(f"I {text[t]} {text[i.denote[t]]}")
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# Interpretation fixtures
# ---------------------------------------------------------------------------


# A field is a whole ``<...>`` or ``"..."`` term, with any prefixes, or
# else a run of characters up to a space or a ``#``; a ``#`` that starts
# a field starts a comment.
_FIELD = re.compile(r'#.*|([!*]*(?:<[^>]*>|"(?:[^"\\]|\\.)*"|[^\s#]+))')


def load_interpretation(text: str) -> Interpretation:
    """Build an interpretation from its line-oriented fixture form.

    Directives: ``R e``, ``P p``, ``C c``, ``L e`` declare domain
    elements; ``P+ p s o`` and ``C+ c x`` add extension entries and
    register their elements; ``I term e`` sets a denotation.  Every
    field is read as a term by :func:`~rhodf.parser.parse_term`, and
    every element is that term: ``c`` is an
    :class:`~rhodf.core.Iri`, ``"v"`` a :class:`~rhodf.core.Literal`,
    ``_:b`` a :class:`~rhodf.core.Blank`, and ``!c`` a
    :class:`~rhodf.core.Neg` that makes ``c`` and ``!c`` complement
    partners.  Domains are closed over registered complements.  A field
    that cannot be an element, a star or a ``!`` before a reserved name,
    a blank or a literal, is an error naming its line.

    The reserved names denote themselves, and so does every element
    that is not a blank, unless an ``I`` line says otherwise, so a
    dumped interpretation can be checked against its graph directly.  A
    literal term denotes its own literal element, never a bare name
    with the same text, and no element is a string: ``!"..."`` fields
    are errors.
    """
    delta_r: Set[Element] = set()
    delta_p: Set[Element] = set()
    delta_c: Set[Element] = set()
    delta_l: Set[Element] = set()
    ext_p_pos: Dict[Element, Set[Pair]] = {}
    ext_c_pos: Dict[Element, Set[Element]] = {}
    complement: Dict[Element, Element] = {}
    denote: Dict[Term, Element] = {}
    # The domains an element declared as a resource, property, class or
    # literal joins.
    declared = {"R": (delta_r,), "P": (delta_p,), "C": (delta_c, delta_r), "L": (delta_l, delta_r)}

    def term(token: str, lineno: int) -> Term:
        try:
            return parse_term(token)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None

    def element(token: str, lineno: int, kind: str = "") -> Element:
        el = term(token, lineno)
        if isinstance(el, Star):
            raise ValueError(f"line {lineno}: star term {token!r} is not an element")
        if isinstance(el, Neg):
            complement[el] = el.base
            complement[el.base] = el
        for dom in declared.get(kind, ()):
            dom.add(el)
        return el

    for lineno, line in enumerate(text.splitlines(), start=1):
        parts = [m.group(1) for m in _FIELD.finditer(line) if m.group(1)]
        if not parts:
            continue
        directive, args = parts[0], parts[1:]
        if directive in declared and len(args) == 1:
            element(args[0], lineno, directive)
        elif directive == "P+" and len(args) == 3:
            p, s, o = element(args[0], lineno, "P"), element(args[1], lineno, "R"), element(args[2], lineno, "R")
            ext_p_pos.setdefault(p, set()).add((s, o))
        elif directive == "C+" and len(args) == 2:
            c, x = element(args[0], lineno, "C"), element(args[1], lineno, "R")
            ext_c_pos.setdefault(c, set()).add(x)
        elif directive == "I" and len(args) == 2:
            t, el = term(args[0], lineno), element(args[1], lineno)
            denote[t] = el
            if el not in delta_p:
                delta_r.add(el)
        else:
            raise ValueError(f"line {lineno}: unknown or malformed directive {' '.join(parts)!r}")

    for dom in (delta_r, delta_p, delta_c, delta_l):
        for el in list(dom):
            mate = complement.get(el)
            if mate is not None:
                dom.add(mate)
    delta_p.update(RESERVED_VOCAB - denote.keys())
    for el in itertools.chain(delta_r, delta_p, delta_c, delta_l):
        if not isinstance(el, Blank):
            denote.setdefault(el, el)
    return _frozen((delta_r, delta_p, delta_c, delta_l), ext_p_pos, ext_c_pos, complement, denote)
