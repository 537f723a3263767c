"""The model checker and the canonical model's saturation, kept as an
independent oracle.

This is :mod:`rhodf.semantics` as it stood before each mirrored condition
family (sp/sc, dom/range, object/subject) became one definition: every
condition of the model checker and every fill of ``_saturate`` is written
out once per side.  ``tests/test_semantics.py`` diffs the library's
violation lists (text and order), canonical models and fixture dumps
against this module.  Nothing in the library imports it.
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, Hashable, List, Mapping, Optional, Sequence, Set, Tuple

from rhodf.core import (
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
    Star,
    Term,
    Triple,
    try_negate,
)
from rhodf.entailment import solve
from rhodf.parser import serialize_term
from rhodf.reasoner import closure
from rhodf.semantics import (
    Interpretation,
    SatisfactionReport,
    Violation,
    _fmt,
    _fmt_pair,
    _fmt_triple,
    _required_terms,
    project,
)

Element = Hashable
Pair = Tuple[Element, Element]

_EMPTY_PAIRS: FrozenSet[Pair] = frozenset()
_EMPTY_MEMBERS: FrozenSet[Element] = frozenset()


def _is_negative_element(el: Element) -> bool:
    # Complement-introducing conditions bind only at elements that are not
    # already negations; the calculus mirrors them with the same restriction.
    if isinstance(el, Neg):
        return True
    return isinstance(el, str) and el.startswith("!")


def _saturate(
    ext_p_pos: Dict[Element, Set[Pair]],
    ext_c_pos: Dict[Element, Set[Element]],
    complement: Mapping[Element, Element],
    star_obj: Sequence[Tuple[Element, Element, Element]],
    star_subj: Sequence[Tuple[Element, Element, Element]],
) -> None:
    """Grow the closure-backed extensions to their semantic fixpoint.

    Deduction cannot place a blank or a literal in predicate position,
    so the pair extension of such an element stays empty even when a
    subproperty pair demands that it absorb another extension.  The
    shortfall is repaired directly on the interpretation: pairs flow
    along subproperty pairs, members flow along subclass, domain and
    range pairs, star statements reach semantically added members, and
    the negative typing conditions fill complements where complements
    exist.  Class membership and the extension of ``type`` stay
    synchronized throughout.  The extensions of the reserved vocabulary
    elements other than ``type`` are never touched, so every addition
    here is forced by a satisfaction condition on models of the graph.
    """
    sp_pairs = list(ext_p_pos.get(SP, ()))
    sc_pairs = list(ext_p_pos.get(SC, ()))
    dom_pairs = list(ext_p_pos.get(DOM, ()))
    rng_pairs = list(ext_p_pos.get(RANGE, ()))
    changed = False

    def add_pair(p: Element, pr: Pair) -> None:
        nonlocal changed
        bucket = ext_p_pos.setdefault(p, set())
        if pr not in bucket:
            bucket.add(pr)
            changed = True

    def add_member(c: Element, x: Element) -> None:
        nonlocal changed
        bucket = ext_c_pos.setdefault(c, set())
        if x not in bucket:
            bucket.add(x)
            ext_p_pos.setdefault(TYPE, set()).add((x, c))
            changed = True

    while True:
        changed = False
        for p, q in sp_pairs:
            for pr in list(ext_p_pos.get(p, ())):
                add_pair(q, pr)
        for c, d in sc_pairs:
            for x in list(ext_c_pos.get(c, ())):
                add_member(d, x)
        for p, c in dom_pairs:
            for x, _ in list(ext_p_pos.get(p, ())):
                add_member(c, x)
        for p, c in rng_pairs:
            for _, y in list(ext_p_pos.get(p, ())):
                add_member(c, y)
        for p, c in dom_pairs:
            np_, nc = complement.get(p), complement.get(c)
            if np_ is None or nc is None:
                continue
            neg_m = ext_c_pos.get(nc, _EMPTY_MEMBERS)
            if not neg_m:
                continue
            for _, y in list(ext_p_pos.get(p, ())):
                for x in list(neg_m):
                    add_pair(np_, (x, y))
        for p, c in rng_pairs:
            np_, nc = complement.get(p), complement.get(c)
            if np_ is None or nc is None:
                continue
            neg_m = ext_c_pos.get(nc, _EMPTY_MEMBERS)
            if not neg_m:
                continue
            for x, _ in list(ext_p_pos.get(p, ())):
                for y in list(neg_m):
                    add_pair(np_, (x, y))
        for s_el, p_el, c_el in star_obj:
            for y in list(ext_c_pos.get(c_el, ())):
                add_pair(p_el, (s_el, y))
            np_, nc = complement.get(p_el), complement.get(c_el)
            if np_ is not None and nc is not None:
                for x, y in list(ext_p_pos.get(np_, ())):
                    if x == s_el:
                        add_member(nc, y)
        for o_el, p_el, c_el in star_subj:
            for x in list(ext_c_pos.get(c_el, ())):
                add_pair(p_el, (x, o_el))
            np_, nc = complement.get(p_el), complement.get(c_el)
            if np_ is not None and nc is not None:
                for x, y in list(ext_p_pos.get(np_, ())):
                    if y == o_el:
                        add_member(nc, x)
        if not changed:
            return


def canonical_model(g: Graph, cap: Optional[int] = None) -> "Interpretation":
    """The interpretation induced by the full closure of ``g``.

    Every term of the closure denotes itself.  The property and class
    domains are the recognized property/class terms, the resource
    domain collects subjects, objects and star subscripts, and the
    extensions hold the closure's triples, with star positions left
    out of the pair extensions and a final semantic saturation pass
    covering the consequences that triple syntax cannot express.

    The model is a countermodel for ground star-free queries: a valid
    star-free, blank-free triple over the closure's terms holds in it
    only if the closure contains it.  Star triples are excluded, since
    ``a p *c`` holds vacuously when ``c`` has no members, derived or not.
    """
    result = closure(g, "full", cap=cap)
    cl = result.closure
    delta_p: Set[Element] = set(result.property_terms)
    delta_c: Set[Element] = set(result.class_terms)
    delta_r: Set[Element] = set(delta_c)
    ext_p_pos: Dict[Element, Set[Pair]] = {}
    ext_c_pos: Dict[Element, Set[Element]] = {}
    star_obj: List[Tuple[Element, Element, Element]] = []
    star_subj: List[Tuple[Element, Element, Element]] = []
    for t in cl:
        for x in (t.s, t.o):
            if isinstance(x, Star):
                delta_r.add(x.cls)
            else:
                delta_r.add(x)
        if not isinstance(t.s, Star) and not isinstance(t.o, Star):
            ext_p_pos.setdefault(t.p, set()).add((t.s, t.o))
        if isinstance(t.o, Star):
            star_obj.append((t.s, t.p, t.o.cls))
        if isinstance(t.s, Star):
            star_subj.append((t.o, t.p, t.s.cls))
        if t.p == TYPE:
            ext_c_pos.setdefault(t.o, set()).add(t.s)
    complement: Dict[Element, Element] = {}
    for el in set(delta_r) | delta_p | delta_c:
        mate = try_negate(el) if isinstance(el, Term) else None
        if mate is not None:
            complement[el] = mate
            complement[mate] = el
    for el in list(delta_r):
        mate = complement.get(el)
        if mate is not None:
            delta_r.add(mate)
    _saturate(ext_p_pos, ext_c_pos, complement, star_obj, star_subj)
    delta_l = {el for el in delta_r if isinstance(el, Literal)}
    denote: Dict[Term, Element] = {}
    for el in delta_r | delta_p | delta_c:
        if isinstance(el, Term):
            denote[el] = el
    for v in RESERVED_VOCAB:
        denote[v] = v
    return Interpretation(
        delta_r=frozenset(delta_r),
        delta_p=frozenset(delta_p),
        delta_c=frozenset(delta_c),
        delta_l=frozenset(delta_l),
        ext_p_pos={k: frozenset(v) for k, v in ext_p_pos.items()},
        ext_c_pos={k: frozenset(v) for k, v in ext_c_pos.items()},
        complement=complement,
        denote=denote,
    )


def _structural_violations(i: Interpretation) -> List[Violation]:
    out: List[Violation] = []
    for el in i.delta_c - i.delta_r:
        out.append(Violation("Interpretation.ClassDomain", f"class element {_fmt(el)} is not a resource"))
    for el in i.delta_l - i.delta_r:
        out.append(Violation("Interpretation.LiteralDomain", f"literal element {_fmt(el)} is not a resource"))
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
    for p, pairs in i.ext_p_pos.items():
        if p not in i.delta_p:
            out.append(Violation("Interpretation.PropertyExtension.Domain", f"{_fmt(p)} has pairs but is not a property element"))
        for x, y in pairs:
            if x not in i.delta_r or y not in i.delta_r:
                out.append(Violation("Interpretation.PropertyExtension.Range", f"pair {_fmt_pair((x, y))} of {_fmt(p)} leaves the resource domain"))
    for c, members in i.ext_c_pos.items():
        if c not in i.delta_c:
            out.append(Violation("Interpretation.ClassExtension.Domain", f"{_fmt(c)} has members but is not a class element"))
        for x in members:
            if x not in i.delta_r:
                out.append(Violation("Interpretation.ClassExtension.Range", f"member {_fmt(x)} of {_fmt(c)} is not a resource"))
    union = i.delta_r | i.delta_p
    for t, el in i.denote.items():
        if el not in union:
            out.append(Violation("Interpretation.Denotation.Range", f"{serialize_term(t)} denotes {_fmt(el)} outside the domains"))
        if isinstance(t, Blank) and el not in i.delta_r:
            out.append(Violation("Interpretation.Denotation.Blank", f"blank {serialize_term(t)} denotes a non-resource"))
        if isinstance(t, Literal) and el not in (t, t.lexical):
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

    def succ(rel: FrozenSet[Pair]) -> Dict[Element, Set[Element]]:
        m: Dict[Element, Set[Element]] = {}
        for x, y in rel:
            m.setdefault(x, set()).add(y)
        return m

    # Subproperty conditions.
    sp_succ = succ(sp_p)
    for a, bs in sp_succ.items():
        for b in bs:
            for c in sp_succ.get(b, ()):
                if c not in bs:
                    out.append(Violation("Subproperty.1", f"{_fmt(a)} under {_fmt(b)} under {_fmt(c)} but not {_fmt(a)} under {_fmt(c)}"))
    for p, q in sp_p:
        if p not in i.delta_p or q not in i.delta_p:
            out.append(Violation("Subproperty.2", f"subproperty pair {_fmt_pair((p, q))} leaves the property domain"))
            continue
        for pr in i.pos_pairs(p) - i.pos_pairs(q):
            out.append(Violation("Subproperty.2", f"pair {_fmt_pair(pr)} of {_fmt(p)} is missing from {_fmt(q)}"))
        if _is_negative_element(p) or _is_negative_element(q):
            continue
        cp, cq = i.complement.get(p), i.complement.get(q)
        if cp is not None and cq is not None and (cq, cp) not in sp_p:
            out.append(Violation("Subproperty.3", f"{_fmt_pair((p, q))} holds but not the contrapositive {_fmt_pair((cq, cp))}"))

    # Subclass conditions.
    sc_succ = succ(sc_p)
    for a, bs in sc_succ.items():
        for b in bs:
            for c in sc_succ.get(b, ()):
                if c not in bs:
                    out.append(Violation("Subclass.1", f"{_fmt(a)} under {_fmt(b)} under {_fmt(c)} but not {_fmt(a)} under {_fmt(c)}"))
    for c, d in sc_p:
        if c not in i.delta_c or d not in i.delta_c:
            out.append(Violation("Subclass.2", f"subclass pair {_fmt_pair((c, d))} leaves the class domain"))
            continue
        for x in i.pos_members(c) - i.pos_members(d):
            out.append(Violation("Subclass.2", f"member {_fmt(x)} of {_fmt(c)} is missing from {_fmt(d)}"))
        if _is_negative_element(c) or _is_negative_element(d):
            continue
        cc, cd = i.complement.get(c), i.complement.get(d)
        if cc is not None and cd is not None and (cd, cc) not in sc_p:
            out.append(Violation("Subclass.3", f"{_fmt_pair((c, d))} holds but not the contrapositive {_fmt_pair((cd, cc))}"))

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
    for p, c in dom_p:
        if c not in i.delta_c:
            continue
        for x, y in i.pos_pairs(p):
            if x not in i.pos_members(c):
                out.append(Violation("Typing I.2", f"subject {_fmt(x)} of {_fmt(p)} is not in domain class {_fmt(c)}"))
        nm = i.neg_members(c)
        if nm and i.complement.get(p) is not None:
            # The condition constrains the negative extension of p, so it
            # is vacuous for an element with no complement.
            npairs = i.neg_pairs(p)
            for y in project(i.pos_pairs(p), "down"):
                for x in nm:
                    if (x, y) not in npairs:
                        out.append(Violation("Typing I.4", f"{_fmt(x)} outside domain class {_fmt(c)} lacks negative pair with {_fmt(y)} for {_fmt(p)}"))
    for p, c in rng_p:
        if c not in i.delta_c:
            continue
        for x, y in i.pos_pairs(p):
            if y not in i.pos_members(c):
                out.append(Violation("Typing I.3", f"object {_fmt(y)} of {_fmt(p)} is not in range class {_fmt(c)}"))
        nm = i.neg_members(c)
        if nm and i.complement.get(p) is not None:
            npairs = i.neg_pairs(p)
            for x in project(i.pos_pairs(p), "up"):
                for y in nm:
                    if (x, y) not in npairs:
                        out.append(Violation("Typing I.5", f"{_fmt(y)} outside range class {_fmt(c)} lacks negative pair with {_fmt(x)} for {_fmt(p)}"))

    # Typing II: domain membership of the reserved machinery.
    for p, c in dom_p:
        if p not in i.delta_p or c not in i.delta_c:
            out.append(Violation("Typing II.2", f"domain pair {_fmt_pair((p, c))} leaves the property/class domains"))
    for p, c in rng_p:
        if p not in i.delta_p or c not in i.delta_c:
            out.append(Violation("Typing II.3", f"range pair {_fmt_pair((p, c))} leaves the property/class domains"))
    for x, c in typ_p:
        if c not in i.delta_c:
            out.append(Violation("Typing II.4", f"type pair {_fmt_pair((x, c))} targets a non-class"))

    # Disjointness I: the disjointness relations themselves.
    for c, d in botc_p:
        if c not in i.delta_c or d not in i.delta_c:
            out.append(Violation("Disjointness I.1", f"class disjointness pair {_fmt_pair((c, d))} leaves the class domain"))
    for p, q in botp_p:
        if p not in i.delta_p or q not in i.delta_p:
            out.append(Violation("Disjointness I.2", f"property disjointness pair {_fmt_pair((p, q))} leaves the property domain"))

    def disjointness_family(rel: FrozenSet[Pair], sub: FrozenSet[Pair], dom: FrozenSet[Element], label: str) -> None:
        for c, d in rel:
            if (d, c) not in rel:
                out.append(Violation(f"{label}.Symmetry", f"{_fmt_pair((c, d))} without {_fmt_pair((d, c))}"))
        # below[c] lists the e with (e, c) in sub, in sub's iteration order.
        below: Dict[Element, List[Element]] = {}
        for e, c in sub:
            below.setdefault(c, []).append(e)
        for c, d in rel:
            for e in below.get(c, ()):
                if (e, d) not in rel:
                    out.append(Violation(f"{label}.Sub-Transitivity", f"{_fmt(e)} below {_fmt(c)} but {_fmt_pair((e, d))} missing"))
        for c, d in rel:
            if c != d:
                continue
            for e in dom - vocab_els:
                if (c, e) not in rel:
                    out.append(Violation(f"{label}.Exhaustive", f"self-disjoint {_fmt(c)} is not disjoint from {_fmt(e)}"))

    disjointness_family(botc_p, sc_p, i.delta_c, "Disjointness I.3")
    disjointness_family(botp_p, sp_p, i.delta_p, "Disjointness I.4")

    # Disjointness II: interaction with dom/range and complements.
    dom_by_class: Dict[Element, Set[Element]] = {}
    for p, c in dom_p:
        dom_by_class.setdefault(c, set()).add(p)
    rng_by_class: Dict[Element, Set[Element]] = {}
    for p, c in rng_p:
        rng_by_class.setdefault(c, set()).add(p)
    for c, d in botc_p:
        for p in dom_by_class.get(c, ()):
            for q in dom_by_class.get(d, ()):
                if (p, q) not in botp_p:
                    out.append(Violation("Disjointness II.1", f"domains {_fmt(c)}, {_fmt(d)} disjoint but properties {_fmt_pair((p, q))} are not"))
        for p in rng_by_class.get(c, ()):
            for q in rng_by_class.get(d, ()):
                if (p, q) not in botp_p:
                    out.append(Violation("Disjointness II.2", f"ranges {_fmt(c)}, {_fmt(d)} disjoint but properties {_fmt_pair((p, q))} are not"))
    for c, d in botc_p:
        if _is_negative_element(d):
            continue
        cd = i.complement.get(d)
        if cd is not None and (c, cd) not in sc_p:
            out.append(Violation("Disjointness II.3", f"{_fmt_pair((c, d))} disjoint but {_fmt(c)} not below complement {_fmt(cd)}"))
    for c, e in sc_p:
        if _is_negative_element(e):
            continue
        ce = i.complement.get(e)
        if ce is not None and (c, ce) not in botc_p:
            out.append(Violation("Disjointness II.3", f"{_fmt(c)} below {_fmt(e)} but not disjoint from complement {_fmt(ce)}"))
    for p, q in botp_p:
        if _is_negative_element(q):
            continue
        cq = i.complement.get(q)
        if cq is not None and (p, cq) not in sp_p:
            out.append(Violation("Disjointness II.4", f"{_fmt_pair((p, q))} disjoint but {_fmt(p)} not below complement {_fmt(cq)}"))
    for p, q in sp_p:
        if _is_negative_element(q):
            continue
        cq = i.complement.get(q)
        if cq is not None and (p, cq) not in botp_p:
            out.append(Violation("Disjointness II.4", f"{_fmt(p)} below {_fmt(q)} but not disjoint from complement {_fmt(cq)}"))
    return out


def _simple_violations(i: Interpretation, t: Triple, alpha: Mapping[Blank, Element]) -> List[Violation]:
    def el(x: Term) -> Optional[Element]:
        if isinstance(x, Blank) and x in alpha:
            return alpha[x]
        return i.denote.get(x)

    out: List[Violation] = []
    p_el = el(t.p)
    if p_el is None or p_el not in i.delta_p:
        cond = "Simple.2" if isinstance(t.o, Star) else "Simple.3" if isinstance(t.s, Star) else "Simple.1"
        out.append(Violation(cond, f"predicate of {_fmt_triple(t)} does not denote a property"))
        return out
    if isinstance(t.o, Star):
        s_el, c_el = el(t.s), i.denote.get(t.o.cls)
        if s_el is None or c_el is None or c_el not in i.delta_c:
            out.append(Violation("Simple.2", f"terms of {_fmt_triple(t)} lack denotations in the right domains"))
            return out
        ppos = i.pos_pairs(p_el)
        for y in i.pos_members(c_el):
            if (s_el, y) not in ppos:
                out.append(Violation("Simple.2", f"{_fmt_triple(t)}: member {_fmt(y)} of {_fmt(c_el)} is not reached"))
        nneg = i.neg_members(c_el)
        for x, y in i.neg_pairs(p_el):
            if x == s_el and y not in nneg:
                out.append(Violation("Simple.4", f"{_fmt_triple(t)}: negative pair with {_fmt(y)} outside the complement of {_fmt(c_el)}"))
        return out
    if isinstance(t.s, Star):
        o_el, c_el = el(t.o), i.denote.get(t.s.cls)
        if o_el is None or c_el is None or c_el not in i.delta_c:
            out.append(Violation("Simple.3", f"terms of {_fmt_triple(t)} lack denotations in the right domains"))
            return out
        ppos = i.pos_pairs(p_el)
        for x in i.pos_members(c_el):
            if (x, o_el) not in ppos:
                out.append(Violation("Simple.3", f"{_fmt_triple(t)}: member {_fmt(x)} of {_fmt(c_el)} does not reach it"))
        nneg = i.neg_members(c_el)
        for x, y in i.neg_pairs(p_el):
            if y == o_el and x not in nneg:
                out.append(Violation("Simple.5", f"{_fmt_triple(t)}: negative pair with {_fmt(x)} outside the complement of {_fmt(c_el)}"))
        return out
    s_el, o_el = el(t.s), el(t.o)
    if s_el is None or o_el is None:
        out.append(Violation("Simple.1", f"terms of {_fmt_triple(t)} lack denotations"))
        return out
    if (s_el, o_el) not in i.pos_pairs(p_el):
        out.append(Violation("Simple.1", f"{_fmt_triple(t)} has no pair in the extension of {_fmt(p_el)}"))
    return out


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
    """``rhodf.semantics.check_model`` without its cache of the
    graph-independent findings, so that both sides compute them."""
    violations: List[Violation] = _structural_violations(i) + _global_violations(i)

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
    if open_triples and solve(open_triples, _holding_assignments(i, free_set), _take) is None:
        names = ", ".join(serialize_term(b) for b in free)
        violations.append(Violation("Simple.Existential", f"no assignment of {names} over the resource domain satisfies the graph"))
    return SatisfactionReport(satisfied=not violations, violations=tuple(violations))

