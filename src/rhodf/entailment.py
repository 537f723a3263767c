"""Entailment decisions, the witness search and proof extraction.

A graph ``g`` entails a graph ``h`` when some blank-node substitution
sends every triple of ``h`` into the closure of ``g``.  Blank nodes in
``h`` act as existential variables; blank nodes in ``g`` (and so in the
closure) are plain constants a variable may map to.

:func:`solve` is the one backtracking search of the package.  It places
patterns one at a time, always the one with the fewest candidates under
the bindings made so far, keeps its choices on an explicit stack, and
counts every candidate it tries against an optional budget; exceeding
the budget raises :class:`SearchBudgetExceeded` so callers can tell
"gave up" apart from "does not hold".  :func:`entails` decides every
query by it, over the id triples of the closure engine's own
:class:`~rhodf.reasoner.TripleIndex`; :func:`find_map` indexes its
target the same way.  The model checker in :mod:`rhodf.semantics`
feeds it the blank assignments under which a triple holds in an
interpretation.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, List, Optional, Sequence, Set, Tuple, TypeVar

from .core import Blank, Graph, Record, Triple, VariableMap, apply_map
from .reasoner import ClosureResult, IdTriple, ProofStep, RuleId, TermTable, TripleIndex
from .reasoner import _closure as closure

C = TypeVar("C")
Bindings = Dict[Blank, Hashable]


class SearchBudgetExceeded(RuntimeError):
    """The homomorphism search hit its candidate budget before finishing."""

    def __init__(self, budget: int):
        super().__init__(f"homomorphism search exceeded its budget of {budget} candidate attempts")
        self.budget = budget


class EntailmentReport(Record):
    """Outcome of an entailment query.

    ``map`` is the witnessing substitution when the judgment holds and
    the query had blank nodes.  ``proof`` is filled only on request.
    ``missing`` lists query triples with no individual match in the
    closure; it is empty when the judgment holds.
    """

    __slots__ = ("holds", "map", "proof", "missing")

    def __init__(
        self,
        holds: bool,
        map: Optional[VariableMap] = None,
        proof: Optional[Tuple[ProofStep, ...]] = None,
        missing: Tuple[Triple, ...] = (),
    ) -> None:
        self._init(holds, map, proof, missing)


class _Choice:
    """One placed pattern: where it sat, and the candidates left to try."""

    __slots__ = ("index", "pattern", "candidates", "bound")

    def __init__(self, index: int, pattern: int, candidates) -> None:
        self.index = index
        self.pattern = pattern
        self.candidates = iter(candidates)
        self.bound: Tuple[Blank, ...] = ()


def solve(
    patterns: Sequence[Triple],
    candidates: Callable[[Triple, Bindings], Sequence[C]],
    bind: Callable[[Triple, C, Bindings], Optional[Bindings]],
    budget: Optional[int] = None,
) -> Optional[Bindings]:
    """Bindings under which every pattern takes one of its candidates.

    ``candidates(pattern, sigma)`` lists the candidates of a pattern
    under the bindings ``sigma``; ``bind(pattern, candidate, sigma)``
    returns the new bindings the candidate adds, or ``None`` when it
    conflicts with ``sigma``.  The pattern with the fewest candidates
    goes next, the earliest one on a tie, and its candidates are tried
    in the order given.  Returns ``None`` when no choice of candidates
    fits together.  With ``budget`` set, the search raises
    :class:`SearchBudgetExceeded` once it has tried more candidates.

    A pattern's candidates may depend on ``sigma`` only through the
    bindings of the pattern's own blanks, its blank subject and object.
    The search relies on this: it lists a pattern again only after one
    of those blanks was bound or unbound, so each placement costs a
    constant number of listings rather than one per remaining pattern.
    """
    sigma: Bindings = {}
    listed: List[Optional[Sequence[C]]] = [None] * len(patterns)
    users: Dict[Blank, List[int]] = {}
    for n, pattern in enumerate(patterns):
        for x in dict.fromkeys((pattern.s, pattern.o)):
            if isinstance(x, Blank):
                users.setdefault(x, []).append(n)

    def forget(keys: Tuple[Blank, ...]) -> None:
        for k in keys:
            for n in users.get(k, ()):
                listed[n] = None

    remaining = list(range(len(patterns)))
    stack: List[_Choice] = []
    attempts = 0
    while remaining:
        best_i, best_c = 0, None
        for i, n in enumerate(remaining):
            c = listed[n]
            if c is None:
                c = listed[n] = candidates(patterns[n], sigma)
            if best_c is None or len(c) < len(best_c):
                best_i, best_c = i, c
                if not c:
                    break
        stack.append(_Choice(best_i, remaining.pop(best_i), best_c))
        # Move the newest choice to its next candidate that fits; when
        # it has none left, put its pattern back and move the one before.
        while True:
            if not stack:
                return None
            top = stack[-1]
            for k in top.bound:
                del sigma[k]
            forget(top.bound)
            new = None
            for cand in top.candidates:
                attempts += 1
                if budget is not None and attempts > budget:
                    raise SearchBudgetExceeded(budget)
                new = bind(patterns[top.pattern], cand, sigma)
                if new is not None:
                    break
            if new is not None:
                sigma.update(new)
                top.bound = tuple(new)
                forget(top.bound)
                break
            stack.pop()
            remaining.insert(top.index, top.pattern)
    return sigma


def _match_candidates(target: Graph, ix: Optional[TripleIndex] = None) -> Tuple[Callable, Callable]:
    """Candidate lister and binder for :func:`solve`: the lister gives
    the triples of ``target`` a query triple can match under the bindings
    so far, as id triples of ``ix``, a :class:`~rhodf.reasoner.TripleIndex`
    of ``target`` built here unless given, and the binder binds the
    query's blanks to the terms of one of them.  A given ``ix`` comes
    with the closure graph of its own term table."""
    if ix is None:
        table = TermTable()
        keys = dict.fromkeys(map(table.encode, target))
        ix = TripleIndex(table, keys)
    else:
        keys = target._keys
    ids, terms = ix.table.ids, ix.table.terms

    def candidates(t: Triple, sigma: Bindings) -> Sequence[IdTriple]:
        s = sigma.get(t.s) if isinstance(t.s, Blank) else t.s
        o = sigma.get(t.o) if isinstance(t.o, Blank) else t.o
        p = ids.get(t.p)
        if s is not None and o is not None:
            key = (ids.get(s), p, ids.get(o))
            return (key,) if key in keys else ()
        if s is not None:
            return ix.by_sp.get((ids.get(s), p), ())
        if o is not None:
            return ix.by_po.get((p, ids.get(o)), ())
        return ix.by_pred.get(p, ())

    def unify(pattern: Triple, cand: IdTriple, sigma: Bindings) -> Optional[Bindings]:
        new: Bindings = {}
        for pt, ct in ((pattern.s, terms[cand[0]]), (pattern.o, terms[cand[2]])):
            if isinstance(pt, Blank):
                cur = sigma.get(pt, new.get(pt))
                if cur is None:
                    new[pt] = ct
                elif cur != ct:
                    return None
            elif pt != ct:
                return None
        return new

    return candidates, unify


def find_map(h: Graph, target: Graph, budget: Optional[int] = None) -> Optional[VariableMap]:
    """A substitution sending every triple of ``h`` into ``target``.

    Returns ``None`` when no such substitution exists.  The search is
    exhaustive; with ``budget`` set it raises
    :class:`SearchBudgetExceeded` after that many candidate attempts.
    """
    sigma = solve(list(h), *_match_candidates(target), budget)
    return None if sigma is None else VariableMap.of({v: sigma[v] for v in h.blanks})


def extract_proof(h: Graph, mu: VariableMap, result: ClosureResult) -> Tuple[ProofStep, ...]:
    """Linear derivation of ``mu(h)`` from the closure's provenance.

    Input triples enter through rule 1b steps with no premises, derived
    triples through their recorded first derivation, and each step's
    premises appear earlier in the sequence.  A final rule 1a step maps
    the derived triples onto ``h``; it is omitted when ``h`` is ground
    and ``mu`` is the identity, where the map rule would do no work.
    """
    goal = apply_map(mu, h)
    for t in goal:
        if t not in result.closure:
            raise ValueError(f"triple {t} is not in the closure")
    steps: List[ProofStep] = []
    emitted: Set[Triple] = set()
    # Steps are built only for the triples of the proof.
    derived = result._derived()

    def visit(root: Triple) -> None:
        # Iterative post-order; provenance chains can be deep.  A triple
        # comes back with its step once its premises are done.
        stack: List[Tuple[Triple, Optional[ProofStep]]] = [(root, None)]
        while stack:
            t, step = stack.pop()
            if t in emitted:
                continue
            if step is None:
                rule, premises = derived.get(t, (RuleId.R1B, ()))
                step = ProofStep(rule, premises, t)
                if premises:
                    stack.append((t, step))
                    stack.extend((prem, None) for prem in reversed(premises))
                    continue
            emitted.add(t)
            steps.append(step)

    for t in goal:
        visit(t)
    if not (mu.is_identity and h.is_ground):
        steps.append(
            ProofStep(
                RuleId.R1A,
                premises=goal.triples(),
                conclusion=None,
                map=mu,
                targets=h.triples(),
            )
        )
    return tuple(steps)


def entails(
    g: Graph,
    h: Graph,
    mode: str = "full",
    *,
    cap: Optional[int] = None,
    budget: Optional[int] = None,
    with_proof: bool = False,
) -> EntailmentReport:
    """Decide whether ``g`` entails ``h`` under the selected rule set.

    One witness search over the closure's own index decides every
    query; a ground query's triples have one candidate at most.
    ``budget`` bounds the search of a query with blanks, and ``map`` is
    reported only for such a query.
    """
    result = closure(g, mode, cap=cap)
    blanks = h.blanks
    candidates, unify = _match_candidates(result.closure, result._index)
    sigma = solve(list(h), candidates, unify, budget if blanks else None)
    if sigma is None:
        return EntailmentReport(holds=False, missing=tuple(t for t in h if not candidates(t, {})))
    mu = VariableMap.of({v: sigma[v] for v in blanks})
    proof = extract_proof(h, mu, result) if with_proof else None
    return EntailmentReport(holds=True, map=mu if blanks else None, proof=proof)
