"""Term algebra, triples and graphs for the rhodf logic.

The logic extends the small RDFS fragment built from the reserved names
``sp`` (subproperty), ``sc`` (subclass), ``type``, ``dom`` and ``range``
with three extra features:

* negated resources ``Neg(r)``, written ``!r``, defined only for plain
  non-reserved IRIs and involutive under :func:`negate`;
* universal star terms ``Star(c)``, written ``*c``, whose subscript is a
  class name (an IRI or a negated IRI);
* the disjointness predicates ``cdisj`` (class level) and ``pdisj``
  (property level), which join the reserved vocabulary.

A triple ``(s, p, o)`` is valid when

1. neither ``s`` nor ``o`` is one of the seven reserved names,
2. ``p`` is an IRI or a negated IRI (never a literal, blank or star),
3. ``s`` and ``o`` are not both star terms, and
4. a reserved predicate never takes a star subject or object.

Blank nodes and literals are allowed in subject and object position, so
both can act as classes or properties.  :func:`validate_triple` reports
violations of the rules above without raising; the :class:`Triple`
constructor enforces them.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Hashable, Iterable, Iterator, Mapping, Optional, Sequence, Tuple, Union

# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------

_set = object.__setattr__


class _Memo(dict):
    """The values of a one-argument function, each computed on first lookup."""

    def __init__(self, f: Callable[[Hashable], object]) -> None:
        self.f = f

    def __missing__(self, key: Hashable) -> object:
        value = self[key] = self.f(key)
        return value


class Record:
    """Base of the package's immutable record classes.

    A subclass names its fields in ``__slots__``, in constructor order,
    and its ``__init__`` stores them with ``object.__setattr__``; a slot
    whose name starts with ``_`` holds a cache, not a field.  Records of
    one class are equal when their fields are, hash as the tuple of their
    fields, print as ``Name(field=value, ...)`` and are rebuilt from their
    fields by ``pickle`` and ``copy``.  Assigning a field raises
    ``AttributeError``.  The classes built once per term or triple write
    these methods out, or at least ``__init__``, since they are hot.
    """

    __slots__ = ()
    _names: Tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls._names = tuple(name for name in cls.__slots__ if name[0] != "_")

    def _init(self, *values: object) -> None:
        for name, value in zip(self._names, values):
            _set(self, name, value)

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self._names])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join([f'{name}={getattr(self, name)!r}' for name in self._names])})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return (self.__class__, self._fields())


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------

_RESERVED_NAMES = frozenset({"sp", "sc", "type", "dom", "range", "cdisj", "pdisj"})


class Term(Record):
    """Base class for all term shapes.

    Each term has one field and computes its hash, that of the tuple of
    the field, once in ``__init__``; the ``_h`` slot keeps it.
    """

    __slots__ = ()


class Iri(Term):
    """A named resource.  Reserved names are ordinary ``Iri`` values."""

    __slots__ = ("name", "_h")

    def __init__(self, name: str) -> None:
        if not name:
            raise ValueError("IRI name must be non-empty")
        _set(self, "name", name)
        _set(self, "_h", hash((name,)))

    def __eq__(self, other: object) -> bool:
        return self.name == other.name if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return self._h


class Literal(Term):
    """A data value, identified by its lexical form."""

    __slots__ = ("lexical", "_h")

    def __init__(self, lexical: str) -> None:
        _set(self, "lexical", lexical)
        _set(self, "_h", hash((lexical,)))

    def __eq__(self, other: object) -> bool:
        return self.lexical == other.lexical if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return self._h


class Blank(Term):
    """A blank node.  Blank nodes act as the variables of entailment."""

    __slots__ = ("name", "_h")

    def __init__(self, name: str) -> None:
        if not name:
            raise ValueError("blank node label must be non-empty")
        _set(self, "name", name)
        _set(self, "_h", hash((name,)))

    def __eq__(self, other: object) -> bool:
        return self.name == other.name if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return self._h


class Neg(Term):
    """A negated resource.  Only plain non-reserved IRIs can be negated."""

    __slots__ = ("base", "_h")

    def __init__(self, base: Iri) -> None:
        if not isinstance(base, Iri):
            raise ValueError(f"only plain IRIs can be negated, got {base!r}")
        if base.name in _RESERVED_NAMES:
            raise ValueError(f"reserved name {base.name!r} cannot be negated")
        _set(self, "base", base)
        _set(self, "_h", hash((base,)))

    def __eq__(self, other: object) -> bool:
        return self.base == other.base if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return self._h


class Star(Term):
    """A universal class term.  ``Star(c)`` stands for every member of ``c``."""

    __slots__ = ("cls", "_h")

    def __init__(self, cls: Union[Iri, Neg]) -> None:
        if isinstance(cls, Iri):
            if cls.name in _RESERVED_NAMES:
                raise ValueError(f"reserved name {cls.name!r} cannot be a star subscript")
        elif not isinstance(cls, Neg):
            raise ValueError(f"star subscript must be an IRI or negated IRI, got {cls!r}")
        _set(self, "cls", cls)
        _set(self, "_h", hash((cls,)))

    def __eq__(self, other: object) -> bool:
        return self.cls == other.cls if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return self._h


# ---------------------------------------------------------------------------
# Reserved vocabulary
# ---------------------------------------------------------------------------

SP = Iri("sp")
SC = Iri("sc")
TYPE = Iri("type")
DOM = Iri("dom")
RANGE = Iri("range")
BOTC = Iri("cdisj")
BOTP = Iri("pdisj")

#: The five plain RDFS-style reserved names.
PLAIN_VOCAB: FrozenSet[Iri] = frozenset({SP, SC, TYPE, DOM, RANGE})

#: All seven reserved names, including the two disjointness predicates.
RESERVED_VOCAB: FrozenSet[Iri] = PLAIN_VOCAB | {BOTC, BOTP}


def is_reserved(t: Term) -> bool:
    """True for any of the seven reserved names."""
    return isinstance(t, Iri) and t.name in _RESERVED_NAMES


# ---------------------------------------------------------------------------
# Negation
# ---------------------------------------------------------------------------


def negate(t: Term) -> Term:
    """Return the complement of ``t``.

    A double negation request collapses, so ``negate(negate(a)) == a`` and
    no nested negation is ever constructed.  Blanks, literals, star terms
    and reserved names have no complement and raise ``ValueError``.
    """
    if isinstance(t, Neg):
        return t.base
    if isinstance(t, Iri):
        return Neg(t)
    raise ValueError(f"term {t!r} has no complement")


def try_negate(t: Term) -> Optional[Term]:
    """Like :func:`negate` but returns ``None`` where no complement exists."""
    if isinstance(t, Neg):
        return t.base
    if isinstance(t, Iri) and t.name not in _RESERVED_NAMES:
        return Neg(t)
    return None


# ---------------------------------------------------------------------------
# Triples
# ---------------------------------------------------------------------------

def validate_triple(s: Term, p: Term, o: Term) -> Tuple[str, ...]:
    """Check the triple validity conditions, returning violation codes.

    The codes are ``cond1``, ``cond3``, ``cond4`` and ``predicate-shape``
    for the conditions 1, 3, 4 and 2 of the module docstring.  An empty
    tuple means the triple is valid.  The check never raises for
    malformed combinations, only for non-``Term`` arguments.
    """
    for x in (s, p, o):
        if not isinstance(x, Term):
            raise TypeError(f"expected a Term, got {x!r}")
    violations = []
    if is_reserved(s) or is_reserved(o):
        violations.append("cond1")
    if isinstance(s, Star) and isinstance(o, Star):
        violations.append("cond3")
    if is_reserved(p) and (isinstance(s, Star) or isinstance(o, Star)):
        violations.append("cond4")
    if not isinstance(p, (Iri, Neg)):
        violations.append("predicate-shape")
    return tuple(violations)


class InvalidTripleError(ValueError):
    """Raised when a triple constructor receives an invalid combination."""

    def __init__(self, s: Term, p: Term, o: Term, violations: Tuple[str, ...]):
        super().__init__(f"invalid triple ({s!r}, {p!r}, {o!r}): {', '.join(violations)}")
        self.violations = violations


class Triple(Record):
    """A valid statement.  Construction enforces the validity conditions."""

    __slots__ = ("s", "p", "o")

    def __init__(self, s: Term, p: Term, o: Term) -> None:
        violations = validate_triple(s, p, o)
        if violations:
            raise InvalidTripleError(s, p, o, violations)
        _set(self, "s", s)
        _set(self, "p", p)
        _set(self, "o", o)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.s, self.p, self.o) == (other.s, other.p, other.o)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.s, self.p, self.o))

    def terms(self) -> Tuple[Term, Term, Term]:
        return (self.s, self.p, self.o)


def _trusted_triple(s: Term, p: Term, o: Term) -> Triple:
    """A :class:`Triple` of terms the caller has already checked against
    the validity conditions; they are not checked again."""
    t = object.__new__(Triple)
    _set(t, "s", s)
    _set(t, "p", p)
    _set(t, "o", o)
    return t


def try_triple(s: Term, p: Term, o: Term) -> Optional[Triple]:
    """Build a triple, or return ``None`` when the combination is invalid."""
    try:
        return Triple(s, p, o)
    except InvalidTripleError:
        return None


# ---------------------------------------------------------------------------
# Graphs
# ---------------------------------------------------------------------------


class Graph:
    """An immutable set of triples.

    Iteration follows first-insertion order so that every downstream
    computation is deterministic, while equality and hashing treat a graph
    as the plain set of its triples.  The closure's graph holds id triples
    instead and builds its :class:`Triple` values on first use; see
    :class:`_IdGraph`.
    """

    __slots__ = ("_order", "_set")

    def __init__(self, triples: Iterable[Triple] = ()):
        # One hash per triple: the set is built from the dict's stored hashes.
        order = dict.fromkeys(triples)
        for t in order:
            if not isinstance(t, Triple):
                raise TypeError(f"expected a Triple, got {t!r}")
        self._order: Tuple[Triple, ...] = tuple(order)
        self._set: FrozenSet[Triple] = frozenset(order)

    def __iter__(self) -> Iterator[Triple]:
        return iter(self._order)

    def __len__(self) -> int:
        return len(self._order)

    def __contains__(self, t: object) -> bool:
        return t in self._set

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._set == other._set

    def __hash__(self) -> int:
        return hash(self._set)

    def __repr__(self) -> str:
        return f"Graph({len(self)} triples)"

    def triples(self) -> Tuple[Triple, ...]:
        return self._order

    def _rows(self) -> Tuple[Iterable[tuple], Optional[Sequence[Term]]]:
        """The triples as ``(s, p, o)`` rows, in order, and the terms that
        the rows' entries index, or ``None`` where the entries are terms."""
        return map(Triple.terms, self._order), None

    @property
    def universe(self) -> FrozenSet[Term]:
        """All terms occurring in subject, predicate or object position."""
        out = set()
        for t in self._order:
            out.add(t.s)
            out.add(t.p)
            out.add(t.o)
        return frozenset(out)

    @property
    def blanks(self) -> FrozenSet[Blank]:
        return frozenset(t for t in self.universe if isinstance(t, Blank))

    @property
    def is_ground(self) -> bool:
        return not self.blanks


class _IdGraph(Graph):
    """A :class:`Graph` of distinct, valid ``(s, p, o)`` id triples: the
    closure's graph, and its only record of how each triple came about.

    ``keys`` maps each id triple, in graph order, to the rule and id
    premises of its first derivation, or to ``None`` for an input
    triple.  ``index`` is the closure engine's
    :class:`~rhodf.reasoner.TripleIndex` of those triples, whose
    ``table`` turns ids into terms through its ``terms`` list and terms
    into ids through its ``ids`` dict.  Length, membership and
    :func:`~rhodf.parser.serialize_graph` answer from the ids.  The
    :class:`Triple` values, and their set, are built when something
    first iterates, compares or hashes the graph.
    """

    __slots__ = ("_keys", "_index")

    def __init__(self, keys: Dict[Tuple[int, int, int], Optional[tuple]], index: object) -> None:
        self._keys = keys
        self._index = index

    def __getattr__(self, name: str) -> object:
        # Reached only for an unset slot: build the triples once.
        if name != "_order" and name != "_set":
            raise AttributeError(name)
        terms = self._index.table.terms
        self._order = tuple([_trusted_triple(terms[s], terms[p], terms[o]) for s, p, o in self._keys])
        self._set = frozenset(self._order)
        return getattr(self, name)

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, t: object) -> bool:
        if t.__class__ is not Triple:
            return False
        ids = self._index.table.ids
        return (ids.get(t.s), ids.get(t.p), ids.get(t.o)) in self._keys

    def __reduce__(self) -> tuple:
        return (_IdGraph, (self._keys, self._index))

    def _rows(self) -> Tuple[Iterable[tuple], Optional[Sequence[Term]]]:
        return self._keys, self._index.table.terms


# ---------------------------------------------------------------------------
# Blank-node maps
# ---------------------------------------------------------------------------


class VariableMap(Record):
    """A substitution sending blank nodes to terms (identity elsewhere)."""

    __slots__ = ("assignment",)

    def __init__(self, assignment: Mapping[Blank, Term]) -> None:
        _set(self, "assignment", assignment)

    @classmethod
    def identity(cls) -> "VariableMap":
        return cls({})

    @classmethod
    def of(cls, pairs: Dict[Blank, Term]) -> "VariableMap":
        return cls(dict(pairs))

    @property
    def is_identity(self) -> bool:
        return all(k == v for k, v in self.assignment.items())

    def __len__(self) -> int:
        return len(self.assignment)

    def items(self) -> Iterable[Tuple[Blank, Term]]:
        return self.assignment.items()

    def apply(self, t: Term) -> Term:
        """Image of a term.  Blanks are only mapped at the top level since
        star subscripts can never be blank."""
        if isinstance(t, Blank):
            return self.assignment.get(t, t)
        return t

    def apply_triple(self, t: Triple) -> Triple:
        return Triple(self.apply(t.s), self.apply(t.p), self.apply(t.o))


def apply_map(mu: VariableMap, g: Graph) -> Graph:
    """Apply ``mu`` to every triple of ``g``.

    Distinct triples may collapse to one image.  If any image violates the
    triple validity conditions the substitution is rejected with
    :class:`InvalidTripleError`.
    """
    return Graph(mu.apply_triple(t) for t in g)
