"""Reading and writing the line-oriented `.rnt` triple format.

Syntax summary::

    # comment to end of line
    subject predicate object .
    ebola !hasTreatment *treatment .
    _:x <some iri> "a literal" .

* bare names match ``[A-Za-z][A-Za-z0-9_-]*``; the reserved keywords
  ``sp sc type dom range cdisj pdisj`` are ordinary bare names,
* ``<...>`` wraps any other IRI text and is equivalent to the bare form,
* ``"..."`` is a literal with exactly two escapes, ``\\"`` and ``\\\\``,
* ``_:name`` is a blank node,
* ``!`` negates the following term and ``*`` builds a star term;
  prefixes nest right to left, so ``*!c`` is the star over ``!c`` while
  ``!!c`` collapses to ``c``; the unicode aliases ``¬`` and ``⋆`` are
  accepted on input but never produced,
* every statement ends with ``.`` and several statements may share a line.

Since statements never span lines, the reader works one line at a time:
one token regex splits a line into tokens and a statement loop builds
triples from them.  Errors never abort the scan.  Each malformed
statement is reported with a 1-based line and column, and reading
resumes right after its ``.`` or at the next line, whichever comes
first, so a file with k bad lines produces at least k diagnostics.
"""

from __future__ import annotations

import re
from typing import Iterator, List, Optional, Tuple, Union

from .core import (
    Blank,
    Graph,
    InvalidTripleError,
    Iri,
    Literal,
    Neg,
    Record,
    Star,
    Term,
    Triple,
    negate,
)

BARE_NAME = re.compile(r"[A-Za-z][A-Za-z0-9_-]*")
BLANK_LABEL = re.compile(r"[A-Za-z0-9_-]+")


class SourceSpan(Record):
    """1-based line and column of a token or diagnostic."""

    __slots__ = ("line", "column")

    def __init__(self, line: int, column: int) -> None:
        object.__setattr__(self, "line", line)
        object.__setattr__(self, "column", column)

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


class ParseError(Record):
    """A single diagnostic.  ``kind`` is lexical, structural or validation."""

    __slots__ = ("message", "span", "kind")

    def __init__(self, message: str, span: SourceSpan, kind: str) -> None:
        self._init(message, span, kind)

    def __str__(self) -> str:
        return f"{self.span}: {self.kind}: {self.message}"


class GraphParseError(ValueError):
    """Raised by :func:`parse_graph` with the full diagnostic list."""

    def __init__(self, errors: List[ParseError]):
        preview = "; ".join(str(e) for e in errors[:3])
        more = "" if len(errors) <= 3 else f" (+{len(errors) - 3} more)"
        super().__init__(f"{len(errors)} parse error(s): {preview}{more}")
        self.errors = list(errors)


# ---------------------------------------------------------------------------
# Reader
# ---------------------------------------------------------------------------

# One alternative per token shape, tried in order at each position.  The
# unterminated forms and the single-character catch-all come after the
# well-formed ones, so every character of a line starts some match.
_TOKEN = re.compile(
    rf"""(?P<skip>[ \t\r]+|\#.*)
      | (?P<dot>\.)
      | (?P<prefix>[!¬*⋆])
      | <(?P<iri>[^>]*)>
      | (?P<open_iri><.*)
      | "(?P<literal>(?:[^"\\]|\\.)*)"
      | "(?P<open_literal>.*)
      | _:(?P<blank>{BLANK_LABEL.pattern})
      | (?P<name>{BARE_NAME.pattern})
      | (?P<other>.)""",
    re.VERBOSE,
)
_ESCAPE = re.compile(r"\\(.?)")

# A token is ".", "!", "*" or a base term, paired with the span it starts at.
_Spanned = Tuple[object, SourceSpan]


def _unescape(body: str, lineno: int, column: int, errors: List[ParseError]) -> str:
    """Resolve the escapes of a literal body that starts at ``column``;
    a bad escape is reported at its backslash and its character dropped."""

    def resolve(m: re.Match) -> str:
        if m.group(1) and m.group(1) in '"\\':
            return m.group(1)
        message = "unsupported escape in literal (only \\\" and \\\\ exist)"
        errors.append(ParseError(message, SourceSpan(lineno, column + m.start()), "lexical"))
        return ""

    return _ESCAPE.sub(resolve, body)


def _tokens(lineno: int, line: str, errors: List[ParseError]) -> Iterator[_Spanned]:
    """The tokens of one line; lexical errors go to ``errors``."""
    for m in _TOKEN.finditer(line):
        kind = m.lastgroup
        if kind == "skip":
            continue
        span = SourceSpan(lineno, m.start() + 1)
        if kind == "name":
            yield Iri(m.group(kind)), span
        elif kind == "dot":
            yield ".", span
        elif kind == "prefix":
            yield ("!" if m.group(kind) in "!¬" else "*"), span
        elif kind == "literal":
            yield Literal(_unescape(m.group(kind), lineno, m.start(kind) + 1, errors)), span
        elif kind == "blank":
            yield Blank(m.group(kind)), span
        elif kind == "iri":
            if m.group(kind):
                yield Iri(m.group(kind)), span
            else:
                errors.append(ParseError("empty IRI reference", span, "lexical"))
        elif kind == "open_iri":
            errors.append(ParseError("unterminated IRI reference", span, "lexical"))
        elif kind == "open_literal":
            _unescape(m.group(kind), lineno, m.start(kind) + 1, errors)
            errors.append(ParseError("unterminated literal", span, "lexical"))
        elif m.group(kind) == "_":
            errors.append(ParseError("malformed blank node label", span, "lexical"))
        else:
            errors.append(ParseError(f"unexpected character {m.group(kind)!r}", span, "lexical"))


def _apply_prefixes(base: Term, prefixes: List[_Spanned]) -> Union[Term, ParseError]:
    # Innermost prefix (closest to the base) applies first.
    term = base
    for prefix, span in reversed(prefixes):
        if prefix == "*" and not isinstance(term, (Iri, Neg)):
            return ParseError("star subscript must be an IRI or negated IRI", span, "validation")
        try:
            term = Star(term) if prefix == "*" else negate(term)
        except ValueError as exc:
            return ParseError(str(exc), span, "validation")
    return term


_VIOLATION_TEXT = {
    "cond1": "reserved vocabulary cannot be a subject or object",
    "cond3": "subject and object cannot both be star terms",
    "cond4": "reserved predicates take no star subject or object",
    "predicate-shape": "predicate must be an IRI or negated IRI",
}


def _finish(terms: List[_Spanned], dot: SourceSpan, triples: List[Triple], errors: List[ParseError]) -> None:
    if len(terms) != 3:
        errors.append(ParseError(f"expected 3 terms before '.', found {len(terms)}", dot, "structural"))
        return
    (s, span), (p, _), (o, _) = terms
    try:
        triples.append(Triple(s, p, o))
    except InvalidTripleError as exc:
        for code in exc.violations:
            errors.append(ParseError(_VIOLATION_TEXT[code], span, "validation"))


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------


def parse_graph_lenient(text: str) -> Tuple[Graph, List[ParseError]]:
    """Parse as much as possible, returning the good triples and all errors."""
    triples: List[Triple] = []
    lex_errors: List[ParseError] = []
    errors: List[ParseError] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        terms: List[_Spanned] = []  # the open statement's terms, spanned from their first prefix
        prefixes: List[_Spanned] = []  # prefixes still waiting for their base term
        last: Optional[SourceSpan] = None  # the open statement's last token
        skipping = False  # after a bad term, until the statement's '.'
        for token, span in _tokens(lineno, line, lex_errors):
            if skipping:
                skipping = token != "."
            elif isinstance(token, Term):
                term = _apply_prefixes(token, prefixes)
                if isinstance(term, ParseError):
                    errors.append(term)
                    terms, prefixes, last, skipping = [], [], None, True
                else:
                    terms.append((term, prefixes[0][1] if prefixes else span))
                    prefixes, last = [], span
            elif token == ".":
                if prefixes:
                    errors.append(ParseError("prefix without a following term", span, "structural"))
                else:
                    _finish(terms, span, triples, errors)
                terms, prefixes, last = [], [], None
            else:
                prefixes.append((token, span))
                last = span
        if last is not None:
            errors.append(ParseError("statement is missing its terminating '.'", last, "structural"))
    # A lexical error sorts before a statement's error at the same place.
    errors = sorted(lex_errors + errors, key=lambda e: (e.span.line, e.span.column))
    return Graph(triples), errors


def parse_graph(text: str) -> Graph:
    """Parse a full document, raising :class:`GraphParseError` on any defect."""
    graph, errors = parse_graph_lenient(text)
    if errors:
        raise GraphParseError(errors)
    return graph


def parse_term(text: str) -> Term:
    """Parse a single term, as it would appear inside a statement."""
    errors: List[ParseError] = []
    tokens = [tok for n, line in enumerate(text.splitlines(), start=1) for tok in _tokens(n, line, errors)]
    if errors:
        raise ValueError(str(errors[0]))
    lines = {span.line for _, span in tokens}  # a term, like a statement, sits on one line
    if len(lines) != 1 or not isinstance(tokens[-1][0], Term) or any(t not in ("!", "*") for t, _ in tokens[:-1]):
        raise ValueError(f"expected exactly one term, got {text!r}")
    term = _apply_prefixes(tokens[-1][0], tokens[:-1])
    if isinstance(term, ParseError):
        raise ValueError(str(term))
    return term


def serialize_term(t: Term) -> str:
    """Render a term in the canonical form the parser reads back."""
    if isinstance(t, Iri):
        if BARE_NAME.fullmatch(t.name):
            return t.name
        if ">" in t.name or "\n" in t.name:
            raise ValueError(f"IRI {t.name!r} is not representable")
        return f"<{t.name}>"
    if isinstance(t, Literal):
        if "\n" in t.lexical:
            raise ValueError("literal with a newline is not representable")
        body = t.lexical.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{body}"'
    if isinstance(t, Blank):
        if not BLANK_LABEL.fullmatch(t.name):
            raise ValueError(f"blank label {t.name!r} is not representable")
        return f"_:{t.name}"
    if isinstance(t, Neg):
        return "!" + serialize_term(t.base)
    if isinstance(t, Star):
        return "*" + serialize_term(t.cls)
    raise TypeError(f"cannot serialize {t!r}")


def serialize_triple(t: Triple) -> str:
    return f"{serialize_term(t.s)} {serialize_term(t.p)} {serialize_term(t.o)} ."


def serialize_graph(g: Graph) -> str:
    """Render one statement per line, sorted by the serialized terms.

    Sorting whole lines gives that order: a serialized term that is a
    proper prefix of another is a bare name or blank label, whose next
    character sorts after the space that ends the shorter one."""
    return "".join(sorted(f"{serialize_triple(t)}\n" for t in g))
