"""The token-cursor `.rnt` reader, kept as an independent oracle.

This is :mod:`rhodf.parser`'s reader as it stood before it moved to one
token regex per line: a character-loop lexer over the whole document,
then a cursor over the token list that skips to the next ``.`` after a
malformed statement.  One line differs from that reader: a prefix right
before ``.`` is reported without skipping ahead, so the next statement
on the line is still read.  ``tests/test_parser.py`` diffs the
library's reader against this one on graphs, diagnostics and single
terms.  Nothing in the library imports this module.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from rhodf.core import (
    Blank,
    Graph,
    InvalidTripleError,
    Iri,
    Literal,
    Neg,
    Star,
    Term,
    Triple,
    negate,
)

BARE_NAME = re.compile(r"[A-Za-z][A-Za-z0-9_-]*")
BLANK_LABEL = re.compile(r"[A-Za-z0-9_-]+")


@dataclass(frozen=True)
class SourceSpan:
    """1-based line and column of a token or diagnostic."""

    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


@dataclass(frozen=True)
class ParseError:
    """A single diagnostic.  ``kind`` is lexical, structural or validation."""

    message: str
    span: SourceSpan
    kind: str

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
# Lexer
# ---------------------------------------------------------------------------

# Token kinds: DOT, BANG, STAR, and the term bases IRI, LITERAL, BLANK.
@dataclass(frozen=True)
class _Token:
    kind: str
    value: str
    span: SourceSpan


def _lex(text: str) -> Tuple[List[_Token], List[ParseError]]:
    tokens: List[_Token] = []
    errors: List[ParseError] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        pos = 0
        n = len(line)
        while pos < n:
            c = line[pos]
            span = SourceSpan(lineno, pos + 1)
            if c in " \t\r":
                pos += 1
            elif c == "#":
                break
            elif c == ".":
                tokens.append(_Token("DOT", ".", span))
                pos += 1
            elif c in "!¬":
                tokens.append(_Token("BANG", "!", span))
                pos += 1
            elif c in "*⋆":
                tokens.append(_Token("STAR", "*", span))
                pos += 1
            elif c == "<":
                end = line.find(">", pos + 1)
                if end < 0:
                    errors.append(ParseError("unterminated IRI reference", span, "lexical"))
                    pos = n
                else:
                    name = line[pos + 1 : end]
                    if not name:
                        errors.append(ParseError("empty IRI reference", span, "lexical"))
                    else:
                        tokens.append(_Token("IRI", name, span))
                    pos = end + 1
            elif c == '"':
                chunk: List[str] = []
                pos += 1
                closed = False
                while pos < n:
                    ch = line[pos]
                    if ch == "\\":
                        if pos + 1 < n and line[pos + 1] in '"\\':
                            chunk.append(line[pos + 1])
                            pos += 2
                        else:
                            errors.append(
                                ParseError(
                                    "unsupported escape in literal (only \\\" and \\\\ exist)",
                                    SourceSpan(lineno, pos + 1),
                                    "lexical",
                                )
                            )
                            pos += 2
                    elif ch == '"':
                        closed = True
                        pos += 1
                        break
                    else:
                        chunk.append(ch)
                        pos += 1
                if closed:
                    tokens.append(_Token("LITERAL", "".join(chunk), span))
                else:
                    errors.append(ParseError("unterminated literal", span, "lexical"))
            elif c == "_":
                m = BLANK_LABEL.match(line, pos + 2) if line.startswith("_:", pos) else None
                if m is None:
                    errors.append(ParseError("malformed blank node label", span, "lexical"))
                    pos += 1
                else:
                    tokens.append(_Token("BLANK", m.group(0), span))
                    pos = m.end()
            else:
                m = BARE_NAME.match(line, pos)
                if m is None:
                    errors.append(ParseError(f"unexpected character {c!r}", span, "lexical"))
                    pos += 1
                else:
                    tokens.append(_Token("IRI", m.group(0), span))
                    pos = m.end()
    return tokens, errors


# ---------------------------------------------------------------------------
# Statement assembly
# ---------------------------------------------------------------------------


def _base_term(tok: _Token) -> Term:
    if tok.kind == "IRI":
        return Iri(tok.value)
    if tok.kind == "LITERAL":
        return Literal(tok.value)
    return Blank(tok.value)


def _apply_prefixes(base: Term, prefixes: List[_Token]) -> Tuple[Optional[Term], Optional[ParseError]]:
    # Innermost prefix (closest to the base) applies first.
    term = base
    for tok in reversed(prefixes):
        if tok.kind == "STAR":
            if not isinstance(term, (Iri, Neg)):
                return None, ParseError(
                    "star subscript must be an IRI or negated IRI", tok.span, "validation"
                )
            try:
                term = Star(term)
            except ValueError as exc:
                return None, ParseError(str(exc), tok.span, "validation")
        else:
            try:
                term = negate(term)
            except ValueError as exc:
                return None, ParseError(str(exc), tok.span, "validation")
    return term, None


_VIOLATION_TEXT = {
    "cond1": "reserved vocabulary cannot be a subject or object",
    "cond3": "subject and object cannot both be star terms",
    "cond4": "reserved predicates take no star subject or object",
    "predicate-shape": "predicate must be an IRI or negated IRI",
}


class _Parser:
    def __init__(self, tokens: List[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.errors: List[ParseError] = []
        self.triples: List[Triple] = []

    def run(self) -> None:
        while self.pos < len(self.tokens):
            self._statement()

    def _fail(self, err: ParseError) -> None:
        """Record a diagnostic, then resume at the next '.' or the next line."""
        self.errors.append(err)
        while self.pos < len(self.tokens):
            tok = self.tokens[self.pos]
            if tok.span.line > err.span.line:
                return
            self.pos += 1
            if tok.kind == "DOT":
                return

    def _statement(self) -> None:
        terms: List[Tuple[Term, SourceSpan]] = []
        prefixes: List[_Token] = []
        last_span: Optional[SourceSpan] = None
        while self.pos < len(self.tokens):
            tok = self.tokens[self.pos]
            if last_span is not None and tok.span.line > last_span.line:
                # Statements never span lines, so an open one ends here.
                self.errors.append(
                    ParseError("statement is missing its terminating '.'", last_span, "structural")
                )
                return
            last_span = tok.span
            if tok.kind == "DOT":
                self.pos += 1
                if prefixes:
                    self.errors.append(ParseError("prefix without a following term", tok.span, "structural"))
                    return
                self._finish(terms, tok.span)
                return
            if tok.kind in ("BANG", "STAR"):
                prefixes.append(tok)
                self.pos += 1
                continue
            self.pos += 1
            term, err = _apply_prefixes(_base_term(tok), prefixes)
            if err is not None:
                self._fail(err)
                return
            span = prefixes[0].span if prefixes else tok.span
            prefixes = []
            assert term is not None
            terms.append((term, span))
        if terms or prefixes:
            last = self.tokens[-1]
            self.errors.append(
                ParseError("statement is missing its terminating '.'", last.span, "structural")
            )

    def _finish(self, terms: List[Tuple[Term, SourceSpan]], dot_span: SourceSpan) -> None:
        if len(terms) != 3:
            self.errors.append(
                ParseError(
                    f"expected 3 terms before '.', found {len(terms)}", dot_span, "structural"
                )
            )
            return
        (s, span), (p, _), (o, _) = terms
        try:
            self.triples.append(Triple(s, p, o))
        except InvalidTripleError as exc:
            for code in exc.violations:
                self.errors.append(ParseError(_VIOLATION_TEXT[code], span, "validation"))


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------


def parse_graph_lenient(text: str) -> Tuple[Graph, List[ParseError]]:
    """Parse as much as possible, returning the good triples and all errors."""
    tokens, lex_errors = _lex(text)
    parser = _Parser(tokens)
    parser.run()
    errors = sorted(
        lex_errors + parser.errors, key=lambda e: (e.span.line, e.span.column)
    )
    return Graph(parser.triples), errors


def parse_graph(text: str) -> Graph:
    """Parse a full document, raising :class:`GraphParseError` on any defect."""
    graph, errors = parse_graph_lenient(text)
    if errors:
        raise GraphParseError(errors)
    return graph


def parse_term(text: str) -> Term:
    """Parse a single term, as it would appear inside a statement."""
    tokens, lex_errors = _lex(text)
    if lex_errors:
        raise ValueError(str(lex_errors[0]))
    prefixes = [t for t in tokens if t.kind in ("BANG", "STAR")]
    bases = [t for t in tokens if t.kind not in ("BANG", "STAR")]
    if (
        len(bases) != 1
        or bases[0].kind not in ("IRI", "LITERAL", "BLANK")
        or prefixes != tokens[: len(prefixes)]
    ):
        raise ValueError(f"expected exactly one term, got {text!r}")
    term, err = _apply_prefixes(_base_term(bases[0]), prefixes)
    if err is not None:
        raise ValueError(str(err))
    assert term is not None
    return term
