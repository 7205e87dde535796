"""Recursive-descent parser for the SPARQL subset used in the evaluation.

Grammar (informal)::

    query      := prefix* "SELECT" ("DISTINCT")? projection "WHERE" group limit?
    prefix     := "PREFIX" NAME ":" IRI          # also accepts PNAME-style "y:"
    projection := "*" | VAR+
    group      := "{" (triple | filter)* "}"
    triple     := term term term "."?
    filter     := "FILTER" "(" term OP term ")"
    limit      := "LIMIT" NUMBER

Everything the paper's workloads need (Example 1, the WatDiv template
families, the YAGO/Bio2RDF templates from the referenced benchmark suites) is
expressible in this subset.
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import ParseError
from repro.rdf.namespace import DEFAULT_PREFIXES, PrefixMap, RDF
from repro.rdf.terms import IRI, Literal, TermLike, Variable, XSD_DOUBLE, XSD_INTEGER
from repro.sparql.ast import Filter, SelectQuery, TriplePattern
from repro.sparql.tokenizer import Token, tokenize

__all__ = ["parse_query", "canonical_query_text", "QueryParser"]


class QueryParser:
    """Parses one SELECT query; construct a new instance per parse."""

    def __init__(self, text: str, prefixes: PrefixMap | None = None):
        self._tokens: List[Token] = tokenize(text)
        self._position = 0
        self._prefixes = (prefixes or DEFAULT_PREFIXES).copy()

    # ------------------------------------------------------------------ #
    # Token stream helpers
    # ------------------------------------------------------------------ #
    def _peek(self) -> Optional[Token]:
        if self._position < len(self._tokens):
            return self._tokens[self._position]
        return None

    def _next(self) -> Token:
        token = self._peek()
        if token is None:
            raise ParseError("unexpected end of query")
        self._position += 1
        return token

    def _expect(self, token_type: str, value: str | None = None) -> Token:
        token = self._next()
        if token.type != token_type or (value is not None and token.value.upper() != value.upper()):
            expectation = value or token_type
            raise ParseError(
                f"expected {expectation}, found {token.value!r}", line=token.line, column=token.column
            )
        return token

    def _at_keyword(self, keyword: str) -> bool:
        token = self._peek()
        return token is not None and token.is_keyword(keyword)

    # ------------------------------------------------------------------ #
    # Grammar productions
    # ------------------------------------------------------------------ #
    def parse(self) -> SelectQuery:
        self._parse_prologue()
        self._expect("KEYWORD", "SELECT")
        distinct = False
        if self._at_keyword("DISTINCT"):
            self._next()
            distinct = True
        projection = self._parse_projection()
        self._expect("KEYWORD", "WHERE")
        patterns, filters = self._parse_group()
        limit = self._parse_limit()
        if self._peek() is not None:
            token = self._peek()
            assert token is not None
            raise ParseError(f"unexpected trailing token {token.value!r}", line=token.line, column=token.column)
        return SelectQuery(
            projection=tuple(projection),
            patterns=tuple(patterns),
            filters=tuple(filters),
            distinct=distinct,
            limit=limit,
        )

    def _parse_prologue(self) -> None:
        """Consume zero or more ``PREFIX label: <iri>`` declarations."""
        while self._at_keyword("PREFIX"):
            self._next()
            label_token = self._next()
            if label_token.type not in ("NAME", "KEYWORD"):
                raise ParseError(
                    "PREFIX requires a prefix label", line=label_token.line, column=label_token.column
                )
            self._expect("COLON")
            iri_token = self._next()
            if iri_token.type != "IRI":
                raise ParseError("PREFIX requires an IRI", line=iri_token.line, column=iri_token.column)
            self._prefixes.bind(label_token.value, iri_token.value)

    def _parse_projection(self) -> List[Variable]:
        projection: List[Variable] = []
        token = self._peek()
        if token is not None and token.type == "STAR":
            self._next()
            return projection
        while True:
            token = self._peek()
            if token is None or token.type != "VAR":
                break
            projection.append(Variable(self._next().value))
        if not projection:
            token = self._peek()
            raise ParseError(
                "SELECT requires '*' or at least one variable",
                line=token.line if token else None,
                column=token.column if token else None,
            )
        return projection

    def _parse_group(self) -> tuple[List[TriplePattern], List[Filter]]:
        self._expect("LBRACE")
        patterns: List[TriplePattern] = []
        filters: List[Filter] = []
        while True:
            token = self._peek()
            if token is None:
                raise ParseError("unterminated group pattern: missing '}'")
            if token.type == "RBRACE":
                self._next()
                break
            if token.is_keyword("FILTER"):
                filters.append(self._parse_filter())
                continue
            patterns.append(self._parse_triple_pattern())
        return patterns, filters

    def _parse_triple_pattern(self) -> TriplePattern:
        subject = self._parse_term(position="subject")
        predicate = self._parse_term(position="predicate")
        obj = self._parse_term(position="object")
        token = self._peek()
        if token is not None and token.type == "DOT":
            self._next()
        return TriplePattern(subject, predicate, obj)

    def _parse_filter(self) -> Filter:
        self._expect("KEYWORD", "FILTER")
        self._expect("LPAREN")
        left = self._parse_term(position="filter operand")
        op_token = self._next()
        if op_token.type != "OP":
            raise ParseError(
                f"expected a comparison operator, found {op_token.value!r}",
                line=op_token.line,
                column=op_token.column,
            )
        right = self._parse_term(position="filter operand")
        self._expect("RPAREN")
        return Filter(left, op_token.value, right)

    def _parse_limit(self) -> Optional[int]:
        if not self._at_keyword("LIMIT"):
            return None
        self._next()
        token = self._expect("NUMBER")
        return int(float(token.value))

    def _parse_term(self, position: str) -> TermLike:
        token = self._next()
        if token.type == "VAR":
            return Variable(token.value)
        if token.type == "IRI":
            return IRI(token.value)
        if token.type == "PNAME":
            return self._prefixes.expand(token.value)
        if token.type == "STRING":
            return self._parse_literal(token)
        if token.type == "NUMBER":
            if "." in token.value:
                return Literal(token.value, XSD_DOUBLE)
            return Literal(token.value, XSD_INTEGER)
        if token.type == "KEYWORD" and token.value.upper() == "A":
            return RDF.term("type")
        raise ParseError(
            f"cannot use {token.value!r} as a {position}", line=token.line, column=token.column
        )

    def _parse_literal(self, token: Token) -> Literal:
        lexical = token.value[1:-1].replace('\\"', '"').replace("\\n", "\n").replace("\\\\", "\\")
        nxt = self._peek()
        if nxt is not None and nxt.type == "LANGTAG":
            self._next()
            return Literal(lexical, language=nxt.value[1:])
        if nxt is not None and nxt.type == "DOUBLE_CARET":
            self._next()
            datatype_token = self._next()
            if datatype_token.type == "IRI":
                return Literal(lexical, datatype_token.value)
            if datatype_token.type == "PNAME":
                return Literal(lexical, self._prefixes.expand(datatype_token.value).value)
            raise ParseError(
                "datatype must be an IRI", line=datatype_token.line, column=datatype_token.column
            )
        return Literal(lexical)


def canonical_query_text(text: str) -> str:
    """Canonical form of a query text, suitable as a cache key.

    Two texts that differ only in whitespace, comments, or keyword case map to
    the same canonical string, while any lexical difference (a different
    constant, variable, operator, ...) yields a different one.  This is the
    serving layer's cache key: it only requires tokenization, so repeated
    template instantiations skip the full parser and the complex-subquery
    identifier on a plan-cache hit.

    Tokens are re-rendered unambiguously (IRIs re-bracketed, variables with a
    leading ``?``) so that, e.g., an IRI and a same-spelled prefixed name can
    never collide.
    """
    parts: List[str] = []
    for token in tokenize(text):
        if token.type == "KEYWORD":
            parts.append(token.value.upper())
        elif token.type == "IRI":
            parts.append(f"<{token.value}>")
        elif token.type == "VAR":
            parts.append(f"?{token.value}")
        else:
            parts.append(token.value)
    return " ".join(parts)


def parse_query(text: str, prefixes: PrefixMap | None = None) -> SelectQuery:
    """Parse SPARQL text into a :class:`~repro.sparql.ast.SelectQuery`.

    Parameters
    ----------
    text:
        The query text.  ``PREFIX`` declarations are honoured; the default
        prefix map (``y:``, ``wsdbm:``, ``bio:``...) is always available.
    prefixes:
        Optional additional prefix bindings.
    """
    return QueryParser(text, prefixes=prefixes).parse()
