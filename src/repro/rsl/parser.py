"""Recursive-descent parser for RSL.

Grammar (following the GT2 RSL 1.0 structure)::

    rsl          := multi_request | specification
    multi_request:= '+' clause_list
    specification:= '&'? clause_list
    clause_list  := clause+
    clause       := '(' inner ')'
    inner        := specification        -- nested, for multi-requests
                  | relation
    relation     := WORD OP value+
    value        := WORD | STRING | VARREF | NUMBER

``parse_rsl`` returns either a :class:`Specification` or a
:class:`MultiRequest`; ``parse_specification`` insists on a single
specification, which is what the Job Manager expects from a job
request.  The parser walks the scanner's token tuples by index.
"""

from __future__ import annotations

from typing import List, Tuple, Union

from repro.rsl.ast import (
    RELOPS,
    Concatenation,
    MultiRequest,
    Relation,
    Specification,
    Value,
    VariableReference,
)
from repro.rsl.errors import RSLSyntaxError
from repro.rsl.lexer import RawToken, TokenType, scan

LPAREN = TokenType.LPAREN
RPAREN = TokenType.RPAREN
AMP = TokenType.AMP
PLUS = TokenType.PLUS
HASH = TokenType.HASH
OP = TokenType.OP
WORD = TokenType.WORD
STRING = TokenType.STRING
VARREF = TokenType.VARREF
EOF = TokenType.EOF


def _unexpected(wanted: TokenType, token: RawToken, text: str) -> RSLSyntaxError:
    return RSLSyntaxError(
        f"expected {wanted.name}, found {token[0].name}", token[2], text
    )


def _atom(token: RawToken, text: str) -> Union[Value, VariableReference]:
    kind = token[0]
    if kind is WORD:
        return Value.of(token[1])
    if kind is STRING:
        return Value.of(token[1], quoted=True)
    if kind is VARREF:
        return VariableReference(name=token[1])
    raise RSLSyntaxError(
        f"expected a value, found {kind.name}", token[2], text
    )


def _specification(
    tokens: List[RawToken], i: int, text: str
) -> Tuple[Specification, int]:
    """Parse ``'&'? clause+`` from token *i*; returns (spec, next index)."""
    if tokens[i][0] is AMP:
        i += 1
    relations: List[Relation] = []
    while tokens[i][0] is LPAREN:
        name = tokens[i + 1]
        if name[0] is not WORD:
            raise _unexpected(WORD, name, text)
        op = tokens[i + 2]
        if op[0] is not OP:
            raise _unexpected(OP, op, text)
        i += 3
        values = []
        token = tokens[i]
        while token[0] is not RPAREN:
            value = _atom(token, text)
            i += 1
            if tokens[i][0] is HASH:
                parts = [value]
                while tokens[i][0] is HASH:
                    parts.append(_atom(tokens[i + 1], text))
                    i += 2
                # Ground concatenations fold immediately into one literal.
                if all(isinstance(part, Value) for part in parts):
                    value = Value.of("".join(p.text for p in parts), quoted=True)
                else:
                    value = Concatenation(parts=tuple(parts))
            values.append(value)
            token = tokens[i]
        i += 1
        if not values:
            raise RSLSyntaxError(
                f"relation on {name[1]!r} has no value", name[2], text
            )
        relations.append(
            Relation(attribute=name[1].lower(), op=RELOPS[op[1]], values=tuple(values))
        )
    if not relations:
        raise RSLSyntaxError(
            "specification must contain at least one relation", tokens[i][2], text
        )
    return Specification(relations=tuple(relations)), i


def parse_rsl(text: str) -> Union[Specification, MultiRequest]:
    """Parse *text* into a specification or multi-request."""
    if not text or not text.strip():
        raise RSLSyntaxError("empty RSL text")
    tokens = scan(text)
    if tokens[0][0] is PLUS:
        i = 1
        specs: List[Specification] = []
        while tokens[i][0] is LPAREN:
            spec, i = _specification(tokens, i + 1, text)
            if tokens[i][0] is not RPAREN:
                raise _unexpected(RPAREN, tokens[i], text)
            specs.append(spec)
            i += 1
        if not specs:
            raise RSLSyntaxError(
                "multi-request must contain at least one specification",
                tokens[i][2],
                text,
            )
        result: Union[Specification, MultiRequest] = MultiRequest.make(specs)
    else:
        result, i = _specification(tokens, 0, text)
    if tokens[i][0] is not EOF:
        raise _unexpected(EOF, tokens[i], text)
    return result


def parse_specification(text: str) -> Specification:
    """Parse *text*, requiring a single specification (no ``+``)."""
    result = parse_rsl(text)
    if isinstance(result, MultiRequest):
        raise RSLSyntaxError("expected a single specification, found a multi-request")
    return result
