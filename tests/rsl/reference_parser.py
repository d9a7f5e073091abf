"""The character-at-a-time RSL lexer and recursive-descent parser.

This is the front end ``repro.rsl`` shipped before its one-regex
scanner.  It stays here, unchanged in behaviour, as the reference the
differential suite (``test_parser_differential.py``) holds the
production parser to: equal ASTs, or an equal error message and
position.  Values get their numeric reading from the plain ``float``
rule below, not from ``Value.of``, so the production shortcut that
skips ``float`` for non-numeric text is checked too.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Union

from repro.rsl.ast import (
    Concatenation,
    MultiRequest,
    Relation,
    Relop,
    Specification,
    Value,
    VariableReference,
)
from repro.rsl.errors import RSLSyntaxError
from repro.rsl.lexer import Token, TokenType

def _number(text: str) -> Optional[float]:
    """A finite decimal reading of *text*: ``float`` without ``_``,
    ``nan`` or infinities."""
    if "_" in text:
        return None
    try:
        number = float(text)
    except ValueError:
        return None
    if number != number or number in (float("inf"), float("-inf")):
        return None
    return number


def _literal(text: str, quoted: bool = False) -> Value:
    return Value(text=text, number=_number(text), quoted=quoted)


_OP_CHARS = set("=!<>")
_STRUCTURAL = {
    "(": TokenType.LPAREN,
    ")": TokenType.RPAREN,
    "#": TokenType.HASH,
}
_WORD_TERMINATORS = set("()=!<>\"'#") | set(" \t\r\n")


def tokenize(text: str) -> List[Token]:
    """Tokenize *text* into a list ending with an EOF token."""
    return list(_scan(text))


def _scan(text: str) -> Iterator[Token]:
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if ch in _STRUCTURAL:
            yield Token(_STRUCTURAL[ch], ch, i)
            i += 1
            continue
        if ch == "&":
            yield Token(TokenType.AMP, ch, i)
            i += 1
            continue
        if ch == "+":
            yield Token(TokenType.PLUS, ch, i)
            i += 1
            continue
        if ch in _OP_CHARS:
            i = yield from _scan_operator(text, i)
            continue
        if ch in "\"'":
            i = yield from _scan_string(text, i)
            continue
        if ch == "$" and i + 1 < n and text[i + 1] == "(":
            i = yield from _scan_varref(text, i)
            continue
        i = yield from _scan_word(text, i)
    yield Token(TokenType.EOF, "", n)


def _scan_operator(text: str, start: int):
    ch = text[start]
    nxt = text[start + 1] if start + 1 < len(text) else ""
    if ch == "!":
        if nxt != "=":
            raise RSLSyntaxError("expected '=' after '!'", start, text)
        yield Token(TokenType.OP, "!=", start)
        return start + 2
    if ch in "<>" and nxt == "=":
        yield Token(TokenType.OP, ch + "=", start)
        return start + 2
    yield Token(TokenType.OP, ch, start)
    return start + 1


def _scan_string(text: str, start: int):
    quote = text[start]
    i = start + 1
    chars: List[str] = []
    while i < len(text):
        ch = text[i]
        if ch == quote:
            # RSL escapes an embedded quote by doubling it.
            if i + 1 < len(text) and text[i + 1] == quote:
                chars.append(quote)
                i += 2
                continue
            yield Token(TokenType.STRING, "".join(chars), start)
            return i + 1
        chars.append(ch)
        i += 1
    raise RSLSyntaxError("unterminated string literal", start, text)


def _scan_varref(text: str, start: int):
    # text[start] == '$', text[start+1] == '('
    i = start + 2
    begin = i
    while i < len(text) and text[i] != ")":
        i += 1
    if i >= len(text):
        raise RSLSyntaxError("unterminated variable reference", start, text)
    name = text[begin:i].strip()
    if not name:
        raise RSLSyntaxError("empty variable reference", start, text)
    yield Token(TokenType.VARREF, name, start)
    return i + 1


def _scan_word(text: str, start: int):
    i = start
    chars: List[str] = []
    while i < len(text):
        ch = text[i]
        if ch in _WORD_TERMINATORS or ch in "&+":
            # '&' and '+' only terminate a word at a clause boundary;
            # inside a word (e.g. an email or DN) they are literal.
            if ch in "&+" and chars and chars[-1] not in (" ",):
                # Peek: treat as terminator only when followed by '('
                # or whitespace, which is how clause prefixes appear.
                nxt = text[i + 1] if i + 1 < len(text) else ""
                if nxt not in ("(", " ", "\t", "\r", "\n", ""):
                    chars.append(ch)
                    i += 1
                    continue
            break
        chars.append(ch)
        i += 1
    word = "".join(chars).strip()
    if not word:
        raise RSLSyntaxError(f"unexpected character {text[start]!r}", start, text)
    yield Token(TokenType.WORD, word, start)
    return i


class _Parser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens = tokenize(text)
        self.index = 0

    # -- token helpers ---------------------------------------------------

    @property
    def current(self) -> Token:
        return self.tokens[self.index]

    def advance(self) -> Token:
        token = self.current
        if token.type is not TokenType.EOF:
            self.index += 1
        return token

    def expect(self, ttype: TokenType) -> Token:
        if self.current.type is not ttype:
            raise RSLSyntaxError(
                f"expected {ttype.name}, found {self.current.type.name}",
                self.current.position,
                self.text,
            )
        return self.advance()

    def at(self, ttype: TokenType) -> bool:
        return self.current.type is ttype

    # -- grammar ----------------------------------------------------------

    def parse(self) -> Union[Specification, MultiRequest]:
        if self.at(TokenType.PLUS):
            self.advance()
            result: Union[Specification, MultiRequest] = self._multi_request_body()
        else:
            result = self._specification()
        self.expect(TokenType.EOF)
        return result

    def _multi_request_body(self) -> MultiRequest:
        specs: List[Specification] = []
        while self.at(TokenType.LPAREN):
            self.expect(TokenType.LPAREN)
            specs.append(self._specification())
            self.expect(TokenType.RPAREN)
        if not specs:
            raise RSLSyntaxError(
                "multi-request must contain at least one specification",
                self.current.position,
                self.text,
            )
        return MultiRequest.make(specs)

    def _specification(self) -> Specification:
        if self.at(TokenType.AMP):
            self.advance()
        relations: List[Relation] = []
        while self.at(TokenType.LPAREN):
            relations.append(self._relation())
        if not relations:
            raise RSLSyntaxError(
                "specification must contain at least one relation",
                self.current.position,
                self.text,
            )
        return Specification.make(relations)

    def _relation(self) -> Relation:
        self.expect(TokenType.LPAREN)
        name_token = self.expect(TokenType.WORD)
        op_token = self.expect(TokenType.OP)
        op = Relop.from_symbol(op_token.text)
        values: List[Union[Value, VariableReference]] = []
        while not self.at(TokenType.RPAREN):
            values.append(self._value())
        self.expect(TokenType.RPAREN)
        if not values:
            raise RSLSyntaxError(
                f"relation on {name_token.text!r} has no value",
                name_token.position,
                self.text,
            )
        return Relation(attribute=name_token.text.lower(), op=op, values=tuple(values))

    def _value(self) -> Union[Value, VariableReference, Concatenation]:
        """One value, possibly a ``#``-joined concatenation."""
        parts = [self._value_atom()]
        while self.at(TokenType.HASH):
            self.advance()
            parts.append(self._value_atom())
        if len(parts) == 1:
            return parts[0]
        # Ground concatenations fold immediately into one literal.
        if all(isinstance(part, Value) for part in parts):
            return _literal("".join(part.text for part in parts), quoted=True)
        return Concatenation(parts=tuple(parts))

    def _value_atom(self) -> Union[Value, VariableReference]:
        token = self.current
        if token.type is TokenType.WORD:
            self.advance()
            return _literal(token.text)
        if token.type is TokenType.STRING:
            self.advance()
            return _literal(token.text, quoted=True)
        if token.type is TokenType.VARREF:
            self.advance()
            return VariableReference(name=token.text)
        raise RSLSyntaxError(
            f"expected a value, found {token.type.name}", token.position, self.text
        )


def parse_rsl(text: str) -> Union[Specification, MultiRequest]:
    """Parse *text* into a specification or multi-request."""
    if not text or not text.strip():
        raise RSLSyntaxError("empty RSL text")
    return _Parser(text).parse()


def parse_specification(text: str) -> Specification:
    """Parse *text*, requiring a single specification (no ``+``)."""
    result = parse_rsl(text)
    if isinstance(result, MultiRequest):
        raise RSLSyntaxError("expected a single specification, found a multi-request")
    return result
