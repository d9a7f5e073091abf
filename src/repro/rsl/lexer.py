"""Tokenizer for RSL text.

Token inventory (mirroring the GT2 RSL grammar):

========== =============================================
``LPAREN`` ``(``
``RPAREN`` ``)``
``AMP``    ``&`` — conjunction prefix
``PLUS``   ``+`` — multi-request prefix
``HASH``   ``#`` — value concatenation
``OP``     one of ``= != < <= > >=``
``WORD``   an unquoted literal (may contain ``/ . - _ : * $ @ ,``)
``STRING`` a double- or single-quoted literal
``VARREF`` ``$(NAME)``
``EOF``    end of input
========== =============================================

Unquoted words terminate at whitespace, parentheses or an operator
character, which matches how GT2 RSL treats bare values such as
``/bin/transp`` or distinguished-name fragments.  ``&`` and ``+``
inside a word are literal (an email address, a DN) unless the next
character is ``(``, whitespace or the end of input, which is how
clause prefixes appear.

One compiled regular expression scans the whole text; :func:`scan`
returns plain ``(type, text, position)`` tuples for the parser, and
:func:`tokenize` wraps the same tuples as :class:`Token` objects.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import List, Tuple

from repro.rsl.errors import RSLSyntaxError


class TokenType(enum.Enum):
    LPAREN = "lparen"
    RPAREN = "rparen"
    AMP = "amp"
    PLUS = "plus"
    HASH = "hash"
    OP = "op"
    WORD = "word"
    STRING = "string"
    VARREF = "varref"
    EOF = "eof"


@dataclass(frozen=True)
class Token:
    type: TokenType
    text: str
    position: int

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.type.name}, {self.text!r}, @{self.position})"


#: ``(type, text, position)`` — what :func:`scan` produces per token.
RawToken = Tuple[TokenType, str, int]

# Each alternative is one group spanning the whole token, so the
# group's start is the token's position.  A quoted string may close
# only on a quote that no further quote follows: with that guard the
# doubled-quote pairs cannot be re-split to close earlier, so an
# unterminated string fails where it opens.
# Whatever no token accepts (a lone '!', an unterminated string or
# ``$(``) lands in the error group and is reported there.  The last
# group matches the end of the text, trailing whitespace included, so
# no position is ever left unmatched and rescanned.
_TOKEN_RE = re.compile(
    r"""
    [ \t\r\n]*
    (?:
        ([()\#&+])                                  # 1 punctuation
      | ((?!\$\()[^()=!<>"'\#&+ \t\r\n]
         (?:[^()=!<>"'\#&+ \t\r\n]+|[&+](?=[^( \t\r\n]))*)  # 2 word
      | (!=|<=|>=|[=<>])                            # 3 operator
      | ("[^"]*(?:""[^"]*)*"(?!"))                  # 4 double-quoted
      | ('[^']*(?:''[^']*)*'(?!'))                  # 5 single-quoted
      | (\$\([^)]*\))                               # 6 variable reference
      | ([^ \t\r\n])                               # 7 error
      | (\Z)                                        # 8 end of text
    )
    """,
    re.VERBOSE,
)

_PUNCTUATION = {
    "(": TokenType.LPAREN,
    ")": TokenType.RPAREN,
    "#": TokenType.HASH,
    "&": TokenType.AMP,
    "+": TokenType.PLUS,
}

_ERRORS = {
    "!": "expected '=' after '!'",
    '"': "unterminated string literal",
    "'": "unterminated string literal",
    "$": "unterminated variable reference",
}


def scan(text: str) -> List[RawToken]:
    """Scan *text* into ``(type, text, position)`` tuples ending with EOF."""
    tokens: List[RawToken] = []
    append = tokens.append
    punctuation = _PUNCTUATION
    OP, WORD, STRING = TokenType.OP, TokenType.WORD, TokenType.STRING
    for match in _TOKEN_RE.finditer(text):
        group = match.lastindex
        lexeme = match.group(group)
        position = match.start(group)
        if group == 1:
            append((punctuation[lexeme], lexeme, position))
        elif group == 2:
            word = lexeme.strip()
            if not word:
                raise RSLSyntaxError(
                    f"unexpected character {lexeme[0]!r}", position, text
                )
            append((WORD, word, position))
        elif group == 3:
            append((OP, lexeme, position))
        elif group == 4:
            append((STRING, lexeme[1:-1].replace('""', '"'), position))
        elif group == 5:
            append((STRING, lexeme[1:-1].replace("''", "'"), position))
        elif group == 6:
            name = lexeme[2:-1].strip()
            if not name:
                raise RSLSyntaxError("empty variable reference", position, text)
            append((TokenType.VARREF, name, position))
        elif group == 7:
            raise RSLSyntaxError(_ERRORS[lexeme], position, text)
        else:
            break
    append((TokenType.EOF, "", len(text)))
    return tokens


def tokenize(text: str) -> List[Token]:
    """Tokenize *text* into a list ending with an EOF token."""
    return [Token(*raw) for raw in scan(text)]
