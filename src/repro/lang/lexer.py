"""Lexer for MiniM3.

Follows Modula-3 lexical conventions for the subset we support:

* identifiers are case-sensitive; keywords are upper-case;
* ``(* ... *)`` comments nest (as in Modula-3);
* text literals use double quotes with ``\\n``, ``\\t``, ``\\\\``, ``\\"``
  escapes; char literals use single quotes;
* integers are decimal (hex/based literals are not needed by the suite).

One compiled pattern (:data:`_TOKEN_RE`) matches whitespace, identifiers,
integers and operators, and its named group says which one matched.
Only nested comments and TEXT/CHAR literals are scanned by hand, plus
the rare word the pattern leaves out (a non-ASCII first character, or
digits run into a letter), which keeps the ``str.isalpha`` and
``str.isdigit`` rules.  Columns count characters from the line start.
"""

import re
from typing import List, Tuple

from repro.lang.errors import LexError, SourceLocation
from repro.lang.tokens import KEYWORDS, Token, TokenKind

#: Spelling -> kind of every operator and bracket (the kinds whose
#: value is their spelling and not a word).
_OPERATORS = {kind.value: kind for kind in TokenKind
              if not kind.value[0].isalpha()}

# Alternatives are tried in order: ``(*`` before ``(``, and operators
# longest first.  An integer followed by a letter or a digit outside
# ASCII is left to ``other``.
_TOKEN_RE = re.compile(
    r"(?P<ws>[ \t\r\n]+)"
    r"|(?P<ident>[A-Za-z_]\w*)"
    r"|(?P<int>[0-9]+)(?![^\W_])"
    r"|(?P<comment>\(\*)"
    r"|(?P<op>{})"
    r"|(?P<text>\")"
    r"|(?P<char>')"
    r"|(?P<other>.)".format("|".join(
        re.escape(op) for op in sorted(_OPERATORS, key=len, reverse=True))),
    re.DOTALL,
)

_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", "\\": "\\", '"': '"', "'": "'", "0": "\0"}


def tokenize(source: str, unit: str = "<input>") -> List[Token]:
    """Lex *source* completely and return the token list (incl. EOF)."""
    match = _TOKEN_RE.match
    keyword = KEYWORDS.get
    ident, integer = TokenKind.IDENT, TokenKind.INT
    out: List[Token] = []
    append = out.append
    pos, size = 0, len(source)
    line, line_start = 1, 0
    while pos < size:
        m = match(source, pos)
        group = m.lastgroup
        end = m.end()
        if group == "ws":
            newlines = source.count("\n", pos, end)
            if newlines:
                line += newlines
                line_start = source.rindex("\n", pos, end) + 1
            pos = end
            continue
        loc = SourceLocation(unit, line, pos - line_start + 1)
        if group == "ident":
            text = m.group()
            append(Token(keyword(text, ident), text, loc))
        elif group == "op":
            text = m.group()
            append(Token(_OPERATORS[text], text, loc))
        elif group == "int":
            append(Token(integer, int(m.group()), loc))
        elif group == "comment":
            end = _comment_end(source, pos, loc)
            newlines = source.count("\n", pos, end)
            if newlines:
                line += newlines
                line_start = source.rindex("\n", pos, end) + 1
        else:
            token, end = _HAND_SCANNERS[group](source, pos, loc)
            append(token)
        pos = end
    append(Token(TokenKind.EOF, "",
                 SourceLocation(unit, line, pos - line_start + 1)))
    return out


# ----------------------------------------------------------------------
# Hand scanners: each takes the source and a start offset, and returns
# the token and the offset just past it.


def _comment_end(src: str, pos: int, loc: SourceLocation) -> int:
    depth = 1
    i = pos + 2
    while depth:
        close = src.find("*)", i)
        if close < 0:
            raise LexError("unterminated comment", loc)
        # "(*)" opens: an opener may overlap the closer found after it.
        opening = src.find("(*", i, close + 1)
        if opening >= 0:
            depth += 1
            i = opening + 2
        else:
            depth -= 1
            i = close + 2
    return i


def _escape(src: str, i: int, loc: SourceLocation) -> str:
    """The character escaped by the backslash at ``i - 1``."""
    key = src[i:i + 1]
    if key not in _ESCAPES:
        raise LexError("bad escape '\\{}'".format(key), loc)
    return _ESCAPES[key]


def _text(src: str, pos: int, loc: SourceLocation) -> Tuple[Token, int]:
    chars: List[str] = []
    i = pos + 1
    while True:
        ch = src[i:i + 1]
        if ch == "" or ch == "\n":
            raise LexError("unterminated text literal", loc)
        if ch == '"':
            return Token(TokenKind.TEXT, "".join(chars), loc), i + 1
        if ch == "\\":
            chars.append(_escape(src, i + 1, loc))
            i += 2
        else:
            chars.append(ch)
            i += 1


def _char(src: str, pos: int, loc: SourceLocation) -> Tuple[Token, int]:
    i = pos + 1
    ch = src[i:i + 1]
    if ch == "" or ch == "\n":
        raise LexError("unterminated char literal", loc)
    if ch == "\\":
        value = _escape(src, i + 1, loc)
        i += 2
    else:
        value = ch
        i += 1
    if src[i:i + 1] != "'":
        raise LexError("char literal must contain one character", loc)
    return Token(TokenKind.CHAR, value, loc), i + 1


def _word(src: str, pos: int, loc: SourceLocation) -> Tuple[Token, int]:
    """An identifier, number or stray character the pattern left out."""
    ch = src[pos]
    if ch.isalpha():
        end = pos + 1
        while src[end:end + 1].isalnum() or src[end:end + 1] == "_":
            end += 1
        name = src[pos:end]
        return Token(KEYWORDS.get(name, TokenKind.IDENT), name, loc), end
    if not ch.isdigit():
        raise LexError("unexpected character {!r}".format(ch), loc)
    end = pos + 1
    while src[end:end + 1].isdigit():
        end += 1
    if src[end:end + 1].isalpha():
        raise LexError("malformed number", SourceLocation(
            loc.unit, loc.line, loc.column + end - pos))
    try:
        value = int(src[pos:end])
    except ValueError:  # a digit int() rejects, such as '²'
        raise LexError("malformed number", loc) from None
    return Token(TokenKind.INT, value, loc), end


_HAND_SCANNERS = {"text": _text, "char": _char, "other": _word}
