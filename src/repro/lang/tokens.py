"""Token kinds and keyword table for the MiniM3 lexer."""

import enum
from typing import Union

from repro.lang.errors import SourceLocation


class TokenKind(enum.Enum):
    """All lexical token categories of MiniM3."""

    # Literals / identifiers
    IDENT = "identifier"
    INT = "integer literal"
    CHAR = "char literal"
    TEXT = "text literal"

    # Punctuation and operators
    LPAREN = "("
    RPAREN = ")"
    LBRACKET = "["
    RBRACKET = "]"
    LBRACE = "{"
    RBRACE = "}"
    COMMA = ","
    SEMI = ";"
    COLON = ":"
    DOT = "."
    DOTDOT = ".."
    CARET = "^"
    ASSIGN = ":="
    EQ = "="
    NE = "#"
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    PLUS = "+"
    MINUS = "-"
    STAR = "*"
    SLASH = "/"
    AMP = "&"
    BAR = "|"
    ARROW = "=>"

    # Keywords
    KW_MODULE = "MODULE"
    KW_TYPE = "TYPE"
    KW_CONST = "CONST"
    KW_VAR = "VAR"
    KW_PROCEDURE = "PROCEDURE"
    KW_BEGIN = "BEGIN"
    KW_END = "END"
    KW_IF = "IF"
    KW_THEN = "THEN"
    KW_ELSIF = "ELSIF"
    KW_ELSE = "ELSE"
    KW_WHILE = "WHILE"
    KW_DO = "DO"
    KW_FOR = "FOR"
    KW_TO = "TO"
    KW_BY = "BY"
    KW_REPEAT = "REPEAT"
    KW_UNTIL = "UNTIL"
    KW_LOOP = "LOOP"
    KW_EXIT = "EXIT"
    KW_RETURN = "RETURN"
    KW_WITH = "WITH"
    KW_CASE = "CASE"
    KW_OF = "OF"
    KW_RECORD = "RECORD"
    KW_OBJECT = "OBJECT"
    KW_METHODS = "METHODS"
    KW_OVERRIDES = "OVERRIDES"
    KW_REF = "REF"
    KW_ARRAY = "ARRAY"
    KW_BRANDED = "BRANDED"
    KW_READONLY = "READONLY"
    KW_NEW = "NEW"
    KW_NIL = "NIL"
    KW_TRUE = "TRUE"
    KW_FALSE = "FALSE"
    KW_NOT = "NOT"
    KW_AND = "AND"
    KW_OR = "OR"
    KW_DIV = "DIV"
    KW_MOD = "MOD"
    KW_EVAL = "EVAL"
    KW_ROOT = "ROOT"

    EOF = "end of input"


KEYWORDS = {
    kind.value: kind
    for kind in TokenKind
    if kind.name.startswith("KW_")
}


class Token:
    """A single lexical token.

    ``value`` carries the decoded payload: ``int`` for INT, ``str`` for
    IDENT/TEXT, a one-character ``str`` for CHAR, and the spelling for
    everything else.  A slotted value object: the lexer makes one per
    token, and tokens are never changed after they are made.
    """

    __slots__ = ("kind", "value", "loc")

    def __init__(self, kind: TokenKind, value: Union[str, int],
                 loc: SourceLocation):
        self.kind = kind
        self.value = value
        self.loc = loc

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Token:
            return NotImplemented
        return ((self.kind, self.value, self.loc)
                == (other.kind, other.value, other.loc))

    def __hash__(self) -> int:
        return hash((self.kind, self.value, self.loc))

    def __repr__(self) -> str:
        return "Token(kind={!r}, value={!r}, loc={!r})".format(
            self.kind, self.value, self.loc)

    def __str__(self) -> str:
        if self.kind in (TokenKind.IDENT, TokenKind.INT):
            return "{}".format(self.value)
        if self.kind is TokenKind.TEXT:
            return '"{}"'.format(self.value)
        return self.kind.value
