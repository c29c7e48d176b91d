"""Source locations and compile-time error types for MiniM3."""

from typing import Optional


class SourceLocation:
    """A (line, column) position in a named source unit.

    Lines and columns are 1-based; ``column`` points at the first character
    of the offending token.  A slotted value object, like
    :class:`~repro.lang.tokens.Token`: never changed after it is made.
    """

    __slots__ = ("unit", "line", "column")

    def __init__(self, unit: str, line: int, column: int):
        self.unit = unit
        self.line = line
        self.column = column

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not SourceLocation:
            return NotImplemented
        return ((self.unit, self.line, self.column)
                == (other.unit, other.line, other.column))

    def __hash__(self) -> int:
        return hash((self.unit, self.line, self.column))

    def __repr__(self) -> str:
        return "SourceLocation(unit={!r}, line={!r}, column={!r})".format(
            self.unit, self.line, self.column)

    def __str__(self) -> str:
        return "{}:{}:{}".format(self.unit, self.line, self.column)


UNKNOWN_LOCATION = SourceLocation("<unknown>", 0, 0)


class CompileError(Exception):
    """Base class for all MiniM3 front-end errors."""

    def __init__(self, message: str, loc: Optional[SourceLocation] = None):
        self.loc = loc or UNKNOWN_LOCATION
        self.message = message
        super().__init__("{}: {}".format(self.loc, message))

    def render(self, source_text: str) -> str:
        """Multi-line rendering: the message, the offending source line,
        and a caret under the reported column.

        Falls back to the plain one-line message when the location does
        not point into *source_text* (unknown location, stale line
        numbers after editing, column past the end of the line).
        """
        header = str(self)
        if self.loc is UNKNOWN_LOCATION or self.loc.line < 1:
            return header
        lines = source_text.splitlines()
        if self.loc.line > len(lines):
            return header
        line = lines[self.loc.line - 1]
        column = self.loc.column
        if column < 1 or column > len(line) + 1:
            return header
        # Tabs in the prefix must stay tabs so the caret lines up.
        pad = "".join(ch if ch == "\t" else " " for ch in line[: column - 1])
        return "{}\n  {}\n  {}^".format(header, line, pad)


class ResourceLimitError(Exception):
    """A guarded operation exceeded a resource budget.

    Raised instead of hanging (wall-clock deadlines), instead of running
    forever (interpreter step budgets) and instead of ``RecursionError``
    (parser nesting caps).  ``kind`` names the exhausted resource:
    ``'wall-clock'``, ``'steps'`` or ``'recursion'``.

    Deliberately *not* a :class:`CompileError`: resource exhaustion is a
    property of the run, not of the program text, and batch drivers
    (``repro fuzz``, ``repro tables``) classify the two differently.
    """

    def __init__(self, message: str, kind: str = "limit"):
        self.kind = kind
        super().__init__(message)


class LexError(CompileError):
    """Raised by the lexer on malformed input (bad char, unterminated text)."""


class ParseError(CompileError):
    """Raised by the parser on a syntax error."""


class TypeCheckError(CompileError):
    """Raised by the type checker on a semantic error.

    MiniM3 is a *type-safe* language: the soundness of TBAA (Section 2 of
    the paper) rests on the checker rejecting any program that could make a
    reference hold a value outside ``Subtypes`` of its declared type.
    """
