"""Symbols and lexical scopes for the MiniM3 checker.

Each named entity (global/local variable, parameter, constant, procedure,
WITH/FOR binding) gets exactly one :class:`Symbol`, and every ``NameRef``
in the typed AST is annotated with the symbol it denotes.  Later passes
(AddressTaken, SMTypeRefs, lowering) key off these symbol objects, so
symbol identity must be stable — symbols are compared by identity.
"""

from typing import Dict, List, Optional

from repro.lang.errors import SourceLocation, TypeCheckError
from repro.lang.types import Type


class Symbol:
    """One named program entity.

    ``kind`` is one of:

    * ``'var'`` — global or local variable;
    * ``'param'`` — formal parameter (``mode`` distinguishes VAR/READONLY);
    * ``'const'`` — named constant (``const_value`` holds the literal);
    * ``'proc'`` — procedure;
    * ``'with'`` — a WITH binding (``binds_location`` set if it aliases a
      designator — the address-taking case);
    * ``'for'`` — a FOR loop index.
    """

    _next_id = 0

    def __init__(
        self,
        name: str,
        kind: str,
        type: Optional[Type],
        loc: SourceLocation,
        mode: str = "value",
        is_global: bool = False,
        proc_name: Optional[str] = None,
    ):
        assert kind in ("var", "param", "const", "proc", "with", "for")
        self.name = name
        self.kind = kind
        self.type = type
        self.loc = loc
        self.mode = mode  # parameter passing mode, for kind == 'param'
        self.is_global = is_global
        self.proc_name = proc_name  # owning procedure, None for globals
        self.const_value: Optional[object] = None
        self.binds_location = False  # WITH bindings that alias a designator
        self.uid = Symbol._next_id
        Symbol._next_id += 1

    @property
    def by_reference(self) -> bool:
        return self.kind == "param" and self.mode == "var"

    def __repr__(self) -> str:
        where = "global" if self.is_global else (self.proc_name or "?")
        return "<Symbol {} {} in {}>".format(self.kind, self.name, where)


class Scope:
    """A single lexical scope; scopes form a parent chain."""

    def __init__(self, parent: Optional["Scope"] = None):
        self.parent = parent
        self._symbols: Dict[str, Symbol] = {}

    def define(self, symbol: Symbol) -> Symbol:
        if symbol.name in self._symbols:
            raise TypeCheckError(
                "duplicate declaration of '{}'".format(symbol.name), symbol.loc
            )
        self._symbols[symbol.name] = symbol
        return symbol

    def lookup(self, name: str) -> Optional[Symbol]:
        scope: Optional[Scope] = self
        while scope is not None:
            symbol = scope._symbols.get(name)
            if symbol is not None:
                return symbol
            scope = scope.parent
        return None

    def symbols(self) -> List[Symbol]:
        return list(self._symbols.values())
