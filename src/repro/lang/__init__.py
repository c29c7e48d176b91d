"""MiniM3: a type-safe Modula-3 subset, built from scratch.

The paper analyses Modula-3 programs.  No Modula-3 front end is available
here, so this package implements one for **MiniM3**, a subset chosen to
contain exactly the features TBAA cares about:

* ``OBJECT`` types with single inheritance, fields, methods and
  ``OVERRIDES`` (the subtype hierarchy that drives ``Subtypes(T)``);
* ``REF`` types, ``BRANDED`` refs and objects (Section 4 of the paper uses
  brands to limit open-world merging);
* ``RECORD`` types, fixed arrays and **open arrays** — open-array accesses
  go through a dope vector, which is the paper's dominant "Encapsulation"
  source of residual redundant loads (Figure 10);
* the three access-path constructors of Table 1: qualification ``p.f``,
  dereference ``p^`` and subscript ``p[i]``;
* the two address-taking constructs of Modula-3: ``VAR`` (pass-by-reference)
  parameters and the ``WITH`` statement.

Pipeline: :func:`parse_module` produces an AST, :func:`check_module`
resolves names/types and returns a :class:`~repro.lang.typecheck.CheckedModule`
that the IR lowering (:mod:`repro.ir.lowering`) consumes.
"""

from repro.lang.errors import (
    CompileError,
    LexError,
    ParseError,
    ResourceLimitError,
    SourceLocation,
    TypeCheckError,
)
from repro.lang.lexer import tokenize
from repro.lang.parser import Parser, parse_module
from repro.lang.typecheck import TypeChecker, check_module, CheckedModule
from repro.lang import ast_nodes as ast
from repro.lang import types as m3types

__all__ = [
    "CompileError",
    "LexError",
    "ParseError",
    "TypeCheckError",
    "ResourceLimitError",
    "SourceLocation",
    "tokenize",
    "Parser",
    "parse_module",
    "TypeChecker",
    "check_module",
    "CheckedModule",
    "ast",
    "m3types",
]
