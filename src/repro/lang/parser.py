"""Recursive-descent parser for MiniM3.

Produces the AST of :mod:`repro.lang.ast_nodes`.  Operator precedence
follows Modula-3 (OR < AND < NOT < relations < additive < multiplicative <
unary < postfix).  ``ISTYPE`` and ``NARROW`` are recognised syntactically
(their second argument is a type name, not an expression).
"""

import sys
from typing import List, Optional, Tuple

from repro.lang import ast_nodes as ast
from repro.lang.errors import ParseError, ResourceLimitError
from repro.lang.lexer import tokenize
from repro.lang.tokens import Token, TokenKind as TK

#: Nesting budget shared by expressions, type expressions and statements.
#: Each syntactic nesting level consumes a handful of ticks (an
#: expression passes through `_expr`, `_not_expr` and `_unary_expr` on
#: its way down), so this bounds real nesting at several hundred levels —
#: far beyond any legitimate program, and reached long before the Python
#: stack would overflow (see :func:`parse_module`).
MAX_NESTING_DEPTH = 1000

# Tokens that terminate a statement list.
_BLOCK_ENDERS = (TK.KW_END, TK.KW_ELSE, TK.KW_ELSIF, TK.KW_UNTIL, TK.BAR, TK.EOF)

_REL_OPS = {TK.EQ: "=", TK.NE: "#", TK.LT: "<", TK.LE: "<=", TK.GT: ">", TK.GE: ">="}
_ADD_OPS = {TK.PLUS: "+", TK.MINUS: "-", TK.AMP: "&"}
_MUL_OPS = {TK.STAR: "*", TK.SLASH: "/", TK.KW_DIV: "DIV", TK.KW_MOD: "MOD"}


class Parser:
    """One-token-lookahead parser over a token list."""

    def __init__(self, tokens: List[Token], max_depth: int = MAX_NESTING_DEPTH):
        self._tokens = tokens
        self._pos = 0
        self._depth = 0
        self._max_depth = max_depth

    def _enter(self, what: str) -> None:
        self._depth += 1
        if self._depth > self._max_depth:
            raise ResourceLimitError(
                "{}: {} nesting exceeds the parser depth cap ({})".format(
                    self._peek().loc, what, self._max_depth
                ),
                kind="recursion",
            )

    def _leave(self) -> None:
        self._depth -= 1

    # ------------------------------------------------------------------
    # Token plumbing

    def _peek(self) -> Token:
        # The list ends in EOF and _advance never moves past it.
        return self._tokens[self._pos]

    def _lookahead(self, ahead: int) -> Token:
        return self._tokens[min(self._pos + ahead, len(self._tokens) - 1)]

    def _at(self, *kinds: TK) -> bool:
        return self._tokens[self._pos].kind in kinds

    def _advance(self) -> Token:
        tok = self._tokens[self._pos]
        if tok.kind is not TK.EOF:
            self._pos += 1
        return tok

    def _expect(self, kind: TK) -> Token:
        tok = self._peek()
        if tok.kind is not kind:
            raise ParseError(
                "expected {} but found {}".format(kind.value, tok), tok.loc
            )
        return self._advance()

    def _accept(self, kind: TK) -> Optional[Token]:
        if self._at(kind):
            return self._advance()
        return None

    def _ident(self) -> str:
        return str(self._expect(TK.IDENT).value)

    # ------------------------------------------------------------------
    # Module and declarations

    def parse_module(self) -> ast.Module:
        loc = self._expect(TK.KW_MODULE).loc
        name = self._ident()
        self._expect(TK.SEMI)
        module = ast.Module(loc, name)
        while not self._at(TK.KW_BEGIN, TK.KW_END, TK.EOF):
            self._parse_decl_section(module)
        if self._accept(TK.KW_BEGIN):
            module.body = self._stmt_list()
        self._expect(TK.KW_END)
        end_name = self._ident()
        if end_name != name:
            raise ParseError(
                "module is named {} but END says {}".format(name, end_name),
                self._peek().loc,
            )
        self._expect(TK.DOT)
        return module

    def _parse_decl_section(self, module: ast.Module) -> None:
        tok = self._peek()
        if tok.kind is TK.KW_TYPE:
            self._advance()
            while self._at(TK.IDENT):
                module.type_decls.append(self._type_decl())
        elif tok.kind is TK.KW_CONST:
            self._advance()
            while self._at(TK.IDENT):
                module.const_decls.append(self._const_decl())
        elif tok.kind is TK.KW_VAR:
            self._advance()
            while self._at(TK.IDENT):
                module.var_decls.append(self._var_decl())
        elif tok.kind is TK.KW_PROCEDURE:
            module.proc_decls.append(self._proc_decl())
        else:
            raise ParseError("expected a declaration, found {}".format(tok), tok.loc)

    def _type_decl(self) -> ast.TypeDecl:
        loc = self._peek().loc
        name = self._ident()
        self._expect(TK.EQ)
        texpr = self._type_expr()
        self._expect(TK.SEMI)
        return ast.TypeDecl(loc, name, texpr)

    def _const_decl(self) -> ast.ConstDecl:
        loc = self._peek().loc
        name = self._ident()
        self._expect(TK.EQ)
        value = self._expr()
        self._expect(TK.SEMI)
        return ast.ConstDecl(loc, name, value)

    def _var_decl(self) -> ast.VarDecl:
        loc = self._peek().loc
        names = [self._ident()]
        while self._accept(TK.COMMA):
            names.append(self._ident())
        self._expect(TK.COLON)
        texpr = self._type_expr()
        init = self._expr() if self._accept(TK.ASSIGN) else None
        self._expect(TK.SEMI)
        return ast.VarDecl(loc, names, texpr, init)

    def _proc_decl(self) -> ast.ProcDecl:
        loc = self._expect(TK.KW_PROCEDURE).loc
        name = self._ident()
        params, result = self._signature()
        self._expect(TK.EQ)
        proc = ast.ProcDecl(loc, name, params, result)
        while self._at(TK.KW_VAR, TK.KW_CONST):
            if self._accept(TK.KW_VAR):
                while self._at(TK.IDENT):
                    proc.local_vars.append(self._var_decl())
            else:
                self._advance()
                while self._at(TK.IDENT):
                    proc.local_consts.append(self._const_decl())
        self._expect(TK.KW_BEGIN)
        proc.body = self._stmt_list()
        self._expect(TK.KW_END)
        end_name = self._ident()
        if end_name != name:
            raise ParseError(
                "procedure is named {} but END says {}".format(name, end_name),
                self._peek().loc,
            )
        self._expect(TK.SEMI)
        return proc

    def _signature(self) -> Tuple[List[ast.ParamDecl], Optional[ast.TypeExpr]]:
        self._expect(TK.LPAREN)
        params: List[ast.ParamDecl] = []
        while not self._at(TK.RPAREN):
            params.extend(self._param_group())
            if not self._accept(TK.SEMI):
                break
        self._expect(TK.RPAREN)
        result = self._type_expr() if self._accept(TK.COLON) else None
        return params, result

    def _param_group(self) -> List[ast.ParamDecl]:
        loc = self._peek().loc
        mode = "value"
        if self._accept(TK.KW_VAR):
            mode = "var"
        elif self._accept(TK.KW_READONLY):
            mode = "readonly"
        names = [self._ident()]
        while self._accept(TK.COMMA):
            names.append(self._ident())
        self._expect(TK.COLON)
        texpr = self._type_expr()
        return [ast.ParamDecl(loc, n, mode, texpr) for n in names]

    # ------------------------------------------------------------------
    # Type expressions

    def _type_expr(self) -> ast.TypeExpr:
        self._enter("type expression")
        try:
            return self._type_expr_inner()
        finally:
            self._leave()

    def _type_expr_inner(self) -> ast.TypeExpr:
        tok = self._peek()
        if tok.kind is TK.KW_BRANDED:
            self._advance()
            brand_tok = self._expect(TK.TEXT)
            inner = self._type_expr()
            if isinstance(inner, ast.RefTypeExpr):
                inner.brand = str(brand_tok.value)
                return inner
            if isinstance(inner, ast.ObjectTypeExpr):
                inner.brand = str(brand_tok.value)
                return inner
            raise ParseError("BRANDED applies only to REF and OBJECT types", tok.loc)
        if tok.kind is TK.KW_REF:
            self._advance()
            return ast.RefTypeExpr(tok.loc, self._type_expr())
        if tok.kind is TK.KW_ARRAY:
            return self._array_type()
        if tok.kind is TK.KW_RECORD:
            return self._record_type()
        if tok.kind is TK.KW_ROOT:
            # Plain `ROOT` is the top object type; `ROOT OBJECT ... END`
            # (or with a brand) declares a new immediate subtype of ROOT.
            if self._lookahead(1).kind in (TK.KW_OBJECT, TK.KW_BRANDED):
                return self._object_type(None)
            self._advance()
            return ast.NamedTypeExpr(tok.loc, "ROOT")
        if tok.kind is TK.KW_OBJECT:
            return self._object_type(None)
        if tok.kind is TK.IDENT:
            name = self._ident()
            named = ast.NamedTypeExpr(tok.loc, name)
            # `Super OBJECT ... END` / `Super BRANDED "x" OBJECT ... END`
            if self._at(TK.KW_OBJECT) or (
                self._at(TK.KW_BRANDED) and self._lookahead(2).kind is TK.KW_OBJECT
            ):
                return self._object_type(named)
            return named
        raise ParseError("expected a type, found {}".format(tok), tok.loc)

    def _array_type(self) -> ast.ArrayTypeExpr:
        loc = self._expect(TK.KW_ARRAY).loc
        length: Optional[int] = None
        if self._accept(TK.LBRACKET):
            lo = self._expect(TK.INT)
            self._expect(TK.DOTDOT)
            hi = self._expect(TK.INT)
            self._expect(TK.RBRACKET)
            if int(lo.value) != 0:
                raise ParseError("MiniM3 arrays are zero-based", lo.loc)
            length = int(hi.value) + 1
        self._expect(TK.KW_OF)
        return ast.ArrayTypeExpr(loc, self._type_expr(), length)

    def _field_list(self) -> List[Tuple[str, ast.TypeExpr]]:
        fields: List[Tuple[str, ast.TypeExpr]] = []
        while self._at(TK.IDENT):
            names = [self._ident()]
            while self._accept(TK.COMMA):
                names.append(self._ident())
            self._expect(TK.COLON)
            texpr = self._type_expr()
            fields.extend((n, texpr) for n in names)
            if not self._accept(TK.SEMI):
                break
        return fields

    def _record_type(self) -> ast.RecordTypeExpr:
        loc = self._expect(TK.KW_RECORD).loc
        fields = self._field_list()
        self._expect(TK.KW_END)
        return ast.RecordTypeExpr(loc, fields)

    def _object_type(self, supertype: Optional[ast.TypeExpr]) -> ast.ObjectTypeExpr:
        loc = self._peek().loc
        if self._accept(TK.KW_ROOT):
            supertype = None
        brand: Optional[str] = None
        if self._accept(TK.KW_BRANDED):
            brand = str(self._expect(TK.TEXT).value)
        self._expect(TK.KW_OBJECT)
        fields = self._field_list()
        methods: List[ast.MethodDeclExpr] = []
        overrides: List[Tuple[str, str]] = []
        if self._accept(TK.KW_METHODS):
            methods = self._method_list()
        if self._accept(TK.KW_OVERRIDES):
            overrides = self._override_list()
        self._expect(TK.KW_END)
        return ast.ObjectTypeExpr(loc, supertype, fields, methods, overrides, brand)

    def _method_list(self) -> List[ast.MethodDeclExpr]:
        methods: List[ast.MethodDeclExpr] = []
        while self._at(TK.IDENT):
            loc = self._peek().loc
            name = self._ident()
            params, result = self._signature()
            impl = None
            if self._accept(TK.ASSIGN):
                impl = self._ident()
            methods.append(ast.MethodDeclExpr(loc, name, params, result, impl))
            if not self._accept(TK.SEMI):
                break
        return methods

    def _override_list(self) -> List[Tuple[str, str]]:
        overrides: List[Tuple[str, str]] = []
        while self._at(TK.IDENT):
            name = self._ident()
            self._expect(TK.ASSIGN)
            overrides.append((name, self._ident()))
            if not self._accept(TK.SEMI):
                break
        return overrides

    # ------------------------------------------------------------------
    # Statements

    def _stmt_list(self) -> List[ast.Stmt]:
        stmts: List[ast.Stmt] = []
        while not self._at(*_BLOCK_ENDERS):
            stmts.append(self._stmt())
            if not self._accept(TK.SEMI) and not self._at(*_BLOCK_ENDERS):
                raise ParseError(
                    "expected ';' after statement, found {}".format(self._peek()),
                    self._peek().loc,
                )
        return stmts

    def _stmt(self) -> ast.Stmt:
        self._enter("statement")
        try:
            return self._stmt_inner()
        finally:
            self._leave()

    def _stmt_inner(self) -> ast.Stmt:
        tok = self._peek()
        if tok.kind is TK.KW_IF:
            return self._if_stmt()
        if tok.kind is TK.KW_WHILE:
            return self._while_stmt()
        if tok.kind is TK.KW_REPEAT:
            return self._repeat_stmt()
        if tok.kind is TK.KW_LOOP:
            return self._loop_stmt()
        if tok.kind is TK.KW_FOR:
            return self._for_stmt()
        if tok.kind is TK.KW_EXIT:
            self._advance()
            return ast.ExitStmt(tok.loc)
        if tok.kind is TK.KW_RETURN:
            self._advance()
            value = None if self._at(TK.SEMI, *_BLOCK_ENDERS) else self._expr()
            return ast.ReturnStmt(tok.loc, value)
        if tok.kind is TK.KW_WITH:
            return self._with_stmt()
        if tok.kind is TK.KW_CASE:
            return self._case_stmt()
        if tok.kind is TK.KW_EVAL:
            self._advance()
            return ast.EvalStmt(tok.loc, self._expr())
        # Assignment or call: both start with a designator expression.
        target = self._expr()
        if self._accept(TK.ASSIGN):
            value = self._expr()
            if not ast.is_designator(target):
                raise ParseError("left side of := is not a designator", tok.loc)
            return ast.AssignStmt(tok.loc, target, value)
        if isinstance(target, ast.CallExpr):
            return ast.CallStmt(tok.loc, target)
        raise ParseError("expression is not a statement", tok.loc)

    def _if_stmt(self) -> ast.IfStmt:
        loc = self._expect(TK.KW_IF).loc
        arms: List[Tuple[ast.Expr, List[ast.Stmt]]] = []
        cond = self._expr()
        self._expect(TK.KW_THEN)
        arms.append((cond, self._stmt_list()))
        while self._accept(TK.KW_ELSIF):
            cond = self._expr()
            self._expect(TK.KW_THEN)
            arms.append((cond, self._stmt_list()))
        else_body: List[ast.Stmt] = []
        if self._accept(TK.KW_ELSE):
            else_body = self._stmt_list()
        self._expect(TK.KW_END)
        return ast.IfStmt(loc, arms, else_body)

    def _while_stmt(self) -> ast.WhileStmt:
        loc = self._expect(TK.KW_WHILE).loc
        cond = self._expr()
        self._expect(TK.KW_DO)
        body = self._stmt_list()
        self._expect(TK.KW_END)
        return ast.WhileStmt(loc, cond, body)

    def _repeat_stmt(self) -> ast.RepeatStmt:
        loc = self._expect(TK.KW_REPEAT).loc
        body = self._stmt_list()
        self._expect(TK.KW_UNTIL)
        until = self._expr()
        return ast.RepeatStmt(loc, body, until)

    def _loop_stmt(self) -> ast.LoopStmt:
        loc = self._expect(TK.KW_LOOP).loc
        body = self._stmt_list()
        self._expect(TK.KW_END)
        return ast.LoopStmt(loc, body)

    def _for_stmt(self) -> ast.ForStmt:
        loc = self._expect(TK.KW_FOR).loc
        var = self._ident()
        self._expect(TK.ASSIGN)
        lo = self._expr()
        self._expect(TK.KW_TO)
        hi = self._expr()
        by = self._expr() if self._accept(TK.KW_BY) else None
        self._expect(TK.KW_DO)
        body = self._stmt_list()
        self._expect(TK.KW_END)
        return ast.ForStmt(loc, var, lo, hi, by, body)

    def _with_stmt(self) -> ast.WithStmt:
        loc = self._expect(TK.KW_WITH).loc
        bindings = [self._with_binding()]
        while self._accept(TK.COMMA):
            bindings.append(self._with_binding())
        self._expect(TK.KW_DO)
        body = self._stmt_list()
        self._expect(TK.KW_END)
        return ast.WithStmt(loc, bindings, body)

    def _with_binding(self) -> ast.WithBinding:
        loc = self._peek().loc
        name = self._ident()
        self._expect(TK.EQ)
        return ast.WithBinding(loc, name, self._expr())

    def _case_stmt(self) -> ast.CaseStmt:
        loc = self._expect(TK.KW_CASE).loc
        selector = self._expr()
        self._expect(TK.KW_OF)
        arms: List[ast.CaseArm] = []
        self._accept(TK.BAR)  # optional leading bar
        while not self._at(TK.KW_ELSE, TK.KW_END):
            arm_loc = self._peek().loc
            labels = [self._expr()]
            while self._accept(TK.COMMA):
                labels.append(self._expr())
            self._expect(TK.ARROW)
            body = self._stmt_list()
            arms.append(ast.CaseArm(arm_loc, labels, body))
            if not self._accept(TK.BAR):
                break
        else_body: List[ast.Stmt] = []
        if self._accept(TK.KW_ELSE):
            else_body = self._stmt_list()
        self._expect(TK.KW_END)
        return ast.CaseStmt(loc, selector, arms, else_body)

    # ------------------------------------------------------------------
    # Expressions (precedence climbing)

    def _expr(self) -> ast.Expr:
        self._enter("expression")
        try:
            return self._or_expr()
        finally:
            self._leave()

    def _or_expr(self) -> ast.Expr:
        left = self._and_expr()
        while self._at(TK.KW_OR):
            loc = self._advance().loc
            left = ast.BinaryExpr(loc, "OR", left, self._and_expr())
        return left

    def _and_expr(self) -> ast.Expr:
        left = self._not_expr()
        while self._at(TK.KW_AND):
            loc = self._advance().loc
            left = ast.BinaryExpr(loc, "AND", left, self._not_expr())
        return left

    def _not_expr(self) -> ast.Expr:
        # `NOT NOT NOT ...` recurses without passing through `_expr`,
        # so it burns nesting budget on its own.
        if self._at(TK.KW_NOT):
            self._enter("expression")
            try:
                loc = self._advance().loc
                return ast.UnaryExpr(loc, "NOT", self._not_expr())
            finally:
                self._leave()
        return self._rel_expr()

    def _rel_expr(self) -> ast.Expr:
        left = self._add_expr()
        if self._peek().kind in _REL_OPS:
            tok = self._advance()
            right = self._add_expr()
            return ast.BinaryExpr(tok.loc, _REL_OPS[tok.kind], left, right)
        return left

    def _add_expr(self) -> ast.Expr:
        left = self._mul_expr()
        while self._peek().kind in _ADD_OPS:
            tok = self._advance()
            left = ast.BinaryExpr(tok.loc, _ADD_OPS[tok.kind], left, self._mul_expr())
        return left

    def _mul_expr(self) -> ast.Expr:
        left = self._unary_expr()
        while self._peek().kind in _MUL_OPS:
            tok = self._advance()
            left = ast.BinaryExpr(tok.loc, _MUL_OPS[tok.kind], left, self._unary_expr())
        return left

    def _unary_expr(self) -> ast.Expr:
        if self._at(TK.MINUS):  # `- - - x` also bypasses `_expr`
            self._enter("expression")
            try:
                loc = self._advance().loc
                return ast.UnaryExpr(loc, "-", self._unary_expr())
            finally:
                self._leave()
        return self._postfix_expr()

    def _postfix_expr(self) -> ast.Expr:
        expr = self._primary_expr()
        while True:
            tok = self._peek()
            if tok.kind is TK.DOT:
                self._advance()
                expr = ast.FieldRef(tok.loc, expr, self._ident())
            elif tok.kind is TK.CARET:
                self._advance()
                expr = ast.DerefExpr(tok.loc, expr)
            elif tok.kind is TK.LBRACKET:
                self._advance()
                index = self._expr()
                self._expect(TK.RBRACKET)
                expr = ast.IndexExpr(tok.loc, expr, index)
            elif tok.kind is TK.LPAREN:
                expr = self._finish_call(expr, tok)
            else:
                return expr

    def _finish_call(self, callee: ast.Expr, tok: Token) -> ast.Expr:
        if isinstance(callee, ast.NameRef) and callee.name in ("ISTYPE", "NARROW"):
            return self._type_test(callee.name, tok)
        self._expect(TK.LPAREN)
        args: List[ast.Expr] = []
        while not self._at(TK.RPAREN):
            args.append(self._expr())
            if not self._accept(TK.COMMA):
                break
        self._expect(TK.RPAREN)
        return ast.CallExpr(tok.loc, callee, args)

    def _type_test(self, which: str, tok: Token) -> ast.Expr:
        self._expect(TK.LPAREN)
        operand = self._expr()
        self._expect(TK.COMMA)
        texpr = self._type_expr()
        self._expect(TK.RPAREN)
        if which == "ISTYPE":
            return ast.IsTypeExpr(tok.loc, operand, texpr)
        return ast.NarrowExpr(tok.loc, operand, texpr)

    def _primary_expr(self) -> ast.Expr:
        tok = self._peek()
        if tok.kind is TK.INT:
            self._advance()
            return ast.IntLit(tok.loc, int(tok.value))
        if tok.kind is TK.CHAR:
            self._advance()
            return ast.CharLit(tok.loc, str(tok.value))
        if tok.kind is TK.TEXT:
            self._advance()
            return ast.TextLit(tok.loc, str(tok.value))
        if tok.kind is TK.KW_TRUE:
            self._advance()
            return ast.BoolLit(tok.loc, True)
        if tok.kind is TK.KW_FALSE:
            self._advance()
            return ast.BoolLit(tok.loc, False)
        if tok.kind is TK.KW_NIL:
            self._advance()
            return ast.NilLit(tok.loc)
        if tok.kind is TK.KW_NEW:
            return self._new_expr()
        if tok.kind is TK.LPAREN:
            self._advance()
            expr = self._expr()
            self._expect(TK.RPAREN)
            return expr
        if tok.kind is TK.IDENT:
            self._advance()
            return ast.NameRef(tok.loc, str(tok.value))
        raise ParseError("expected an expression, found {}".format(tok), tok.loc)

    def _new_expr(self) -> ast.NewExpr:
        loc = self._expect(TK.KW_NEW).loc
        self._expect(TK.LPAREN)
        texpr = self._type_expr()
        size: Optional[ast.Expr] = None
        field_inits: List[Tuple[str, ast.Expr]] = []
        while self._accept(TK.COMMA):
            # `f := e` is a field initialiser; anything else is the
            # open-array size argument.
            if self._at(TK.IDENT) and self._lookahead(1).kind is TK.ASSIGN:
                fname = self._ident()
                self._expect(TK.ASSIGN)
                field_inits.append((fname, self._expr()))
            else:
                size = self._expr()
        self._expect(TK.RPAREN)
        return ast.NewExpr(loc, texpr, size, field_inits)


def parse_module(source: str, unit: str = "<input>") -> ast.Module:
    """Parse a complete MiniM3 module from *source*.

    Pathological nesting (thousands of parens, REFs or records) raises
    :class:`~repro.lang.errors.ResourceLimitError` via the parser's depth
    cap; the interpreter stack limit is raised for the duration so the
    cap always fires before Python's own ``RecursionError`` would.
    """
    from repro.obs import core as obs

    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, 30 * MAX_NESTING_DEPTH))
    try:
        with obs.span("lang.parse", unit=unit, bytes=len(source)):
            return Parser(tokenize(source, unit)).parse_module()
    finally:
        sys.setrecursionlimit(old_limit)
