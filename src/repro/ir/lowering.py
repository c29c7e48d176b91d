"""AST → IR lowering.

Turns each checked procedure into a :class:`~repro.ir.cfg.ProcIR` of basic
blocks.  The lowering makes the memory behaviour of MiniM3 explicit:

* every heap access carries its lexical access path;
* open-array subscripts emit the *implicit* dope-vector loads
  (``LoadDopeData``/``LoadDopeCount``) that the paper's Figure 10 calls
  "Encapsulation" — invisible to the AST-level optimizer, visible to the
  limit study;
* VAR parameters and location-binding WITH statements produce *location
  handles* (Addr* instructions); reads/writes through them are
  ``LoadInd``/``StoreInd`` with ``Deref`` APs, matching how TBAA treats
  address-taken locations;
* short-circuit AND/OR, FOR, CASE and REPEAT are lowered to plain CFG
  edges, so the analyses see only blocks, branches and loops.
"""

from typing import List, Optional, Tuple

from repro.ir import instructions as ins
from repro.ir.access_path import (
    AccessPath,
    ConstIndex,
    Deref,
    IndexTerm,
    Qualify,
    Subscript,
    VarIndex,
    VarRoot,
)
from repro.ir.cfg import BasicBlock, ProcIR, ProgramIR
from repro.lang import ast_nodes as ast
from repro.lang import types as ty
from repro.lang.errors import CompileError
from repro.lang.symtab import Symbol
from repro.lang.typecheck import CheckedModule, CheckedProc, MAIN_PROC


class LoweringError(CompileError):
    """Internal inconsistency between checker and lowerer."""


def lower_module(checked: CheckedModule) -> ProgramIR:
    """Lower every procedure (incl. the module body) of *checked*."""
    from repro.obs import core as obs

    with obs.span("ir.lower", module=checked.name):
        program = ProgramIR(checked)
        for proc in checked.user_procs():
            program.add_proc(_ProcLowerer(checked, proc).lower())
        return program


def lower_program(source: str, unit: str = "<input>") -> ProgramIR:
    """Convenience: parse, check and lower MiniM3 source text."""
    from repro.lang.parser import parse_module
    from repro.lang.typecheck import check_module

    return lower_module(check_module(parse_module(source, unit)))


class _ProcLowerer:
    """Lowers one procedure body."""

    def __init__(self, checked_module: CheckedModule, checked_proc: CheckedProc):
        self.module = checked_module
        self.checked = checked_proc
        self.proc = ProcIR(checked_proc.name, checked_proc)
        self.block = self.proc.entry
        self.loop_exits: List[BasicBlock] = []

    # ------------------------------------------------------------------
    # Plumbing

    def emit(self, instr: ins.Instr) -> ins.Instr:
        self.block.append(instr)
        return instr

    def temp(self) -> ins.Temp:
        return self.proc.new_temp()

    def goto(self, block: BasicBlock) -> None:
        """Terminate the current block with a jump and continue in *block*."""
        if not self.block.is_terminated:
            self.block.terminate(ins.Jump(block))
        self.block = block

    def branch(self, cond: ins.Temp, if_true: BasicBlock, if_false: BasicBlock) -> None:
        if not self.block.is_terminated:
            self.block.terminate(ins.Branch(cond, if_true, if_false))

    # ------------------------------------------------------------------
    # Top level

    def lower(self) -> ProcIR:
        if self.checked.name == MAIN_PROC:
            self._lower_global_inits()
        self._lower_local_inits()
        self.lower_stmts(self.checked.body)
        if not self.block.is_terminated:
            self.block.terminate(ins.Return(None))
        return self.proc

    def _lower_global_inits(self) -> None:
        for decl in self.module.module.var_decls:
            if decl.init is None:
                continue
            value = self.lower_expr(decl.init)
            for name in decl.names:
                symbol = self._global_symbol(name)
                self.emit(ins.StoreVar(symbol, value, decl.loc))

    def _global_symbol(self, name: str) -> Symbol:
        for symbol in self.module.globals:
            if symbol.name == name:
                return symbol
        raise LoweringError("unknown global '{}'".format(name))

    def _lower_local_inits(self) -> None:
        decl = self.checked.decl
        if decl is None:
            return
        by_name = {s.name: s for s in self.checked.locals}
        for vdecl in decl.local_vars:
            if vdecl.init is None:
                continue
            value = self.lower_expr(vdecl.init)
            for name in vdecl.names:
                self.emit(ins.StoreVar(by_name[name], value, vdecl.loc))

    # ------------------------------------------------------------------
    # Statements

    def lower_stmts(self, stmts: List[ast.Stmt]) -> None:
        for stmt in stmts:
            self.lower_stmt(stmt)

    def lower_stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.AssignStmt):
            value = self.lower_expr(stmt.value)
            self.write_designator(stmt.target, value)
        elif isinstance(stmt, ast.CallStmt):
            self.lower_call(stmt.call, want_result=False)
        elif isinstance(stmt, ast.EvalStmt):
            self.lower_expr(stmt.expr)
        elif isinstance(stmt, ast.IfStmt):
            self._lower_if(stmt)
        elif isinstance(stmt, ast.WhileStmt):
            self._lower_while(stmt)
        elif isinstance(stmt, ast.RepeatStmt):
            self._lower_repeat(stmt)
        elif isinstance(stmt, ast.LoopStmt):
            self._lower_loop(stmt)
        elif isinstance(stmt, ast.ExitStmt):
            if not self.loop_exits:
                raise LoweringError("EXIT outside loop survived checking")
            self.goto_dead_after(ins.Jump(self.loop_exits[-1], stmt.loc))
        elif isinstance(stmt, ast.ForStmt):
            self._lower_for(stmt)
        elif isinstance(stmt, ast.ReturnStmt):
            value = self.lower_expr(stmt.value) if stmt.value is not None else None
            self.goto_dead_after(ins.Return(value, stmt.loc))
        elif isinstance(stmt, ast.WithStmt):
            self._lower_with(stmt)
        elif isinstance(stmt, ast.CaseStmt):
            self._lower_case(stmt)
        else:
            raise LoweringError("unsupported statement {!r}".format(stmt))

    def goto_dead_after(self, terminator: ins.Instr) -> None:
        """Terminate with *terminator*; continue in an unreachable block."""
        if not self.block.is_terminated:
            self.block.terminate(terminator)
        self.block = self.proc.new_block("dead")

    def _lower_if(self, stmt: ast.IfStmt) -> None:
        join = self.proc.new_block("join")
        for cond, body in stmt.arms:
            cond_temp = self.lower_expr(cond)
            then_block = self.proc.new_block("then")
            else_block = self.proc.new_block("else")
            self.branch(cond_temp, then_block, else_block)
            self.block = then_block
            self.lower_stmts(body)
            self.goto(join)
            self.block = else_block
        self.lower_stmts(stmt.else_body)
        self.goto(join)

    def _lower_while(self, stmt: ast.WhileStmt) -> None:
        header = self.proc.new_block("while")
        body = self.proc.new_block("body")
        exit_block = self.proc.new_block("exit")
        self.goto(header)
        cond = self.lower_expr(stmt.cond)
        self.branch(cond, body, exit_block)
        self.block = body
        self.loop_exits.append(exit_block)
        self.lower_stmts(stmt.body)
        self.loop_exits.pop()
        self.goto(header)
        self.block = exit_block

    def _lower_repeat(self, stmt: ast.RepeatStmt) -> None:
        body = self.proc.new_block("repeat")
        exit_block = self.proc.new_block("exit")
        self.goto(body)
        self.loop_exits.append(exit_block)
        self.lower_stmts(stmt.body)
        self.loop_exits.pop()
        cond = self.lower_expr(stmt.until)
        self.branch(cond, exit_block, body)
        self.block = exit_block

    def _lower_loop(self, stmt: ast.LoopStmt) -> None:
        body = self.proc.new_block("loop")
        exit_block = self.proc.new_block("exit")
        self.goto(body)
        self.loop_exits.append(exit_block)
        self.lower_stmts(stmt.body)
        self.loop_exits.pop()
        self.goto(body)
        self.block = exit_block

    def _lower_for(self, stmt: ast.ForStmt) -> None:
        symbol: Symbol = getattr(stmt, "symbol")
        by_value: int = getattr(stmt, "by_value", 1)
        lo = self.lower_expr(stmt.lo)
        self.emit(ins.StoreVar(symbol, lo, stmt.loc))
        hi = self.lower_expr(stmt.hi)
        hi_shadow = self.proc.new_shadow("for_hi", ty.INTEGER)
        self.emit(ins.StoreVar(hi_shadow, hi, stmt.loc))

        header = self.proc.new_block("for")
        body = self.proc.new_block("body")
        exit_block = self.proc.new_block("exit")
        self.goto(header)
        t_i = self.temp()
        self.emit(ins.LoadVar(t_i, symbol, stmt.loc))
        t_hi = self.temp()
        self.emit(ins.LoadVar(t_hi, hi_shadow, stmt.loc))
        t_cond = self.temp()
        op = "<=" if by_value > 0 else ">="
        self.emit(ins.BinOp(t_cond, op, t_i, t_hi, stmt.loc))
        self.branch(t_cond, body, exit_block)

        self.block = body
        self.loop_exits.append(exit_block)
        self.lower_stmts(stmt.body)
        self.loop_exits.pop()
        # increment
        t_cur = self.temp()
        self.emit(ins.LoadVar(t_cur, symbol, stmt.loc))
        t_by = self.temp()
        self.emit(ins.ConstInstr(t_by, by_value, stmt.loc))
        t_next = self.temp()
        self.emit(ins.BinOp(t_next, "+", t_cur, t_by, stmt.loc))
        self.emit(ins.StoreVar(symbol, t_next, stmt.loc))
        self.goto(header)
        self.block = exit_block

    def _lower_with(self, stmt: ast.WithStmt) -> None:
        for binding in stmt.bindings:
            symbol: Symbol = getattr(binding, "symbol")
            if binding.binds_location:
                handle = self.address_of(binding.expr)
                self.emit(ins.StoreVar(symbol, handle, binding.loc))
                self.proc.handle_targets[symbol] = self._var_arg_info(binding.expr)
            else:
                value = self.lower_expr(binding.expr)
                self.emit(ins.StoreVar(symbol, value, binding.loc))
        self.lower_stmts(stmt.body)

    def _lower_case(self, stmt: ast.CaseStmt) -> None:
        selector = self.lower_expr(stmt.selector)
        sel_shadow = self.proc.new_shadow("case_sel", stmt.selector.type or ty.INTEGER)
        self.emit(ins.StoreVar(sel_shadow, selector, stmt.loc))
        join = self.proc.new_block("join")
        for arm in stmt.arms:
            arm_block = self.proc.new_block("arm")
            next_test = self.proc.new_block("test")
            matched = self._case_match(sel_shadow, arm.labels)
            self.branch(matched, arm_block, next_test)
            self.block = arm_block
            self.lower_stmts(arm.body)
            self.goto(join)
            self.block = next_test
        self.lower_stmts(stmt.else_body)
        self.goto(join)

    def _case_match(self, sel_shadow: Symbol, labels: List[ast.Expr]) -> ins.Temp:
        """OR together equality tests of the selector against each label."""
        result: Optional[ins.Temp] = None
        for label in labels:
            t_sel = self.temp()
            self.emit(ins.LoadVar(t_sel, sel_shadow, label.loc))
            t_lab = self.temp()
            self.emit(ins.ConstInstr(t_lab, getattr(label, "const_value"), label.loc))
            t_eq = self.temp()
            self.emit(ins.BinOp(t_eq, "=", t_sel, t_lab, label.loc))
            if result is None:
                result = t_eq
            else:
                t_or = self.temp()
                self.emit(ins.BinOp(t_or, "OR", result, t_eq, label.loc))
                result = t_or
        assert result is not None
        return result

    # ------------------------------------------------------------------
    # Expressions

    def lower_expr(self, expr: ast.Expr) -> ins.Temp:
        if isinstance(expr, ast.IntLit):
            return self._const(expr.value, expr)
        if isinstance(expr, ast.BoolLit):
            return self._const(expr.value, expr)
        if isinstance(expr, ast.CharLit):
            return self._const(expr.value, expr)
        if isinstance(expr, ast.TextLit):
            return self._const(expr.value, expr)
        if isinstance(expr, ast.NilLit):
            return self._const(None, expr)
        if isinstance(expr, (ast.NameRef, ast.FieldRef, ast.DerefExpr, ast.IndexExpr)):
            temp, _ = self.read_designator(expr)
            return temp
        if isinstance(expr, ast.CallExpr):
            result = self.lower_call(expr, want_result=True)
            assert result is not None
            return result
        if isinstance(expr, ast.NewExpr):
            return self._lower_new(expr)
        if isinstance(expr, ast.BinaryExpr):
            return self._lower_binary(expr)
        if isinstance(expr, ast.UnaryExpr):
            op = {"-": "neg", "NOT": "not"}[expr.op]
            operand = self.lower_expr(expr.operand)
            dest = self.temp()
            self.emit(ins.UnOp(dest, op, operand, expr.loc))
            return dest
        if isinstance(expr, ast.IsTypeExpr):
            src = self.lower_expr(expr.operand)
            dest = self.temp()
            assert isinstance(expr.target_type, ty.ObjectType)
            self.emit(ins.TypeTest(dest, src, expr.target_type, expr.loc))
            return dest
        if isinstance(expr, ast.NarrowExpr):
            src = self.lower_expr(expr.operand)
            dest = self.temp()
            assert isinstance(expr.target_type, ty.ObjectType)
            self.emit(ins.NarrowChk(dest, src, expr.target_type, expr.loc))
            return dest
        raise LoweringError("unsupported expression {!r}".format(expr))

    def _const(self, value: object, expr: ast.Expr) -> ins.Temp:
        dest = self.temp()
        self.emit(ins.ConstInstr(dest, value, expr.loc))
        return dest

    def _lower_binary(self, expr: ast.BinaryExpr) -> ins.Temp:
        if expr.op in ("AND", "OR"):
            return self._lower_short_circuit(expr)
        if expr.op == "&":
            left = self.lower_expr(expr.left)
            right = self.lower_expr(expr.right)
            dest = self.temp()
            self.emit(ins.Builtin(dest, "TextCat", [left, right], expr.loc))
            return dest
        left = self.lower_expr(expr.left)
        right = self.lower_expr(expr.right)
        dest = self.temp()
        self.emit(ins.BinOp(dest, expr.op, left, right, expr.loc))
        return dest

    def _lower_short_circuit(self, expr: ast.BinaryExpr) -> ins.Temp:
        result = self.temp()
        left = self.lower_expr(expr.left)
        rhs_block = self.proc.new_block("sc_rhs")
        fix_block = self.proc.new_block("sc_fix")
        join = self.proc.new_block("sc_join")
        if expr.op == "AND":
            self.branch(left, rhs_block, fix_block)
            fixed_value = False
        else:
            self.branch(left, fix_block, rhs_block)
            fixed_value = True
        self.block = rhs_block
        right = self.lower_expr(expr.right)
        self.emit(ins.Move(result, right, expr.loc))
        self.goto(join)
        self.block = fix_block
        self.emit(ins.ConstInstr(result, fixed_value, expr.loc))
        self.goto(join)
        self.block = join
        return result

    # ------------------------------------------------------------------
    # Designators: read / write / address-of

    def read_designator(self, expr: ast.Expr) -> Tuple[ins.Temp, AccessPath]:
        """Lower a read of *expr*; returns (value temp, lexical AP)."""
        if isinstance(expr, ast.NameRef):
            symbol: Symbol = getattr(expr, "symbol")
            if symbol.kind == "const":
                return (self._const(symbol.const_value, expr),
                        self.proc.fresh_root(symbol.type or ty.INTEGER))
            if self._is_handle(symbol):
                handle = self.temp()
                self.emit(ins.LoadVar(handle, symbol, expr.loc))
                ap = Deref(VarRoot(symbol), symbol.type or ty.INTEGER)
                dest = self.temp()
                self.emit(ins.LoadInd(dest, handle, ap, expr.loc))
                return dest, ap
            dest = self.temp()
            self.emit(ins.LoadVar(dest, symbol, expr.loc))
            return dest, VarRoot(symbol)

        if isinstance(expr, ast.FieldRef):
            base_temp, base_ap, owner = self._lower_field_base(expr)
            assert expr.type is not None
            ap = Qualify(base_ap, expr.field_name, expr.type, owner)
            dest = self.temp()
            self.emit(ins.LoadField(dest, base_temp, expr.field_name, ap, expr.loc))
            return dest, ap

        if isinstance(expr, ast.DerefExpr):
            ptr_temp, ptr_ap = self.path_of_value(expr.pointer)
            assert expr.type is not None
            ap = Deref(ptr_ap, expr.type)
            if isinstance(expr.type, (ty.RecordType, ty.ArrayType)):
                raise LoweringError("aggregate deref read survived checking")
            dest = self.temp()
            self.emit(ins.LoadInd(dest, ptr_temp, ap, expr.loc))
            return dest, ap

        if isinstance(expr, ast.IndexExpr):
            array_temp, elem_ap, index_temp = self._lower_subscript(expr)
            dest = self.temp()
            self.emit(ins.LoadElem(dest, array_temp, index_temp, elem_ap, expr.loc))
            return dest, elem_ap

        raise LoweringError("not a designator: {!r}".format(expr))

    def write_designator(self, expr: ast.Expr, src: ins.Temp) -> None:
        """Lower a write of *src* into the location denoted by *expr*."""
        if isinstance(expr, ast.NameRef):
            symbol: Symbol = getattr(expr, "symbol")
            if self._is_handle(symbol):
                handle = self.temp()
                self.emit(ins.LoadVar(handle, symbol, expr.loc))
                ap = Deref(VarRoot(symbol), symbol.type or ty.INTEGER)
                self.emit(ins.StoreInd(handle, src, ap, expr.loc))
            else:
                self.emit(ins.StoreVar(symbol, src, expr.loc))
            return
        if isinstance(expr, ast.FieldRef):
            base_temp, base_ap, owner = self._lower_field_base(expr)
            assert expr.type is not None
            ap = Qualify(base_ap, expr.field_name, expr.type, owner)
            self.emit(ins.StoreField(base_temp, expr.field_name, src, ap, expr.loc))
            return
        if isinstance(expr, ast.DerefExpr):
            ptr_temp, ptr_ap = self.path_of_value(expr.pointer)
            assert expr.type is not None
            ap = Deref(ptr_ap, expr.type)
            self.emit(ins.StoreInd(ptr_temp, src, ap, expr.loc))
            return
        if isinstance(expr, ast.IndexExpr):
            array_temp, elem_ap, index_temp = self._lower_subscript(expr)
            self.emit(ins.StoreElem(array_temp, index_temp, src, elem_ap, expr.loc))
            return
        raise LoweringError("not a designator: {!r}".format(expr))

    def address_of(self, expr: ast.Expr) -> ins.Temp:
        """Lower &expr — a location handle for VAR arguments and WITH."""
        if isinstance(expr, ast.NameRef):
            symbol: Symbol = getattr(expr, "symbol")
            if self._is_handle(symbol):
                # Re-lend the handle we were given.
                dest = self.temp()
                self.emit(ins.LoadVar(dest, symbol, expr.loc))
                return dest
            dest = self.temp()
            self.emit(ins.AddrVar(dest, symbol, expr.loc))
            return dest
        if isinstance(expr, ast.FieldRef):
            base_temp, base_ap, owner = self._lower_field_base(expr)
            assert expr.type is not None
            ap = Qualify(base_ap, expr.field_name, expr.type, owner)
            dest = self.temp()
            self.emit(ins.AddrField(dest, base_temp, expr.field_name, ap, expr.loc))
            return dest
        if isinstance(expr, ast.IndexExpr):
            array_temp, elem_ap, index_temp = self._lower_subscript(expr)
            dest = self.temp()
            self.emit(ins.AddrElem(dest, array_temp, index_temp, elem_ap, expr.loc))
            return dest
        if isinstance(expr, ast.DerefExpr):
            # &p^ is p itself: a scalar REF cell doubles as a handle.
            return self.lower_expr(expr.pointer)
        raise LoweringError("cannot take the address of {!r}".format(expr))

    # -- helpers ---------------------------------------------------------

    @staticmethod
    def _is_handle(symbol: Symbol) -> bool:
        return symbol.by_reference or (
            symbol.kind == "with" and symbol.binds_location
        )

    def path_of_value(self, expr: ast.Expr) -> Tuple[ins.Temp, AccessPath]:
        """Value + AP of an expression used as the base of a longer path.

        Designators keep their lexical AP; any other expression roots the
        path at an anonymous :class:`FreshRoot`.
        """
        if isinstance(expr, (ast.NameRef, ast.FieldRef, ast.DerefExpr, ast.IndexExpr)):
            return self.read_designator(expr)
        temp = self.lower_expr(expr)
        assert expr.type is not None
        return temp, self.proc.fresh_root(expr.type)

    def _lower_field_base(
        self, expr: ast.FieldRef
    ) -> Tuple[ins.Temp, AccessPath, Optional[ty.ObjectType]]:
        """Base temp + base AP + declaring type for a field access.

        ``o.f`` on an object: the base value is the object reference.
        ``r^.f`` on a REF RECORD: the record is not first-class, so the
        base value is the *pointer* r and the AP gains the Deref level.
        """
        obj = expr.obj
        obj_type = obj.type
        if isinstance(obj_type, ty.ObjectType):
            base_temp, base_ap = self.path_of_value(obj)
            owner = obj_type.field_owner(expr.field_name)
            return base_temp, base_ap, owner
        if isinstance(obj_type, ty.RecordType):
            if not isinstance(obj, ast.DerefExpr):
                raise LoweringError("record value outside a dereference")
            ptr_temp, ptr_ap = self.path_of_value(obj.pointer)
            return ptr_temp, Deref(ptr_ap, obj_type), None
        raise LoweringError("field access on {}".format(obj_type))

    def _lower_subscript(
        self, expr: ast.IndexExpr
    ) -> Tuple[ins.Temp, AccessPath, ins.Temp]:
        """Base array temp + element AP + index temp for ``a^[i]``.

        Open arrays insert the implicit dope-vector data load.
        """
        arr = expr.array
        if not isinstance(arr, ast.DerefExpr):
            raise LoweringError("array value outside a dereference")
        arr_type = arr.type
        assert isinstance(arr_type, ty.ArrayType)
        ptr_temp, ptr_ap = self.path_of_value(arr.pointer)
        arr_ap = Deref(ptr_ap, arr_type)
        index_term = self._index_term(expr.index)
        index_temp = self.lower_expr(expr.index)
        assert expr.type is not None
        elem_ap = Subscript(arr_ap, index_term, expr.type)
        if arr_type.is_open:
            data_ap = Qualify(arr_ap, "$data", arr_type, None)
            data_temp = self.temp()
            self.emit(ins.LoadDopeData(data_temp, ptr_temp, data_ap, expr.loc))
            return data_temp, elem_ap, index_temp
        return ptr_temp, elem_ap, index_temp

    def _index_term(self, expr: ast.Expr) -> IndexTerm:
        if isinstance(expr, ast.IntLit):
            return ConstIndex(expr.value)
        if isinstance(expr, ast.NameRef):
            symbol: Symbol = getattr(expr, "symbol")
            if symbol.kind == "const" and isinstance(symbol.const_value, int):
                return ConstIndex(symbol.const_value)
            if symbol.kind in ("var", "param", "for", "with") and not self._is_handle(symbol):
                return VarIndex(symbol)
        return self.proc.unknown_index()

    # ------------------------------------------------------------------
    # Calls, builtins, NEW

    def lower_call(self, call: ast.CallExpr, want_result: bool) -> Optional[ins.Temp]:
        if call.call_kind == "builtin":
            return self._lower_builtin(call, want_result)
        if call.call_kind == "method":
            return self._lower_method_call(call, want_result)
        if call.call_kind == "proc":
            return self._lower_proc_call(call, want_result)
        raise LoweringError("call kind missing after checking")

    def _lower_proc_call(self, call: ast.CallExpr, want_result: bool) -> Optional[ins.Temp]:
        assert isinstance(call.callee, ast.NameRef)
        proc_sym: Symbol = getattr(call.callee, "symbol")
        proc_type = proc_sym.type
        assert isinstance(proc_type, ty.ProcType)
        args, var_args = self._lower_args(call.args, proc_type.params)
        dest = self.temp() if proc_type.result is not None else None
        instr = ins.Call(dest, proc_sym.name, args, call.loc)
        instr.var_args = var_args
        self.emit(instr)
        return dest

    def _lower_method_call(self, call: ast.CallExpr, want_result: bool) -> Optional[ins.Temp]:
        assert isinstance(call.callee, ast.FieldRef)
        receiver = self.lower_expr(call.callee.obj)
        method: ty.Method = getattr(call, "method")
        static_type: ty.ObjectType = getattr(call, "receiver_type")
        args, var_args = self._lower_args(call.args, method.params)
        dest = self.temp() if method.result is not None else None
        instr = ins.CallMethod(dest, receiver, method.name, args, static_type, call.loc)
        instr.var_args = var_args
        self.emit(instr)
        return dest

    def _lower_args(self, args: List[ast.Expr], params: List[ty.Param]):
        """Lower call arguments.

        Returns (arg temps, var_args) where ``var_args`` maps the index of
        each VAR argument to a description of the location lent to the
        callee: ``('var', symbol)`` for a variable, ``('handle', symbol)``
        for a re-lent handle, ``('heap', ap)`` for a heap location.  The
        mod-ref analysis resolves callee writes-through-parameters with it.
        """
        temps: List[ins.Temp] = []
        var_args = {}
        for position, (arg, param) in enumerate(zip(args, params)):
            if param.mode == "var":
                var_args[position] = self._var_arg_info(arg)
                temps.append(self.address_of(arg))
            else:
                temps.append(self.lower_expr(arg))
        return temps, var_args

    def _var_arg_info(self, arg: ast.Expr):
        from repro.ir.access_path import strip_index

        if isinstance(arg, ast.NameRef):
            symbol: Symbol = getattr(arg, "symbol")
            if self._is_handle(symbol):
                return ("handle", symbol)
            return ("var", symbol)
        ap = self._designator_ap(arg)
        return ("heap", strip_index(ap))

    def _designator_ap(self, expr: ast.Expr) -> AccessPath:
        """The lexical AP a designator denotes (no code emitted)."""
        if isinstance(expr, ast.NameRef):
            symbol: Symbol = getattr(expr, "symbol")
            if self._is_handle(symbol):
                return Deref(VarRoot(symbol), symbol.type or ty.INTEGER)
            return VarRoot(symbol)
        if isinstance(expr, ast.FieldRef):
            obj = expr.obj
            assert expr.type is not None
            if isinstance(obj.type, ty.ObjectType):
                base_ap = self._base_ap(obj)
                owner = obj.type.field_owner(expr.field_name)
                return Qualify(base_ap, expr.field_name, expr.type, owner)
            assert isinstance(obj, ast.DerefExpr)
            ptr_ap = self._base_ap(obj.pointer)
            assert obj.type is not None
            return Qualify(Deref(ptr_ap, obj.type), expr.field_name, expr.type, None)
        if isinstance(expr, ast.DerefExpr):
            assert expr.type is not None
            return Deref(self._base_ap(expr.pointer), expr.type)
        if isinstance(expr, ast.IndexExpr):
            arr = expr.array
            assert isinstance(arr, ast.DerefExpr) and arr.type is not None
            arr_ap = Deref(self._base_ap(arr.pointer), arr.type)
            assert expr.type is not None
            return Subscript(arr_ap, self._index_term(expr.index), expr.type)
        raise LoweringError("not a designator: {!r}".format(expr))

    def _base_ap(self, expr: ast.Expr) -> AccessPath:
        if isinstance(expr, (ast.NameRef, ast.FieldRef, ast.DerefExpr, ast.IndexExpr)):
            return self._designator_ap(expr)
        assert expr.type is not None
        return self.proc.fresh_root(expr.type)

    def _lower_builtin(self, call: ast.CallExpr, want_result: bool) -> Optional[ins.Temp]:
        name = call.builtin_name
        args = call.args
        if name == "NUMBER":
            return self._lower_number(call)
        if name in ("INC", "DEC"):
            self._lower_incdec(call)
            return None
        if name == "VAL":
            operand = self.lower_expr(args[0])
            dest = self.temp()
            self.emit(ins.Builtin(dest, "VAL", [operand], call.loc))
            return dest
        temps = [self.lower_expr(a) for a in args]
        from repro.lang.typecheck import _BUILTIN_RESULTS

        has_result = _BUILTIN_RESULTS[name] is not None
        dest = self.temp() if has_result else None
        assert name is not None
        self.emit(ins.Builtin(dest, name, temps, call.loc))
        return dest

    def _lower_number(self, call: ast.CallExpr) -> ins.Temp:
        arr = call.args[0]
        if not isinstance(arr, ast.DerefExpr):
            raise LoweringError("NUMBER argument must be a dereferenced array")
        arr_type = arr.type
        assert isinstance(arr_type, ty.ArrayType)
        if not arr_type.is_open:
            assert arr_type.length is not None
            return self._const(arr_type.length, call)
        ptr_temp, ptr_ap = self.path_of_value(arr.pointer)
        count_ap = Qualify(Deref(ptr_ap, arr_type), "$count", ty.INTEGER, None)
        dest = self.temp()
        self.emit(ins.LoadDopeCount(dest, ptr_temp, count_ap, call.loc))
        return dest

    def _lower_incdec(self, call: ast.CallExpr) -> None:
        target = call.args[0]
        current, _ = self.read_designator(target)
        if len(call.args) == 2:
            delta = self.lower_expr(call.args[1])
        else:
            delta = self._const(1, call)
        result = self.temp()
        op = "+" if call.builtin_name == "INC" else "-"
        self.emit(ins.BinOp(result, op, current, delta, call.loc))
        self.write_designator(target, result)

    def _lower_new(self, expr: ast.NewExpr) -> ins.Temp:
        new_type: ty.Type = getattr(expr, "allocated_type")
        dest = self.temp()
        if isinstance(new_type, ty.ObjectType):
            self.emit(ins.NewObject(dest, new_type, expr.loc))
            base_ap = self.proc.fresh_root(new_type)
            for fname, init in expr.field_inits:
                value = self.lower_expr(init)
                field_type = new_type.field_type(fname)
                assert field_type is not None
                owner = new_type.field_owner(fname)
                ap = Qualify(base_ap, fname, field_type, owner)
                self.emit(ins.StoreField(dest, fname, value, ap, expr.loc))
            return dest
        assert isinstance(new_type, ty.RefType)
        referent = new_type.target
        if isinstance(referent, ty.ArrayType):
            if referent.is_open:
                assert expr.size is not None
                size = self.lower_expr(expr.size)
                self.emit(ins.NewOpenArray(dest, new_type, size, expr.loc))
            else:
                self.emit(ins.NewFixedArray(dest, new_type, expr.loc))
            return dest
        # REF RECORD and scalar REF cells both allocate a record-like cell.
        self.emit(ins.NewRecord(dest, new_type, expr.loc))
        if isinstance(referent, ty.RecordType) and expr.field_inits:
            base_ap = Deref(self.proc.fresh_root(new_type), referent)
            for fname, init in expr.field_inits:
                value = self.lower_expr(init)
                field_type = referent.field_type(fname)
                assert field_type is not None
                ap = Qualify(base_ap, fname, field_type, None)
                self.emit(ins.StoreField(dest, fname, value, ap, expr.loc))
        return dest
