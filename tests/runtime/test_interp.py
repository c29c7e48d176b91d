"""Interpreter semantics tests: every language feature end to end."""

import pytest

from repro import compile_program
from repro.runtime import Interpreter, M3RuntimeError, MachineModel


def run(body, decls=""):
    program = compile_program(
        "MODULE M; {} BEGIN {} END M.".format(decls, body)
    )
    return program.run()


def out(body, decls=""):
    return run(body, decls).output_text()


class TestScalars:
    def test_arithmetic(self):
        assert out("PutInt (2 + 3 * 4 - 1);") == "13"

    def test_div_mod_floor_semantics(self):
        assert out("PutInt ((-7) DIV 2); PutText (\" \"); PutInt ((-7) MOD 2);") == "-4 1"

    def test_div_by_zero_traps(self):
        with pytest.raises(M3RuntimeError):
            run("PutInt (1 DIV 0);")

    def test_comparisons_and_bools(self):
        assert out("IF 1 < 2 AND NOT (3 = 4) THEN PutText (\"yes\"); END;") == "yes"

    def test_short_circuit_and(self):
        # right operand would trap; short-circuit must skip it
        decls = "VAR c: REF INTEGER;"
        assert out("IF c # NIL AND c^ = 1 THEN PutText (\"y\"); ELSE PutText (\"n\"); END;", decls) == "n"

    def test_short_circuit_or(self):
        decls = "VAR c: REF INTEGER;"
        assert out("IF c = NIL OR c^ = 1 THEN PutText (\"y\"); END;", decls) == "y"

    def test_char_ord_val(self):
        assert out("PutInt (ORD ('a')); PutChar (VAL (98, CHAR));") == "97b"

    @pytest.mark.parametrize("code", [-1, 0x110000, 2 ** 70])
    def test_val_out_of_range_traps(self, code):
        # Every code chr() rejects is a checked runtime error, not a
        # ValueError/OverflowError escaping the interpreter.
        with pytest.raises(M3RuntimeError, match="out of range"):
            run("i := {}; PutChar (VAL (i, CHAR));".format(code),
                "VAR i: INTEGER;")

    def test_val_extremes_accepted(self):
        assert out("i := {}; PutInt (ORD (VAL (i, CHAR)));".format(0x10FFFF),
                   "VAR i: INTEGER;") == str(0x10FFFF)

    def test_text_char_out_of_range_traps(self):
        with pytest.raises(M3RuntimeError, match="TextChar index 5"):
            run('PutChar (TextChar ("ab", 5));')

    def test_min_max_abs(self):
        assert out("PutInt (MIN (2, 1) + MAX (2, 1) + ABS (-4));") == "7"

    def test_text_ops(self):
        assert out('PutInt (TextLen ("abc")); PutChar (TextChar ("abc", 1));') == "3b"
        assert out('PutText ("a" & "b" & IntToText (7) & CharToText (\'!\'));') == "ab7!"


class TestControlFlow:
    def test_while(self):
        assert out(
            "VAR i: INTEGER := 0; BEGIN WHILE i < 3 DO INC (i); END; PutInt (i);"
            .replace("VAR i: INTEGER := 0; BEGIN ", ""),
            "VAR i: INTEGER;",
        ) == "3"

    def test_repeat_runs_at_least_once(self):
        assert out("REPEAT PutChar ('x'); UNTIL TRUE;") == "x"

    def test_for_with_negative_step(self):
        assert out("FOR i := 3 TO 1 BY -1 DO PutInt (i); END;") == "321"

    def test_for_zero_trip(self):
        assert out("FOR i := 3 TO 1 DO PutInt (i); END; PutChar ('.');") == "."

    def test_loop_exit(self):
        assert out(
            "i := 0; LOOP INC (i); IF i = 4 THEN EXIT; END; END; PutInt (i);",
            "VAR i: INTEGER;",
        ) == "4"

    def test_nested_loop_exit_inner_only(self):
        assert out(
            """
            FOR i := 0 TO 1 DO
              LOOP EXIT; END;
              PutInt (i);
            END;
            """,
        ) == "01"

    def test_case_with_else(self):
        assert out(
            "FOR i := 0 TO 3 DO CASE i OF | 1 => PutChar ('a'); | 2, 3 => PutChar ('b'); ELSE PutChar ('?'); END; END;"
        ) == "?abb"

    def test_assert_traps(self):
        with pytest.raises(M3RuntimeError):
            run("ASSERT (FALSE);")


class TestHeap:
    DECLS = """
    TYPE
      T = OBJECT n: INTEGER; f: T; END;
      B = REF ARRAY OF CHAR;
      F = REF ARRAY [0..3] OF INTEGER;
      R = REF RECORD a, b: INTEGER; END;
      C = REF INTEGER;
    VAR t: T; b: B; fx: F; r: R; c: C;
    """

    def test_object_fields_default_and_set(self):
        assert out("t := NEW (T); PutInt (t.n); t.n := 5; PutInt (t.n);", self.DECLS) == "05"

    def test_field_inits(self):
        assert out("t := NEW (T, n := 9, f := NEW (T, n := 1)); PutInt (t.n + t.f.n);", self.DECLS) == "10"

    def test_nil_deref_traps(self):
        with pytest.raises(M3RuntimeError):
            run("t.n := 1;", self.DECLS)

    def test_open_array(self):
        assert out(
            "b := NEW (B, 3); b^[0] := 'x'; PutInt (NUMBER (b^)); PutChar (b^[0]); PutChar (b^[2]);",
            self.DECLS,
        ) == "3x\0"

    def test_array_bounds_trap(self):
        with pytest.raises(M3RuntimeError):
            run("b := NEW (B, 2); b^[2] := 'x';", self.DECLS)

    def test_negative_index_traps(self):
        with pytest.raises(M3RuntimeError):
            run("b := NEW (B, 2); b^[-1] := 'x';", self.DECLS)

    def test_fixed_array(self):
        assert out("fx := NEW (F); fx^[3] := 7; PutInt (fx^[3] + NUMBER (fx^));", self.DECLS) == "11"

    def test_ref_record(self):
        assert out("r := NEW (R, a := 2); r^.b := 3; PutInt (r^.a * r^.b);", self.DECLS) == "6"

    def test_scalar_cell(self):
        assert out("c := NEW (C); c^ := 41; c^ := c^ + 1; PutInt (c^);", self.DECLS) == "42"

    def test_reference_equality_is_identity(self):
        assert out(
            "t := NEW (T); IF t = t THEN PutChar ('='); END; IF t # NEW (T) THEN PutChar ('#'); END;",
            self.DECLS,
        ) == "=#"


class TestProceduresAndMethods:
    def test_recursion(self):
        decls = """
        PROCEDURE Fib (n: INTEGER): INTEGER =
        BEGIN
          IF n < 2 THEN RETURN n; END;
          RETURN Fib (n - 1) + Fib (n - 2);
        END Fib;
        """
        assert out("PutInt (Fib (10));", decls) == "55"

    def test_var_params_write_back(self):
        decls = """
        VAR x: INTEGER;
        PROCEDURE Swap (VAR a, b: INTEGER) =
        VAR t: INTEGER;
        BEGIN
          t := a; a := b; b := t;
        END Swap;
        VAR y: INTEGER;
        """
        assert out("x := 1; y := 2; Swap (x, y); PutInt (x); PutInt (y);", decls) == "21"

    def test_var_param_on_heap_field(self):
        decls = """
        TYPE T = OBJECT n: INTEGER; END;
        VAR t: T;
        PROCEDURE Bump (VAR v: INTEGER) = BEGIN v := v + 1; END Bump;
        """
        assert out("t := NEW (T, n := 6); Bump (t.n); PutInt (t.n);", decls) == "7"

    def test_var_param_on_element(self):
        decls = """
        TYPE B = REF ARRAY OF INTEGER;
        VAR b: B;
        PROCEDURE Bump (VAR v: INTEGER) = BEGIN v := v + 1; END Bump;
        """
        assert out("b := NEW (B, 2); Bump (b^[1]); PutInt (b^[1]);", decls) == "1"

    def test_method_dispatch_dynamic(self):
        decls = """
        TYPE
          A = OBJECT METHODS tag (): INTEGER := ATag; END;
          B = A OBJECT OVERRIDES tag := BTag; END;
        VAR a: A;
        PROCEDURE ATag (self: A): INTEGER = BEGIN RETURN 1; END ATag;
        PROCEDURE BTag (self: B): INTEGER = BEGIN RETURN 2; END BTag;
        """
        assert out("a := NEW (A); PutInt (a.tag ()); a := NEW (B); PutInt (a.tag ());", decls) == "12"

    def test_method_on_nil_traps(self):
        decls = """
        TYPE A = OBJECT METHODS m () := P; END;
        VAR a: A;
        PROCEDURE P (self: A) = BEGIN END P;
        """
        with pytest.raises(M3RuntimeError):
            run("a.m ();", decls)

    def test_with_aliases_location(self):
        decls = "TYPE T = OBJECT n: INTEGER; END; VAR t: T;"
        assert out(
            "t := NEW (T, n := 1); WITH w = t.n DO w := w + 9; END; PutInt (t.n);",
            decls,
        ) == "10"

    def test_narrow_failure_traps(self):
        decls = "TYPE A = OBJECT END; B = A OBJECT END; VAR a: A; b: B;"
        with pytest.raises(M3RuntimeError):
            run("a := NEW (A); b := NARROW (a, B);", decls)

    def test_narrow_of_nil_ok(self):
        decls = "TYPE A = OBJECT END; B = A OBJECT END; VAR a: A; b: B;"
        assert out("b := NARROW (a, B); IF b = NIL THEN PutChar ('n'); END;", decls) == "n"

    def test_istype(self):
        decls = "TYPE A = OBJECT END; B = A OBJECT END; VAR a: A;"
        assert out(
            "a := NEW (B); IF ISTYPE (a, B) THEN PutChar ('y'); END; IF ISTYPE (NIL, A) THEN PutChar ('n'); END;",
            decls,
        ) == "yn"


class TestCounters:
    def test_heap_load_counting(self):
        decls = (
            "TYPE T = OBJECT n: INTEGER; END; VAR t: T; x: INTEGER; "
            "PROCEDURE P () = BEGIN END P;"
        )
        # The baseline includes the GCC-style backend CSE (with store-to-
        # load forwarding); a call conservatively kills availability, so
        # both loads stay.
        stats = run("t := NEW (T); x := t.n; P (); x := t.n;", decls)
        assert stats.heap_loads == 2
        assert stats.other_loads >= 2

    def test_backend_merges_adjacent_loads(self):
        decls = "TYPE T = OBJECT n: INTEGER; END; VAR t: T; x: INTEGER;"
        stats = run("t := NEW (T); x := t.n; x := t.n;", decls)
        assert stats.heap_loads == 1

    def test_dope_loads_counted_as_heap(self):
        decls = "TYPE B = REF ARRAY OF CHAR; VAR b: B; c: CHAR;"
        stats = run("b := NEW (B, 4); c := b^[1];", decls)
        # dope data + element
        assert stats.heap_loads == 2

    def test_cycles_include_load_latency(self):
        decls = "TYPE T = OBJECT n: INTEGER; END; VAR t: T; x: INTEGER;"
        stats = run("t := NEW (T); x := t.n;", decls)
        assert stats.cycles > stats.instructions

    def test_output_ordering(self):
        assert out('PutInt (1); PutText ("-"); PutChar (\'c\');') == "1-c"

    def test_call_counting(self):
        decls = "PROCEDURE P () = BEGIN END P;"
        stats = run("P (); P ();", decls)
        assert stats.calls == 3  # main + 2
