"""Tests for the mini-LEAN frontend: lexer, parser, type checker."""

import pytest

from repro.lean import (
    LexError,
    ParseError,
    TypeError_,
    ast,
    check_program,
    parse_expression,
    parse_program,
    tokenize,
)

LIST_SRC = """
inductive List where
| nil
| cons (head : Nat) (tail : List)

def length (xs : List) : Nat :=
  match xs with
  | List.nil => 0
  | List.cons h t => 1 + length t
"""


class TestLexer:
    def test_basic_tokens(self):
        tokens = tokenize("def f (x : Nat) : Nat := x + 1")
        kinds = [t.kind for t in tokens]
        assert kinds[0] == "KEYWORD" and tokens[0].text == "def"
        assert "ARROW" in kinds  # :=
        assert kinds[-1] == "EOF"

    def test_qualified_identifier(self):
        tokens = tokenize("List.cons x xs")
        assert tokens[0].text == "List.cons" and tokens[0].kind == "IDENT"

    def test_comments_skipped(self):
        tokens = tokenize("1 -- a comment\n+ 2 /- block\ncomment -/ + 3")
        texts = [t.text for t in tokens if t.kind != "EOF"]
        assert texts == ["1", "+", "2", "+", "3"]

    def test_line_numbers(self):
        tokens = tokenize("a\nb\nc")
        assert [t.line for t in tokens[:3]] == [1, 2, 3]

    def test_operators(self):
        texts = [t.text for t in tokenize("a == b && c <= d || e != f")]
        assert "==" in texts and "&&" in texts and "<=" in texts and "||" in texts

    def test_lex_error(self):
        with pytest.raises(LexError):
            tokenize("valid ~ invalid")


class TestParser:
    def test_parse_inductive(self):
        program = parse_program(LIST_SRC)
        ind = program.inductive("List")
        assert ind is not None
        assert [c.name for c in ind.constructors] == ["nil", "cons"]
        assert ind.constructors[1].fields[0][0] == "head"

    def test_parse_def_signature(self):
        program = parse_program(LIST_SRC)
        length = program.definition("length")
        assert length is not None
        assert [t for _, t in length.params] == [ast.DataType("List")]
        assert length.return_type == ast.NatType()

    def test_parse_match_arms(self):
        program = parse_program(LIST_SRC)
        body = program.definition("length").body
        assert isinstance(body, ast.Match)
        assert len(body.arms) == 2
        assert isinstance(body.arms[0].patterns[0], ast.PCtor)

    def test_parse_nested_patterns(self):
        src = LIST_SRC + """
def second (xs : List) : Nat :=
  match xs with
  | List.cons _ (List.cons s _) => s
  | _ => 0
"""
        program = parse_program(src)
        arm = program.definition("second").body.arms[0]
        outer = arm.patterns[0]
        assert isinstance(outer, ast.PCtor)
        assert isinstance(outer.subpatterns[1], ast.PCtor)

    def test_operator_precedence(self):
        expr = parse_expression("1 + 2 * 3")
        assert isinstance(expr, ast.BinOp) and expr.op == "+"
        assert isinstance(expr.rhs, ast.BinOp) and expr.rhs.op == "*"

    def test_comparison_and_bool_ops(self):
        expr = parse_expression("a < b && c == d")
        assert expr.op == "&&"
        assert expr.lhs.op == "<" and expr.rhs.op == "=="

    def test_application_binds_tighter_than_operators(self):
        expr = parse_expression("f x + g y")
        assert isinstance(expr, ast.BinOp)
        assert isinstance(expr.lhs, ast.App) and isinstance(expr.rhs, ast.App)

    def test_let_with_semicolon_and_in(self):
        for src in ("let x := 1; x + 1", "let x := 1 in x + 1"):
            expr = parse_expression(src)
            assert isinstance(expr, ast.Let)

    def test_lambda_requires_annotations(self):
        with pytest.raises(ParseError):
            parse_expression("fun x => x")
        lam = parse_expression("fun (x : Nat) => x + 1")
        assert isinstance(lam, ast.Lambda)

    def test_if_then_else(self):
        expr = parse_expression("if a < b then 1 else 2")
        assert isinstance(expr, ast.If)

    def test_negative_literal(self):
        expr = parse_expression("-5")
        assert isinstance(expr, ast.IntLit) and expr.value == -5

    def test_multi_scrutinee_match_arity_check(self):
        with pytest.raises(ParseError):
            parse_program(
                """
def f (x : Nat) (y : Nat) : Nat :=
  match x, y with
  | 0 => 1
"""
            )

    def test_parse_error_reports_line(self):
        with pytest.raises(ParseError) as excinfo:
            parse_program("def f (x : Nat : Nat := x")
        assert "line" in str(excinfo.value)

    def test_match_without_arms_rejected(self):
        with pytest.raises(ParseError):
            parse_program("def f (x : Nat) : Nat :=\n  match x with")

    def test_grouped_parameters(self):
        program = parse_program("def add3 (a b c : Nat) : Nat := a + b + c")
        assert len(program.definition("add3").params) == 3


class TestTypeChecker:
    def check(self, src):
        program = parse_program(src)
        return program, check_program(program)

    def test_simple_program_checks(self):
        self.check(LIST_SRC)

    def test_annotates_inferred_types(self):
        program, _ = self.check("def f (x : Nat) : Nat := x + 1")
        body = program.definition("f").body
        assert isinstance(body.inferred_type, ast.NatType)

    def test_literal_adapts_to_int_context(self):
        program, _ = self.check("def f (x : Int) : Int := x + 3")
        body = program.definition("f").body
        assert isinstance(body.rhs.inferred_type, ast.IntType)

    def test_constructor_types(self):
        program, env = self.check(LIST_SRC)
        sig = env.constructor("List.cons")
        assert sig.tag == 1 and sig.arity == 2

    def test_partial_application_types(self):
        self.check(
            """
def k (x : Nat) (y : Nat) : Nat := x
def k10 : Nat -> Nat := k 10
"""
        )

    def test_higher_order_parameter(self):
        self.check(
            """
def twice (f : Nat -> Nat) (x : Nat) : Nat := f (f x)
def main : Nat := twice (fun (v : Nat) => v + 1) 0
"""
        )

    def test_type_mismatch_rejected(self):
        with pytest.raises(TypeError_):
            self.check("def f (x : Nat) : Bool := x + 1")

    def test_unknown_identifier_rejected(self):
        with pytest.raises(TypeError_):
            self.check("def f (x : Nat) : Nat := y")

    def test_wrong_constructor_type_rejected(self):
        with pytest.raises(TypeError_):
            self.check(
                LIST_SRC
                + """
inductive Tree where
| leaf

def bad (t : Tree) : Nat :=
  match t with
  | List.nil => 0
"""
            )

    def test_wrong_pattern_arity_rejected(self):
        with pytest.raises(TypeError_):
            self.check(
                LIST_SRC
                + """
def bad (xs : List) : Nat :=
  match xs with
  | List.cons h => h
  | List.nil => 0
"""
            )

    def test_over_application_rejected(self):
        with pytest.raises(TypeError_):
            self.check("def f (x : Nat) : Nat := x\ndef g : Nat := f 1 2")

    def test_condition_must_be_bool(self):
        with pytest.raises(TypeError_):
            self.check("def f (x : Nat) : Nat := if x then 1 else 2")

    def test_duplicate_definition_rejected(self):
        with pytest.raises(TypeError_):
            self.check("def f : Nat := 1\ndef f : Nat := 2")

    def test_duplicate_constructor_rejected(self):
        with pytest.raises(TypeError_, match="duplicate constructor T.a"):
            self.check("inductive T where\n| a (x : Nat)\n| a\n")

    def test_same_constructor_name_in_two_types_accepted(self):
        self.check("inductive T where\n| a\n\ninductive U where\n| a\n")

    def test_repeated_pattern_variable_rejected(self):
        with pytest.raises(TypeError_, match="variable x occurs more than once"):
            self.check(
                """
inductive P where
| mk (a : Nat) (b : Nat)

def f (p : P) : Nat :=
  match p with
  | P.mk x x => x
"""
            )

    def test_pattern_variable_repeated_across_scrutinees_rejected(self):
        with pytest.raises(TypeError_, match="variable x occurs more than once"):
            self.check(
                """
def f (a : Nat) (b : Nat) : Nat :=
  match a, b with
  | x, x => x
"""
            )

    def test_pattern_variable_may_shadow_and_repeat_across_arms(self):
        self.check(
            LIST_SRC
            + """
def f (h : Nat) (xs : List) : Nat :=
  match xs with
  | List.cons h t => h
  | List.nil => match xs with
    | List.cons h t => h
    | List.nil => h
"""
        )

    def test_array_builtins_check(self):
        self.check(
            """
def f (a : Array Nat) : Nat := Array.get (Array.push a 1) 0
"""
        )

    def test_comparison_of_non_numeric_rejected(self):
        with pytest.raises(TypeError_):
            self.check(LIST_SRC + "\ndef f (a : List) (b : List) : Bool := a < b")
