"""The λpure simplifier — the baseline optimiser of the LEAN compiler.

The current LEAN backend optimises λpure/λrc with a set of hand-written
passes before emitting C.  We reproduce the ones relevant to the evaluation:

* dead let elimination (pure bindings whose variable is never used),
* copy and constant propagation,
* constant folding of runtime arithmetic/comparison calls on literals,
* ``simp_case``: case-of-known-constructor and projection-of-known-
  constructor (the λrc analogue of the rgn case-elimination optimisation;
  Figure 10's variant (b) disables exactly this pass),
* collapse of case expressions whose branches are structurally identical
  (the λrc analogue of common-branch elimination),
* inlining of join points that are jumped to exactly once.

The simplifier is purely λpure-level: it runs before reference-count
insertion, as in LEAN.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..record import Record
from .ir import (
    App,
    Call,
    Case,
    CaseAlt,
    Ctor,
    Dec,
    Expr,
    FnBody,
    Function,
    Inc,
    JDecl,
    Jmp,
    Let,
    Lit,
    PAp,
    Proj,
    Program,
    Ret,
    Unreachable,
    count_jumps,
    free_vars,
)

#: Runtime calls that are pure and foldable when all arguments are literals.
_FOLDABLE_CALLS = {
    "lean_nat_add": lambda a, b: max(a + b, 0),
    "lean_nat_sub": lambda a, b: max(a - b, 0),
    "lean_nat_mul": lambda a, b: a * b,
    "lean_nat_div": lambda a, b: a // b if b else 0,
    "lean_nat_mod": lambda a, b: a % b if b else a,
    "lean_int_add": lambda a, b: a + b,
    "lean_int_sub": lambda a, b: a - b,
    "lean_int_mul": lambda a, b: a * b,
    "lean_int_neg": lambda a: -a,
}

_FOLDABLE_COMPARISONS = {
    "lean_nat_dec_eq": lambda a, b: a == b,
    "lean_nat_dec_ne": lambda a, b: a != b,
    "lean_nat_dec_lt": lambda a, b: a < b,
    "lean_nat_dec_le": lambda a, b: a <= b,
    "lean_nat_dec_gt": lambda a, b: a > b,
    "lean_nat_dec_ge": lambda a, b: a >= b,
    "lean_int_dec_eq": lambda a, b: a == b,
    "lean_int_dec_ne": lambda a, b: a != b,
    "lean_int_dec_lt": lambda a, b: a < b,
    "lean_int_dec_le": lambda a, b: a <= b,
    "lean_int_dec_gt": lambda a, b: a > b,
    "lean_int_dec_ge": lambda a, b: a >= b,
}

#: Pure runtime calls (safe to remove when dead).
_PURE_RUNTIME_PREFIXES = ("lean_nat_", "lean_int_", "lean_array_", "lean_string_")


def _is_pure_expr(expr: Expr) -> bool:
    """Whether evaluating ``expr`` has no observable effect (so a dead
    binding of it may be dropped).  User function calls are conservatively
    impure (they may diverge); closure application likewise."""
    if isinstance(expr, (Ctor, Proj, Lit, PAp)):
        return True
    if isinstance(expr, Call):
        return expr.fn.startswith(_PURE_RUNTIME_PREFIXES)
    return False


class _Binding(Record):
    """What the simplifier knows about a let-bound variable."""

    def __init__(self, expr: Optional[Expr] = None):
        self.expr = expr

    @property
    def as_lit(self) -> Optional[int]:
        return self.expr.value if isinstance(self.expr, Lit) else None

    @property
    def as_ctor(self) -> Optional[Ctor]:
        return self.expr if isinstance(self.expr, Ctor) else None


class SimplifierStats(Record):
    """Counters reported by one simplifier run."""

    def __init__(
        self,
        dead_lets: int = 0,
        constants_folded: int = 0,
        cases_simplified: int = 0,
        projections_folded: int = 0,
        branches_collapsed: int = 0,
        joins_inlined: int = 0,
    ):
        self.dead_lets = dead_lets
        self.constants_folded = constants_folded
        self.cases_simplified = cases_simplified
        self.projections_folded = projections_folded
        self.branches_collapsed = branches_collapsed
        self.joins_inlined = joins_inlined

    def total(self) -> int:
        return (
            self.dead_lets
            + self.constants_folded
            + self.cases_simplified
            + self.projections_folded
            + self.branches_collapsed
            + self.joins_inlined
        )


class Simplifier:
    """Runs the λpure simplification pipeline to a (bounded) fixpoint."""

    def __init__(self, *, enable_simp_case: bool = True, max_rounds: int = 8):
        self.enable_simp_case = enable_simp_case
        self.max_rounds = max_rounds
        self.stats = SimplifierStats()

    # -- program / function entry points -----------------------------------------
    def run(self, program: Program) -> Program:
        for name, fn in list(program.functions.items()):
            program.functions[name] = self.run_on_function(fn)
        return program

    def run_on_function(self, fn: Function) -> Function:
        body = fn.body
        for _ in range(self.max_rounds):
            before = self.stats.total()
            body = self._simplify(body, {}, {})
            body = self._inline_single_jumps(body)
            if self.stats.total() == before:
                break
        return Function(fn.name, fn.params, body, fn.borrowed)

    # -- expression-level helpers ---------------------------------------------------
    def _substitute_expr(self, expr: Expr, subst: Dict[str, str]) -> Expr:
        def s(v: str) -> str:
            return subst.get(v, v)

        if isinstance(expr, Ctor):
            return Ctor(expr.tag, [s(a) for a in expr.args], expr.type_name, expr.ctor_name)
        if isinstance(expr, Proj):
            return Proj(expr.index, s(expr.var))
        if isinstance(expr, Call):
            return Call(expr.fn, [s(a) for a in expr.args])
        if isinstance(expr, PAp):
            return PAp(expr.fn, [s(a) for a in expr.args])
        if isinstance(expr, App):
            return App(s(expr.closure), [s(a) for a in expr.args])
        if isinstance(expr, Lit):
            return Lit(expr.value)
        raise TypeError(f"unknown expression {expr!r}")

    def _fold_call(self, expr: Call, bindings: Dict[str, _Binding]) -> Optional[Expr]:
        arg_lits = []
        for a in expr.args:
            binding = bindings.get(a)
            lit = binding.as_lit if binding is not None else None
            if lit is None:
                return None
            arg_lits.append(lit)
        if expr.fn in _FOLDABLE_CALLS:
            try:
                return Lit(_FOLDABLE_CALLS[expr.fn](*arg_lits))
            except TypeError:
                return None
        if expr.fn in _FOLDABLE_COMPARISONS:
            try:
                result = _FOLDABLE_COMPARISONS[expr.fn](*arg_lits)
            except TypeError:
                return None
            tag = 1 if result else 0
            name = "Bool.true" if result else "Bool.false"
            return Ctor(tag, [], "Bool", name)
        return None

    # -- the main rewriting walk -------------------------------------------------------
    def _simplify(
        self,
        body: FnBody,
        bindings: Dict[str, _Binding],
        subst: Dict[str, str],
    ) -> FnBody:
        def s(v: str) -> str:
            return subst.get(v, v)

        if isinstance(body, Let):
            expr = self._substitute_expr(body.expr, subst)
            # Copy propagation through redundant projections / folds.
            if isinstance(expr, Call):
                folded = self._fold_call(expr, bindings)
                if folded is not None:
                    self.stats.constants_folded += 1
                    expr = folded
            if self.enable_simp_case and isinstance(expr, Proj):
                ctor = (
                    bindings[expr.var].as_ctor if expr.var in bindings else None
                )
                if ctor is not None and expr.index < len(ctor.args):
                    # proj i (ctor ... a_i ...)  ==>  a_i  (pure renaming).
                    self.stats.projections_folded += 1
                    new_subst = dict(subst)
                    new_subst[body.var] = ctor.args[expr.index]
                    return self._simplify(body.body, bindings, new_subst)
            new_bindings = dict(bindings)
            new_bindings[body.var] = _Binding(expr)
            inner = self._simplify(body.body, new_bindings, subst)
            if _is_pure_expr(expr) and body.var not in free_vars(inner):
                self.stats.dead_lets += 1
                return inner
            return Let(body.var, expr, inner)

        if isinstance(body, Case):
            scrutinee = s(body.var)
            binding = bindings.get(scrutinee)
            if (
                self.enable_simp_case
                and binding is not None
                and binding.as_ctor is not None
            ):
                # case of a known constructor: take the matching branch.
                tag = binding.as_ctor.tag
                chosen: Optional[FnBody] = None
                for alt in body.alts:
                    if alt.tag == tag:
                        chosen = alt.body
                        break
                if chosen is None:
                    chosen = body.default
                if chosen is not None:
                    self.stats.cases_simplified += 1
                    return self._simplify(chosen, bindings, subst)
            new_alts = [
                CaseAlt(
                    alt.tag,
                    alt.ctor_name,
                    self._simplify(alt.body, bindings, subst),
                )
                for alt in body.alts
            ]
            new_default = (
                self._simplify(body.default, bindings, subst)
                if body.default is not None
                else None
            )
            collapsed = self._collapse_identical_branches(
                Case(scrutinee, new_alts, new_default, body.type_name)
            )
            return collapsed

        if isinstance(body, Ret):
            return Ret(s(body.var))
        if isinstance(body, Jmp):
            return Jmp(body.label, [s(a) for a in body.args])
        if isinstance(body, JDecl):
            new_jbody = self._simplify(body.jbody, bindings, subst)
            new_rest = self._simplify(body.rest, bindings, subst)
            if count_jumps(new_rest, body.label) == 0:
                # The join point is never reached: drop it.
                self.stats.dead_lets += 1
                return new_rest
            return JDecl(body.label, body.params, new_jbody, new_rest)
        if isinstance(body, Inc):
            return Inc(s(body.var), self._simplify(body.body, bindings, subst), body.count)
        if isinstance(body, Dec):
            return Dec(s(body.var), self._simplify(body.body, bindings, subst), body.count)
        if isinstance(body, Unreachable):
            return body
        raise TypeError(f"unknown FnBody {body!r}")

    # -- identical branch collapse -------------------------------------------------------
    def _collapse_identical_branches(self, case: Case) -> FnBody:
        branches: List[FnBody] = [alt.body for alt in case.alts]
        if case.default is not None:
            branches.append(case.default)
        if len(branches) < 2:
            return case
        first_repr = _structural_repr(branches[0])
        if all(_structural_repr(b) == first_repr for b in branches[1:]):
            self.stats.branches_collapsed += 1
            return branches[0]
        return case

    # -- join point inlining ----------------------------------------------------------------
    def _inline_single_jumps(self, body: FnBody) -> FnBody:
        if isinstance(body, JDecl):
            jbody = self._inline_single_jumps(body.jbody)
            rest = self._inline_single_jumps(body.rest)
            if count_jumps(rest, body.label) == 1:
                self.stats.joins_inlined += 1
                return _replace_jump(rest, body.label, body.params, jbody)
            return JDecl(body.label, body.params, jbody, rest)
        if isinstance(body, Let):
            return Let(body.var, body.expr, self._inline_single_jumps(body.body))
        if isinstance(body, Case):
            return Case(
                body.var,
                [
                    CaseAlt(a.tag, a.ctor_name, self._inline_single_jumps(a.body))
                    for a in body.alts
                ],
                self._inline_single_jumps(body.default)
                if body.default is not None
                else None,
                body.type_name,
            )
        if isinstance(body, Inc):
            return Inc(body.var, self._inline_single_jumps(body.body), body.count)
        if isinstance(body, Dec):
            return Dec(body.var, self._inline_single_jumps(body.body), body.count)
        return body


def _structural_repr(body: FnBody) -> str:
    """A canonical string used to compare branches for structural equality."""
    return str(body)


def _replace_jump(
    body: FnBody, label: str, params: List[str], jbody: FnBody
) -> FnBody:
    """Replace the single ``jmp label(args)`` inside ``body`` with ``jbody``
    where the join parameters are renamed to the jump arguments."""
    if isinstance(body, Jmp) and body.label == label:
        subst = dict(zip(params, body.args))
        return _rename(jbody, subst)
    if isinstance(body, Let):
        return Let(body.var, body.expr, _replace_jump(body.body, label, params, jbody))
    if isinstance(body, Case):
        return Case(
            body.var,
            [
                CaseAlt(a.tag, a.ctor_name, _replace_jump(a.body, label, params, jbody))
                for a in body.alts
            ],
            _replace_jump(body.default, label, params, jbody)
            if body.default is not None
            else None,
            body.type_name,
        )
        # (each label is jumped to exactly once, so recursing into every
        # branch is safe: at most one branch contains the jump)
    if isinstance(body, JDecl):
        if body.label == label:
            return body
        return JDecl(
            body.label,
            body.params,
            _replace_jump(body.jbody, label, params, jbody),
            _replace_jump(body.rest, label, params, jbody),
        )
    if isinstance(body, Inc):
        return Inc(body.var, _replace_jump(body.body, label, params, jbody), body.count)
    if isinstance(body, Dec):
        return Dec(body.var, _replace_jump(body.body, label, params, jbody), body.count)
    return body


def _rename(body: FnBody, subst: Dict[str, str]) -> FnBody:
    """Rename free variables of ``body`` according to ``subst``."""
    def s(v: str) -> str:
        return subst.get(v, v)

    if isinstance(body, Let):
        expr = body.expr
        renamed_expr: Expr
        if isinstance(expr, Ctor):
            renamed_expr = Ctor(expr.tag, [s(a) for a in expr.args], expr.type_name, expr.ctor_name)
        elif isinstance(expr, Proj):
            renamed_expr = Proj(expr.index, s(expr.var))
        elif isinstance(expr, Call):
            renamed_expr = Call(expr.fn, [s(a) for a in expr.args])
        elif isinstance(expr, PAp):
            renamed_expr = PAp(expr.fn, [s(a) for a in expr.args])
        elif isinstance(expr, App):
            renamed_expr = App(s(expr.closure), [s(a) for a in expr.args])
        else:
            renamed_expr = expr
        return Let(body.var, renamed_expr, _rename(body.body, subst))
    if isinstance(body, Case):
        return Case(
            s(body.var),
            [CaseAlt(a.tag, a.ctor_name, _rename(a.body, subst)) for a in body.alts],
            _rename(body.default, subst) if body.default is not None else None,
            body.type_name,
        )
    if isinstance(body, Ret):
        return Ret(s(body.var))
    if isinstance(body, Jmp):
        return Jmp(body.label, [s(a) for a in body.args])
    if isinstance(body, JDecl):
        return JDecl(body.label, body.params, _rename(body.jbody, subst), _rename(body.rest, subst))
    if isinstance(body, Inc):
        return Inc(s(body.var), _rename(body.body, subst), body.count)
    if isinstance(body, Dec):
        return Dec(s(body.var), _rename(body.body, subst), body.count)
    return body


def simplify_program(program: Program, *, enable_simp_case: bool = True) -> Program:
    """Run the λpure simplifier over every function of ``program``."""
    return Simplifier(enable_simp_case=enable_simp_case).run(program)
