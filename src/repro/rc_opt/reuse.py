"""Constructor-reuse analysis — turn ``dec`` + ``ctor`` into in-place reuse.

The destructive-update idiom of Perceus / "Counting Immutable Beans":
when a constructor cell is released (``dec x``) and, on the same straight-line
path, a *same-arity* constructor is allocated, the allocation can reuse the
released cell in place:

    dec x; ... let y := ctor_k(a, b); ...
        ⇒
    let t := reset x; ... let y := reuse t in ctor_k(a, b); ...

``reset`` consumes the reference: if the cell is uniquely owned its fields
are released and the cell itself becomes a *reuse token*; otherwise the
reference count is decremented as the ``dec`` would have, and the token is
null.  ``reuse`` constructs through the token — in place (no allocation)
when the token is live, through the ordinary allocator when it is null.
This preserves the heap balance invariant in both cases, which the runtime
heap checker verifies on every benchmark.

The transform is deliberately local: a ``dec`` is only paired with a
constructor found by walking the *linear* continuation (``let``/``inc``/
``dec`` spine) below it, never across a branch, join point or jump — so the
token is statically guaranteed to reach exactly one ``reuse``.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..lambda_pure.ir import (
    Case,
    CaseAlt,
    Ctor,
    Dec,
    FnBody,
    Function,
    Inc,
    JDecl,
    Jmp,
    Let,
    Program,
    Reset,
    Ret,
    Reuse,
    Unreachable,
)
from ..record import Record


class ReuseStats(Record):
    """Counters describing one reuse-analysis run."""

    def __init__(self, reuse_pairs: int = 0):
        self.reuse_pairs = reuse_pairs

    def merge(self, other: "ReuseStats") -> None:
        self.reuse_pairs += other.reuse_pairs


class ReuseAnalyzer:
    """Applies constructor-reuse rewriting to one function."""

    def __init__(self, ctor_arities: Dict[Tuple[str, int], int], stats: ReuseStats):
        self.ctor_arities = ctor_arities
        self.stats = stats
        self._fresh = 0

    def _fresh_token(self) -> str:
        self._fresh += 1
        return f"_reuse_tok_{self._fresh}"

    # -- pairing ---------------------------------------------------------------
    def _try_reuse(
        self, dec: Dec, arity: int, shapes: Dict[str, int]
    ) -> Optional[FnBody]:
        """Try to pair ``dec`` with a same-arity ctor on the linear spine
        below it; returns the rewritten body or ``None``."""
        token = self._fresh_token()
        rewritten = self._replace_first_ctor(dec.body, token, arity)
        if rewritten is None:
            return None
        self.stats.reuse_pairs += 1
        return Let(token, Reset(dec.var), self.visit(rewritten, shapes))

    def _replace_first_ctor(
        self, body: FnBody, token: str, arity: int
    ) -> Optional[FnBody]:
        """Replace the first same-arity ``Ctor`` on the linear spine with a
        ``Reuse`` through ``token``; ``None`` when no candidate exists."""
        if isinstance(body, Let):
            expr = body.expr
            if isinstance(expr, Ctor) and len(expr.args) == arity and arity > 0:
                reuse = Reuse(
                    token, expr.tag, list(expr.args), expr.type_name, expr.ctor_name
                )
                return Let(body.var, reuse, body.body)
            inner = self._replace_first_ctor(body.body, token, arity)
            if inner is None:
                return None
            return Let(body.var, body.expr, inner)
        if isinstance(body, (Inc, Dec)):
            inner = self._replace_first_ctor(body.body, token, arity)
            if inner is None:
                return None
            node = Inc if isinstance(body, Inc) else Dec
            return node(body.var, inner, body.count)
        # Stop at any control flow: the token must reach exactly one reuse.
        return None

    # -- the rewriting walk ----------------------------------------------------
    def visit(self, body: FnBody, shapes: Dict[str, int]) -> FnBody:
        if isinstance(body, Dec):
            arity = shapes.get(body.var)
            if arity is not None and arity > 0 and body.count == 1:
                rewritten = self._try_reuse(body, arity, shapes)
                if rewritten is not None:
                    return rewritten
            return Dec(body.var, self.visit(body.body, shapes), body.count)
        if isinstance(body, Inc):
            return Inc(body.var, self.visit(body.body, shapes), body.count)
        if isinstance(body, Let):
            shapes = dict(shapes)
            if isinstance(body.expr, Ctor):
                shapes[body.var] = len(body.expr.args)
            elif isinstance(body.expr, Reuse):
                shapes[body.var] = len(body.expr.args)
            else:
                shapes.pop(body.var, None)
            return Let(body.var, body.expr, self.visit(body.body, shapes))
        if isinstance(body, Case):
            alts = []
            for alt in body.alts:
                branch_shapes = dict(shapes)
                arity = self.ctor_arities.get((body.type_name, alt.tag))
                if arity is not None:
                    branch_shapes[body.var] = arity
                else:
                    branch_shapes.pop(body.var, None)
                alts.append(
                    CaseAlt(alt.tag, alt.ctor_name, self.visit(alt.body, branch_shapes))
                )
            default = None
            if body.default is not None:
                default_shapes = dict(shapes)
                default_shapes.pop(body.var, None)
                default = self.visit(body.default, default_shapes)
            return Case(body.var, alts, default, body.type_name)
        if isinstance(body, JDecl):
            return JDecl(
                body.label,
                body.params,
                self.visit(body.jbody, shapes),
                self.visit(body.rest, shapes),
            )
        if isinstance(body, (Ret, Jmp, Unreachable)):
            return body
        raise TypeError(f"unknown FnBody node {body!r}")


def constructor_arities(program: Program) -> Dict[Tuple[str, int], int]:
    """Map ``(type name, tag)`` to the constructor's field count."""
    return {
        (info.type_name, info.tag): info.arity
        for info in program.constructors.values()
    }


def apply_reuse(program: Program) -> Tuple[Program, ReuseStats]:
    """Run constructor-reuse analysis over every function of a λrc program."""
    stats = ReuseStats()
    arities = constructor_arities(program)
    result = Program(constructors=dict(program.constructors), main=program.main)
    for name, fn in program.functions.items():
        analyzer = ReuseAnalyzer(arities, stats)
        result.functions[name] = Function(
            fn.name,
            fn.params,
            analyzer.visit(fn.body, {}),
            fn.borrowed,
            borrowed_params=fn.borrowed_params,
        )
    return result, stats
