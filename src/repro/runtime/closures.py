"""Closure manipulation helpers (``lean_apply_n`` semantics).

A closure stores a top-level function plus the arguments supplied so far.
Extending a closure either produces a new (larger) closure or, once the
function's arity is reached, a request to invoke the function.  The actual
invocation is performed by whichever interpreter is running; the helpers here
only deal with ownership-correct argument plumbing.
"""

from __future__ import annotations

from typing import List, Optional

from ..record import Record
from .objects import ClosureObject, Heap, RuntimeError_, Value


class ApplyOutcome(Record):
    """Result of extending a closure.

    Exactly one of ``closure`` (still unsaturated) or ``call`` (fn name +
    full argument list, possibly with leftover ``extra`` arguments to apply
    to the call's result) is meaningful.
    """

    def __init__(
        self,
        closure: Optional[ClosureObject] = None,
        call_fn: Optional[str] = None,
        call_args: Optional[List[Value]] = None,
        extra_args: Optional[List[Value]] = None,
    ):
        self.closure = closure
        self.call_fn = call_fn
        self.call_args = call_args
        self.extra_args = extra_args

    @property
    def is_call(self) -> bool:
        return self.call_fn is not None


def make_closure(heap: Heap, fn_name: str, arity: int, args: List[Value]) -> Value:
    """``lp.pap`` semantics: build a closure holding ``args`` (ownership of
    the arguments transfers into the closure)."""
    if len(args) > arity:
        raise RuntimeError_(
            f"pap of {fn_name}: {len(args)} arguments exceeds arity {arity}"
        )
    return heap.alloc_closure(fn_name, arity, list(args))


def extend_closure(heap: Heap, closure: Value, args: List[Value]) -> ApplyOutcome:
    """``lp.papextend`` semantics.

    Consumes one reference of ``closure`` and ownership of ``args``.  If the
    combined argument list saturates the closure's function, the caller must
    invoke ``call_fn`` with ``call_args`` (and then apply ``extra_args`` to
    its result, if any).  Otherwise a new closure is returned.
    """
    if not isinstance(closure, ClosureObject):
        raise RuntimeError_(f"papextend expects a closure, got {closure!r}")
    if closure.freed:
        raise RuntimeError_("papextend of a freed closure")
    # Copy the stored arguments out, taking fresh references, then release
    # our reference to the closure.  This is correct for shared and unique
    # closures alike.
    stored = list(closure.args)
    for value in stored:
        heap.inc(value)
    heap.dec(closure)
    combined = stored + list(args)
    if len(combined) < closure.arity:
        return ApplyOutcome(
            closure=heap.alloc_closure(closure.fn_name, closure.arity, combined)
        )
    call_args = combined[: closure.arity]
    extra = combined[closure.arity :]
    return ApplyOutcome(
        call_fn=closure.fn_name,
        call_args=call_args,
        extra_args=extra if extra else None,
    )
