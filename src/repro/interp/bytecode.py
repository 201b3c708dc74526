"""Register-based bytecode execution engine for the evaluation interpreters.

The tree-walking interpreters (:class:`~repro.interp.cfg_interp.
CfgInterpreter`, :class:`~repro.interp.rc_interp.RcInterpreter`) re-dispatch
every operation through an ``isinstance`` chain over dict environments.
Following MLIR's split between the IR and its execution engines, this module
compiles a module **once** into flat per-function instruction arrays over
dense integer registers, with branch targets, switch tables, direct callees
and static cost charges resolved up front.  Both IR levels compile to the
same instruction set (:func:`compile_cfg_module` for the final CFG-form MLIR
module, :func:`compile_rc_program` for λrc) and run on one
:class:`VirtualMachine`, which charges exactly the events the corresponding
tree-walker charges: results, :class:`~repro.interp.metrics.ExecutionMetrics`
and heap statistics are identical, and the tree-walkers survive as
differential oracles (``execution_engine="tree"``).

Every opcode is declared **once**, in :data:`OPCODES`: its operands, which of
them are branch targets, and a Python source template of its semantics with
its cost events marked where the tree-walker charges them.  As with MLIR's
ODS, the rest is generated from that table: the superinstructions of
:data:`FUSION_RULES` (a fused template is its bases' templates concatenated,
so it charges exactly what its unfused expansion does, error paths
included), the closures of the default direct-threaded dispatch
(``pc = ops[pc](regs)``, built with ``exec`` on first use) and the
``if``/``elif`` loop kept as the ``dispatch="switch"`` oracle.  ``call`` and
``ret`` push and pop explicit VM frames, so deep recursion needs no
``sys.setrecursionlimit``.  docs/EXECUTION.md has the details.
"""

from __future__ import annotations

import re
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

from ..dialects import arith, cf, lp
from ..dialects.builtin import ModuleOp
from ..dialects.func import CallOp, FuncOp, GetGlobalOp, ReturnOp, SetGlobalOp
from ..lambda_pure import ir as rc_ir
from ..runtime import (
    BUILTINS,
    CtorObject,
    RuntimeContext,
    RuntimeError_,
    Scalar,
    Enum,
    call_builtin,
    extend_closure,
    is_builtin,
    make_closure,
    python_value,
    tag_of,
)
from ..resilience.budgets import ExecutionBudget
from ..resilience.faults import fault_hit
from ..telemetry import get_metrics, get_tracer
from .metrics import DEFAULT_COSTS, CfgInterpreterError, ExecutionMetrics, RunResult

#: The execution engines understood by the pipeline layer.
EXECUTION_ENGINES = ("vm", "tree")

#: The VM dispatch modes: ``threaded`` (closure-per-instruction direct
#: threading, the default) and ``switch`` (the tuple-decoding loop, kept
#: as the in-VM oracle).
DISPATCH_MODES = ("threaded", "switch")


class BytecodeError(Exception):
    """Raised when a module cannot be compiled to bytecode."""


# ---------------------------------------------------------------------------
# The opcode table
# ---------------------------------------------------------------------------
# An instruction is a plain tuple ``(opcode, operand, ...)``.  Register
# operands are indices into the frame list; a destination of -1 discards
# the produced value.  Operand specs name the operands in order; ``:pc``
# marks a branch target (an instruction index, or None for "none") and
# ``:pcs`` a {value: pc} table, which is all the fusion peephole needs to
# find and remap jump targets.
#
# Template syntax (one statement per line, Python otherwise):
#
# * ``$name`` is an operand; ``${expr}`` an expression over operands that
#   the threaded closure evaluates once, when it is built.
# * ``@event`` (or ``@$operand``) charges one cost-model event, placed
#   where the tree-walker charges it; only at the top level.
# * ``goto PC``, ``ret VALUE`` and ``call CALLEE(ARGS) -> DST`` transfer
#   control; each dispatch loop renders them its own way.
# * ``%if COND`` / ``%elif COND`` / ``%else`` / ``%end`` branch on operands:
#   decided once per instruction when its threaded closure is built, tested
#   on every execution by the switch loop.
# * ``%fast COND`` ... [``%elif COND`` ...] ``%else`` ... ``%end`` is a
#   threaded-only static specialisation: the switch loop always runs the
#   ``%else`` code, which must mean the same.
#
# Besides locals, templates use ``regs``, ``heap``, ``ctx``, ``counts``
# (dynamic charges), ``charge`` (the budget's, or None), ``error``,
# ``globals_``, ``apply_closure`` and the runtime helpers imported above;
# conditions may also test ``flavor``.

_BASE_OPCODES = (
    ("ret", "src", """
        @return
        %fast $src >= 0
        ret regs[$src]
        %else
        ret regs[$src] if $src >= 0 else None
        %end
    """),
    ("jmp", "pc:pc srcs dsts", """
        @jump
        if charge is not None:
            charge()
        %fast not $srcs
        %elif len($srcs) == 1
        regs[${$dsts[0]}] = regs[${$srcs[0]}]
        %else
        srcs = $srcs
        if srcs:
            values = [regs[x] for x in srcs]
            for dst, moved in zip($dsts, values):
                regs[dst] = moved
        %end
        goto $pc
    """),
    ("cond_br", "cond tpc:pc tsrcs tdsts fpc:pc fsrcs fdsts", """
        @branch
        if charge is not None:
            charge()
        %fast not $tsrcs and not $fsrcs
        goto $tpc if regs[$cond] else $fpc
        %else
        if regs[$cond]:
            target, srcs, dsts = $tpc, $tsrcs, $tdsts
        else:
            target, srcs, dsts = $fpc, $fsrcs, $fdsts
        if srcs:
            values = [regs[x] for x in srcs]
            for dst, moved in zip(dsts, values):
                regs[dst] = moved
        goto target
        %end
    """),
    ("switch", "flag table:pcs default:pc", """
        @branch
        if charge is not None:
            charge()
        goto $table.get(regs[$flag], $default)
    """),
    # λrc ``case``: tag read, bounds check and branch in one instruction.
    ("case", "src table:pcs default:pc", """
        @getlabel
        @arith
        @branch
        tag = tag_of(regs[$src])
        target = $table.get(tag, $default)
        if target is None:
            raise error(f"no alternative for tag {tag} in case")
        if charge is not None:
            charge()
        goto target
    """),
    ("unreachable", "message", """
        raise error($message)
    """),
    ("const", "dst value", """
        @const
        regs[$dst] = $value
    """),
    ("int", "dst value", """
        @move
        regs[$dst] = heap.alloc_int($value)
    """),
    ("bigint", "dst value", """
        @runtime_call
        regs[$dst] = heap.alloc_int($value)
    """),
    # ``category`` is ``alloc_ctor``, or ``move`` for a field-less ctor.
    ("construct", "dst tag fields category", """
        @$category
        regs[$dst] = heap.alloc_ctor($tag, [regs[r] for r in $fields])
    """),
    ("getlabel", "dst src", """
        @getlabel
        regs[$dst] = tag_of(regs[$src])
    """),
    ("proj", "dst src index", """
        @proj
        value = regs[$src]
        if not isinstance(value, CtorObject):
            raise error(f"projection from non-constructor {value!r}")
        field = value.fields[$index]
        heap.inc(field)
        @rc
        regs[$dst] = field
    """),
    ("pap", "dst callee arity args", """
        @alloc_closure
        %if $arity is None
        raise error(f"pap of unknown function {$callee}")
        %else
        regs[$dst] = make_closure(heap, $callee, $arity, [regs[r] for r in $args])
        %end
    """),
    # Charges ``apply`` (and the calls it makes) dynamically.
    ("papextend", "dst closure args", """
        regs[$dst] = apply_closure(regs[$closure], [regs[r] for r in $args])
    """),
    ("inc", "src count", """
        @rc
        heap.inc(regs[$src], $count)
    """),
    ("dec", "src count", """
        @rc
        heap.dec(regs[$src], $count)
    """),
    ("reset", "dst src", """
        @rc
        regs[$dst] = heap.reset(regs[$src])
    """),
    ("reuse", "dst token tag fields", """
        token = regs[$token]
        fields = [regs[r] for r in $fields]
        if isinstance(token, CtorObject):
            counts["reuse"] += 1
        else:
            counts[${"alloc_ctor" if $fields else "move"}] += 1
        regs[$dst] = heap.reuse(token, $tag, fields)
    """),
    # ``callee`` is the compiled BytecodeFunction itself.  A threaded
    # closure leaves the call's ``vm.dispatch`` fault site to its run loop.
    ("call", "dst callee args", """
        @call
        %fast len($args) == $callee.num_params
        call $callee([regs[r] for r in $args]) -> $dst
        %else
        callee = $callee
        cargs = [regs[r] for r in $args]
        fault_hit("vm.dispatch")
        if len(cargs) != callee.num_params:
            raise error(f"calling {callee.name} with {len(cargs)} arguments, expected {callee.num_params}")
        call callee(cargs) -> $dst
        %end
    """),
    ("rtcall", "dst name args", """
        @runtime_call
        %fast $name in BUILTINS and $dst >= 0
        regs[$dst] = ${BUILTINS[$name]}(ctx, [regs[r] for r in $args])
        %elif $name in BUILTINS
        ${BUILTINS[$name]}(ctx, [regs[r] for r in $args])
        %else
        value = call_builtin(ctx, $name, [regs[r] for r in $args])
        %if $dst >= 0
        regs[$dst] = value
        %end
        %end
    """),
    ("badcall", "name", """
        %if flavor == "cfg"
        raise error(f"call of unknown function @{$name}")
        %else
        raise error(f"unknown function {$name}")
        %end
    """),
    ("getglobal", "dst name", """
        @global
        regs[$dst] = globals_.get($name)
    """),
    ("setglobal", "name src", """
        @global
        globals_[$name] = regs[$src]
    """),
    # ``fn`` is the operation's callable from arith.BINARY_FNS / CMP_FNS.
    ("binarith", "dst fn lhs rhs", """
        @arith
        regs[$dst] = $fn(regs[$lhs], regs[$rhs])
    """),
    ("cmp", "dst fn lhs rhs", """
        @arith
        regs[$dst] = $fn(regs[$lhs], regs[$rhs])
    """),
    ("select", "dst cond t f", """
        @arith
        regs[$dst] = regs[$t] if regs[$cond] else regs[$f]
    """),
    ("cast", "dst src", """
        @arith
        regs[$dst] = regs[$src]
    """),
)


class FusionRule:
    """One superinstruction: adjacent ``first`` + ``second`` (opcode
    names) fuse into the opcode ``name`` when ``match(a, b)`` accepts the
    two instruction tuples.  The fused instruction is ``(opcode,) + a[1:] +
    b[1:]`` and everything else about it is derived from its bases."""

    __slots__ = ("first", "second", "name", "match")

    def __init__(self, first: str, second: str, name: str, match):
        self.first = first
        self.second = second
        self.name = name
        self.match = match


#: The superinstruction table; the peephole runs to fixpoint, so a rule
#: may extend an already-fused opcode.  Adding a pair is one more entry.
FUSION_RULES = (
    # cmp dst feeds the branch condition.
    FusionRule("cmp", "cond_br", "cmp_cond_br", lambda a, b: b[1] == a[1]),
    # const dst feeds a binary arith / comparison operand.
    FusionRule("const", "binarith", "const_binarith",
               lambda a, b: a[1] == b[3] or a[1] == b[4]),
    FusionRule("const", "cmp", "const_cmp",
               lambda a, b: a[1] == b[3] or a[1] == b[4]),
    # getlabel dst feeds the switch flag (λrc's case is pre-fused).
    FusionRule("getlabel", "switch", "getlabel_switch",
               lambda a, b: b[1] == a[1]),
    # proj dst feeds a direct-call argument.
    FusionRule("proj", "call", "proj_call", lambda a, b: a[1] in b[3]),
    # Chains: a fused const_cmp whose result feeds the branch condition,
    # and the full constructor-tag dispatch where getlabel feeds the
    # comparison (getlabel; const; cmp; cond_br).
    FusionRule("const_cmp", "cond_br", "const_cmp_br",
               lambda a, b: b[1] == a[3]),
    FusionRule("getlabel", "const_cmp_br", "getlabel_cmp_br",
               lambda a, b: a[1] == b[5] or a[1] == b[6]),
    # Straight-line runs with no dataflow condition: executing the pair
    # inside one closure is always equivalent to executing it in sequence.
    FusionRule("proj", "proj", "proj_proj", lambda a, b: True),
    FusionRule("int", "inc", "int_inc", lambda a, b: True),
    FusionRule("dec", "dec", "dec_dec", lambda a, b: True),
    FusionRule("inc", "rtcall", "inc_rtcall", lambda a, b: b[1] >= 0),
    FusionRule("dec", "inc", "dec_inc", lambda a, b: True),
    # Projection runs of three and four (λrc field extraction over wide
    # constructors) extend an already-fused proj_proj.
    FusionRule("proj_proj", "proj", "proj3", lambda a, b: True),
    FusionRule("proj_proj", "proj_proj", "proj4", lambda a, b: True),
)

_OPERAND = re.compile(r"\$(\w+)")
_STATIC = re.compile(r"\$\{([^}]*)\}")
_HEAP_METHOD = re.compile(r"\bheap\.(\w+)")
_NAME = re.compile(r"(?<![.\w])[A-Za-z_]\w*")

#: The VM state templates use, as expressions over the VirtualMachine
#: ``vm``.  A threaded closure binds the ones it uses as argument defaults
#: (locals, not global or cell lookups), like this module's helpers; the
#: switch loop binds the hot ones at entry (``_SWITCH_HEAD``) and reaches
#: the rest through ``vm``, as binding them would cost every closure
#: application that re-enters the loop.
_VM_STATE = {
    "heap": "vm.ctx.heap", "counts": "vm._counts",
    "charge": "vm.budget.charge if vm.budget is not None else None",
    "ctx": "vm.ctx", "error": "vm._error", "globals_": "vm.globals",
    "apply_closure": "vm._apply_closure", "flavor": "vm.program.flavor",
    "pending": "vm._pending", "retslot": "vm._retslot",
}
_MODULE_NAMES = ("tag_of", "CtorObject", "call_builtin", "make_closure",
                 "fault_hit")

#: Threaded closure code -> {source line: ((event or operand name, count),
#: ...)}: the static charges not yet reached when an exception leaves the
#: closure from that line.
_UNDO: Dict[object, Dict[int, Tuple[Tuple[str, int], ...]]] = {}


class Opcode:
    """One entry of :data:`OPCODES`: a base opcode, or a superinstruction
    whose operands and template are its bases' concatenated.  Operands are
    slots ``1..n`` of the instruction tuple, and ``$name`` becomes
    ``$name_<slot>`` in the template, from which the static ``charges``
    (event names, or slot numbers for ``@$operand``), the branch-target
    slots, the threaded closure factories and the switch arm all come."""

    __slots__ = ("code", "name", "bases", "operands", "pc_slots",
                 "table_slots", "charges", "terminator", "tree",
                 "conditions", "_key", "_factories")

    def __init__(self, code: int, name: str, bases: Tuple[Tuple[str, str, List[str]], ...]):
        self.code = code
        self.name = name
        #: The base opcodes (name, operand spec, template lines) in order.
        self.bases = bases
        self.operands: List[str] = []  # names, slot 1 first
        kinds: List[str] = []
        lines: List[str] = []
        for index, (base, spec, template) in enumerate(bases):
            # A base that transfers control can only end a fused opcode.
            self.terminator = any(
                line.lstrip().startswith(("goto ", "ret ", "call "))
                for line in template
            )
            if self.terminator and index < len(bases) - 1:
                raise ValueError(f"{name}: {base} must be the last base")
            renamed = {}
            for operand in spec.split():
                operand, _, kind = operand.partition(":")
                self.operands.append(operand)
                kinds.append(kind)
                renamed[operand] = f"{operand}_{len(self.operands)}"
            lines.extend(
                _OPERAND.sub(lambda m: "$" + renamed[m.group(1)], line)
                for line in template
            )
        self.pc_slots = [i + 1 for i, k in enumerate(kinds) if k == "pc"]
        self.table_slots = [i + 1 for i, k in enumerate(kinds) if k == "pcs"]
        self.charges = tuple(
            _slot(line[2:]) if line.startswith("@$") else line[1:]
            for line in lines if line.startswith("@")
        )
        self.tree, self.conditions = _parse(lines, name)
        self._key = None
        self._factories: Dict[Tuple[bool, ...], Callable] = {}

    def closure(self, ins: Tuple, sites: List[int], site: int, vm) -> Callable:
        """The threaded closure for instruction ``ins`` at pc ``site``."""
        key = ()
        if self.conditions:
            if self._key is None:
                tests = ", ".join(f"bool({_inline(c, _VM_STATE)})" for c in self.conditions)
                self._key = eval(f"lambda ins, vm: ({tests},)")
            key = self._key(ins, vm)
        factory = self._factories.get(key)
        if factory is None:
            factory = self._factories[key] = self._generate(key)
        return factory(ins, sites, site, site + 1, vm)

    def _generate(self, key: Tuple[bool, ...]) -> Callable:
        """Compile the closure factory for one static specialisation.

        The closure bumps its site counter first, so the flush charges
        every static event.  For each line that an exception could leave
        before later charges, :data:`_UNDO` records those charges; the run
        loop takes them back, exactly where the unfused sequence would have
        stopped charging, at no cost to a closure that does not raise.
        """
        lines = list(_emit(self.tree, self.conditions, key))
        events = [line[1:] for line in lines if line.startswith("@")]
        body = ["sites[site] += 1"]
        undo: Dict[int, Tuple[Tuple[str, int], ...]] = {}
        for line in lines:
            if line.startswith("@"):
                del events[0]
                continue
            for text in _render_control(line, "threaded"):
                body.append(text)
                if events:  # source line 1 defines the factory, 2 the closure
                    undo[len(body) + 2] = tuple(
                        (event, events.count(event))
                        for event in dict.fromkeys(events)
                    )
        if not self.terminator:
            body.append("return nxt")
        text = "\n".join(body)
        defaults = ["sites=sites", "site=site"]
        statics: List[str] = []

        def bind_static(match):
            statics.append(_inline(match.group(1)))
            return f"static_{len(statics)}"

        text = _STATIC.sub(bind_static, text)
        defaults += [f"static_{i}={e}" for i, e in enumerate(statics, 1)]
        methods = sorted(set(_HEAP_METHOD.findall(text)))
        text = _HEAP_METHOD.sub(r"heap_\1", text)
        defaults += [f"heap_{m}=vm.ctx.heap.{m}" for m in methods]
        used = set(_NAME.findall(text))
        operands = sorted(set(_OPERAND.findall(text)), key=_slot)
        defaults += [f"{name}=ins[{_slot(name)}]" for name in operands]
        text = _OPERAND.sub(r"\1", text)
        defaults += [f"{n}={e}" for n, e in _VM_STATE.items() if n in used]
        defaults += [f"{n}={n}" for n in _MODULE_NAMES if n in used]
        if "nxt" in used:
            defaults.append("nxt=nxt")
        source = (
            "def make(ins, sites, site, nxt, vm):\n"
            f"    def op_{self.name}(regs, {', '.join(defaults)}):\n"
            + "".join(f"        {line}\n" for line in text.split("\n"))
            + f"    return op_{self.name}\n"
        )
        make = _compile(source, f"<bytecode:{self.name}>")["make"]
        closure_code = next(c for c in make.__code__.co_consts if hasattr(c, "co_name"))
        _UNDO[closure_code] = undo
        return make


def _dedent(template: str) -> List[str]:
    lines = [line for line in template.split("\n") if line.strip()]
    indent = min(len(line) - len(line.lstrip()) for line in lines)
    return [line[indent:] for line in lines]


def _slot(operand: str) -> int:
    return int(operand.rsplit("_", 1)[1])


def _inline(expr: str, names: Optional[Dict[str, str]] = None) -> str:
    """Template source with operands read from ``ins`` and the given VM
    ``names`` replaced (switch loop, specialisation keys, static
    expressions)."""
    expr = _STATIC.sub(r"(\1)", expr)
    expr = _OPERAND.sub(lambda m: f"ins[{_slot(m.group(1))}]", expr)
    if names:
        expr = _NAME.sub(lambda m: names.get(m.group(0), m.group(0)), expr)
    return expr


def _parse(lines: List[str], name: str):
    """Template lines -> (tree, conditions).  A tree is a list of lines and
    ``[kind, [(condition index or None, subtree), ...]]`` blocks."""
    root: List = []
    bodies = [root]
    blocks: List = []
    conditions: List[str] = []
    for line in lines:
        if not line.startswith("%"):
            if line.startswith("@") and blocks:
                raise ValueError(f"{name}: charge inside a condition")
            bodies[-1].append(line)
            continue
        word, _, condition = line[1:].partition(" ")
        if word in ("if", "fast"):
            blocks.append([word, []])
            bodies[-1].append(blocks[-1])
        else:
            bodies.pop()
        if word == "end":
            blocks.pop()
            continue
        index = None
        if condition:
            index = len(conditions)
            conditions.append(condition)
        blocks[-1][1].append((index, []))
        bodies.append(blocks[-1][1][-1][1])
    return root, conditions


def _emit(tree, conditions, key=None, depth=0):
    """Flatten a template tree.  With a specialisation ``key`` (threaded)
    every block is decided statically; without one (switch) ``%if`` blocks
    become Python ``if`` statements and ``%fast`` blocks their ``%else``."""
    pad = "    " * depth
    for item in tree:
        if isinstance(item, str):
            yield pad + item
            continue
        kind, branches = item
        if key is not None:
            for index, body in branches:
                if index is None or key[index]:
                    yield from _emit(body, conditions, key, depth)
                    break
        elif kind == "fast":
            yield from _emit(branches[-1][1], conditions, None, depth)
        else:
            for number, (index, body) in enumerate(branches):
                if index is None:
                    yield pad + "else:"
                else:
                    keyword = "elif" if number else "if"
                    yield f"{pad}{keyword} {conditions[index]}:"
                lines = list(_emit(body, conditions, None, depth + 1))
                yield from lines or [pad + "    pass"]


#: How each dispatch loop renders a control transfer.  A threaded closure
#: returns the next pc, or -1 (return; the value is in ``retslot``) or -2
#: (call; callee, arguments and destination are in ``pending``) to its
#: run loop; the switch loop keeps ``(code, regs, return pc, return
#: register)`` frames on ``stack`` itself.
_CONTROL = {
    "threaded": {
        "goto": "return {0}",
        "ret": "retslot[0] = {0}\nreturn -1",
        "call": "pending[0] = {0}\npending[1] = {1}\npending[2] = {2}\n"
                "return -2",
    },
    "switch": {
        "goto": "pc = {0}\ncontinue",
        "ret": "value = {0}\nif not stack:\n    return value\n"
               "code, regs, pc, dst = stack.pop()\nif dst >= 0:\n"
               "    regs[dst] = value\ncontinue",
        "call": "if charge is not None:\n    charge()\n"
                "stack.append((code, regs, pc + 1, {2}))\ncode = {0}.code\n"
                "regs = [None] * {0}.num_regs\nregs[: {0}.num_params] = {1}\n"
                "pc = 0\ncontinue",
    },
}
_TRANSFER = re.compile(r"(goto|ret) (.*)$|(call) (\S+?)\((.*)\) -> (\S+)$")


def _render_control(line: str, loop: str) -> List[str]:
    """A template line, with a control transfer rendered for ``loop``."""
    code = line.lstrip()
    match = _TRANSFER.match(code)
    if match is None:
        return [line]
    word, *args = [group for group in match.groups() if group is not None]
    pad = line[: len(line) - len(code)]
    return [pad + text for text in _CONTROL[loop][word].format(*args).split("\n")]


def _compile(source: str, filename: str) -> Dict[str, Callable]:
    """Compile generated source under ``filename`` (tracebacks name the
    opcode, and show the line where ``linecache`` is already loaded)."""
    linecache = sys.modules.get("linecache")
    if linecache is not None:
        linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    scope: Dict[str, Callable] = {}
    exec(compile(source, filename, "exec"), globals(), scope)
    return scope


#: Every opcode, indexed by its integer: the 27 base opcodes the frontends
#: emit, then one superinstruction per fusion rule.
OPCODES: List[Opcode] = [
    Opcode(code, name, ((name, spec, _dedent(template)),))
    for code, (name, spec, template) in enumerate(_BASE_OPCODES)
]
_BY_NAME = {op.name: op for op in OPCODES}
for _rule in FUSION_RULES:
    _bases = _BY_NAME[_rule.first].bases + _BY_NAME[_rule.second].bases
    _BY_NAME[_rule.name] = Opcode(len(OPCODES), _rule.name, _bases)
    OPCODES.append(_BY_NAME[_rule.name])
del _rule, _bases

#: Human-readable opcode names (docs/EXECUTION.md and the unit tests).
OPCODE_NAMES = {op.code: op.name for op in OPCODES}

#: Size of the per-VM opcode frequency table.
NUM_OPCODES = len(OPCODES)

# The opcode integers as module constants (``OP_PROJ``, ``OP_COND_BR``,
# ``OP_GETLABEL_CMP_BR`` ...) for the compilers below and for tests that
# assemble bytecode by hand; the switch loop compares against them too.
globals().update({"OP_" + op.name.upper(): op.code for op in OPCODES})

#: The fused opcode integers (telemetry and ``--exec-stats``).
FUSED_OPCODES = tuple(op.code for op in OPCODES if len(op.bases) > 1)

#: fused name -> base-opcode names; the ``--exec-stats --unfused``
#: decomposition back to base-opcode counts (chain fusions decompose all
#: the way down: ``getlabel_cmp_br`` -> getlabel, const, cmp, cond_br).
FUSED_OPCODE_BASES = {
    OPCODES[code].name: tuple(base[0] for base in OPCODES[code].bases)
    for code in FUSED_OPCODES
}

#: The switch loop's arm order: hottest first (an arm's position is the
#: number of comparisons that reach it).
_SWITCH_ORDER = (
    "binarith", "cmp", "cmp_cond_br", "jmp", "cond_br", "case", "switch",
    "getlabel_switch", "const_cmp_br", "getlabel_cmp_br", "call", "ret",
    "proj", "proj_call", "construct", "int", "const", "const_binarith",
    "const_cmp", "getlabel", "inc", "dec", "proj_proj", "int_inc", "dec_dec",
    "dec_inc", "proj3", "proj4", "inc_rtcall", "select", "rtcall", "pap",
    "papextend", "reuse", "reset", "bigint", "cast", "getglobal", "setglobal",
    "unreachable", "badcall",
)

#: The VM state the switch loop binds at entry.
_SWITCH_LOCALS = ("counts", "heap", "charge")
_SWITCH_HEAD = "def run_switch(vm, fn, regs):\n    code = fn.code\n" + "".join(
    f"    {name} = {_VM_STATE[name]}\n" for name in _SWITCH_LOCALS
) + """\
    freq = vm.opcode_counts
    stack = []
    pc = 0
    while True:
        ins = code[pc]
        opcode = ins[0]
        freq[opcode] += 1
"""


def _switch_loop() -> Callable:
    """Generate the tuple-decoding oracle loop from the table: one
    ``if``/``elif`` arm per opcode with its charges inline and its operands
    read as ``ins[k]``; ``call``/``ret`` push and pop explicit ``(code,
    regs, return pc, return register)`` frames."""
    if sorted(_SWITCH_ORDER) != sorted(_BY_NAME):
        raise ValueError("_SWITCH_ORDER must list every opcode once")
    unbound = {n: e for n, e in _VM_STATE.items() if n not in _SWITCH_LOCALS}
    arms = []
    for number, name in enumerate(_SWITCH_ORDER):
        keyword = "elif" if number else "if"
        arms.append(f"        {keyword} opcode == OP_{name.upper()}:")
        op = _BY_NAME[name]
        for line in _emit(op.tree, op.conditions):
            if line.startswith("@"):
                event = line[1:] if line[1] == "$" else repr(line[1:])
                line = f"counts[{event}] += 1"
            arms.extend(
                "            " + _inline(text, unbound)
                for text in _render_control(line, "switch")
            )
    source = _SWITCH_HEAD + "\n".join(arms) + (
        "\n        else:\n"
        '            raise vm._error(f"invalid opcode {opcode}")\n'
        "        pc += 1\n"
    )
    return _compile(source, "<bytecode:switch>")["run_switch"]


class BytecodeFunction:
    """One compiled function: a flat instruction array plus frame layout."""

    __slots__ = ("name", "num_params", "num_regs", "code")

    def __init__(self, name: str, num_params: int):
        self.name = name
        self.num_params = num_params
        self.num_regs = num_params
        self.code: List[Tuple] = []

    def __repr__(self):
        return (
            f"BytecodeFunction({self.name!r}, params={self.num_params}, "
            f"regs={self.num_regs}, instructions={len(self.code)})"
        )


class BytecodeProgram:
    """A compiled module: every function plus execution flavour metadata.

    ``flavor`` selects the tree-walker whose observable behaviour the VM
    reproduces: ``"cfg"`` (CFG-form MLIR, :class:`CfgInterpreter` oracle)
    or ``"rc"`` (λrc, :class:`RcInterpreter` oracle).  It decides the error
    type raised on runtime faults and how ``run_main`` releases the final
    value — both tree-walkers differ slightly and the VM matches each
    exactly.
    """

    __slots__ = ("flavor", "functions", "main", "fused", "fused_sites")

    def __init__(self, flavor: str, main: str = "main"):
        if flavor not in ("cfg", "rc"):
            raise ValueError(f"unknown bytecode flavor {flavor!r}")
        self.flavor = flavor
        self.functions: Dict[str, BytecodeFunction] = {}
        self.main = main
        #: Set by :func:`fuse_program`: whether the superinstruction pass
        #: ran, and how many static pair sites it collapsed.
        self.fused = False
        self.fused_sites = 0

    @property
    def instruction_count(self) -> int:
        return sum(len(f.code) for f in self.functions.values())

    def __repr__(self):
        return (
            f"BytecodeProgram({self.flavor!r}, functions={len(self.functions)}, "
            f"instructions={self.instruction_count})"
        )


class _Label:
    """A forward-referenced instruction index, patched after emission."""

    __slots__ = ("pc",)

    def __init__(self):
        self.pc: Optional[int] = None

    def resolve(self) -> int:
        return self.pc


# ---------------------------------------------------------------------------
# Superinstruction fusion
# ---------------------------------------------------------------------------
# A peephole over resolved code arrays.  A pair (A at pc, B at pc+1) fuses
# when B is not a jump target (a jump landing *on* A still executes both)
# and the pair's rule matches.  Fused instructions keep both halves'
# operands, so A's destination is still written: no liveness needed.

_RULES_BY_PAIR = {
    (_BY_NAME[rule.first].code, _BY_NAME[rule.second].code):
        (_BY_NAME[rule.name].code, rule.match)
    for rule in FUSION_RULES
}


def _jump_targets(code: List[Tuple]) -> set:
    """Every pc some instruction can transfer control to (fused branch
    opcodes included: the peephole runs to fixpoint)."""
    targets = set()
    for ins in code:
        op = OPCODES[ins[0]]
        for slot in op.pc_slots:
            if ins[slot] is not None:
                targets.add(ins[slot])
        for slot in op.table_slots:
            targets.update(ins[slot].values())
    return targets


def _retarget(ins: Tuple, target: Callable[[object], int]) -> Tuple:
    """``ins`` with its branch targets (a missing default aside) passed
    through ``target``: compilers resolve :class:`_Label` objects to pcs
    with it, the fusion peephole maps old pcs to new ones."""
    op = OPCODES[ins[0]]
    if not op.pc_slots and not op.table_slots:
        return ins
    out = list(ins)
    for slot in op.pc_slots:
        if out[slot] is not None:
            out[slot] = target(out[slot])
    for slot in op.table_slots:
        out[slot] = {key: target(pc) for key, pc in out[slot].items()}
    return tuple(out)


def fuse_code(code: List[Tuple]) -> Tuple[List[Tuple], int]:
    """One fusion pass over a code array; returns (fused code, #sites)."""
    targets = _jump_targets(code)
    fused: List[Tuple] = []
    mapping: Dict[int, int] = {}
    sites = 0
    index = 0
    length = len(code)
    while index < length:
        ins = code[index]
        mapping[index] = len(fused)
        if index + 1 < length and (index + 1) not in targets:
            follower = code[index + 1]
            rule = _RULES_BY_PAIR.get((ins[0], follower[0]))
            if rule is not None and rule[1](ins, follower):
                # The follower can't be a target, so mapping it to the
                # fused pc is only for completeness.
                mapping[index + 1] = len(fused)
                fused.append((rule[0],) + ins[1:] + follower[1:])
                sites += 1
                index += 2
                continue
        fused.append(ins)
        index += 1
    return [_retarget(ins, mapping.__getitem__) for ins in fused], sites


def fuse_program(program: "BytecodeProgram") -> "BytecodeProgram":
    """Apply superinstruction fusion to every function (idempotent).

    The peephole runs to fixpoint so chain rules fire: pass one turns
    ``const; cmp`` into ``const_cmp``, pass two fuses the branch into
    ``const_cmp_br``, pass three folds a feeding ``getlabel`` in.
    ``fused_sites`` counts fusion events, so a fully-fused tag dispatch
    contributes three.
    """
    if program.fused:
        return program
    total = 0
    for fn in program.functions.values():
        while True:
            fn.code, sites = fuse_code(fn.code)
            total += sites
            if not sites:
                break
    program.fused = True
    program.fused_sites = total
    return program


# ---------------------------------------------------------------------------
# CFG-form MLIR -> bytecode
# ---------------------------------------------------------------------------


#: Operations that compile to ``(opcode, dst, op.value)``...
_CONSTANT_OPCODES = {
    lp.IntOp: OP_INT, lp.BigIntOp: OP_BIGINT, arith.ConstantOp: OP_CONST,
}
#: ... and to ``(opcode, dst, src)``.
_UNARY_OPCODES = {
    lp.GetLabelOp: OP_GETLABEL, lp.ResetOp: OP_RESET,
    arith.TruncIOp: OP_CAST, arith.ExtUIOp: OP_CAST,
}


class _CfgFunctionCompiler:
    """Compiles one ``func.func`` body into a :class:`BytecodeFunction`."""

    def __init__(self, func: FuncOp, target: BytecodeFunction, program: BytecodeProgram):
        self.func = func
        self.target = target
        self.program = program
        self.regs: Dict[object, int] = {}
        self.code: List[Tuple] = []

    def _reg(self, value) -> int:
        index = self.regs.get(value)
        if index is None:
            index = self.target.num_regs
            self.target.num_regs += 1
            self.regs[value] = index
        return index

    def _operand_regs(self, values) -> Tuple[int, ...]:
        return tuple(self.regs[v] for v in values)

    def run(self) -> None:
        blocks = list(self.func.body.blocks)
        # Parameters occupy registers 0..n-1 (the shell pre-reserved them);
        # then every block argument gets its slot up front so branches can
        # name their destination registers.
        for index, argument in enumerate(blocks[0].arguments):
            self.regs[argument] = index
        labels = {block: _Label() for block in blocks}
        for block in blocks[1:]:
            for argument in block.arguments:
                self._reg(argument)
        for block in blocks:
            labels[block].pc = len(self.code)
            for op in block:
                self.code.append(self._instruction(op, labels))
        self.target.code = [_retarget(ins, _Label.resolve) for ins in self.code]

    def _branch_args(self, block, values) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        return (
            self._operand_regs(values),
            tuple(self.regs[a] for a in block.arguments),
        )

    def _instruction(self, op, labels) -> Tuple:
        regs = self.regs
        # Terminators ---------------------------------------------------
        if isinstance(op, ReturnOp):
            return (OP_RET, regs[op.operands[0]] if op.operands else -1)
        if isinstance(op, cf.BranchOp):
            srcs, dsts = self._branch_args(op.dest, op.dest_operands)
            return (OP_JMP, labels[op.dest], srcs, dsts)
        if isinstance(op, cf.CondBranchOp):
            tsrcs, tdsts = self._branch_args(op.true_dest, op.true_operands)
            fsrcs, fdsts = self._branch_args(op.false_dest, op.false_operands)
            return (
                OP_COND_BR, regs[op.condition],
                labels[op.true_dest], tsrcs, tdsts,
                labels[op.false_dest], fsrcs, fdsts,
            )
        if isinstance(op, cf.SwitchOp):
            # setdefault keeps the FIRST entry per value, preserving the
            # tree-walker's linear-scan semantics on (unverified) duplicates.
            table = {}
            for value, dest in zip(op.case_values, op.case_dests):
                table.setdefault(value, labels[dest])
            return (OP_SWITCH, regs[op.flag], table, labels[op.default_dest])
        if isinstance(op, cf.UnreachableOp):
            return (OP_UNREACHABLE, "executed cf.unreachable")
        if isinstance(op, SetGlobalOp):
            return (OP_SETGLOBAL, op.global_name, regs[op.operands[0]])
        if isinstance(op, (lp.IncOp, lp.DecOp)):
            opcode = OP_INC if isinstance(op, lp.IncOp) else OP_DEC
            return (opcode, regs[op.operands[0]], op.count)
        if isinstance(op, CallOp):
            dst = self._reg(op.result()) if op.results else -1
            args = self._operand_regs(op.operands)
            callee = self.program.functions.get(op.callee)
            if callee is not None:
                return (OP_CALL, dst, callee, args)
            if is_builtin(op.callee):
                return (OP_RTCALL, dst, op.callee, args)
            return (OP_BADCALL, op.callee)

        # Everything else defines one result --------------------------
        if isinstance(op, lp.ConstructOp):
            fields = self._operand_regs(op.operands)
            category = "alloc_ctor" if fields else "move"
            return (OP_CONSTRUCT, self._reg(op.result()), op.tag, fields, category)
        if isinstance(op, lp.PapOp):
            callee = self.program.functions.get(op.callee)
            arity = callee.num_params if callee is not None else None
            return (
                OP_PAP, self._reg(op.result()), op.callee, arity,
                self._operand_regs(op.operands),
            )
        if len(op.results) != 1:
            raise BytecodeError(f"cannot compile operation {op.name}")
        dst = self._reg(op.result())
        operands = self._operand_regs(op.operands)
        opcode = _CONSTANT_OPCODES.get(type(op))
        if opcode is not None:
            return (opcode, dst, op.value)
        opcode = _UNARY_OPCODES.get(type(op))
        if opcode is not None:
            return (opcode, dst, operands[0])
        if isinstance(op, lp.ProjectOp):
            return (OP_PROJ, dst, operands[0], op.index)
        if isinstance(op, lp.PapExtendOp):
            return (OP_PAPEXTEND, dst, operands[0], operands[1:])
        if isinstance(op, lp.ReuseOp):
            return (OP_REUSE, dst, operands[0], op.tag, operands[1:])
        if isinstance(op, GetGlobalOp):
            return (OP_GETGLOBAL, dst, op.global_name)
        if isinstance(op, arith.CmpIOp):
            return (OP_CMP, dst, arith.CMP_FNS[op.predicate]) + operands
        if isinstance(op, arith.SelectOp):
            return (OP_SELECT, dst) + operands
        if op.name in arith.BINARY_FNS:
            return (OP_BINARITH, dst, arith.BINARY_FNS[op.name]) + operands
        raise BytecodeError(f"cannot compile operation {op.name}")


def compile_cfg_module(
    module: ModuleOp, *, main: str = "main", fuse: bool = False
) -> BytecodeProgram:
    """Compile a CFG-form MLIR module to a :class:`BytecodeProgram`.

    Declarations (runtime functions) are left to the builtin dispatcher;
    only bodies are compiled.  ``fuse=True`` runs the superinstruction
    peephole (:func:`fuse_program`) over the result.
    """
    program = BytecodeProgram("cfg", main=main)
    defined = [f for f in module.functions() if not f.is_declaration]
    # Two phases so direct calls can hold the callee's function object even
    # for mutual recursion: allocate every shell first, then fill bodies.
    for func in defined:
        program.functions[func.sym_name] = BytecodeFunction(
            func.sym_name, len(func.function_type.inputs)
        )
    for func in defined:
        _CfgFunctionCompiler(func, program.functions[func.sym_name], program).run()
    if fuse:
        fuse_program(program)
    return program


# ---------------------------------------------------------------------------
# λrc -> bytecode
# ---------------------------------------------------------------------------


class _RcFunctionCompiler:
    """Compiles one λrc function body into a :class:`BytecodeFunction`.

    Variables are alpha-renamed onto registers while compiling: every
    ``let`` allocates a *fresh* slot (shadowed names keep their old slot
    alive), so a join point's body — compiled against the name→register
    map captured at its declaration — reads exactly the values the
    tree-walker's captured environment would, without any environment
    copying at run time.
    """

    def __init__(self, fn: rc_ir.Function, target: BytecodeFunction, program: BytecodeProgram):
        self.fn = fn
        self.target = target
        self.program = program
        self.code: List[Tuple] = []
        #: Deferred (body, env, joins, label) emissions: join-point bodies
        #: are placed after the flow that declares them.
        self.pending: List[Tuple] = []

    def _new_reg(self) -> int:
        index = self.target.num_regs
        self.target.num_regs += 1
        return index

    def run(self) -> None:
        env = {param: index for index, param in enumerate(self.fn.params)}
        self._emit_body(self.fn.body, env, {})
        while self.pending:
            body, env, joins, label = self.pending.pop(0)
            label.pc = len(self.code)
            self._emit_body(body, env, joins)
        self.target.code = [_retarget(ins, _Label.resolve) for ins in self.code]

    # -- bodies -----------------------------------------------------------
    def _emit_body(self, body, env: Dict[str, int], joins: Dict[str, Tuple]) -> None:
        code = self.code
        while True:
            if isinstance(body, rc_ir.Let):
                dst = self._new_reg()
                code.append(self._expression(body.expr, env, dst))
                env = dict(env)
                env[body.var] = dst
                body = body.body
                continue
            if isinstance(body, (rc_ir.Inc, rc_ir.Dec)):
                opcode = OP_INC if isinstance(body, rc_ir.Inc) else OP_DEC
                code.append((opcode, env[body.var], body.count))
                body = body.body
                continue
            if isinstance(body, rc_ir.Ret):
                code.append((OP_RET, env[body.var]))
                return
            if isinstance(body, rc_ir.Case):
                table: Dict[int, _Label] = {}
                branches = []
                for alt in body.alts:
                    label = _Label()
                    # First alternative wins on duplicate tags, like the
                    # tree-walker's linear alternative scan.
                    table.setdefault(alt.tag, label)
                    branches.append((alt.body, label))
                default_label = None
                if body.default is not None:
                    default_label = _Label()
                    branches.append((body.default, default_label))
                code.append((OP_CASE, env[body.var], table, default_label))
                for branch_body, label in branches:
                    label.pc = len(code)
                    self._emit_body(branch_body, env, joins)
                return
            if isinstance(body, rc_ir.JDecl):
                joins = dict(joins)
                label = _Label()
                param_regs = tuple(self._new_reg() for _ in body.params)
                joins[body.label] = (label, param_regs)
                join_env = dict(env)
                join_env.update(zip(body.params, param_regs))
                # The join body sees the joins map *including itself*, so
                # self-recursive jumps compile to backward jumps.
                self.pending.append((body.jbody, join_env, joins, label))
                body = body.rest
                continue
            if isinstance(body, rc_ir.Jmp):
                label, param_regs = joins[body.label]
                srcs = tuple(env[a] for a in body.args)
                code.append((OP_JMP, label, srcs, param_regs))
                return
            if isinstance(body, rc_ir.Unreachable):
                code.append(
                    (OP_UNREACHABLE, "executed an unreachable program point")
                )
                return
            raise BytecodeError(f"unknown body node {body!r}")

    # -- expressions ------------------------------------------------------
    def _expression(self, expr, env: Dict[str, int], dst: int) -> Tuple:
        if isinstance(expr, rc_ir.Lit):
            # The λrc tree-walker charges every literal as a register move
            # (big integers included), unlike the lp dialect's lp.bigint.
            return (OP_INT, dst, expr.value)
        if isinstance(expr, rc_ir.Ctor):
            fields = tuple(env[a] for a in expr.args)
            category = "alloc_ctor" if fields else "move"
            return (OP_CONSTRUCT, dst, expr.tag, fields, category)
        if isinstance(expr, rc_ir.Proj):
            return (OP_PROJ, dst, env[expr.var], expr.index)
        if isinstance(expr, rc_ir.Reset):
            return (OP_RESET, dst, env[expr.var])
        if isinstance(expr, rc_ir.Reuse):
            fields = tuple(env[a] for a in expr.args)
            return (OP_REUSE, dst, env[expr.token], expr.tag, fields)
        if isinstance(expr, rc_ir.Call):
            args = tuple(env[a] for a in expr.args)
            # The λrc tree-walker tries the runtime builtins *before* the
            # program's own functions; mirror that resolution order.
            if is_builtin(expr.fn):
                return (OP_RTCALL, dst, expr.fn, args)
            if expr.fn in self.program.functions:
                return (OP_CALL, dst, self.program.functions[expr.fn], args)
            return (OP_BADCALL, expr.fn)
        if isinstance(expr, rc_ir.PAp):
            callee = self.program.functions.get(expr.fn)
            arity = callee.num_params if callee is not None else None
            return (OP_PAP, dst, expr.fn, arity, tuple(env[a] for a in expr.args))
        if isinstance(expr, rc_ir.App):
            args = tuple(env[a] for a in expr.args)
            return (OP_PAPEXTEND, dst, env[expr.closure], args)
        raise BytecodeError(f"unknown expression {expr!r}")


def compile_rc_program(
    program: rc_ir.Program, *, fuse: bool = False
) -> BytecodeProgram:
    """Compile a λrc program to a :class:`BytecodeProgram`."""
    bytecode = BytecodeProgram("rc", main=program.main)
    for name, fn in program.functions.items():
        bytecode.functions[name] = BytecodeFunction(name, fn.arity)
    for name, fn in program.functions.items():
        _RcFunctionCompiler(fn, bytecode.functions[name], bytecode).run()
    if fuse:
        fuse_program(bytecode)
    return bytecode


# ---------------------------------------------------------------------------
# The VM
# ---------------------------------------------------------------------------

#: Per-opcode static charges, indexed by opcode (see :class:`Opcode`).
_CHARGES = [op.charges for op in OPCODES]


class VirtualMachine:
    """Executes a :class:`BytecodeProgram` against the simulated runtime.

    One VM instance owns one runtime context and one metrics object, like
    the tree-walking interpreters it replaces; ``run_main`` is a drop-in
    for their ``run_main`` (the entry point is the keyword-only ``main``;
    the positional parameter is the argument list, as on
    :class:`RcInterpreter`).

    Charges accumulate in a local counter and fold into
    ``metrics.counts`` when ``run_main`` returns *or raises* — callers
    invoking :meth:`call_function` directly should call ``run_main``
    instead (or read the counters only after a ``run_main``).
    """

    def __init__(
        self,
        program: BytecodeProgram,
        *,
        context: Optional[RuntimeContext] = None,
        metrics: Optional[ExecutionMetrics] = None,
        dispatch: str = "threaded",
        budget: Optional[ExecutionBudget] = None,
    ):
        if dispatch not in DISPATCH_MODES:
            raise ValueError(f"unknown dispatch mode {dispatch!r}")
        self.program = program
        self.ctx = context if context is not None else RuntimeContext()
        self.metrics = metrics if metrics is not None else ExecutionMetrics()
        self.globals: Dict[str, object] = {}
        self.dispatch = dispatch
        #: Local charge accumulator, folded into ``metrics.counts`` when a
        #: run finishes (the per-event ``charge`` call is the tree-walkers'
        #: single hottest line).
        self._counts: Dict[str, int] = {category: 0 for category in DEFAULT_COSTS}
        #: Dynamic instruction frequencies, indexed by opcode — the input
        #: the superinstruction table was selected from, surfaced via
        #: :meth:`instruction_frequencies`, ``--exec-stats`` and the
        #: ``vm.instr.freq.<op>`` metrics.
        self.opcode_counts: List[int] = [0] * NUM_OPCODES
        self.budget = budget
        #: Threaded-dispatch state: per-function closure arrays, the
        #: per-site execution counters they bump, and the two cells the
        #: call/ret closures use to talk to the frame loop.
        self._threaded: Dict[BytecodeFunction, List[Callable]] = {}
        self._site_tables: Dict[BytecodeFunction, List[int]] = {}
        self._pending: List[object] = [None, None, None]
        self._retslot: List[object] = [None]

    # -- error shaping ----------------------------------------------------
    def _error(self, message: str) -> Exception:
        if self.program.flavor == "cfg":
            return CfgInterpreterError(message)
        return RuntimeError_(message)

    # -- public API -------------------------------------------------------
    def run_main(
        self,
        args: Optional[List[object]] = None,
        *,
        main: Optional[str] = None,
        check_heap: bool = True,
    ) -> RunResult:
        if isinstance(args, str):
            raise TypeError(
                "run_main takes the argument list first; pass the entry "
                "point as run_main(main=...)"
            )
        entry = main or self.program.main
        if self.budget is not None:
            self.budget.start()
        start = time.perf_counter()
        try:
            # The explicit call stack makes arbitrarily deep bytecode
            # recursion safe under the default sys recursion limit; only
            # the tree-walkers still need interp/limits.py.
            with get_tracer().span(
                "vm:run", category="exec", main=entry,
                flavor=self.program.flavor,
            ):
                result = self.call_function(entry, list(args or []))
        finally:
            # Fold charges into the metrics even when execution faults, so
            # the counters reflect the work done up to the error — the same
            # observable the incrementally-charging tree-walkers leave.
            self.metrics.wall_time_seconds = time.perf_counter() - start
            self._flush_counts()
            self._publish_telemetry()
        snapshot = python_value(result) if result is not None else None
        if self.program.flavor == "cfg":
            if result is not None:
                self.ctx.release(result)
        elif not isinstance(result, (Scalar, Enum)):
            self.ctx.release(result)
        if check_heap:
            self.ctx.heap.check_balanced()
        return RunResult(
            value=snapshot,
            metrics=self.metrics,
            heap_stats=self.ctx.heap.stats.as_dict(),
            output=list(self.ctx.output),
        )

    def _flush_counts(self) -> None:
        if self._site_tables:
            self._drain_sites()
        counts = self.metrics.counts
        for category, count in self._counts.items():
            if count:
                counts[category] = counts.get(category, 0) + count
                self._counts[category] = 0

    def _drain_sites(self) -> None:
        """Fold the threaded sites' execution counts, times their opcodes'
        static charges, into the charges and the frequency table."""
        counts = self._counts
        freq = self.opcode_counts
        for fn, sites in self._site_tables.items():
            code = fn.code
            for pc, executed in enumerate(sites):
                if not executed:
                    continue
                ins = code[pc]
                freq[ins[0]] += executed
                for event in _CHARGES[ins[0]]:
                    if event.__class__ is int:
                        event = ins[event]
                    counts[event] += executed
                sites[pc] = 0

    def instruction_frequencies(self) -> Dict[str, int]:
        """Dynamic instruction frequencies, most-executed first."""
        frequencies = {
            OPCODE_NAMES[opcode]: count
            for opcode, count in enumerate(self.opcode_counts)
            if count
        }
        return dict(
            sorted(frequencies.items(), key=lambda item: (-item[1], item[0]))
        )

    def _publish_telemetry(self) -> None:
        """Publish instruction frequencies and run time into the active
        metrics registry (``vm.instr.freq.<op>`` / ``vm.run.seconds``)."""
        registry = get_metrics()
        if not registry.enabled:
            return
        for name, count in self.instruction_frequencies().items():
            registry.bump("vm.instr.freq." + name, count)
        if self.program.fused:
            registry.bump("vm.fusion.sites", self.program.fused_sites)
            executed = sum(self.opcode_counts[op] for op in FUSED_OPCODES)
            registry.bump("vm.fusion.executed", executed)
        registry.observe("vm.run.seconds", self.metrics.wall_time_seconds)

    # -- calls ------------------------------------------------------------
    def call_function(self, name: str, args: List[object]) -> object:
        counts = self._counts
        if self.program.flavor == "rc" and is_builtin(name):
            counts["runtime_call"] += 1
            return call_builtin(self.ctx, name, args)
        fn = self.program.functions.get(name)
        if fn is not None:
            counts["call"] += 1
            return self._exec(fn, args)
        if is_builtin(name):
            counts["runtime_call"] += 1
            return call_builtin(self.ctx, name, args)
        if self.program.flavor == "cfg":
            raise self._error(f"call of unknown function @{name}")
        raise self._error(f"unknown function {name}")

    def _apply_closure(self, closure: object, args: List[object]) -> object:
        self._counts["apply"] += 1
        outcome = extend_closure(self.ctx.heap, closure, args)
        if not outcome.is_call:
            return outcome.closure
        result = self.call_function(outcome.call_fn, outcome.call_args)
        if outcome.extra_args:
            return self._apply_closure(result, outcome.extra_args)
        return result

    # -- the interpreter loops --------------------------------------------
    def _exec(self, fn: BytecodeFunction, args: List[object]) -> object:
        """Enter ``fn`` from Python (the entry point, or a closure
        application) and run it to its return on the selected loop."""
        fault_hit("vm.dispatch")
        if len(args) != fn.num_params:
            raise self._error(
                f"calling {fn.name} with {len(args)} arguments, "
                f"expected {fn.num_params}"
            )
        regs = [None] * fn.num_regs
        regs[: fn.num_params] = args
        if self.budget is not None:
            self.budget.charge()
        if self.dispatch == "threaded":
            return self._run_threaded(fn, regs)
        return self._run_switch(fn, regs)

    def _run_switch(self, fn: BytecodeFunction, regs: List[object]) -> object:
        """First switch run: generate the loop and install it in place of
        this method (:func:`_switch_loop`)."""
        VirtualMachine._run_switch = _switch_loop()
        return self._run_switch(fn, regs)

    def _run_threaded(self, fn: BytecodeFunction, regs: List[object]) -> object:
        """The direct-threaded loop: ``pc = ops[pc](regs)``, pushing and
        popping ``(ops, regs, return pc, return register)`` frames on the
        closures' -2 (call) and -1 (return) sentinels (see ``_CONTROL``)."""
        threaded = self._threaded
        ops = threaded.get(fn)
        if ops is None:
            ops = self._compile_threaded(fn)
        budget = self.budget
        pending = self._pending
        retslot = self._retslot
        stack: List[Tuple] = []
        pc = 0
        try:
            while True:
                next_pc = ops[pc](regs)
                if next_pc >= 0:
                    pc = next_pc
                    continue
                if next_pc == -2:
                    # Arity is static per call site: a mismatched site's
                    # closure raises instead of returning -2.
                    callee = pending[0]
                    fault_hit("vm.dispatch")
                    cargs = pending[1]
                    if budget is not None:
                        budget.charge()
                    stack.append((ops, regs, pc + 1, pending[2]))
                    ops = threaded.get(callee)
                    if ops is None:
                        ops = self._compile_threaded(callee)
                    regs = [None] * callee.num_regs
                    regs[: callee.num_params] = cargs
                    pc = 0
                    continue
                value = retslot[0]
                retslot[0] = None
                if not stack:
                    return value
                ops, regs, pc, dst = stack.pop()
                if dst >= 0:
                    regs[dst] = value
        except BaseException as error:
            # Take back the static charges the raising closure (if it was
            # one) had not reached; see _UNDO.
            inner = error.__traceback__.tb_next
            if inner is not None:
                frame = inner.tb_frame
                for event, n in _UNDO.get(frame.f_code, {}).get(inner.tb_lineno, ()):
                    if event[0] == "$":
                        event = frame.f_locals[event[1:]]
                    self._counts[event] -= n
            raise

    def _compile_threaded(self, fn: BytecodeFunction) -> List[Callable]:
        """Translate ``fn.code`` into the closure array the threaded loop
        runs, registering its per-site execution counters.  Charges and
        frequencies are derived from the site counters at flush time."""
        sites = [0] * len(fn.code)
        ops = []
        for pc, ins in enumerate(fn.code):
            opcode = ins[0]
            if opcode.__class__ is int and 0 <= opcode < NUM_OPCODES:
                ops.append(OPCODES[opcode].closure(ins, sites, pc, self))
            else:
                def invalid(regs, message=f"invalid opcode {opcode}"):
                    raise self._error(message)
                ops.append(invalid)
        self._threaded[fn] = ops
        self._site_tables[fn] = sites
        return ops
