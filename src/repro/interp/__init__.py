"""Interpreters, the bytecode execution engine and the shared cost model.

The exports resolve lazily (PEP 562): the bytecode VM is what a default
run executes, and the tree-walking oracles (:mod:`.cfg_interp`,
:mod:`.rc_interp`, :mod:`.reference`) load only when a run uses them.
"""

from ..lazy import lazy_exports

#: Exported name -> the module defining it.
_EXPORTS = {
    "EXECUTION_ENGINES": ".bytecode",
    "BytecodeError": ".bytecode",
    "BytecodeFunction": ".bytecode",
    "BytecodeProgram": ".bytecode",
    "VirtualMachine": ".bytecode",
    "compile_cfg_module": ".bytecode",
    "compile_rc_program": ".bytecode",
    "CfgInterpreter": ".cfg_interp",
    "CfgInterpreterError": ".metrics",
    "run_cfg_module": ".cfg_interp",
    "DEFAULT_RECURSION_LIMIT": ".limits",
    "recursion_limit": ".limits",
    "DEFAULT_COSTS": ".metrics",
    "ExecutionMetrics": ".metrics",
    "RcInterpreter": ".rc_interp",
    "RunResult": ".metrics",
    "run_rc_program": ".rc_interp",
    "ReferenceInterpreter": ".reference",
    "RefClosure": ".reference",
    "RefCtor": ".reference",
    "normalize": ".reference",
}

__all__ = list(_EXPORTS)

__getattr__ = lazy_exports(globals(), _EXPORTS)
