"""Span recording around calls into the compiler's layers.

The benchmark measures the program from outside: :func:`install` replaces
public functions and methods of each layer with thin wrappers that record a
span (name, start, end, parent span, job id) per call, plus a few counters
read off the values those calls return.  Nothing inside ``src/`` is
changed; :func:`install` returns a function that puts every original back,
so untraced passes run the unwrapped code.

Spans are kept in memory (:class:`Recorder`) and written out when a run
ends.  Times come from ``time.perf_counter``, which on Linux reads
``CLOCK_MONOTONIC``; that clock is shared by every process on the host, so
spans recorded in a child process line up with the parent's.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager

perf_counter = time.perf_counter

#: The passes of the default rgn pipeline (``cse,region-gvn,canonicalize,dce``)
#: whose own time is reported as ``pass.<name>``.
PASSES = ("cse", "region-gvn", "canonicalize", "dce")


class Recorder:
    """In-memory spans and counters of one process."""

    def __init__(self):
        #: ``[name, start, end, parent index or -1, job id]`` per span.
        self.spans = []
        self.counts = {}
        self.job = None
        self._stack = []

    def open(self, name, start=None):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter() if start is None else start,
                           None, parent, self.job])
        self._stack.append(index)
        return index

    def close(self, index, end=None):
        self._stack.pop()
        self.spans[index][2] = perf_counter() if end is None else end

    @contextmanager
    def span(self, name):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def add(self, name, start, end):
        """Record an already-finished span under the current open span."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, start, end, parent, self.job])

    def bump(self, name, amount=1):
        self.counts[name] = self.counts.get(name, 0) + amount

    def dump(self):
        return {"spans": self.spans, "counts": self.counts}


def _timed(recorder, name, function, after=None):
    def wrapper(*args, **kwargs):
        index = recorder.open(name)
        try:
            result = function(*args, **kwargs)
        finally:
            recorder.close(index)
        if after is not None:
            after(recorder, args, result)
        return result

    wrapper.__wrapped__ = function
    return wrapper


def _count_compile(recorder, args, artifacts):
    for key, count in artifacts.module_op_counts.items():
        recorder.bump("ir.ops." + key, count)


def _count_execute(recorder, args, result):
    recorder.bump("exec.operations", result.metrics.total_operations())


def _count_fallback(recorder, args, result):
    recorder.bump("vm.fallbacks")


def _pass_manager_run(recorder, function):
    """``PassManager.run`` with the rewrite-driver counters it accumulated."""

    def run(manager, module):
        before = {
            name: dict(stats.counters)
            for name, stats in manager.statistics.items()
        }
        index = recorder.open("pass_manager")
        try:
            return function(manager, module)
        finally:
            recorder.close(index)
            for name, stats in manager.statistics.items():
                old = before.get(name, {})
                for key, recorder_key in (
                    ("match-attempts", "rewrite.match_attempts"),
                    ("applications", "rewrite.applications"),
                ):
                    recorder.bump(
                        recorder_key,
                        stats.counters.get(key, 0) - old.get(key, 0),
                    )

    run.__wrapped__ = function
    return run


def install(recorder, *, opt_module=None):
    """Wrap every measured layer entry point; return the undo function.

    ``opt_module`` is the imported ``repro.opt`` module when the process
    runs that tool (its parse/print/verify bindings are wrapped too).
    """
    pipeline = importlib.import_module("repro.backend.pipeline")
    incremental = importlib.import_module("repro.backend.incremental")
    pass_manager = importlib.import_module("repro.rewrite.pass_manager")
    printer = importlib.import_module("repro.ir.printer")
    registry = importlib.import_module("repro.rewrite.registry")

    replaced = []

    def replace(owner, attr, value):
        had_own = attr in vars(owner)
        replaced.append((owner, attr, vars(owner).get(attr), had_own))
        setattr(owner, attr, value)

    def timed(owner, attr, name, after=None):
        replace(owner, attr, _timed(recorder, name, getattr(owner, attr), after))

    compilers = pipeline.MlirCompiler
    session = pipeline.CompilationSession
    timed(compilers, "compile", "compile", _count_compile)
    timed(compilers, "execute", "execute", _count_execute)
    timed(session, "frontend", "frontend")
    timed(pipeline, "simplify_program", "simplify")
    timed(pipeline, "insert_optimized_rc", "rc_insert")
    timed(pipeline, "generate_lp_module", "lp_codegen")
    timed(pipeline, "lower_lp_to_rgn", "lp_to_rgn")
    timed(pipeline, "run_incremental_rgn_opt", "rgn_opt")
    timed(pipeline, "lower_rgn_to_cf", "rgn_to_cf")
    timed(pipeline, "compile_cfg_module", "bytecode_compile")
    timed(incremental, "function_fingerprint_digest", "fingerprint")
    replace(pass_manager.PassManager, "run",
            _pass_manager_run(recorder, pass_manager.PassManager.run))
    # PassManager.run imports print_module at call time, and only to take
    # the crash handler's pre-pass snapshot; verify is bound at import.
    timed(printer, "print_module", "crash_snapshot")
    timed(pass_manager, "verify", "verify")
    for name in PASSES:
        cls = registry.lookup_pass(name).pass_class
        timed(cls, "run", "pass." + name)
    timed(pipeline.VirtualMachine, "run_main", "vm_run")
    timed(pipeline.CfgInterpreter, "run_main", "vm_fallback", _count_fallback)
    if opt_module is not None:
        timed(opt_module, "parse_module", "ir.parse")
        timed(opt_module, "print_module", "ir.print")
        timed(opt_module, "verify", "verify.input")

    def uninstall():
        for owner, attr, original, had_own in reversed(replaced):
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    return uninstall
