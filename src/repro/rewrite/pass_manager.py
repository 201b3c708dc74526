"""Passes and the pass manager.

A :class:`Pass` transforms a module in place.  :class:`PassManager` runs a
pipeline of passes, optionally verifying the IR after each one (the default,
as in MLIR's ``-verify-each``), and records per-pass wall time and rewrite
counters (MLIR's ``-mlir-pass-statistics``/``-mlir-timing`` analogue).

Observability (see ``docs/OBSERVABILITY.md``):

* :class:`~repro.telemetry.instrumentation.PassInstrumentation` callbacks
  bracket every pass (``run_before_pass`` / ``run_after_pass`` /
  ``run_after_pass_failed``) — a pass that raises, or whose output the
  ``verify_each`` verifier rejects, triggers the failure hook before the
  exception propagates,
* each pass runs inside a telemetry span (``pass:<name>``), so traces show
  where inside a pipeline phase the time goes,
* per-pass counter deltas and wall time publish into the active metrics
  registry under ``rewrite.<pass>.<counter>``.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence

from ..ir.core import Operation
from ..ir.verifier import verify
from ..record import Record
from ..resilience.faults import active_plan, fault_hit, fault_plan
from ..telemetry import (
    NULL_REGISTRY,
    NULL_TRACER,
    PassInstrumentation,
    get_metrics,
    get_tracer,
    metric_component,
    telemetry_session,
)


class PassStatistics(Record):
    """Named counters a pass may update while running.

    Counters come in two flavours: *rewrite* counters (applications,
    ops-erased, …) that :meth:`total` sums into the pass's rewrite count,
    and *meters* (match attempts, worklist pushes, ops scanned, …) that
    measure work done rather than IR changed and are excluded from
    :meth:`total` — both appear in reports.
    """

    def __init__(
        self, counters: Optional[Dict[str, int]] = None, meters: Optional[set] = None
    ):
        self.counters = {} if counters is None else counters
        #: Names of counters that measure work, not rewrites.
        self.meters = set() if meters is None else meters

    def bump(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def bump_meter(self, name: str, amount: int = 1) -> None:
        self.meters.add(name)
        self.bump(name, amount)

    def get(self, name: str) -> int:
        return self.counters.get(name, 0)

    def total(self) -> int:
        """Sum of the rewrite counters (the pass's total rewrite count)."""
        return sum(
            value for name, value in self.counters.items()
            if name not in self.meters
        )


class Pass:
    """Base class of all passes."""

    #: Human-readable pass name used in pipeline descriptions and reports.
    name: str = "unnamed-pass"

    #: When True, pattern-driver passes raise
    #: :class:`~repro.rewrite.driver.NonConvergenceError` if the rewrite
    #: fixpoint is not reached.  :meth:`PassManager.run` syncs this with its
    #: ``verify_each`` setting before running the pass.
    strict_convergence: bool = True

    #: Options the pass accepts in textual pipeline specs — a tuple of
    #: :class:`~repro.rewrite.registry.PassOption` (empty for most passes).
    SPEC_OPTIONS: tuple = ()

    #: Canonical one-pass pipeline spec (``name{options}``) this instance
    #: was built from.  :func:`~repro.rewrite.registry.build_passes` fills
    #: it in; hand-constructed passes fall back to ``name`` — crash bundles
    #: use it to record a replayable remaining pipeline.
    spec: Optional[str] = None

    def __init__(self):
        self.statistics = PassStatistics()

    @classmethod
    def from_spec_options(cls, options: Dict[str, List[str]]) -> "Pass":
        """Build an instance from validated pipeline-spec options.

        ``options`` maps option key to the list of values it was given
        (already validated against :attr:`SPEC_OPTIONS` by the registry).
        The base implementation covers option-free passes.
        """
        return cls()

    def run(self, module: Operation) -> None:
        raise NotImplementedError


class ModulePass(Pass):
    """A pass operating on the whole module at once."""


class FunctionPass(Pass):
    """A pass applied independently to every ``func.func`` in the module."""

    def run(self, module: Operation) -> None:
        from ..dialects.func import FuncOp

        for op in list(module.walk()):
            if isinstance(op, FuncOp) and not op.is_declaration:
                self.run_on_function(op)

    def run_on_function(self, func) -> None:
        raise NotImplementedError


class PassManager:
    """Runs a sequence of passes over a module.

    With a ``crash_handler`` (a
    :class:`~repro.resilience.bundle.CrashBundleWriter` or anything with
    its ``on_crash`` signature), a pass raise or a ``verify_each``
    rejection writes a crash reproducer bundle — the textual IR as it
    stood before the failing pass, the remaining pipeline spec, and the
    active fault plan re-based to that point — before the exception
    propagates (tagged with ``error.crash_bundle``).  A run with a handler
    prints its input IR once; only a failure pays for rebuilding the
    pre-pass IR from it (:meth:`_replay_prefix`, MLIR's lazy crash
    reproducer), so the handler costs one print per run.
    """

    def __init__(
        self,
        passes: Optional[Sequence[Pass]] = None,
        *,
        verify_each: bool = True,
        verbose: bool = False,
        instrumentations: Optional[Sequence[PassInstrumentation]] = None,
        crash_handler=None,
    ):
        self.passes: List[Pass] = list(passes or [])
        self.verify_each = verify_each
        #: Print a per-pass timing/statistics line after each pass runs.
        self.verbose = verbose
        #: pass name -> statistics, populated by :meth:`run`.
        self.statistics: Dict[str, PassStatistics] = {}
        #: pass name -> wall time in seconds, populated by :meth:`run`.
        self.timings: Dict[str, float] = {}
        #: Instrumentation callbacks bracketing every pass.
        self.instrumentations: List[PassInstrumentation] = list(
            instrumentations or []
        )
        #: Crash-bundle writer invoked when a pass fails (None = disabled).
        self.crash_handler = crash_handler

    def add(self, pass_: Pass) -> "PassManager":
        self.passes.append(pass_)
        return self

    def add_instrumentation(self, instr: PassInstrumentation) -> "PassManager":
        self.instrumentations.append(instr)
        return self

    def _notify_failed(self, pass_: Pass, module: Operation, error: Exception):
        for instr in self.instrumentations:
            instr.run_after_pass_failed(pass_, module, error)

    def _replay_prefix(self, input_ir: str, index: int) -> str:
        """The IR as it stood before pass ``index`` of a run on ``input_ir``.

        Re-parses the run's input snapshot and replays the passes before
        ``index`` as fresh instances built from their specs, with no fault
        plan, instrumentation, tracer or metrics attached.  Exact because
        print → parse → print round-trips and passes are deterministic.
        """
        if index == 0:
            return input_ir
        from ..ir.parser import parse_module
        from ..ir.printer import print_module
        from .registry import build_passes

        module = parse_module(input_ir)
        prefix = build_passes(
            ",".join(p.spec or p.name for p in self.passes[:index])
        )
        with fault_plan(None), telemetry_session(NULL_TRACER, NULL_REGISTRY):
            for pass_ in prefix:
                pass_.strict_convergence = self.verify_each
                pass_.run(module)
        return print_module(module)

    def _handle_crash(
        self,
        index: int,
        input_ir: Optional[str],
        hits_baseline: Dict[str, int],
        error: Exception,
    ) -> None:
        """Write a crash bundle for a failure in pass ``index`` (guarded)."""
        if self.crash_handler is None or input_ir is None:
            return
        remaining = ",".join(
            p.spec or p.name for p in self.passes[index:]
        )
        plan = active_plan()
        fault_specs = (
            plan.remaining_specs(hits_baseline) if plan is not None else []
        )
        try:
            path = self.crash_handler.on_crash(
                pre_pass_ir=self._replay_prefix(input_ir, index),
                remaining_spec=remaining,
                failing_pass=self.passes[index].name,
                error=error,
                fault_specs=fault_specs,
                verify_each=self.verify_each,
            )
        except Exception:
            return  # bundle writing must never mask the original failure
        try:
            error.crash_bundle = str(path)
        except Exception:
            pass

    def run(self, module: Operation) -> Operation:
        tracer = get_tracer()
        registry = get_metrics()
        input_ir: Optional[str] = None
        if self.crash_handler is not None:
            from ..ir.printer import print_module

            input_ir = print_module(module)
        for index, pass_ in enumerate(self.passes):
            pass_.strict_convergence = self.verify_each
            before = dict(pass_.statistics.counters)
            hits_baseline: Dict[str, int] = {}
            plan = active_plan()
            if input_ir is not None and plan is not None:
                hits_baseline = plan.snapshot_hits()
            for instr in self.instrumentations:
                instr.run_before_pass(pass_, module)
            start = time.perf_counter()
            try:
                with tracer.span("pass:" + pass_.name, category="pass"):
                    fault_hit("pass." + pass_.name)
                    pass_.run(module)
            except Exception as error:
                self._notify_failed(pass_, module, error)
                self._handle_crash(index, input_ir, hits_baseline, error)
                raise
            elapsed = time.perf_counter() - start
            # Merge this run's counter *delta* into the per-name statistics.
            # Assigning ``pass_.statistics`` outright (the old behaviour)
            # silently clobbered earlier runs whenever the same pass — or two
            # instances sharing a name — ran twice, pairing cumulative
            # timings with last-run-only counters.
            delta = {
                key: value - before.get(key, 0)
                for key, value in pass_.statistics.counters.items()
                if value != before.get(key, 0)
            }
            merged = self.statistics.setdefault(pass_.name, PassStatistics())
            for key, value in delta.items():
                if key in pass_.statistics.meters:
                    merged.bump_meter(key, value)
                else:
                    merged.bump(key, value)
            self.timings[pass_.name] = self.timings.get(pass_.name, 0.0) + elapsed
            if registry.enabled:
                prefix = "rewrite." + metric_component(pass_.name) + "."
                for key, value in delta.items():
                    registry.bump(prefix + metric_component(key), value)
                registry.observe(prefix + "seconds", elapsed)
            if self.verbose:
                print(self._format_pass_line(pass_.name, elapsed, delta))
            if self.verify_each:
                try:
                    with tracer.span("verify:" + pass_.name, category="verify"):
                        fault_hit("verify")
                        verify(module)
                except Exception as error:
                    self._notify_failed(pass_, module, error)
                    self._handle_crash(index, input_ir, hits_baseline, error)
                    raise
            for instr in self.instrumentations:
                instr.run_after_pass(pass_, module)
        return module

    @staticmethod
    def _format_pass_line(name: str, elapsed: float, counters: Dict[str, int]) -> str:
        details = (
            ", ".join(f"{key}={value}" for key, value in sorted(counters.items()))
            or "no rewrites"
        )
        return f"[pass] {name:28s} {elapsed * 1e3:8.2f} ms  {details}"

    @property
    def total_time(self) -> float:
        """Total wall time spent inside passes (seconds)."""
        return sum(self.timings.values())

    def total_rewrites(self) -> int:
        """Total rewrite count across every pass that has run."""
        return sum(stats.total() for stats in self.statistics.values())

    def report(self) -> str:
        """Multi-line timing/statistics report for every pass that has run.

        Reported counters are the merged per-name totals, so a pass that ran
        several times shows cumulative time *and* cumulative counters.
        """
        lines = ["Pass pipeline statistics", "========================"]
        for name, elapsed in self.timings.items():
            counters = self.statistics.get(name, PassStatistics()).counters
            lines.append(self._format_pass_line(name, elapsed, counters))
        lines.append(
            f"total: {self.total_time * 1e3:.2f} ms, "
            f"{self.total_rewrites()} rewrites across {len(self.timings)} passes"
        )
        return "\n".join(lines)

    def describe(self) -> str:
        """Textual pipeline description, e.g. ``cse,dce,region-gvn``."""
        return ",".join(p.name for p in self.passes)
