"""Full-matrix differential executor for generated (and corpus) programs.

One program goes through **every** configuration the compiler exposes:

* rc mode: ``rc-naive`` / ``rc-opt`` / ``rc-opt+reuse``,
* rewrite engine: ``worklist`` / ``rescan``,
* execution engine: ``vm`` (register bytecode) / ``tree`` (walker oracles),
  with the VM measured under both dispatch modes (``threaded`` /
  ``switch``),
* incremental rgn-opt recompilation: off / on,

plus the baseline ("leanc") pipeline at every rc mode and the λpure
reference interpreter as the golden value.  The contract asserted for
every run (:func:`run_matrix`):

* **values** — every configuration returns the reference value,
* **heap balance** — allocations equal frees in every configuration (the
  zero-leak invariant of *Counting Immutable Beans*),
* **metric identity** — within one rc mode, the lp+rgn pipeline must
  produce identical execution metrics (cost, op counts, heap traffic)
  across rewrite engines, execution engines and incremental on/off: those
  axes may change *how fast the compiler runs*, never *what it compiles
  to*.  Across rc modes only values must agree — changing RC traffic is
  the point of the rc-opt subsystem.

Any violation (or any crash anywhere in a pipeline) raises
:class:`DifferentialFailure` carrying the pretty-printed source, so
hypothesis shrinks the *program*, and the shrunk source is what lands in
``tests/corpus/``.

Every execution runs under a per-program step budget
(:data:`DEFAULT_BUDGET_STEPS`, overridable per call), so a generated
program that diverges — or an optimisation that breaks termination —
trips :class:`~repro.resilience.budgets.ExecutionBudgetExceeded` and
becomes a :class:`DifferentialFailure` finding instead of hanging the
nightly fuzz run.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..backend.pipeline import (
    RC_VARIANTS,
    CompilationSession,
    run_baseline,
    run_mlir,
    run_reference,
)
from ..eval.harness import measurement_options
from ..interp.bytecode import DISPATCH_MODES, EXECUTION_ENGINES

#: The matrix axes (rc mode × rewrite engine × execution engine [× VM
#: dispatch mode] × incremental recompilation).
REWRITE_ENGINES = ("worklist", "rescan")
INCREMENTAL_MODES = (False, True)

#: Default per-program execution step budget (calls and branches).  Fuel-
#: bounded generated programs finish in a few thousand steps; a run that
#: charges two million of them is diverging and should surface as a
#: finding, not hang the fuzzer.  Steps (not wall-clock) keep the trip
#: deterministic across machines and engines.
DEFAULT_BUDGET_STEPS = 2_000_000


@dataclass(frozen=True)
class MatrixConfig:
    """One lp+rgn pipeline configuration of the differential matrix."""

    rc_variant: str
    rewrite_engine: str
    execution_engine: str
    incremental: bool
    #: VM dispatch mode; irrelevant (but harmless) for the tree engine.
    dispatch: str = "threaded"

    @property
    def label(self) -> str:
        inc = "inc" if self.incremental else "noinc"
        engine = self.execution_engine
        if engine == "vm":
            engine = f"vm-{self.dispatch}"
        return f"{self.rc_variant}/{self.rewrite_engine}/{engine}/{inc}"


def full_matrix() -> Tuple[MatrixConfig, ...]:
    """Every lp+rgn configuration: 3 rc modes × 2 rewrite engines ×
    3 executions (tree, vm-threaded, vm-switch) × 2 incremental modes =
    36 compiles per program."""
    executions = [("tree", "threaded")] + [
        ("vm", dispatch) for dispatch in DISPATCH_MODES
    ]
    return tuple(
        MatrixConfig(rc, engine, execution, incremental, dispatch)
        for rc, engine, (execution, dispatch), incremental in itertools.product(
            RC_VARIANTS, REWRITE_ENGINES, executions, INCREMENTAL_MODES
        )
    )


def smoke_matrix() -> Tuple[MatrixConfig, ...]:
    """A cheaper diagonal used by the CI smoke budget: every rc mode, every
    engine, every dispatch mode and the incremental path each appear at
    least once."""
    return (
        MatrixConfig("rc-naive", "worklist", "vm", False),
        MatrixConfig("rc-naive", "rescan", "tree", False),
        MatrixConfig("rc-opt", "worklist", "tree", True),
        MatrixConfig("rc-opt", "rescan", "vm", False, "switch"),
        MatrixConfig("rc-opt+reuse", "worklist", "vm", True),
        MatrixConfig("rc-opt+reuse", "rescan", "vm", False),
    )


class DifferentialFailure(AssertionError):
    """A matrix disagreement (or crash), carrying the offending source."""

    def __init__(self, source: str, reason: str):
        super().__init__(f"{reason}\n--- program ---\n{source}")
        self.source = source
        self.reason = reason


@dataclass
class MatrixReport:
    """Everything observed while running one program through the matrix."""

    source: str
    reference_value: object = None
    #: config label -> (value, metric fingerprint).
    runs: Dict[str, Tuple[object, Tuple]] = field(default_factory=dict)

    @property
    def configurations(self) -> int:
        return len(self.runs)


def _metric_fingerprint(result) -> Tuple:
    """The executed-semantics fingerprint that must be identical across the
    compile-strategy axes (engines, incremental) within one rc mode."""
    counts = result.metrics.counts
    return (
        result.metrics.total_cost(),
        tuple(sorted(counts.items())),
        tuple(sorted(result.heap_stats.items())),
        tuple(result.output),
    )


def _mlir_options(config: MatrixConfig, budget_steps: Optional[int] = None):
    options = measurement_options(
        config.rc_variant,
        rewrite_engine=config.rewrite_engine,
        execution_engine=config.execution_engine,
        dispatch=config.dispatch,
    )
    options.incremental_rgn_opt = config.incremental
    options.execution_budget_steps = budget_steps
    return options


def run_matrix(
    source: str,
    *,
    session: Optional[CompilationSession] = None,
    configs: Optional[Tuple[MatrixConfig, ...]] = None,
    baselines: bool = True,
    budget_steps: Optional[int] = DEFAULT_BUDGET_STEPS,
) -> MatrixReport:
    """Run ``source`` through the configured matrix; raise on any violation.

    ``session`` shares frontend work across the whole matrix (and is what
    the incremental configurations exercise); the caller may reuse one
    session across many programs — the cache is content-keyed.

    ``budget_steps`` bounds every execution (reference, baselines and the
    lp+rgn matrix alike); a trip surfaces as a :class:`DifferentialFailure`
    naming the configuration.  Pass ``None`` to run unbounded.
    """
    report = MatrixReport(source=source)
    session = session if session is not None else CompilationSession()
    configs = configs if configs is not None else full_matrix()

    def guarded(label, run):
        try:
            return run()
        except DifferentialFailure:
            raise
        except Exception as error:  # noqa: BLE001 - every crash is a finding
            raise DifferentialFailure(
                source, f"{label}: {type(error).__name__}: {error}"
            ) from error

    report.reference_value = guarded(
        "reference",
        lambda: run_reference(
            source, session=session, budget_steps=budget_steps
        ),
    )

    if baselines:
        for rc_variant in RC_VARIANTS:
            for execution_engine in EXECUTION_ENGINES:
                label = f"baseline/{rc_variant}/{execution_engine}"
                result = guarded(
                    label,
                    lambda rc=rc_variant, ee=execution_engine: run_baseline(
                        source,
                        rc_mode=rc[len("rc-"):],
                        session=session,
                        execution_engine=ee,
                        budget_steps=budget_steps,
                    ),
                )
                _check_run(report, label, result)

    fingerprints: Dict[str, Tuple[str, Tuple]] = {}
    for config in configs:
        label = config.label
        result = guarded(
            label,
            lambda c=config: run_mlir(
                source, _mlir_options(c, budget_steps), session=session
            ),
        )
        _check_run(report, label, result)
        fingerprint = _metric_fingerprint(result)
        report.runs[label] = (result.value, fingerprint)
        seen = fingerprints.get(config.rc_variant)
        if seen is None:
            fingerprints[config.rc_variant] = (label, fingerprint)
        elif seen[1] != fingerprint:
            raise DifferentialFailure(
                source,
                f"metric fingerprints diverge within {config.rc_variant}: "
                f"{seen[0]} vs {label}:\n  {seen[1]}\n  {fingerprint}",
            )
    return report


def _check_run(report: MatrixReport, label: str, result) -> None:
    if result.value != report.reference_value:
        raise DifferentialFailure(
            report.source,
            f"{label}: value {result.value!r} != reference "
            f"{report.reference_value!r}",
        )
    stats = result.heap_stats
    if stats.get("allocations") != stats.get("frees"):
        raise DifferentialFailure(
            report.source,
            f"{label}: heap imbalance — {stats.get('allocations')} "
            f"allocations vs {stats.get('frees')} frees",
        )
    if label not in report.runs:
        report.runs[label] = (result.value, _metric_fingerprint(result))
