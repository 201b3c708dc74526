"""Pipeline configuration: :class:`PipelineOptions` and the rgn pipeline spec.

Kept apart from :mod:`repro.backend.pipeline` so tools that only need the
knobs or the default spec (``python -m repro.opt``) do not import the
whole compiler: this module depends on nothing heavier than
:mod:`repro.resilience.budgets`.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..record import Record
from ..resilience.budgets import ExecutionBudget, make_execution_budget


class PipelineOptions(Record):
    """Configuration knobs of the lp+rgn pipeline."""

    def __init__(
        self,
        run_lambda_simplifier: bool = True,
        enable_simp_case: bool = True,
        run_rgn_optimizations: bool = True,
        enable_dead_region_elimination: bool = True,
        enable_region_gvn: bool = True,
        enable_case_elimination: bool = True,
        enable_common_branch_elimination: bool = True,
        enable_constant_fold: bool = True,
        enable_cse: bool = True,
        rc_mode: str = "naive",
        rewrite_engine: str = "worklist",
        execution_engine: str = "vm",
        dispatch: str = "threaded",
        superinstructions: bool = True,
        verify_each: bool = True,
        verbose_passes: bool = False,
        print_ir_after: Tuple[str, ...] = (),
        print_ir_after_all: bool = False,
        print_ir_on_failure: bool = True,
        incremental_rgn_opt: bool = True,
        capture_ir: Tuple[str, ...] = (),
        crash_bundle_dir: Optional[str] = None,
        enable_fallbacks: bool = True,
        execution_budget_seconds: Optional[float] = None,
        execution_budget_steps: Optional[int] = None,
    ):
        #: Run the λpure simplifier before reference-count insertion.
        self.run_lambda_simplifier = run_lambda_simplifier
        #: Keep LEAN's ``simp_case`` sub-pass enabled inside the simplifier.
        self.enable_simp_case = enable_simp_case
        #: Run the rgn optimisation pipeline between lp→rgn and rgn→cf.
        self.run_rgn_optimizations = run_rgn_optimizations
        #: Individual rgn passes (used by the ablation benchmarks).
        self.enable_dead_region_elimination = enable_dead_region_elimination
        self.enable_region_gvn = enable_region_gvn
        self.enable_case_elimination = enable_case_elimination
        self.enable_common_branch_elimination = enable_common_branch_elimination
        self.enable_constant_fold = enable_constant_fold
        self.enable_cse = enable_cse
        #: RC optimisation level applied between RC insertion and lowering
        #: ("naive", "opt" or "opt+reuse"; see :mod:`repro.rc_opt`).
        self.rc_mode = rc_mode
        #: Pattern-rewrite fixpoint engine: "worklist" (incremental, the
        #: default) or "rescan" (the quadratic seed driver, kept for the
        #: compile-time differential benchmarks).
        self.rewrite_engine = rewrite_engine
        #: Execution engine for compiled modules: "vm" (register-based
        #: bytecode, the default) or "tree" (the tree-walking interpreters,
        #: kept as differential oracles).
        self.execution_engine = execution_engine
        #: VM dispatch mode: "threaded" (closure-per-instruction direct
        #: threading, the default) or "switch" (the tuple-decoding loop, kept
        #: as the in-VM oracle).  Ignored by the tree engine.
        self.dispatch = dispatch
        #: Run the superinstruction fusion peephole over compiled bytecode.
        #: Fused instructions charge exactly the unfused events, so this only
        #: changes execution speed, never metrics or results.
        self.superinstructions = superinstructions
        #: Verify the IR after every pass (slower; on by default in tests).
        self.verify_each = verify_each
        #: Print per-pass wall time and rewrite counters while compiling.
        self.verbose_passes = verbose_passes
        #: Pass names whose output IR is printed after they run
        #: (``--print-ir-after=<pass>``, MLIR's ``--mlir-print-ir-after``).
        self.print_ir_after = print_ir_after
        #: Print the module after every pass (``--print-ir-after-all``).
        self.print_ir_after_all = print_ir_after_all
        #: On a pass failure (pattern non-convergence or a ``verify_each``
        #: rejection), dump the offending function's IR and the pass name.
        self.print_ir_on_failure = print_ir_on_failure
        #: Serve rgn-opt results from the session's fingerprint-keyed
        #: per-function cache (no effect without a session; see
        #: :mod:`repro.backend.incremental`).
        self.incremental_rgn_opt = incremental_rgn_opt
        #: Pipeline points whose textual IR to capture into
        #: ``CompilationArtifacts.captured_ir``: any of "lp" (after lp
        #: codegen/fusion), "rgn" (entering rgn-opt), "rgn-opt" (leaving it).
        #: The lowerings mutate modules in place, so these snapshots cannot be
        #: reconstructed after the fact.
        self.capture_ir = capture_ir
        #: Directory to write crash reproducer bundles into when a pass fails
        #: (None disables bundle writing; see :mod:`repro.resilience.bundle`).
        self.crash_bundle_dir = crash_bundle_dir
        #: Graceful-degradation ladders: VM fault → tree-walker re-execution,
        #: corrupt cache entry → recompute (see ``docs/RESILIENCE.md``).
        self.enable_fallbacks = enable_fallbacks
        #: Execution budget applied when running compiled programs: wall-clock
        #: seconds and/or control-transfer steps (None = unbounded).  A tripped
        #: budget raises :class:`~repro.resilience.budgets.
        #: ExecutionBudgetExceeded` instead of hanging.
        self.execution_budget_seconds = execution_budget_seconds
        self.execution_budget_steps = execution_budget_steps

    def execution_budget(self) -> Optional[ExecutionBudget]:
        """A fresh :class:`ExecutionBudget` for one run, or None."""
        return make_execution_budget(
            self.execution_budget_seconds, self.execution_budget_steps
        )

    @classmethod
    def variant(cls, name: str) -> "PipelineOptions":
        """The variants of Figure 10 and of the RC-optimisation ablation."""
        if name == "simplifier":
            return cls(run_lambda_simplifier=True, run_rgn_optimizations=False)
        if name == "rgn":
            return cls(run_lambda_simplifier=False, run_rgn_optimizations=True)
        if name == "none":
            return cls(run_lambda_simplifier=False, run_rgn_optimizations=False)
        if name in RC_VARIANTS:
            return cls(rc_mode=name[len("rc-"):])
        raise ValueError(f"unknown pipeline variant {name!r}")


FIGURE10_VARIANTS = ("simplifier", "rgn", "none")
RC_VARIANTS = ("rc-naive", "rc-opt", "rc-opt+reuse")


#: The ablation flag of ``PipelineOptions`` -> the ``canonicalize`` pass's
#: ``ablate=`` choice it corresponds to.
_ABLATION_FLAGS = (
    ("enable_constant_fold", "constant-fold"),
    ("enable_case_elimination", "case-elim"),
    ("enable_common_branch_elimination", "common-branch"),
    ("enable_dead_region_elimination", "dead-region"),
)


def rgn_pipeline_spec(options: PipelineOptions) -> str:
    """The textual pipeline spec of the rgn optimisation pipeline.

    The default configuration reads ``cse,region-gvn,canonicalize,dce`` —
    runnable verbatim through ``python -m repro.opt``.  Ablation flags map
    onto ``canonicalize{ablate=...}`` options (dropping a pattern family
    from the drain rather than a pipeline stage), and a fully-ablated drain
    drops the ``canonicalize`` element entirely.
    """
    parts = []
    if options.enable_cse:
        parts.append("cse")
    if options.enable_region_gvn:
        parts.append("region-gvn")
    drain_options = [
        f"ablate={choice}"
        for flag, choice in _ABLATION_FLAGS
        if not getattr(options, flag)
    ]
    if len(drain_options) < len(_ABLATION_FLAGS):
        if options.rewrite_engine != "worklist":
            drain_options.append(f"engine={options.rewrite_engine}")
        suffix = "{" + ",".join(drain_options) + "}" if drain_options else ""
        parts.append("canonicalize" + suffix)
    parts.append("dce")
    return ",".join(parts)
