"""Resilience layer: crash reproducer bundles, deterministic fault
injection, budgets and graceful degradation.

The compiler's failure-path machinery (see ``docs/RESILIENCE.md``):

* :mod:`~repro.resilience.faults` — seeded, deterministic fault injection
  at named sites (``--inject-fault site:N``) so every recovery path in the
  stack can be exercised on demand,
* :mod:`~repro.resilience.budgets` — wall-clock and step budgets on the
  rewrite drivers and all four execution engines
  (:class:`ExecutionBudgetExceeded` instead of a hang),
* :mod:`~repro.resilience.bundle` — MLIR-style crash reproducer bundles
  (pre-pass IR + remaining pipeline spec + environment + telemetry),
  replayable via ``python -m repro.opt --pipeline-from-bundle``,
* :mod:`~repro.resilience.bisect` — re-runs a bundle pass by pass to
  isolate the first faulty pass (and for pattern passes the faulty
  pattern), appending a minimal one-pass reproducer to the bundle.
  Imported on first use of ``bisect_bundle`` (PEP 562), since only a
  crash needs it.

Every recovery the stack performs (VM → tree fallback, worklist →
rescan retry, cache quarantine + clean recompile) counts under the
``resilience.*`` metric namespace.
"""

from ..lazy import lazy_exports
from .budgets import (
    BudgetExceeded,
    ExecutionBudget,
    ExecutionBudgetExceeded,
    RewriteBudgetExceeded,
)
from .bundle import CrashBundle, CrashBundleWriter, load_bundle
from .faults import (
    FaultPlan,
    InjectedFault,
    active_plan,
    fault_hit,
    fault_plan,
    known_sites,
)

__all__ = [
    "BudgetExceeded",
    "ExecutionBudget",
    "ExecutionBudgetExceeded",
    "RewriteBudgetExceeded",
    "CrashBundle",
    "CrashBundleWriter",
    "load_bundle",
    "bisect_bundle",
    "FaultPlan",
    "InjectedFault",
    "active_plan",
    "fault_hit",
    "fault_plan",
    "known_sites",
]

__getattr__ = lazy_exports(globals(), {"bisect_bundle": ".bisect"})
