"""Perceus-style reference-count optimisation (λrc → λrc).

This subsystem runs between RC insertion and backend lowering and implements
three cooperating analyses in the lineage of LEAN 4's "Counting Immutable
Beans" scheme and Koka's Perceus precise reference counting:

* :mod:`repro.rc_opt.borrow` — per-function borrow signatures via a
  call-graph fixpoint, so parameters that are only inspected are passed
  without inc/dec traffic,
* :mod:`repro.rc_opt.fusion` — intra-procedural dup/drop fusion that cancels
  and merges redundant ``inc``/``dec`` runs on λrc,
* :mod:`repro.rc_opt.reuse` — constructor-reuse analysis that pairs a
  ``dec`` of a dead cell with a same-arity constructor so the runtime can
  recycle the allocation in place (``reset``/``reuse`` tokens),
* :mod:`repro.rc_opt.lp_fusion` — the SSA twin of dup/drop fusion as a pass
  over the lp dialect.

:func:`insert_optimized_rc` (:mod:`repro.rc_opt.optimize`) is the front
door used by the compilation pipelines: it performs RC insertion at one of
three optimisation levels (``naive`` / ``opt`` / ``opt+reuse``), matching
the pipeline ablation variants ``rc-naive`` / ``rc-opt`` / ``rc-opt+reuse``.

The exports resolve lazily (PEP 562), so the pass registry can import
:mod:`repro.rc_opt.lp_fusion` without loading the λpure/λrc analyses.
"""

from ..lazy import lazy_exports

#: Exported name -> the submodule defining it.
_EXPORTS = {
    "RC_MODES": ".optimize",
    "RcOptReport": ".optimize",
    "insert_optimized_rc": ".optimize",
    "BorrowSignatures": ".optimize",
    "FusionStats": ".fusion",
    "fuse_rc": ".fusion",
    "ReuseStats": ".reuse",
    "apply_reuse": ".reuse",
    "LpRcFusionPass": ".lp_fusion",
    "fuse_lp_module": ".lp_fusion",
    "borrowed_parameter_count": ".borrow",
    "infer_borrow_signatures": ".borrow",
    "reuse_critical_params": ".borrow",
}

__all__ = list(_EXPORTS)

__getattr__ = lazy_exports(globals(), _EXPORTS)
