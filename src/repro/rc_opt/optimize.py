"""RC insertion at one of the pipelines' optimisation levels.

:func:`insert_optimized_rc` chains :mod:`repro.lambda_rc.refcount` with the
borrow, fusion and reuse analyses of this package; see :mod:`repro.rc_opt`.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..lambda_pure.ir import Program
from ..lambda_rc.refcount import BorrowSignatures, insert_rc
from ..record import Record
from .borrow import (
    borrowed_parameter_count,
    infer_borrow_signatures,
    reuse_critical_params,
)
from .fusion import FusionStats, fuse_rc
from .reuse import ReuseStats, apply_reuse

#: The RC optimisation levels understood by the pipelines.
RC_MODES = ("naive", "opt", "opt+reuse")


class RcOptReport(Record):
    """What the optimiser did to one program."""

    def __init__(
        self,
        mode: str = "naive",
        borrowed_parameters: int = 0,
        signatures: Optional[BorrowSignatures] = None,
        fusion: Optional[FusionStats] = None,
        reuse: Optional[ReuseStats] = None,
    ):
        self.mode = mode
        self.borrowed_parameters = borrowed_parameters
        self.signatures = {} if signatures is None else signatures
        self.fusion = FusionStats() if fusion is None else fusion
        self.reuse = ReuseStats() if reuse is None else reuse


def insert_optimized_rc(
    pure_program: Program, mode: str = "naive"
) -> Tuple[Program, RcOptReport]:
    """λpure → λrc at the requested optimisation level.

    * ``naive``      — the seed owned-arguments discipline,
    * ``opt``        — borrow inference + dup/drop fusion,
    * ``opt+reuse``  — ``opt`` plus constructor-reuse analysis.
    """
    if mode not in RC_MODES:
        raise ValueError(f"unknown RC optimisation mode {mode!r}")
    report = RcOptReport(mode=mode)
    if mode == "naive":
        return insert_rc(pure_program), report

    keep_owned = reuse_critical_params(pure_program) if mode == "opt+reuse" else None
    signatures = infer_borrow_signatures(pure_program, keep_owned)
    report.signatures = signatures
    report.borrowed_parameters = borrowed_parameter_count(signatures)
    rc_program = insert_rc(pure_program, signatures)
    rc_program, report.fusion = fuse_rc(rc_program)
    if mode == "opt+reuse":
        rc_program, report.reuse = apply_reuse(rc_program)
    return rc_program, report
