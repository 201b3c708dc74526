"""Drive a session-cache degradation ladder in one process.

A one-shot ``python -m repro`` never reuses its compilation session, so its
frontend, bytecode and incremental caches never hit and a fault injected at
``cache.frontend``, ``cache.bytecode`` or ``cache.incremental`` never fires.
This script compiles and runs the program once in a fresh session, then
again in the same session under the fault plan: the recompile hits the
frontend and incremental caches, and re-executing the first module hits
the bytecode cache.  It prints the second run's result as
``python -m repro`` does and writes the metrics of the faulted half as
JSON, so a caller can check the fault fired
(``resilience.faults.injected``)::

    PYTHONPATH=src python tests/session_ladder.py prog.lean \\
        --inject-fault cache.bytecode:1 --metrics-json metrics.json

Exit status: 0 when both faulted runs agree, 1 when they do not.
"""

import argparse
import sys

from repro.backend.pipeline import CompilationSession, MlirCompiler, PipelineOptions
from repro.resilience import FaultPlan, fault_plan
from repro.telemetry import MetricsRegistry, telemetry_session


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("file", help="mini-LEAN source file")
    parser.add_argument("--inject-fault", metavar="SITE[:N]", action="append",
                        required=True)
    parser.add_argument("--metrics-json", metavar="PATH", required=True)
    args = parser.parse_args(argv)

    with open(args.file, encoding="utf-8") as handle:
        source = handle.read()
    compiler = MlirCompiler(PipelineOptions(), session=CompilationSession())
    first = compiler.compile(source)
    compiler.execute(first.cfg_module)

    registry = MetricsRegistry()
    try:
        with telemetry_session(metrics=registry), fault_plan(
            FaultPlan.parse(args.inject_fault)
        ):
            again = compiler.compile(source)
            cached = compiler.execute(first.cfg_module)
            result = compiler.execute(again.cfg_module)
    finally:
        registry.write_json(args.metrics_json)

    for line in result.output:
        print(line)
    print(f"result: {result.value}")
    if cached.value != result.value or cached.output != result.output:
        print(f"error: re-executed module gave {cached.value}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
