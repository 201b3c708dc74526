"""Regenerate the numbers of the "Where things stand" section of ROADMAP.md.

Usage (from the root of the repository)::

    python3 perfbench/roadmap.py

Prints two tables, each row the median over ``REPEATS`` runs:

1. one ``python -m repro rbmap_checkpoint.lean --metrics`` run split into
   interpreter start, imports, compile, VM and the rest (fresh traced
   processes, as the ``cli-oneshot`` workload runs them);
2. the rgn-opt phase of the same program as shipped (the CLI's options:
   verify after each pass, crash snapshots, incremental rgn-opt through a
   fresh session) and under ``measurement_options()``, with rows for the
   crash snapshots, fingerprinting, verify and each pass.
"""

import os
import shutil
import statistics
import sys

from run import BOOTSTRAP, OUT, PYTHON, SRC, child_env, read_json, spawn

sys.path.insert(0, SRC)

from layers import PASSES, Recorder, install  # noqa: E402
from report import phase_time, self_times  # noqa: E402

PROGRAM = "rbmap_checkpoint"
REPEATS = 7


def _inclusive(spans, name):
    return sum(end - start for span, start, end, _, _ in spans if span == name)


def _own(spans, name):
    return sum(own for span, own in zip((s[0] for s in spans), self_times(spans))
               if span == name)


def cli_split(source_path, work):
    """Rows of one traced CLI run, each a list over the repeats."""
    rows = {}
    crash = os.path.join(work, "crash")
    for repeat in range(REPEATS + 1):
        stem = os.path.join(work, f"cli{repeat}")

        def command(start, stem=stem):
            return [PYTHON, BOOTSTRAP, stem + ".spans.json", repr(start),
                    "repro", source_path, "--metrics", "--crash-dir", crash]

        finished = spawn(command, child_env(), stem, 60.0)
        if finished.code != 0:
            raise SystemExit(f"python -m repro exited {finished.code}")
        if repeat == 0:
            continue  # writes the bytecode caches; not measured
        spans = read_json(stem + ".spans.json")["spans"]
        parts = {
            "interpreter start": _inclusive(spans, "startup.interpreter"),
            "import repro.__main__": _inclusive(spans, "startup.import"),
            "compile": _inclusive(spans, "compile"),
            "execute (bytecode + VM)": _inclusive(spans, "execute"),
            "  of which vm_run": _inclusive(spans, "vm_run"),
        }
        counted = sum(v for k, v in parts.items() if not k.startswith(" "))
        parts["rest (argv, output, exit, tracing)"] = finished.wall - counted
        parts["process wall time"] = finished.wall
        for name, value in parts.items():
            rows.setdefault(name, []).append(value)
    return rows


def rgn_opt_rows(source, work):
    """rgn-opt rows of the shipped and the measurement configuration."""
    from repro.backend.pipeline import (
        CompilationSession,
        MlirCompiler,
        PipelineOptions,
    )
    from repro.eval.harness import measurement_options

    shipped = PipelineOptions()
    shipped.crash_bundle_dir = os.path.join(work, "crash")
    columns = {}
    for label, options in (("shipped", shipped),
                           ("measurement_options()",
                            measurement_options("default"))):
        rows = columns.setdefault(label, {})
        for repeat in range(REPEATS + 1):
            recorder = Recorder()
            uninstall = install(recorder)
            try:
                artifacts = MlirCompiler(
                    options, session=CompilationSession()
                ).compile(source)
            finally:
                uninstall()
            if repeat == 0:
                continue  # first compile fills process-wide tables
            spans = recorder.spans
            parts = {
                "rgn-opt phase (PhaseTimer)":
                    artifacts.phase_timings["rgn-opt"],
                "rgn-opt phase (wrapped calls)": phase_time(spans),
                "crash snapshots": _own(spans, "crash_snapshot"),
                "incremental fingerprints": _own(spans, "fingerprint"),
                "verify after each pass": _own(spans, "verify"),
            }
            for name in PASSES:
                parts["pass " + name] = _own(spans, "pass." + name)
            parts["pass manager + splicing"] = (
                _own(spans, "pass_manager") + _own(spans, "rgn_opt")
            )
            for name, value in parts.items():
                rows.setdefault(name, []).append(value)
    return columns


def main():
    from repro.eval.benchmarks import benchmark_sources

    source = benchmark_sources()[PROGRAM]
    work = os.path.join(OUT, f"roadmap-{os.getpid()}")
    os.makedirs(os.path.join(work, "crash"))
    try:
        source_path = os.path.join(work, PROGRAM + ".lean")
        with open(source_path, "w", encoding="utf-8") as handle:
            handle.write(source)
        cli = cli_split(source_path, work)
        rgn_opt = rgn_opt_rows(source, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"python -m repro {PROGRAM}.lean --metrics "
          f"(median of {REPEATS}, ms)")
    for name, values in cli.items():
        print(f"  {name:<36s} {statistics.median(values) * 1e3:9.1f}")
    labels = list(rgn_opt)
    print(f"\nrgn-opt phase of {PROGRAM} (median of {REPEATS}, ms)")
    print(f"  {'row':<36s}" + "".join(f" {label:>22s}" for label in labels))
    for name in rgn_opt[labels[0]]:
        print(f"  {name:<36s}" + "".join(
            f" {statistics.median(rgn_opt[label][name]) * 1e3:22.2f}"
            for label in labels
        ))


if __name__ == "__main__":
    sys.exit(main())
