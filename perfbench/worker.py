"""The benchmark's child process: everything that imports the compiler.

``run.py`` never imports ``repro`` itself; it starts this script in one of
three modes and reads back a JSON file:

``prepare``  make the job list from the seed and the bookkeeping the
             checks need: the λpure reference value of every source and,
             for ``cli-oneshot``, the rgn IR the ``repro.opt`` jobs read
             and the output they must print.  Not timed.
``setup``    one set-up of ``vm-xlarge`` (imports, then compiling its
             modules), then exit.  The parent times several of these for
             ``setup_s``.
``run``      the same set-up, then passes over ``vm-xlarge``'s job list
             until the time is up.  With ``--trace 1`` untraced and traced
             passes alternate; traced passes wrap the compiler's layers
             (:mod:`layers`).

Compiles use the options ``python -m repro`` uses: verify after every
pass, incremental rgn-opt and a crash-bundle directory.
"""

import time

BOOT = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402


def _write_json(path, data):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle)


def _read_json(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _op_count(module):
    """Ops in ``module``, not counting the module op (as the compiler's
    ``module_op_counts`` do)."""
    return sum(1 for _ in module.walk()) - 1


def _cli_options(work):
    from repro.backend.pipeline import PipelineOptions

    options = PipelineOptions()
    options.crash_bundle_dir = os.path.join(work, "crash")
    return options


def prepare(workload, seed, work):
    from workloads import plan

    from repro.backend.pipeline import MlirCompiler, run_reference
    from repro.backend.rgn_to_cf import lower_rgn_to_cf
    from repro.ir.parser import parse_module

    jobs = plan(workload, seed)
    references = {}
    os.makedirs(os.path.join(work, "inputs"), exist_ok=True)
    for job in jobs:
        source = job.pop("source")
        key = hashlib.sha256(source.encode()).hexdigest()
        if key not in references:
            references[key] = repr(run_reference(source))
        job["expected"] = references[key]
        job["path"] = os.path.join(work, "inputs", job["id"] + ".lean")
        with open(job["path"], "w", encoding="utf-8") as handle:
            handle.write(source)
        if job.get("kind") != "opt":
            continue
        # The repro.opt input is the module entering rgn-opt; its output
        # must be the module leaving it, byte for byte, and that module
        # lowered and run must give the reference value.
        options = _cli_options(work)
        options.capture_ir = ("rgn", "rgn-opt")
        captured = MlirCompiler(options).compile(source).captured_ir
        job["rgn_path"] = os.path.join(work, "inputs", job["id"] + ".rgn.mlir")
        with open(job["rgn_path"], "w", encoding="utf-8") as handle:
            handle.write(captured["rgn"])
        expected_ir = captured["rgn-opt"]
        job["expected_sha"] = hashlib.sha256(expected_ir.encode()).hexdigest()
        cfg = lower_rgn_to_cf(parse_module(expected_ir))
        value = repr(MlirCompiler(_cli_options(work)).execute(cfg).value)
        if value != job["expected"]:
            raise SystemExit(
                f"{job['id']}: rgn-opt output runs to {value}, "
                f"reference is {job['expected']}"
            )
        job["cfg_ops"] = _op_count(cfg)
    return {"workload": workload, "seed": seed, "jobs": jobs}


def setup(plan, work, recorder=None):
    """Imports, then compile every module, traced into ``recorder`` when
    one is given; returns the startup split and the modules by job id."""
    start = time.perf_counter()
    from repro.backend.pipeline import CompilationSession, MlirCompiler

    imported = time.perf_counter()
    options = _cli_options(work)
    modules = {}
    uninstall = None
    if recorder is not None:
        from layers import install
        from report import SETUP

        recorder.job = SETUP
        uninstall = install(recorder)
    try:
        for job in plan["jobs"]:
            with open(job["path"], encoding="utf-8") as handle:
                source = handle.read()
            compiler = MlirCompiler(options, session=CompilationSession())
            modules[job["id"]] = compiler.compile(source).cfg_module
    finally:
        if uninstall is not None:
            uninstall()
    return {"import_start": start, "import_end": imported}, modules


def _run_job(job, module, options, recorder):
    """One job, timed; returns its record (counts taken after the clock)."""
    from repro.backend.pipeline import CompilationSession, MlirCompiler

    record = {"id": job["id"], "ok": False}
    if recorder is not None:
        recorder.job = job["id"]
    start = time.perf_counter()
    if recorder is not None:
        root = recorder.open("job", start)
    try:
        compiler = MlirCompiler(options, session=CompilationSession())
        result = compiler.execute(module)
    except Exception as error:  # noqa: BLE001 - a failed job is counted
        result = None
        record["error"] = f"{type(error).__name__}: {error}"
    end = time.perf_counter()
    if recorder is not None:
        recorder.close(root, end)
    record["wall"] = end - start
    if result is None:
        return record
    metrics = result.metrics
    record.update(
        value=repr(result.value),
        cost=metrics.total_cost(),
        rc_ops=metrics.counts.get("rc", 0),
        allocations=result.heap_stats["allocations"],
        frees=result.heap_stats["frees"],
        cfg_ops=_op_count(module),
    )
    record["ok"] = (
        record["value"] == job["expected"]
        and record["allocations"] == record["frees"]
    )
    if not record["ok"]:
        record["error"] = (
            f"value {record['value']} (reference {job['expected']}), "
            f"heap {record['allocations']} allocations / "
            f"{record['frees']} frees"
        )
    return record


def run(plan, work, seconds, trace, min_passes, spawned):
    from layers import Recorder, install

    recorder = Recorder() if trace else None
    startup, modules = setup(plan, work, recorder)
    setup_done = time.perf_counter()
    setup_counts = dict(recorder.counts) if trace else {}
    options = _cli_options(work)
    passes = []
    begin = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        # Every pass starts from the same heap: the garbage of the last
        # pass's sessions would otherwise be collected at a different
        # point of each pass.
        gc.collect()
        uninstall = install(recorder) if traced else None
        counts = dict(recorder.counts) if traced else {}
        pass_start = time.perf_counter()
        try:
            records = [
                _run_job(job, modules[job["id"]], options,
                         recorder if traced else None)
                for job in plan["jobs"]
            ]
        finally:
            pass_end = time.perf_counter()
            if uninstall is not None:
                uninstall()
        if traced:
            counts = {name: value - counts.get(name, 0)
                      for name, value in recorder.counts.items()}
        passes.append({"traced": traced, "jobs": records, "counts": counts})
        done = len(passes) if not trace else len(passes) // 2
        # Stop once another pass would end after ``seconds``.
        if (done >= min_passes
                and (pass_end - begin) + (pass_end - pass_start) > seconds):
            break
    return {
        "startup": dict(startup, spawn=spawned, boot=BOOT),
        "setup_s": setup_done - spawned,
        "passes": passes,
        "setup_counts": setup_counts,
        "trace": recorder.dump() if recorder is not None else None,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("prepare", "setup", "run"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--work", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--min-passes", type=int, default=1)
    parser.add_argument("--spawned", type=float, default=BOOT)
    args = parser.parse_args(argv)
    if args.mode == "prepare":
        _write_json(args.out, prepare(args.workload, args.seed, args.work))
        return 0
    plan = _read_json(os.path.join(args.work, "plan.json"))
    if args.mode == "setup":
        setup(plan, args.work)
        _write_json(args.out, {"setup_s": time.perf_counter() - args.spawned})
        return 0
    _write_json(args.out, run(plan, args.work, args.seconds, bool(args.trace),
                              args.min_passes, args.spawned))
    return 0


if __name__ == "__main__":
    sys.exit(main())
