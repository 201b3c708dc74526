"""Benchmark of the path users run: ``python -m repro`` / ``python -m repro.opt``.

Usage (from the root of the repository)::

    python3 perfbench/run.py --workload cli-oneshot --seed 1 --seconds 50 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics, a self-time
table and a Chrome trace file.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  See
``perfbench/README.md`` for the workloads and what each metric means.

This script never imports the compiler: it starts ``worker.py`` (and, for
``cli-oneshot``, the CLIs themselves) as child processes and reads their
results back, so its own bookkeeping is never on the clock.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time

from report import (
    SETUP,
    format_table,
    per_layer_metrics,
    table,
    write_chrome_trace,
)

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
WORKER = os.path.join(BENCH, "worker.py")
BOOTSTRAP = os.path.join(BENCH, "bootstrap.py")
PYTHON = sys.executable

#: Passes every run makes at least (each kind, when traced); the tail
#: percentile is fixed from this minimum so it does not move with run speed.
MIN_PASSES = 3
TRACED_MIN_PASSES = 2
#: Set-ups timed per run; ``setup_s`` is their median.
SETUP_SAMPLES = 3
#: Jobs that must lie beyond the tail percentile.
TAIL_BEYOND = 10
JOB_TIMEOUT_S = 60.0
PREPARE_TIMEOUT_S = 120.0

#: Job fields that must not differ between passes.
DETERMINISTIC_FIELDS = ("value", "cost", "rc_ops", "allocations", "frees",
                        "cfg_ops", "output_sha")


class BenchmarkError(Exception):
    """The benchmark could not run; no result is printed."""


# -- processes ---------------------------------------------------------------


class Finished:
    """A reaped child: start/end on the shared monotonic clock, exit code
    and peak resident set (KiB)."""

    def __init__(self, start, end, code, maxrss_kb):
        self.start, self.end, self.code, self.maxrss_kb = start, end, code, maxrss_kb

    @property
    def wall(self):
        return self.end - self.start


def child_env(src=SRC, hash_seed="0"):
    """Environment of every child: ``src`` on the path, bytecode caching
    on, a fixed hash seed."""
    env = dict(os.environ)
    for name in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX",
                 "PYTHONSTARTUP", "PYTHONPROFILEIMPORTTIME"):
        env.pop(name, None)
    env["PYTHONPATH"] = src
    env["PYTHONHASHSEED"] = hash_seed
    return env


def copy_sources(dest):
    """A copy of the checkout's ``src`` without cached bytecode.  A run's
    children import the compiler from such copies, so the run starts cold
    where it must and leaves the checkout's ``src`` untouched."""
    shutil.copytree(SRC, dest, ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def spawn(make_command, env, stem, timeout):
    """Run one child to completion; ``make_command(start)`` builds its
    argument list from the spawn time.  Output goes to ``stem.out`` and
    ``stem.err``."""
    with open(stem + ".out", "wb") as out, open(stem + ".err", "wb") as err:
        start = time.perf_counter()
        process = subprocess.Popen(make_command(start), stdout=out, stderr=err,
                                   env=env, cwd=ROOT)
        timer = threading.Timer(timeout, process.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(process.pid, 0)
            end = time.perf_counter()
            # Reaped: a late timer must not signal the pid again.
            process.returncode = os.waitstatus_to_exitcode(status)
        except BaseException:
            process.kill()
            process.wait()
            raise
        finally:
            timer.cancel()
    return Finished(start, end, process.returncode, usage.ru_maxrss)


def read_text(path):
    with open(path, encoding="utf-8", errors="replace") as handle:
        return handle.read()


def read_json(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def run_worker(mode, workload, work, stem, timeout, *extra):
    out = stem + ".json"
    finished = spawn(
        lambda start: [PYTHON, WORKER, mode, "--workload", workload,
                       "--work", work, "--out", out, "--spawned", repr(start),
                       *extra],
        child_env(os.path.join(work, "src")), stem, timeout,
    )
    if finished.code != 0:
        raise BenchmarkError(
            f"worker {mode} exited {finished.code}:\n{read_text(stem + '.err')}"
        )
    return finished, read_json(out)


# -- the host ----------------------------------------------------------------


def calibrate():
    """Seconds for a fixed pure-Python loop: shows host speed drift.  Only
    reported, never divided into a metric."""
    start = time.perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i * i % 7
    return time.perf_counter() - start


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment():
    return {
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": git_sha(),
    }


# -- cli-oneshot -------------------------------------------------------------


_METRIC_LINE = re.compile(r"(\w+)=(\d+)")


def _cli_args(job, work, pass_index):
    crash = os.path.join(work, "crash")
    if job["kind"] == "lean":
        return "repro", [job["path"], "--metrics", "--crash-dir", crash]
    output = os.path.join(work, f"p{pass_index}-{job['id']}.out.mlir")
    return "repro.opt", [job["rgn_path"], "-o", output, "--crash-dir", crash]


def _check_cli_job(job, finished, stem, args, record):
    if finished.code != 0:
        record["error"] = (f"exit {finished.code}: "
                           f"{read_text(stem + '.err').strip()[-400:]}")
        return
    if job["kind"] == "opt":
        with open(args[2], "rb") as handle:
            record["output_sha"] = hashlib.sha256(handle.read()).hexdigest()
        record["cfg_ops"] = job["cfg_ops"]
        record["ok"] = record["output_sha"] == job["expected_sha"]
        if not record["ok"]:
            record["error"] = "repro.opt output differs from the rgn-opt phase"
        return
    fields = {}
    for line in read_text(stem + ".out").splitlines():
        if line.startswith("result: "):
            fields["value"] = line[len("result: "):]
        elif line.startswith(("[metrics]", "[heap]", "[rc]")):
            fields.update((k, int(v)) for k, v in _METRIC_LINE.findall(line))
    record.update(
        value=fields.get("value"),
        cost=fields.get("cost"),
        rc_ops=fields.get("rc_ops"),
        allocations=fields.get("allocations"),
        frees=fields.get("frees"),
    )
    record["ok"] = (
        record["value"] == job["expected"]
        and record["allocations"] is not None
        and record["allocations"] == record["frees"]
    )
    if not record["ok"]:
        record["error"] = (f"value {record['value']} (reference "
                           f"{job['expected']}), heap {record['allocations']}"
                           f" allocations / {record['frees']} frees")


def cli_job(job, work, pass_index, env, spans):
    """One fresh CLI process.  With ``spans`` (a list) it runs under the
    tracing bootstrap and its spans are appended below a ``job`` root."""
    module, args = _cli_args(job, work, pass_index)
    stem = os.path.join(work, f"p{pass_index}-{job['id']}")
    spans_path = stem + ".spans.json"

    def command(start):
        if spans is None:
            return [PYTHON, "-m", module, *args]
        return [PYTHON, BOOTSTRAP, spans_path, repr(start), module, *args]

    finished = spawn(command, env, stem, JOB_TIMEOUT_S)
    record = {"id": job["id"], "ok": False, "wall": finished.wall,
              "maxrss_kb": finished.maxrss_kb}
    _check_cli_job(job, finished, stem, args, record)
    if spans is not None and os.path.exists(spans_path):
        child = read_json(spans_path)
        label = f"p{pass_index}-{job['id']}"
        root = len(spans)
        spans.append(["job", finished.start, finished.end, -1, label])
        for name, start, end, parent, _ in child["spans"]:
            spans.append([name, start, end,
                          root if parent < 0 else root + 1 + parent, label])
        record["counts"] = child["counts"]
    return record


def run_cli_oneshot(plan, work, seconds, trace):
    lean = {job["program"]: job for job in plan["jobs"] if job["kind"] == "lean"}
    opt = {job["program"]: job for job in plan["jobs"] if job["kind"] == "opt"}
    setup = []
    for sample in range(SETUP_SAMPLES):
        # A cold start: no cached bytecode for the compiler's modules.  The
        # timed passes import from the last copy, which this warms.
        src = copy_sources(os.path.join(work, f"src-cold{sample}"))
        took = 0.0
        for job in (lean["rbmap_checkpoint"], opt["rbmap_checkpoint"]):
            module, args = _cli_args(job, work, f"setup{sample}")
            stem = os.path.join(work, f"setup{sample}-{job['id']}")
            finished = spawn(lambda start: [PYTHON, "-m", module, *args],
                             child_env(src), stem, JOB_TIMEOUT_S)
            if finished.code != 0:
                raise BenchmarkError(
                    f"set-up run of {job['id']} exited {finished.code}:\n"
                    + read_text(stem + ".err")
                )
            took += finished.wall
        setup.append(took)

    spans = [] if trace else None
    passes = []
    begin = time.perf_counter()
    while True:
        index = len(passes)
        traced = trace and index % 2 == 1
        # Passes alternate between two hash seeds, so the determinism check
        # also covers PYTHONHASHSEED.
        env = child_env(src, str((index // (2 if trace else 1)) % 2))
        pass_start = time.perf_counter()
        records = [cli_job(job, work, index, env, spans if traced else None)
                   for job in plan["jobs"]]
        counts = {}
        for record in records:
            for name, value in record.pop("counts", {}).items():
                counts[name] = counts.get(name, 0) + value
        passes.append({"traced": traced, "jobs": records, "counts": counts})
        done = index + 1 if not trace else (index + 1) // 2
        least = TRACED_MIN_PASSES if trace else MIN_PASSES
        now = time.perf_counter()
        # Stop once another pass would end after ``seconds``.
        if done >= least and (now - begin) + (now - pass_start) > seconds:
            break
    peak = max(r["maxrss_kb"] for p in passes for r in p["jobs"])
    return {
        "setup": setup,
        "passes": passes,
        "peak_rss_kb": peak,
        "spans": spans or [],
        "setup_counts": {},
    }


# -- vm-xlarge ---------------------------------------------------------------


def run_vm_xlarge(plan, work, seconds, trace):
    workload = plan["workload"]
    setup = []
    for sample in range(SETUP_SAMPLES):
        _, probe = run_worker("setup", workload, work,
                              os.path.join(work, f"setup{sample}"),
                              PREPARE_TIMEOUT_S)
        setup.append(probe["setup_s"])
    least = TRACED_MIN_PASSES if trace else MIN_PASSES
    # Long enough for the minimum passes at JOB_TIMEOUT_S a job, so a slow
    # but correct program still gives a result.
    jobs = least * (2 if trace else 1) * len(plan["jobs"])
    timeout = PREPARE_TIMEOUT_S + seconds + jobs * JOB_TIMEOUT_S
    finished, result = run_worker(
        "run", workload, work, os.path.join(work, "run"), timeout,
        "--seconds", repr(seconds), "--trace", str(int(trace)),
        "--min-passes", str(least),
    )
    setup.append(result["setup_s"])
    startup = result["startup"]
    spans = (result["trace"] or {"spans": []})["spans"] + [
        ["startup.interpreter", startup["spawn"], startup["boot"], -1, SETUP],
        ["startup.import", startup["import_start"], startup["import_end"], -1,
         SETUP],
    ]
    return {
        "setup": setup,
        "passes": result["passes"],
        "peak_rss_kb": finished.maxrss_kb,
        "spans": spans,
        "setup_counts": result["setup_counts"],
    }


# -- results -----------------------------------------------------------------


def tail_percentile(jobs_per_pass):
    """The highest percentile with at least ``TAIL_BEYOND`` jobs beyond it
    in the smallest run (``MIN_PASSES`` passes)."""
    return 100.0 * (1.0 - TAIL_BEYOND / (MIN_PASSES * jobs_per_pass))


def nearest_rank(values, percentile):
    ordered = sorted(values)
    rank = max(1, math.ceil(percentile / 100.0 * len(ordered)))
    return ordered[rank - 1]


def determinism_problems(passes):
    """Job fields or traced counters that differ between passes."""
    problems = []
    seen = {}
    for number, pass_ in enumerate(passes):
        for record in pass_["jobs"]:
            view = {k: record.get(k) for k in DETERMINISTIC_FIELDS}
            first = seen.setdefault(record["id"], (number, view))
            if first[1] != view:
                problems.append(f"{record['id']}: pass {first[0]} {first[1]} "
                                f"vs pass {number} {view}")
    traced = [p.get("counts") for p in passes if p["traced"]]
    for number, counts in enumerate(traced[1:], start=1):
        if counts != traced[0]:
            problems.append(f"traced pass {number} counters {counts} vs "
                            f"{traced[0]}")
    return problems


def pass_sum(pass_, field):
    return sum(record.get(field) or 0 for record in pass_["jobs"])


def end_to_end(outcome, untraced):
    walls = [r["wall"] for p in untraced for r in p["jobs"]]
    jobs = len(untraced[0]["jobs"])
    attempted = len(walls)
    failed = sum(1 for p in untraced for r in p["jobs"] if not r["ok"])
    first = untraced[0]
    percentile = tail_percentile(jobs)
    metrics = {
        "wall_s": statistics.median(
            sum(r["wall"] for r in p["jobs"]) for p in untraced
        ),
        "job_wall_s.p50": statistics.median(walls),
        "job_wall_s.tail": nearest_rank(walls, percentile),
        "setup_s": statistics.median(outcome["setup"]),
        "peak_rss_mb": outcome["peak_rss_kb"] / 1024.0,
        "ok_rate": 1.0 - failed / attempted,
        "exec.cost": pass_sum(first, "cost"),
        "exec.rc_ops": pass_sum(first, "rc_ops"),
        "exec.allocations": pass_sum(first, "allocations"),
        "code.cfg_ops": pass_sum(first, "cfg_ops"),
    }
    job_walls = {}
    for pass_ in untraced:
        for record in pass_["jobs"]:
            job_walls.setdefault(record["id"], []).append(record["wall"])
    details = {"tail_percentile": percentile, "jobs": attempted,
               "error_rate": failed / attempted,
               "pass_walls": [sum(r["wall"] for r in p["jobs"])
                              for p in untraced],
               "job_walls": job_walls}
    return metrics, details


def per_layer(outcome, passes):
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    counts = {}
    for pass_ in traced:
        for name, value in pass_["counts"].items():
            counts[name] = counts.get(name, 0) + value
    metrics = per_layer_metrics(outcome["spans"], counts, len(traced),
                                outcome["setup_counts"])

    def median_wall(group):
        return statistics.median(
            sum(r["wall"] for r in p["jobs"]) for p in group
        )

    metrics["tracing.overhead_s"] = median_wall(traced) - median_wall(untraced)
    return metrics


def trace_report(outcome, workload, seed, passes):
    traced = [p for p in passes if p["traced"]]
    measured = sum(r["wall"] for p in traced for r in p["jobs"]) / len(traced)
    spans = outcome["spans"]
    lines = [format_table(
        f"{workload}: self time by layer, per pass (mean of {len(traced)})",
        table(spans, len(traced), setup=False), measured,
    )]
    setup = table(spans, len(traced), setup=True)
    if setup:
        lines.append(format_table(f"{workload}: set-up, once per run", setup))
    path = os.path.join(OUT, f"trace-{workload}-seed{seed}.json")
    write_chrome_trace(path, spans, workload)
    lines.append(f"chrome trace: {os.path.relpath(path, ROOT)}")
    return "\n".join(lines)


def run(workload, seed, seconds, trace):
    if not os.path.isfile(os.path.join(SRC, "repro", "__main__.py")):
        raise BenchmarkError(f"no compiler sources under {SRC}")
    os.makedirs(OUT, exist_ok=True)
    work = os.path.join(OUT, f"work-{workload}-{seed}-{os.getpid()}")
    os.makedirs(os.path.join(work, "crash"))
    try:
        copy_sources(os.path.join(work, "src"))
        calib_start = calibrate()
        _, plan = run_worker("prepare", workload, work,
                             os.path.join(work, "prepare"), PREPARE_TIMEOUT_S,
                             "--seed", str(seed))
        with open(os.path.join(work, "plan.json"), "w", encoding="utf-8") as h:
            json.dump(plan, h)
        if workload == "cli-oneshot":
            outcome = run_cli_oneshot(plan, work, seconds, trace)
        else:
            outcome = run_vm_xlarge(plan, work, seconds, trace)
        crashes = os.listdir(os.path.join(work, "crash"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    calib_end = calibrate()

    passes = outcome["passes"]
    problems = determinism_problems(passes)
    failures = [r for p in passes for r in p["jobs"] if not r["ok"]]
    attempted = sum(len(p["jobs"]) for p in passes)
    untraced = [p for p in passes if not p["traced"]]
    e2e, details = end_to_end(outcome, untraced)
    env = dict(environment(), **{"host.calib_s": [calib_start, calib_end]})
    report = None
    if trace:
        metrics = per_layer(outcome, passes)
        report = trace_report(outcome, workload, seed, passes)
    else:
        metrics = e2e
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "environment": env, "details": details,
        "end_to_end": e2e, "metrics": metrics,
        "failures": [r.get("error") for r in failures][:20],
        "determinism_problems": problems[:20], "crash_bundles": crashes,
    }
    with open(os.path.join(OUT, f"result-{workload}-seed{seed}-trace{int(trace)}"
                                ".json"), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    return record, report, len(failures), attempted


def main(argv=None):
    # BENCHMARK.json names the workloads and every reported metric's unit.
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        record, report, failed, attempted = run(
            args.workload, args.seed, args.seconds, bool(args.trace)
        )
    except BenchmarkError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print("environment: " + json.dumps(record["environment"]))
    print(f"job_wall_s.tail is p{record['details']['tail_percentile']:.1f} "
          f"of {record['details']['jobs']} jobs; error_rate "
          f"{record['details']['error_rate']:.4f}")
    for problem in record["failures"] + record["determinism_problems"]:
        print("problem: " + str(problem))
    if report:
        print(report)
    correct = failed == 0 and not record["determinism_problems"]
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": record["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
