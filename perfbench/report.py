"""Turn recorded spans into self times, per-layer metrics and a Chrome trace.

A span's *self time* is its duration minus the time its child spans cover.
Every span of a job descends from the job's root span, so the self times of
all spans of a job add up to the job's measured wall time; the self time
of the root itself (``job``) and of ``compile`` is time no wrapped call
accounts for, and shows as the ``unattributed`` rows.

Spans of the job :data:`SETUP` happen once per run, before the passes
(process start-up, and the set-up compile of ``vm-xlarge``); every other
span counts per pass.  A per-layer value is the mean per traced pass plus
the set-up, so a layer that only the set-up exercises still shows.
"""

from __future__ import annotations

import json

#: Per-layer metric -> span whose self time it reports.
SELF_TIME_METRICS = {
    "startup.interpreter_s": "startup.interpreter",
    "startup.import_s": "startup.import",
    "frontend.s": "frontend",
    "simplify.s": "simplify",
    "rc_insert.s": "rc_insert",
    "lp_codegen.s": "lp_codegen",
    "lp_to_rgn.s": "lp_to_rgn",
    "rgn_to_cf.s": "rgn_to_cf",
    "pass.cse.s": "pass.cse",
    "pass.region-gvn.s": "pass.region-gvn",
    "pass.canonicalize.s": "pass.canonicalize",
    "pass.dce.s": "pass.dce",
    "verify.s": "verify",
    "crash_snapshot.s": "crash_snapshot",
    "incremental.fingerprint_s": "fingerprint",
    "bytecode_compile.s": "bytecode_compile",
    "vm_run.s": "vm_run",
    "ir.parse.s": "ir.parse",
    "ir.print.s": "ir.print",
    "compile.unattributed_s": "compile",
    "job.unattributed_s": "job",
}

#: Job id of the spans recorded once per run, before the passes.
SETUP = "setup"

#: Table labels of the spans whose self time is unattributed.
UNATTRIBUTED = {"job": "job.unattributed", "compile": "compile.unattributed"}

#: Counters summed per pass and reported as they are.
COUNT_METRICS = (
    "ir.ops.lp",
    "ir.ops.rgn",
    "rewrite.match_attempts",
    "rewrite.applications",
    "exec.operations",
    "vm.fallbacks",
)


def self_times(spans):
    """Self time of every span, in span order."""
    result = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            result[parent] -= end - start
    return result


def _weight(job, passes):
    return 1.0 if job == SETUP else 1.0 / passes


def phase_time(spans, passes=1, names=("rgn_opt",),
               outer_only=("pass_manager",)):
    """Duration of spans named ``names``, plus spans named ``outer_only``
    that have no ``names`` span above them (per pass, plus set-up)."""
    total = 0.0
    for name, start, end, parent, job in spans:
        if name in outer_only:
            while parent >= 0 and spans[parent][0] not in names:
                parent = spans[parent][3]
        if name in names or (name in outer_only and parent < 0):
            total += (end - start) * _weight(job, passes)
    return total


def table(spans, passes, setup):
    """``{row: [calls, total_s, self_s]}`` per pass over the pass spans, or
    once per run over the set-up spans (``setup``)."""
    rows = {}
    for (name, start, end, _, job), own in zip(spans, self_times(spans)):
        if (job == SETUP) != setup:
            continue
        weight = _weight(job, passes)
        row = rows.setdefault(UNATTRIBUTED.get(name, name), [0.0, 0.0, 0.0])
        row[0] += weight
        row[1] += (end - start) * weight
        row[2] += own * weight
    return rows


def format_table(title, rows, measured=None):
    """The self-time table, largest self time first."""
    lines = [title,
             f"  {'row':<26s} {'calls':>8s} {'total s':>10s} {'self s':>10s}"
             f" {'share':>7s}"]
    own_sum = sum(row[2] for row in rows.values())
    for name, (calls, total, own) in sorted(
        rows.items(), key=lambda item: -item[1][2]
    ):
        share = 100.0 * own / own_sum if own_sum else 0.0
        lines.append(f"  {name:<26s} {calls:8.1f} {total:10.4f} {own:10.4f} "
                     f"{share:6.1f}%")
    lines.append(f"  {'sum of self times':<26s} {'':>8s} {'':>10s} "
                 f"{own_sum:10.4f}")
    if measured is not None:
        lines.append(f"  {'measured job wall time':<26s} {'':>8s} {'':>10s} "
                     f"{measured:10.4f}")
    return "\n".join(lines)


def per_layer_metrics(spans, counts, passes, setup_counts):
    """Every per-layer metric: the mean per traced pass plus the set-up.

    ``counts`` are summed over the ``passes`` traced passes,
    ``setup_counts`` are the set-up's.
    """
    owns = {}
    for (name, _, _, _, job), own in zip(spans, self_times(spans)):
        owns[name] = owns.get(name, 0.0) + own * _weight(job, passes)
    metrics = {
        metric: owns.get(span, 0.0)
        for metric, span in SELF_TIME_METRICS.items()
    }
    metrics["rgn_opt.s"] = phase_time(spans, passes)
    total = {
        name: counts.get(name, 0) / passes + setup_counts.get(name, 0)
        for name in set(counts) | set(setup_counts)
    }
    for name in COUNT_METRICS:
        metrics[name] = total.get(name, 0)

    attempts = metrics["rewrite.match_attempts"]
    metrics["rewrite.apply_ratio"] = (
        metrics["rewrite.applications"] / attempts if attempts else 0.0
    )
    return metrics


def write_chrome_trace(path, spans, pid_label):
    """Spans as Chrome trace events (load in Perfetto or chrome://tracing);
    one track per job."""
    origin = min((start for _, start, _, _, _ in spans), default=0.0)
    tracks = {}
    events = []
    for index, (name, start, end, parent, job) in enumerate(spans):
        tid = tracks.setdefault(job, len(tracks))
        events.append({
            "name": name, "ph": "X", "pid": 1, "tid": tid,
            "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
            "args": {"job": job, "span": index, "parent": parent},
        })
    for job, tid in tracks.items():
        events.append({"name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
                       "args": {"name": str(job)}})
    events.append({"name": "process_name", "ph": "M", "pid": 1,
                   "args": {"name": pid_label}})
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
