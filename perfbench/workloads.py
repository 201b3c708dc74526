"""The benchmark's workloads, generated from a seed.

Every workload is a closed loop: one client sends one job at a time and
waits for it.  A *pass* is one trip over the workload's job list; a run
repeats passes until its time is up, so every pass does the same work and
the deterministic counts of two passes must be equal.

* ``cli-oneshot`` — fresh ``python -m repro <prog>.lean --metrics`` and
  ``python -m repro.opt <prog>.rgn.mlir -o <out>`` processes over the nine
  suite programs at their default sizes.  The seed only shuffles the order.
* ``vm-xlarge`` — the nine programs at ``SIZE_TIERS["xlarge"]`` (the
  :data:`JITTERED` sizes moved by at most 2 %), compiled once in set-up;
  each job is one ``MlirCompiler.execute`` with a fresh session.
"""

from __future__ import annotations

import random

from repro.eval.benchmarks import SIZE_TIERS, benchmark_sources

#: The sizes a seed may move.  These programs' work grows smoothly with
#: them.  The others keep their tier's sizes: depth parameters double the
#: work per step, and qsort, rbmap_checkpoint and unionfind derive
#: pseudo-random data from their sizes, so a 1 % change can change their
#: work by 5 % (qsort, rbmap) to 4x (unionfind).
JITTERED = {
    "const_fold": "reps",
    "deriv": "reps",
    "digits": "reps",
    "filter": "length",
}
JITTER = 0.02


def _source(program, sizes):
    return benchmark_sources({program: sizes})[program]


def plan(workload, seed):
    """The job list of one pass: ``[{"id", "program", "sizes", "source"}]``.

    ``cli-oneshot`` jobs also carry a ``kind`` (``lean`` or ``opt``).
    """
    rng = random.Random(f"{workload}:{seed}")
    programs = sorted(SIZE_TIERS["default"])
    rng.shuffle(programs)
    jobs = []
    if workload == "cli-oneshot":
        for program in programs:
            sizes = SIZE_TIERS["default"][program]
            for kind in ("lean", "opt"):
                jobs.append({"program": program, "kind": kind,
                             "sizes": sizes, "source": _source(program, sizes)})
        rng.shuffle(jobs)
    elif workload == "vm-xlarge":
        for program in programs:
            sizes = dict(SIZE_TIERS["xlarge"][program])
            parameter = JITTERED.get(program)
            if parameter is not None:
                value = sizes[parameter]
                sizes[parameter] += round(value * rng.uniform(-JITTER, JITTER))
            jobs.append({"program": program, "sizes": sizes,
                         "source": _source(program, sizes)})
    else:
        raise ValueError(f"unknown workload {workload!r}")
    for index, job in enumerate(jobs):
        job["id"] = f"{index:02d}-{job['program']}" + (
            f"-{job['kind']}" if "kind" in job else ""
        )
    return jobs
