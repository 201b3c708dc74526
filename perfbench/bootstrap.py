"""Run ``python -m repro`` or ``python -m repro.opt`` with its layers traced.

Usage::

    python perfbench/bootstrap.py SPANS.json SPAWNED MODULE [ARGS...]

``SPAWNED`` is the parent's ``time.perf_counter()`` just before it started
this process (the clock is shared between processes), ``MODULE`` is
``repro`` or ``repro.opt``.  The script imports the tool's module, wraps
the compiler's layers (:mod:`layers`), calls the tool's ``main`` with
``ARGS`` and writes the spans and counters to ``SPANS.json``; its exit code
is the tool's.
"""

import time

BOOT = time.perf_counter()

import importlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402


def main():
    spans_path, spawned, module_name = sys.argv[1], float(sys.argv[2]), sys.argv[3]
    argv = sys.argv[4:]
    start = time.perf_counter()
    module = importlib.import_module(
        "repro.__main__" if module_name == "repro" else module_name
    )
    imported = time.perf_counter()

    from layers import Recorder, install

    recorder = Recorder()
    recorder.add("startup.interpreter", spawned, BOOT)
    recorder.add("startup.import", start, imported)
    install(recorder, opt_module=module if module_name == "repro.opt" else None)
    try:
        with recorder.span("cli.main"):
            code = module.main(argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump(recorder.dump(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
