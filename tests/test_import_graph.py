"""Import-graph guards for the two CLIs.

``python -m repro.opt`` and ``python -m repro`` run as one process per
file, so every module they import is paid for on every run.  These tests
import each CLI in a fresh interpreter and check ``sys.modules`` — a gate
on *which* modules load, which unlike an import-time budget cannot flip
on timing noise.  ``ARCHITECTURE.md`` ("What each CLI may import")
explains the boundaries.  The last tests run the paths that load modules
on first use, each in a fresh interpreter.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

#: Standard-library modules neither CLI may load.  ``dataclasses`` builds
#: its classes at import time and pulls in ``inspect`` (and with it
#: ``ast``, ``dis`` and ``tokenize``); the CLI path uses plain classes
#: (:mod:`repro.record`).
STDLIB_FORBIDDEN = ("dataclasses", "inspect")

#: Packages and modules ``import repro.opt`` must not load.
OPT_FORBIDDEN = STDLIB_FORBIDDEN + (
    "repro.lean",
    "repro.lambda_pure",
    "repro.lambda_rc",
    "repro.interp",
    "repro.runtime",
    "repro.backend.pipeline",
    "repro.rc_opt.borrow",
    "repro.rc_opt.fusion",
    "repro.rc_opt.reuse",
)

#: Modules ``import repro.__main__`` must not load: the C emitter and
#: bisection, and the oracles a default run never calls (the tree-walkers,
#: the reference interpreter and the IR parser load on first use).
MAIN_FORBIDDEN = STDLIB_FORBIDDEN + (
    "repro.backend.c_backend",
    "repro.resilience.bisect",
    "repro.interp.cfg_interp",
    "repro.interp.limits",
    "repro.interp.reference",
    "repro.interp.rc_interp",
    "repro.ir.parser",
)


def modules_after_import(module: str, *, then: str = "") -> set:
    """Modules loaded by importing ``module`` in a new process."""
    script = (
        f"import json, sys, {module}\n"
        f"{then}\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, check=True,
    )
    return set(json.loads(done.stdout))


def loaded(modules: set, name: str) -> bool:
    """Is ``name`` or any submodule of it among ``modules``?"""
    return any(m == name or m.startswith(name + ".") for m in modules)


@pytest.fixture(scope="module")
def opt_modules():
    # Loading the passes is part of every repro.opt run, so check after it.
    return modules_after_import(
        "repro.opt",
        then="import repro.rewrite.registry as r; r.ensure_passes_loaded()",
    )


@pytest.mark.parametrize("name", OPT_FORBIDDEN)
def test_repro_opt_does_not_import(name, opt_modules):
    assert not loaded(opt_modules, name)


def test_repro_opt_still_loads_its_passes(opt_modules):
    assert "repro.transforms.canonicalize" in opt_modules
    assert "repro.rc_opt.lp_fusion" in opt_modules


@pytest.fixture(scope="module")
def main_modules():
    return modules_after_import("repro.__main__")


@pytest.mark.parametrize("name", MAIN_FORBIDDEN)
def test_repro_main_does_not_import(name, main_modules):
    assert not loaded(main_modules, name)


@pytest.fixture(scope="module")
def main_run_modules(rbmap):
    # A default run executes on the VM, so it must not load the oracles
    # either: a lazy import hoisted out of its branch would.
    return modules_after_import(
        "contextlib, io, repro.__main__",
        then=(
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert repro.__main__.main([{str(rbmap)!r}]) == 0"
        ),
    )


@pytest.mark.parametrize("name", MAIN_FORBIDDEN)
def test_a_default_run_does_not_import(name, main_run_modules):
    assert not loaded(main_run_modules, name)


@pytest.mark.parametrize(
    "package",
    ["repro.backend", "repro.interp", "repro.ir", "repro.rc_opt", "repro.resilience"],
)
def test_every_lazy_export_resolves(package):
    module = importlib.import_module(package)
    for name in module.__all__:
        assert getattr(module, name) is not None, name
    with pytest.raises(AttributeError):
        module.no_such_name


# ---------------------------------------------------------------------------
# The lazily loaded paths, each in a fresh interpreter
# ---------------------------------------------------------------------------
# In-process tests import everything up front, so a broken lazy import only
# shows in a new interpreter.


def run_cli(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-m", *args], env=env, capture_output=True, text=True
    )


def bundle_path(stderr: str) -> str:
    lines = [l for l in stderr.splitlines() if l.startswith("crash bundle: ")]
    assert lines, stderr
    return lines[0][len("crash bundle: "):]


@pytest.fixture(scope="module")
def rbmap(tmp_path_factory):
    from repro.eval.benchmarks import benchmark_sources

    path = tmp_path_factory.mktemp("lazy") / "rbmap.lean"
    path.write_text(benchmark_sources()["rbmap_checkpoint"], encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def default_stdout(rbmap):
    done = run_cli("repro", str(rbmap))
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("result: ")
    return done.stdout


@pytest.mark.parametrize(
    "flags",
    [
        ["--execution-engine", "tree"],
        ["--variant", "baseline"],
    ],
    ids=["tree-engine", "baseline"],
)
def test_oracle_engine_runs_in_a_fresh_process(flags, rbmap, default_stdout):
    done = run_cli("repro", str(rbmap), *flags)
    assert done.returncode == 0, done.stderr
    assert done.stdout == default_stdout


def test_vm_fault_falls_back_in_a_fresh_process(rbmap, default_stdout, tmp_path):
    metrics = tmp_path / "metrics.json"
    done = run_cli(
        "repro", str(rbmap), "--inject-fault", "vm.dispatch:1",
        "--metrics-json", str(metrics),
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == default_stdout
    counters = json.loads(metrics.read_text(encoding="utf-8"))["metrics"]
    assert counters["resilience.faults.injected"] == 1
    assert counters["resilience.fallback.vm_to_tree"] == 1


def test_bundle_of_a_failing_run_replays_in_a_fresh_process(rbmap, tmp_path):
    crashes = str(tmp_path / "crashes")
    failed = run_cli(
        "repro", str(rbmap), "--inject-fault", "pass.cse:1", "--crash-dir", crashes
    )
    assert failed.returncode == 4, failed.stderr
    bundle = bundle_path(failed.stderr)
    replay = run_cli(
        "repro.opt", "--pipeline-from-bundle", bundle,
        "--crash-dir", crashes, "-o", os.devnull,
    )
    assert replay.returncode == 1, replay.stderr
    assert bundle_path(replay.stderr) == bundle
