"""Import-graph guards for the two CLIs.

``python -m repro.opt`` and ``python -m repro`` run as one process per
file, so every module they import is paid for on every run.  These tests
import each CLI in a fresh interpreter and check ``sys.modules`` — a gate
on *which* modules load, which unlike an import-time budget cannot flip
on timing noise.  ``ARCHITECTURE.md`` ("What each CLI may import")
explains the boundaries.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

#: Packages and modules ``import repro.opt`` must not load.
OPT_FORBIDDEN = (
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

#: Modules ``import repro.__main__`` must not load.
MAIN_FORBIDDEN = (
    "repro.backend.c_backend",
    "repro.resilience.bisect",
)


def modules_after_import(module: str, *, then: str = "") -> set:
    """``repro`` modules loaded by importing ``module`` in a new process."""
    script = (
        f"import json, sys, {module}\n"
        f"{then}\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('repro'))))\n"
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


@pytest.mark.parametrize(
    "package", ["repro.backend", "repro.rc_opt", "repro.resilience"]
)
def test_every_lazy_export_resolves(package):
    module = importlib.import_module(package)
    for name in module.__all__:
        assert getattr(module, name) is not None, name
    with pytest.raises(AttributeError):
        module.no_such_name
