"""Output does not depend on the interpreter's hash seed.

``python -m repro`` runs once per file, each process with its own
``PYTHONHASHSEED``.  Its IR and its paper counts must come out
byte-identical whatever the seed: nothing may iterate a set or a
seed-ordered dict into what it prints, including the code the VM
generates from its opcode table.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.eval.benchmarks import benchmark_sources

SRC = Path(__file__).resolve().parent.parent / "src"

#: Two suite programs: constructor-heavy with reuse, and closure-heavy.
PROGRAMS = ("rbmap_checkpoint", "filter")

_WALL = re.compile(r"wall=\S+")


def run_cli(path: Path, flags, seed: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=seed)
    done = subprocess.run(
        [sys.executable, "-m", "repro", str(path), *flags],
        env=env, capture_output=True, text=True, check=True,
    )
    return _WALL.sub("wall=X", done.stdout)


@pytest.mark.parametrize("program", PROGRAMS)
@pytest.mark.parametrize(
    "flags", [("--emit", "cfg"), ("--metrics",)], ids=["emit-cfg", "metrics"]
)
def test_output_is_identical_across_hash_seeds(tmp_path, program, flags):
    path = tmp_path / f"{program}.lean"
    path.write_text(benchmark_sources()[program])
    outputs = [run_cli(path, flags, seed) for seed in ("0", "1")]
    assert outputs[0], "the CLI printed nothing"
    assert outputs[0] == outputs[1]
