"""Documentation drift guards.

* Every operation registered in ``repro.dialects`` must be documented in
  ``docs/DIALECTS.md``, and every op-shaped name documented there must be
  registered — the reference page cannot drift from the code in either
  direction.
* Every relative (intra-repo) markdown link in ``docs/``,
  ``ARCHITECTURE.md``, ``ROADMAP.md``, ``README``-style pages and
  ``examples/README.md`` must resolve to an existing file.

CI runs this module as its dedicated docs job.
"""

import re
from pathlib import Path

import pytest

import repro.dialects  # noqa: F401 - registers every dialect
from repro.ir.dialect import registered_dialects, registered_ops

REPO_ROOT = Path(__file__).resolve().parent.parent
DIALECTS_MD = REPO_ROOT / "docs" / "DIALECTS.md"

#: Markdown files whose intra-repo links the docs CI job guards.
LINKED_DOCS = sorted(
    [
        *(REPO_ROOT / "docs").glob("*.md"),
        REPO_ROOT / "ARCHITECTURE.md",
        REPO_ROOT / "ROADMAP.md",
        REPO_ROOT / "examples" / "README.md",
    ]
)

_OP_TOKEN = re.compile(r"`([a-z_][a-z_0-9]*\.[a-z_0-9]+)`")
_MD_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def documented_op_names() -> set:
    """Op-shaped backticked tokens in DIALECTS.md whose namespace is a
    registered dialect (so prose mentions of file paths etc. don't count)."""
    text = DIALECTS_MD.read_text(encoding="utf-8")
    dialect_names = set(registered_dialects())
    return {
        token
        for token in _OP_TOKEN.findall(text)
        if token.split(".", 1)[0] in dialect_names
    }


class TestDialectReferenceDrift:
    def test_dialects_md_exists(self):
        assert DIALECTS_MD.is_file(), "docs/DIALECTS.md is missing"

    def test_every_registered_op_is_documented(self):
        documented = documented_op_names()
        missing = sorted(set(registered_ops()) - documented)
        assert not missing, (
            "ops registered in dialects/ but absent from docs/DIALECTS.md: "
            f"{missing}"
        )

    def test_every_documented_op_is_registered(self):
        registered = set(registered_ops())
        stale = sorted(documented_op_names() - registered)
        assert not stale, (
            f"docs/DIALECTS.md documents unregistered ops: {stale}"
        )

    def test_every_dialect_has_a_section_heading(self):
        text = DIALECTS_MD.read_text(encoding="utf-8")
        for dialect in registered_dialects():
            assert f"`{dialect}`" in text, (
                f"dialect {dialect!r} has no mention in docs/DIALECTS.md"
            )


EXECUTION_MD = REPO_ROOT / "docs" / "EXECUTION.md"

_TABLE_ROW = re.compile(r"^\| (`[^|]+`) \| ([^|]*) \|", re.MULTILINE)
_BACKTICKED = re.compile(r"`([^`]+)`")


def documented_opcode_rows(section: str) -> dict:
    """First-column opcode name -> second-column backticked text, from one
    table section of EXECUTION.md."""
    text = EXECUTION_MD.read_text(encoding="utf-8")
    start = text.index(section)
    end = text.index("\n## ", start + 1)
    return {
        _BACKTICKED.findall(name)[0]: " ".join(_BACKTICKED.findall(second))
        for name, second in _TABLE_ROW.findall(text[start:end])
    }


class TestExecutionReferenceDrift:
    """docs/EXECUTION.md cannot drift from the VM's opcode table
    (``OPCODES`` in interp/bytecode.py) in either direction."""

    def test_execution_md_exists(self):
        assert EXECUTION_MD.is_file(), "docs/EXECUTION.md is missing"

    def test_base_opcodes_and_operands_are_documented(self):
        from repro.interp.bytecode import FUSED_OPCODE_BASES, OPCODES

        documented = documented_opcode_rows("## Instruction set")
        declared = {
            op.name: ", ".join(op.operands)
            for op in OPCODES if op.name not in FUSED_OPCODE_BASES
        }
        assert documented == declared, (
            "docs/EXECUTION.md's instruction-set table (opcode: operands) "
            "differs from OPCODES"
        )

    def test_fused_opcodes_and_expansions_are_documented(self):
        from repro.interp.bytecode import FUSION_RULES

        documented = documented_opcode_rows("## Superinstruction fusion")
        declared = {
            rule.name: f"{rule.first} {rule.second}" for rule in FUSION_RULES
        }
        assert documented == declared, (
            "docs/EXECUTION.md's superinstruction table (opcode: expansion) "
            "differs from FUSION_RULES"
        )


class TestIntraRepoLinks:
    @pytest.mark.parametrize(
        "doc", LINKED_DOCS, ids=[str(p.relative_to(REPO_ROOT)) for p in LINKED_DOCS]
    )
    def test_relative_links_resolve(self, doc):
        text = doc.read_text(encoding="utf-8")
        broken = []
        for target in _MD_LINK.findall(text):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            path = target.split("#", 1)[0]
            if not path:
                continue
            resolved = (doc.parent / path).resolve()
            if not resolved.exists():
                broken.append(target)
        assert not broken, (
            f"{doc.relative_to(REPO_ROOT)} has broken intra-repo links: {broken}"
        )
