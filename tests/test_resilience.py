"""Tests for the resilience layer (``repro.resilience``).

Five layers, mirroring ``docs/RESILIENCE.md``:

* **fault-injection sweep** — every known site, injected, either recovers
  gracefully (caches, VM dispatch, worklist driver) or produces a crash
  bundle that replays byte-identically and bisects to the injected pass
  (pattern-level for pattern-driver passes),
* **budgets** — all four execution engines trip
  ``ExecutionBudgetExceeded`` on a diverging program instead of hanging,
  and rewrite fixpoints trip ``RewriteBudgetExceeded``,
* **graceful degradation** — the VM→tree fallback is figure-identical,
  cache corruption recovers, the worklist driver retries via rescan,
* **CLI contracts** — ``python -m repro`` exit codes name the failing
  layer; ``python -m repro.opt`` writes and replays bundles,
* **drift guards** — the site catalogue in ``docs/RESILIENCE.md`` matches
  :func:`repro.resilience.faults.known_sites`.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.__main__ import main as cli_main
from repro.backend import pipeline as backend_pipeline
from repro.backend.pipeline import (
    CompilationSession,
    MlirCompiler,
    PipelineOptions,
    rgn_pipeline_spec,
    run_baseline,
    run_mlir,
    run_reference,
)
from repro.eval.benchmarks import benchmark_sources
from repro.ir.parser import parse_module
from repro.ir.printer import print_module
from repro.opt import main as opt_main
from repro.resilience import (
    CrashBundleWriter,
    ExecutionBudget,
    ExecutionBudgetExceeded,
    FaultPlan,
    InjectedFault,
    RewriteBudgetExceeded,
    fault_plan,
    known_sites,
    load_bundle,
)
from repro.resilience.faults import STATIC_SITES
from repro.interp.limits import DEFAULT_RECURSION_LIMIT, recursion_limit
from repro.rewrite.registry import build_pipeline, registered_passes
from repro.telemetry import PassInstrumentation, telemetry_session

REPO_ROOT = Path(__file__).resolve().parent.parent
RESILIENCE_MD = REPO_ROOT / "docs" / "RESILIENCE.md"

#: Small program whose compile exercises cse, region-gvn, canonicalize and
#: dce, and whose run terminates.  The single-constructor match is what
#: gives canonicalize a real pattern application (the run-of-known-region
#: inlining), which the pattern-level fault test depends on.
SOURCE = """
inductive Pair where
| mk (a : Nat) (b : Nat)

def add (a b : Nat) : Nat := a + b

def swapSum (p : Pair) : Nat :=
  match p with
  | Pair.mk a b => add b a

def main : Nat := add (swapSum (Pair.mk 4 17)) (add 4 17)
"""

#: A diverging program: only budgets make executing it terminate.
DIVERGENT = """
def spin (n : Nat) : Nat := spin n

def main : Nat := spin 1
"""


@pytest.fixture(scope="module")
def rgn_ir():
    """Textual rgn IR of SOURCE, entering the rgn optimisations."""
    options = PipelineOptions(capture_ir=("rgn",))
    return MlirCompiler(options).compile(SOURCE).captured_ir["rgn"]


@pytest.fixture
def rgn_file(tmp_path, rgn_ir):
    path = tmp_path / "input.mlir"
    path.write_text(rgn_ir, encoding="utf-8")
    return str(path)


@pytest.fixture
def lean_file(tmp_path):
    path = tmp_path / "program.lean"
    path.write_text(SOURCE, encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# FaultPlan mechanics
# ---------------------------------------------------------------------------


class TestFaultPlan:
    def test_known_sites_cover_statics_and_every_registered_pass(self):
        sites = known_sites()
        for site in STATIC_SITES:
            assert site in sites
        for name in registered_passes():
            assert f"pass.{name}" in sites

    def test_parse_rejects_unknown_site_and_bad_count(self):
        with pytest.raises(ValueError):
            FaultPlan.parse(["no.such.site:1"])
        with pytest.raises(ValueError):
            FaultPlan.parse(["verify:zero"])
        with pytest.raises(ValueError):
            FaultPlan.parse(["verify:0"])

    def test_bare_site_means_first_hit(self):
        plan = FaultPlan.parse(["verify"])
        assert plan.triggers == {"verify": 1}

    def test_fires_exactly_once_at_the_nth_hit(self):
        plan = FaultPlan.parse(["verify:3"])
        with fault_plan(plan):
            from repro.resilience import fault_hit

            fault_hit("verify")
            fault_hit("verify")
            with pytest.raises(InjectedFault) as excinfo:
                fault_hit("verify")
            assert excinfo.value.occurrence == 3
            # Never again: the site is spent.
            fault_hit("verify")
        assert plan.hits == {"verify": 4}

    def test_remaining_specs_rebase_onto_a_baseline(self):
        plan = FaultPlan.parse(["verify:5", "pass.cse:1"])
        # Sites whose trigger is already consumed by the baseline drop out;
        # the rest count down only the hits still to come.
        assert plan.remaining_specs({"verify": 3, "pass.cse": 1}) == [
            "verify:2"
        ]
        assert plan.remaining_specs({}) == ["pass.cse:1", "verify:5"]

    def test_plan_is_scoped_by_the_context_manager(self):
        from repro.resilience import active_plan

        assert active_plan() is None
        with fault_plan(FaultPlan.parse(["verify"])):
            assert active_plan() is not None
        assert active_plan() is None


# ---------------------------------------------------------------------------
# Fault-injection sweep: every pass site produces a bisectable bundle that
# replays byte-identically through repro.opt
# ---------------------------------------------------------------------------


def run_opt(capsys, *args):
    code = opt_main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def bundle_path_from(stderr: str) -> str:
    match = re.search(r"crash bundle: (\S+)", stderr)
    assert match, f"no crash-bundle path in stderr:\n{stderr}"
    return match.group(1)


class TestPassSiteSweep:
    @pytest.mark.parametrize("name", sorted(registered_passes()))
    def test_injected_pass_fault_bundles_replays_and_bisects(
        self, name, tmp_path, rgn_file, capsys
    ):
        crash_dir = tmp_path / "crashes"
        code, _, err = run_opt(
            capsys,
            rgn_file,
            "--pipeline", name,
            "--inject-fault", f"pass.{name}:1",
            "--crash-dir", str(crash_dir),
        )
        assert code == 1
        path = Path(bundle_path_from(err))
        bundle = load_bundle(path)
        assert bundle.failing_pass == name
        assert bundle.error_type == "InjectedFault"
        assert bundle.faults == [f"pass.{name}:1"]
        # Bisection narrowed the failure to the injected pass.
        assert bundle.bisect is not None
        assert bundle.bisect["failing_pass"] == name
        assert bundle.minimal_pipeline_spec is not None

        # Replay: same error, and — because bundles are content-addressed —
        # the re-written bundle has the identical name iff the failure
        # reproduced byte-identically.
        replay_dir = tmp_path / "replay"
        code, _, err = run_opt(
            capsys,
            "--pipeline-from-bundle", str(path),
            "--crash-dir", str(replay_dir),
        )
        assert code == 1
        assert bundle.error_message in err
        replayed = Path(bundle_path_from(err))
        assert replayed.name == path.name
        assert (
            (replayed / "error.txt").read_text(encoding="utf-8")
            == (path / "error.txt").read_text(encoding="utf-8")
        )
        assert (
            (replayed / "input.mlir").read_text(encoding="utf-8")
            == (path / "input.mlir").read_text(encoding="utf-8")
        )

    def test_pattern_level_fault_blames_the_applied_pattern(self, tmp_path):
        """Hit 2 of a ``pass.<name>`` site is the first pattern application
        (hit 1 is the pass entry), so the fault and the bisect record carry
        pattern-level blame."""
        options = PipelineOptions(crash_bundle_dir=str(tmp_path))
        plan = FaultPlan.parse(["pass.canonicalize:2"])
        with fault_plan(plan):
            with pytest.raises(InjectedFault) as excinfo:
                MlirCompiler(options).compile(SOURCE)
        error = excinfo.value
        assert error.failing_pattern is not None
        bundle = load_bundle(error.crash_bundle)
        assert bundle.failing_pass == "canonicalize"
        assert bundle.bisect["failing_pass"] == "canonicalize"
        assert bundle.bisect["failing_pattern"] == error.failing_pattern

    def test_verify_fault_produces_a_bundle(self, tmp_path, rgn_file, capsys):
        code, _, err = run_opt(
            capsys,
            rgn_file,
            "--inject-fault", "verify:1",
            "--crash-dir", str(tmp_path),
        )
        assert code == 1
        bundle = load_bundle(bundle_path_from(err))
        assert bundle.error_type == "InjectedFault"
        assert bundle.faults == ["verify:1"]

    def test_bundle_manifest_round_trips(self, tmp_path):
        writer = CrashBundleWriter(str(tmp_path), bisect=False)
        error = ValueError("boom")
        path = writer.on_crash(
            pre_pass_ir="ir-text",
            remaining_spec="cse,dce",
            failing_pass="cse",
            error=error,
            fault_specs=["pass.cse:1"],
            verify_each=False,
        )
        bundle = load_bundle(path)
        assert bundle.input_ir == "ir-text"
        assert bundle.pipeline_spec == "cse,dce"
        assert bundle.failing_pass == "cse"
        assert bundle.error_type == "ValueError"
        assert bundle.error_message == "boom"
        assert bundle.faults == ["pass.cse:1"]
        assert bundle.verify_each is False
        assert writer.written == [path]
        # Same content -> same directory: the writer is idempotent.
        assert writer.on_crash(
            pre_pass_ir="ir-text",
            remaining_spec="cse,dce",
            failing_pass="cse",
            error=error,
            fault_specs=["pass.cse:1"],
            verify_each=False,
        ) == path


# ---------------------------------------------------------------------------
# Lazy crash snapshots: a run prints its input once, and a failure in pass i
# rebuilds the pre-pass IR by replaying passes[:i]
# ---------------------------------------------------------------------------

#: The default rgn pipeline, as a list of pass names.
DEFAULT_PASSES = rgn_pipeline_spec(PipelineOptions()).split(",")

#: (fault, index of the pass it fails): the entry site of every default
#: pass, and the verifier after each of them.
PREFIX_FAULTS = [
    (f"pass.{name}:1", index) for index, name in enumerate(DEFAULT_PASSES)
] + [(f"verify:{index + 1}", index) for index in range(len(DEFAULT_PASSES))]


@pytest.fixture(scope="module")
def rbmap_rgn_ir():
    """Textual rgn IR of the rbmap benchmark, entering the rgn optimisations."""
    options = PipelineOptions(capture_ir=("rgn",))
    source = benchmark_sources()["rbmap_checkpoint"]
    return MlirCompiler(options).compile(source).captured_ir["rgn"]


def crash_default_pipeline(ir: str, fault: str, crash_dir) -> Path:
    """Run the default pipeline on ``ir`` under ``fault``; the bundle path."""
    pipeline = build_pipeline(
        ",".join(DEFAULT_PASSES),
        crash_handler=CrashBundleWriter(crash_dir, bisect=False),
    )
    with fault_plan(FaultPlan.parse([fault])):
        with pytest.raises(InjectedFault) as excinfo:
            pipeline.run(parse_module(ir))
    return Path(excinfo.value.crash_bundle)


class PrePassSnapshots(PassInstrumentation):
    """Prints the module before every pass: the eager snapshot oracle."""

    def __init__(self):
        self.texts = []

    def run_before_pass(self, pass_, module) -> None:
        self.texts.append(print_module(module))


class TestLazyCrashSnapshot:
    @pytest.mark.parametrize("fault,index", PREFIX_FAULTS)
    def test_bundle_input_is_the_prefix_run_without_a_handler(
        self, fault, index, tmp_path, rbmap_rgn_ir
    ):
        bundle = load_bundle(
            crash_default_pipeline(rbmap_rgn_ir, fault, tmp_path)
        )
        assert bundle.failing_pass == DEFAULT_PASSES[index]
        assert bundle.pipeline_spec == ",".join(DEFAULT_PASSES[index:])
        module = parse_module(rbmap_rgn_ir)
        if index:
            build_pipeline(",".join(DEFAULT_PASSES[:index])).run(module)
        assert bundle.input_ir == print_module(module)

    def test_bundle_names_do_not_depend_on_the_hash_seed(
        self, tmp_path, rbmap_rgn_ir
    ):
        ir_path = tmp_path / "rbmap.mlir"
        ir_path.write_text(rbmap_rgn_ir, encoding="utf-8")
        script = (
            "import sys, tempfile\n"
            "import pytest\n"
            "from test_resilience import PREFIX_FAULTS, crash_default_pipeline\n"
            "ir = open(sys.argv[1], encoding='utf-8').read()\n"
            "for fault, _ in PREFIX_FAULTS:\n"
            "    print(crash_default_pipeline(ir, fault, tempfile.mkdtemp()).name)\n"
        )
        names = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(
                [str(REPO_ROOT / "src"), str(REPO_ROOT / "tests")]
            )
            done = subprocess.run(
                [sys.executable, "-c", script, str(ir_path)],
                env=env, capture_output=True, text=True, check=True,
            )
            names.append(done.stdout.split())
        assert len(names[0]) == len(PREFIX_FAULTS)
        assert names[0] == names[1]

    @pytest.mark.parametrize("fault", ["verify:4", "pass.dce:1"])
    def test_incremental_compile_bundle_matches_the_eager_snapshot(
        self, fault, tmp_path, monkeypatch
    ):
        """Inside the compiler, a warm session runs the pipeline on a
        scratch module of the cache misses only; the replayed bundle input
        must still equal a print taken right before the failing pass."""
        session = CompilationSession()
        options = PipelineOptions(crash_bundle_dir=str(tmp_path))
        MlirCompiler(options, session=session).compile(SOURCE)
        snapshots = PrePassSnapshots()
        monkeypatch.setattr(
            backend_pipeline, "pass_instrumentations", lambda _: [snapshots]
        )
        edited = SOURCE.replace("add b a", "add a (add b a)")
        with fault_plan(FaultPlan.parse([fault])):
            with pytest.raises(InjectedFault) as excinfo:
                MlirCompiler(options, session=session).compile(edited)
        bundle = load_bundle(excinfo.value.crash_bundle)
        assert session.incremental_hits > 0
        assert bundle.input_ir == snapshots.texts[-1]


# ---------------------------------------------------------------------------
# Graceful degradation: caches, VM fallback, worklist retry
# ---------------------------------------------------------------------------


class TestDegradationLadders:
    def test_frontend_cache_fault_recovers_with_clean_reparse(self):
        session = CompilationSession()
        clean = run_reference(SOURCE, session=session)
        with telemetry_session() as t:
            with fault_plan(FaultPlan.parse(["cache.frontend:1"])):
                recovered = run_reference(SOURCE, session=session)
            snapshot = t.metrics.snapshot()
        assert recovered == clean
        assert snapshot["resilience.recovered.frontend_cache"] == 1

    def test_bytecode_cache_fault_recovers_with_clean_recompile(self):
        # The bytecode cache keys on module identity, so the hit path needs
        # the *same* compiled module executed twice in one session.
        compiler = MlirCompiler(PipelineOptions(), session=CompilationSession())
        artifacts = compiler.compile(SOURCE)
        clean = compiler.execute(artifacts.cfg_module)
        with telemetry_session() as t:
            with fault_plan(FaultPlan.parse(["cache.bytecode:1"])):
                recovered = compiler.execute(artifacts.cfg_module)
            snapshot = t.metrics.snapshot()
        assert recovered.value == clean.value
        assert snapshot["resilience.recovered.bytecode_cache"] == 1

    def test_incremental_cache_fault_quarantines_and_recompiles(self):
        options = PipelineOptions()
        options.incremental_rgn_opt = True
        session = CompilationSession()
        clean = run_mlir(SOURCE, options, session=session)
        with telemetry_session() as t:
            with fault_plan(FaultPlan.parse(["cache.incremental:1"])):
                recovered = run_mlir(SOURCE, options, session=session)
            snapshot = t.metrics.snapshot()
        assert recovered.value == clean.value
        assert snapshot["resilience.quarantine.incremental"] == 1

    @pytest.mark.parametrize(
        "site", ["cache.frontend", "cache.bytecode", "cache.incremental"]
    )
    def test_session_ladder_script_fires_the_cache_fault(self, site, tmp_path):
        """``tests/session_ladder.py`` drives these sites in CI, since a
        one-shot ``python -m repro`` never hits its session caches."""
        program = tmp_path / "prog.lean"
        program.write_text(SOURCE, encoding="utf-8")
        metrics = tmp_path / "metrics.json"
        done = subprocess.run(
            [
                sys.executable, str(REPO_ROOT / "tests" / "session_ladder.py"),
                str(program), "--inject-fault", f"{site}:1",
                "--metrics-json", str(metrics),
            ],
            env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src")),
            capture_output=True, text=True,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == f"result: {run_mlir(SOURCE).value}\n"
        counters = json.loads(metrics.read_text(encoding="utf-8"))["metrics"]
        assert counters["resilience.faults.injected"] == 1

    def test_vm_fault_falls_back_to_tree_with_identical_figures(self):
        tree_options = PipelineOptions()
        tree_options.execution_engine = "tree"
        tree = run_mlir(SOURCE, tree_options)

        with telemetry_session() as t:
            with fault_plan(FaultPlan.parse(["vm.dispatch:1"])):
                fallen_back = run_mlir(SOURCE)
            snapshot = t.metrics.snapshot()
        assert snapshot["resilience.fallback.vm_to_tree"] == 1
        # Figure-identical: value, cost-model counts, heap statistics and
        # printed output all match the tree engine exactly.
        assert fallen_back.value == tree.value
        assert fallen_back.metrics.counts == tree.metrics.counts
        assert fallen_back.metrics.total_cost() == tree.metrics.total_cost()
        assert fallen_back.heap_stats == tree.heap_stats
        assert fallen_back.output == tree.output

    def test_vm_fault_propagates_with_fallbacks_disabled(self):
        options = PipelineOptions()
        options.enable_fallbacks = False
        with fault_plan(FaultPlan.parse(["vm.dispatch:1"])):
            with pytest.raises(InjectedFault):
                run_mlir(SOURCE, options)

    def test_worklist_fault_retries_with_rescan(self):
        with telemetry_session() as t:
            with fault_plan(FaultPlan.parse(["driver.worklist:1"])):
                result = run_mlir(SOURCE)
            snapshot = t.metrics.snapshot()
        assert snapshot["resilience.retry.rescan"] == 1
        assert result.value == run_mlir(SOURCE).value


# ---------------------------------------------------------------------------
# Budgets
# ---------------------------------------------------------------------------


class TestExecutionBudgets:
    def test_budget_requires_a_bound(self):
        with pytest.raises(ValueError):
            ExecutionBudget()

    def test_step_budget_trips_at_the_boundary(self):
        budget = ExecutionBudget(max_steps=3)
        budget.start()
        for _ in range(3):
            budget.charge()
        with pytest.raises(ExecutionBudgetExceeded):
            budget.charge()

    def test_wall_clock_budget_trips(self):
        budget = ExecutionBudget(max_seconds=0.0)
        budget.start()
        with pytest.raises(ExecutionBudgetExceeded):
            for _ in range(4096):
                budget.charge()

    def test_reference_interpreter_trips(self):
        with pytest.raises(ExecutionBudgetExceeded):
            run_reference(DIVERGENT, budget_steps=1000)

    def test_rc_interpreter_trips(self):
        with pytest.raises(ExecutionBudgetExceeded):
            run_baseline(
                DIVERGENT, execution_engine="tree", budget_steps=1000
            )

    def test_vm_trips(self):
        options = PipelineOptions()
        options.execution_budget_steps = 1000
        with pytest.raises(ExecutionBudgetExceeded):
            run_mlir(DIVERGENT, options)

    def test_cfg_interpreter_trips(self):
        options = PipelineOptions()
        options.execution_engine = "tree"
        options.execution_budget_steps = 1000
        with pytest.raises(ExecutionBudgetExceeded):
            run_mlir(DIVERGENT, options)

    def test_bounded_programs_run_unaffected_under_budget(self):
        options = PipelineOptions()
        options.execution_budget_steps = 1_000_000
        assert run_mlir(SOURCE, options).value == run_mlir(SOURCE).value

    def test_rewrite_budget_trips_and_counts(self):
        from repro.transforms.canonicalize import CanonicalizePass
        from repro.ir.parser import parse_module

        options = PipelineOptions(capture_ir=("rgn",))
        rgn_ir = MlirCompiler(options).compile(SOURCE).captured_ir["rgn"]
        pass_ = CanonicalizePass()
        pass_.budget_seconds = 0.0
        pass_.allow_rescan_retry = False
        with telemetry_session() as t:
            with pytest.raises(RewriteBudgetExceeded):
                pass_.run(parse_module(rgn_ir))
            snapshot = t.metrics.snapshot()
        assert snapshot["resilience.budget.trips"] >= 1

    def test_rewrite_budget_trip_recovers_via_rescan_retry(self):
        from repro.transforms.canonicalize import CanonicalizePass
        from repro.ir.parser import parse_module

        options = PipelineOptions(capture_ir=("rgn",))
        rgn_ir = MlirCompiler(options).compile(SOURCE).captured_ir["rgn"]
        pass_ = CanonicalizePass()
        pass_.budget_seconds = 0.0
        with telemetry_session() as t:
            # The worklist engine trips right after its first application;
            # the rescan retry then finds a fixpoint on the already-rewritten
            # function before its own deadline check fires, so the ladder
            # recovers instead of propagating the trip.
            pass_.run(parse_module(rgn_ir))
            snapshot = t.metrics.snapshot()
        assert snapshot["resilience.budget.trips"] >= 1
        assert snapshot["resilience.retry.rescan"] == 1

    def test_diverging_program_is_a_differential_finding(self):
        from repro.fuzz.differential import DifferentialFailure, run_matrix

        with pytest.raises(DifferentialFailure) as excinfo:
            run_matrix(DIVERGENT, budget_steps=5000)
        assert "ExecutionBudgetExceeded" in excinfo.value.reason


# ---------------------------------------------------------------------------
# Recursion-limit hygiene
# ---------------------------------------------------------------------------


class TestRecursionLimit:
    def test_context_manager_restores_the_previous_limit(self):
        before = sys.getrecursionlimit()
        with recursion_limit(before + 1000):
            assert sys.getrecursionlimit() == before + 1000
        assert sys.getrecursionlimit() == before

    def test_never_lowers_the_limit(self):
        before = sys.getrecursionlimit()
        with recursion_limit(10):
            assert sys.getrecursionlimit() == before
        assert sys.getrecursionlimit() == before

    def test_engines_leave_the_process_limit_unchanged(self):
        before = sys.getrecursionlimit()
        run_reference(SOURCE)
        run_baseline(SOURCE, execution_engine="tree")
        run_baseline(SOURCE, execution_engine="vm")
        run_mlir(SOURCE)
        tree_options = PipelineOptions()
        tree_options.execution_engine = "tree"
        run_mlir(SOURCE, tree_options)
        assert sys.getrecursionlimit() == before

    def test_default_limit_is_generous(self):
        assert DEFAULT_RECURSION_LIMIT >= 100_000


# ---------------------------------------------------------------------------
# CLI contracts
# ---------------------------------------------------------------------------


class TestCliExitCodes:
    def test_success_is_0(self, lean_file, capsys):
        assert cli_main([lean_file]) == 0
        capsys.readouterr()

    def test_frontend_parse_error_is_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.lean"
        bad.write_text("def main : Nat :=", encoding="utf-8")
        assert cli_main([str(bad)]) == 3
        assert "error:" in capsys.readouterr().err

    def test_frontend_type_error_is_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.lean"
        bad.write_text("def main : Nat := true", encoding="utf-8")
        assert cli_main([str(bad)]) == 3
        capsys.readouterr()

    def test_duplicate_constructor_is_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.lean"
        bad.write_text(
            "inductive T where\n| a (x : Nat)\n| a\n\n"
            "def main : Nat := match T.a with\n| T.a => 7\n",
            encoding="utf-8",
        )
        assert cli_main([str(bad)]) == 3
        assert "duplicate constructor T.a" in capsys.readouterr().err

    def test_unreadable_input_is_2(self, capsys):
        assert cli_main(["/nonexistent/path.lean"]) == 2
        capsys.readouterr()

    def test_bad_fault_spec_is_2(self, lean_file, capsys):
        assert cli_main([lean_file, "--inject-fault", "no.such.site"]) == 2
        capsys.readouterr()

    def test_pipeline_crash_is_4_and_prints_bundle(
        self, lean_file, tmp_path, capsys
    ):
        crash_dir = tmp_path / "crashes"
        code = cli_main([
            lean_file,
            "--inject-fault", "pass.dce:1",
            "--crash-dir", str(crash_dir),
        ])
        err = capsys.readouterr().err
        assert code == 4
        bundle = load_bundle(bundle_path_from(err))
        assert bundle.failing_pass == "dce"

    def test_execution_budget_trip_is_5(self, tmp_path, capsys):
        program = tmp_path / "spin.lean"
        program.write_text(DIVERGENT, encoding="utf-8")
        assert cli_main([str(program), "--budget-steps", "1000"]) == 5
        assert "budget" in capsys.readouterr().err

    def test_vm_fault_recovers_to_0(self, lean_file, capsys):
        assert cli_main([lean_file, "--inject-fault", "vm.dispatch:1"]) == 0
        capsys.readouterr()

    def test_opt_lists_fault_sites(self, capsys):
        code, out, _ = run_opt(capsys, "--list-fault-sites")
        assert code == 0
        for site in STATIC_SITES:
            assert site in out

    def test_opt_rejects_bundle_with_file_or_pipeline(
        self, tmp_path, rgn_file, capsys
    ):
        with pytest.raises(SystemExit):
            opt_main([
                rgn_file, "--pipeline-from-bundle", str(tmp_path)
            ])
        capsys.readouterr()

    def test_opt_missing_bundle_is_2(self, tmp_path, capsys):
        code, _, err = run_opt(
            capsys, "--pipeline-from-bundle", str(tmp_path / "nope")
        )
        assert code == 2
        assert "cannot load bundle" in err


# ---------------------------------------------------------------------------
# Drift guards: docs/RESILIENCE.md vs the code
# ---------------------------------------------------------------------------

_SITE_TOKEN = re.compile(
    r"`((?:pass|cache|vm|driver)\.[a-z.\-]+|verify)`"
)


def documented_sites() -> set:
    """Backticked site-shaped tokens in the fault-injection section."""
    text = RESILIENCE_MD.read_text(encoding="utf-8")
    section = text.split("## Fault-injection sites", 1)[1].split("\n## ", 1)[0]
    return set(_SITE_TOKEN.findall(section))


class TestSiteCatalogueDrift:
    def test_resilience_md_exists(self):
        assert RESILIENCE_MD.is_file(), "docs/RESILIENCE.md is missing"

    def test_every_site_is_documented(self):
        missing = sorted(set(known_sites()) - documented_sites())
        assert not missing, (
            "fault sites missing from docs/RESILIENCE.md's "
            f"'Fault-injection sites' section: {missing}"
        )

    def test_every_documented_site_exists(self):
        # `pass.<name>` is the generic placeholder row, not a site.
        stale = sorted(
            documented_sites() - set(known_sites()) - {"pass.<name>"}
        )
        assert not stale, (
            f"docs/RESILIENCE.md documents unknown fault sites: {stale}"
        )
