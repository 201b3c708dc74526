"""Execution-engine guard: the bytecode VM vs the tree-walking oracles.

Asserts the acceptance criteria of the execution-engine work:

* differential — on the benchmark suite both engines produce identical
  results, execution metrics and heap statistics (the figure suite is
  diffed, so "identical" means byte-identical figures),
* efficiency — on the largest benchmark (by executed cost) the VM cuts
  execution wall time at least 2x versus the tree-walker, and (VM 2.0)
  the fused direct-threaded configuration cuts at least 2x again versus
  the engine this repo shipped before the fusion work (tuple-switch
  dispatch on unfused bytecode, kept in-tree as the oracle
  configuration),
* scale — the ``large`` tier is roughly an order of magnitude more work
  than the default tier, and the ``xlarge`` tier (another ~10x, funded
  by VM 2.0) runs under the VM with unchanged observables.
"""

import statistics
import time

import pytest

from repro.backend.pipeline import CompilationSession, MlirCompiler
from repro.eval.benchmarks import (
    DEFAULT_SIZES,
    LARGE_SIZES,
    SIZE_TIERS,
    XLARGE_SIZES,
    benchmark_sources,
)
from repro.eval.harness import measurement_options
from repro.interp.bytecode import VirtualMachine, compile_cfg_module
from repro.interp.cfg_interp import CfgInterpreter

#: Alternating (threaded, switch) timing pairs behind the VM 2.0 gate.
SPEED_PAIRS = 11


@pytest.fixture(scope="module")
def compiled_suite(sources):
    """Every benchmark compiled once (default pipeline, reduced sizes)."""
    session = CompilationSession()
    compiler = MlirCompiler(measurement_options("default"), session=session)
    return {
        name: compiler.compile(source).cfg_module
        for name, source in sources.items()
    }


class TestEngineDifferential:
    def test_identical_results_metrics_and_heap_stats(self, compiled_suite):
        for name, module in compiled_suite.items():
            tree = CfgInterpreter(module).run_main()
            vm = VirtualMachine(compile_cfg_module(module)).run_main()
            assert vm.value == tree.value, name
            assert vm.metrics.counts == tree.metrics.counts, name
            assert vm.heap_stats == tree.heap_stats, name


class TestExecutionSpeed:
    def test_vm_beats_tree_2x_on_largest_benchmark(self):
        """≥2x wall-time cut on the suite's largest benchmark (by cost).

        Uses the full default sizes (not the reduced benchmark sizes): the
        guard protects the figure-suite execution phase, which runs at
        default sizes.  Best-of-two timings keep a loaded CI runner from
        flaking the ratio; the observed speedup is 3.5-5x.
        """
        session = CompilationSession()
        compiler = MlirCompiler(measurement_options("default"), session=session)
        modules = {
            name: compiler.compile(source).cfg_module
            for name, source in benchmark_sources(DEFAULT_SIZES).items()
        }
        costs = {
            name: VirtualMachine(compile_cfg_module(module))
            .run_main()
            .metrics.total_cost()
            for name, module in modules.items()
        }
        largest = max(costs, key=costs.get)
        module = modules[largest]
        bytecode = compile_cfg_module(module)
        tree_seconds = min(
            CfgInterpreter(module).run_main().metrics.wall_time_seconds
            for _ in range(2)
        )
        vm_seconds = min(
            VirtualMachine(bytecode).run_main().metrics.wall_time_seconds
            for _ in range(2)
        )
        assert vm_seconds > 0
        ratio = tree_seconds / vm_seconds
        assert ratio >= 2.0, (
            f"{largest}: tree {tree_seconds * 1e3:.1f}ms vs "
            f"vm {vm_seconds * 1e3:.1f}ms — speedup {ratio:.2f}x < 2x"
        )

    def test_bytecode_compilation_is_cheap(self):
        """Translating to bytecode must stay well under one execution."""
        source = benchmark_sources(
            {"rbmap_checkpoint": DEFAULT_SIZES["rbmap_checkpoint"]}
        )["rbmap_checkpoint"]
        module = MlirCompiler(measurement_options("default")).compile(source).cfg_module
        start = time.perf_counter()
        bytecode = compile_cfg_module(module)
        compile_seconds = time.perf_counter() - start
        run_seconds = (
            VirtualMachine(bytecode).run_main().metrics.wall_time_seconds
        )
        assert compile_seconds < run_seconds, (
            f"bytecode compile {compile_seconds * 1e3:.1f}ms exceeds "
            f"execution {run_seconds * 1e3:.1f}ms"
        )


class TestVm2Speed:
    """VM 2.0: superinstruction fusion + direct-threaded dispatch."""

    def test_threaded_fused_beats_previous_vm_2x_on_largest_benchmark(self):
        """≥2x wall-time cut versus the previous VM configuration.

        The baseline is switch dispatch on unfused bytecode — exactly the
        engine this repo ran before the fusion/threading work, kept
        in-tree as the oracle configuration (its explicit call stack even
        makes it slightly *faster* than that engine's recursive loop, so
        the bar is conservative).  "Largest" means the most executed
        instructions at the ``large`` tier: dispatch work is what the
        optimisation targets.  The two arms alternate, and the gate takes
        the median of the per-pair ratios: a load swing on a shared runner
        then slows both runs of a pair rather than one arm, and a single
        outlier pair cannot decide the result.  The observed ratio is
        2.0-2.4x depending on the host.
        """
        session = CompilationSession()
        compiler = MlirCompiler(measurement_options("default"), session=session)
        dispatches = {}
        modules = {}
        for name, source in benchmark_sources(LARGE_SIZES).items():
            module = compiler.compile(source).cfg_module
            modules[name] = module
            vm = VirtualMachine(
                session.bytecode_for(
                    module, dispatch="switch", superinstructions=False
                ),
                dispatch="switch",
            )
            vm.run_main()
            dispatches[name] = sum(vm.opcode_counts)
        largest = max(dispatches, key=dispatches.get)
        module = modules[largest]
        fused = session.bytecode_for(module)
        unfused = session.bytecode_for(
            module, dispatch="switch", superinstructions=False
        )

        def threaded_seconds():
            return VirtualMachine(fused).run_main().metrics.wall_time_seconds

        def switch_seconds():
            return (
                VirtualMachine(unfused, dispatch="switch")
                .run_main()
                .metrics.wall_time_seconds
            )

        threaded_seconds()  # warm the closure cache and the CPU
        switch_seconds()
        pairs = [
            (threaded_seconds(), switch_seconds()) for _ in range(SPEED_PAIRS)
        ]
        assert all(threaded > 0 for threaded, _ in pairs)
        ratio = statistics.median(switch / threaded for threaded, switch in pairs)
        assert ratio >= 2.0, (
            f"{largest}: switch-unfused vs threaded-fused, median of "
            f"{SPEED_PAIRS} alternating pairs: speedup {ratio:.2f}x < 2x "
            f"(pairs in ms: "
            + ", ".join(f"{t * 1e3:.0f}/{s * 1e3:.0f}" for t, s in pairs)
            + ")"
        )

    def test_fusion_shrinks_the_dynamic_instruction_stream(self):
        """Superinstructions must collapse a meaningful share of executed
        dispatches on the fusion-friendly workloads (~30% observed)."""
        name = "rbmap_checkpoint"
        session = CompilationSession()
        compiler = MlirCompiler(measurement_options("default"), session=session)
        source = benchmark_sources({name: DEFAULT_SIZES[name]})[name]
        module = compiler.compile(source).cfg_module

        def executed(**kwargs):
            vm = VirtualMachine(
                session.bytecode_for(module, dispatch="switch", **kwargs),
                dispatch="switch",
            )
            vm.run_main()
            return sum(vm.opcode_counts)

        fused = executed()
        unfused = executed(superinstructions=False)
        assert fused <= 0.8 * unfused, (fused, unfused)


class TestLargeSizeTier:
    def test_tier_registry(self):
        assert SIZE_TIERS["default"] is DEFAULT_SIZES
        assert SIZE_TIERS["large"] is LARGE_SIZES
        assert SIZE_TIERS["xlarge"] is XLARGE_SIZES
        assert set(LARGE_SIZES) == set(DEFAULT_SIZES)
        assert set(XLARGE_SIZES) == set(DEFAULT_SIZES)

    def test_large_tier_runs_under_the_vm(self):
        # One representative large benchmark end-to-end, and its cost must
        # dwarf the default tier's (the tier exists to scale the workload).
        name = "rbmap_checkpoint"
        session = CompilationSession()
        compiler = MlirCompiler(measurement_options("default"), session=session)

        def cost(sizes):
            source = benchmark_sources({name: sizes[name]})[name]
            module = compiler.compile(source).cfg_module
            result = VirtualMachine(session.bytecode_for(module)).run_main()
            return result.metrics.total_cost()

        assert cost(LARGE_SIZES) >= 5 * cost(DEFAULT_SIZES)


class TestXlargeSizeTier:
    def test_xlarge_tier_scales_past_large(self):
        name = "rbmap_checkpoint"
        session = CompilationSession()
        compiler = MlirCompiler(measurement_options("default"), session=session)

        def cost(sizes):
            source = benchmark_sources({name: sizes[name]})[name]
            module = compiler.compile(source).cfg_module
            result = VirtualMachine(session.bytecode_for(module)).run_main()
            return result.metrics.total_cost()

        assert cost(XLARGE_SIZES) >= 5 * cost(LARGE_SIZES)

    def test_xlarge_identity_across_engines(self):
        """One xlarge benchmark end-to-end on the tree oracle and both VM
        configurations: unchanged values, metrics and heap statistics.
        Uses the cheapest xlarge benchmark so the tree-walker stays
        affordable."""
        name = "filter"
        session = CompilationSession()
        compiler = MlirCompiler(measurement_options("default"), session=session)
        source = benchmark_sources({name: XLARGE_SIZES[name]})[name]
        module = compiler.compile(source).cfg_module
        tree = CfgInterpreter(module).run_main()
        threaded = VirtualMachine(session.bytecode_for(module)).run_main()
        switch = VirtualMachine(
            session.bytecode_for(
                module, dispatch="switch", superinstructions=False
            ),
            dispatch="switch",
        ).run_main()
        for vm_result in (threaded, switch):
            assert vm_result.value == tree.value
            assert vm_result.metrics.counts == tree.metrics.counts
            assert vm_result.heap_stats == tree.heap_stats
