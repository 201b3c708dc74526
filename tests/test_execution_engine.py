"""Tests for the register-based bytecode execution engine.

Covers the bytecode compilers (one unit test per operation kind, for both
the CFG-form MLIR input and the λrc input), the VM's differential
equivalence against the tree-walking oracles (results, execution metrics
and heap statistics must be *identical* — the figure suite is diffed), the
session-level bytecode cache and the engine-selection plumbing.
"""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend.pipeline import (
    BaselineCompiler,
    CompilationSession,
    MlirCompiler,
    PipelineOptions,
    run_baseline,
    run_mlir,
)
from repro.dialects import arith, cf, lp
from repro.dialects.builtin import ModuleOp
from repro.dialects.func import CallOp, FuncOp, GetGlobalOp, ReturnOp, SetGlobalOp
from repro.eval.testsuite import regression_programs
from repro.interp.bytecode import (
    OP_BADCALL,
    OP_BIGINT,
    OP_CALL,
    OP_CASE,
    OP_CAST,
    OP_CMP,
    OP_COND_BR,
    OP_CONST,
    OP_CONSTRUCT,
    OP_DEC,
    OP_GETGLOBAL,
    OP_GETLABEL,
    OP_INC,
    OP_INT,
    OP_JMP,
    OP_PAP,
    OP_PAPEXTEND,
    OP_PROJ,
    OP_RESET,
    OP_RET,
    OP_REUSE,
    OP_RTCALL,
    OP_SELECT,
    OP_SETGLOBAL,
    OP_SWITCH,
    OP_UNREACHABLE,
    OP_BINARITH,
    OP_PROJ_CALL,
    OP_PROJ_PROJ,
    DISPATCH_MODES,
    FUSED_OPCODE_BASES,
    FUSION_RULES,
    OPCODE_NAMES,
    OPCODES,
    BytecodeFunction,
    BytecodeProgram,
    VirtualMachine,
    compile_cfg_module,
    compile_rc_program,
    fuse_code,
    fuse_program,
)
from repro.interp.cfg_interp import CfgInterpreter, CfgInterpreterError
from repro.interp.rc_interp import RcInterpreter
from repro.ir import Builder, FunctionType, InsertionPoint
from repro.ir.core import Block
from repro.ir.types import box, i1, i64
from repro.lambda_pure import ir as rc_ir
from repro.resilience.budgets import ExecutionBudget
from repro.runtime import RuntimeError_, python_value

REGRESSION = regression_programs()
REGRESSION_BY_NAME = {p.name: p for p in REGRESSION}


def assert_identical_runs(tree, vm):
    """The engine contract: same value, metrics, heap stats and output."""
    assert vm.value == tree.value
    assert vm.metrics.counts == tree.metrics.counts
    assert vm.heap_stats == tree.heap_stats
    assert vm.output == tree.output


# ---------------------------------------------------------------------------
# Bytecode compilation units: the CFG flavour
# ---------------------------------------------------------------------------


def cfg_function(inputs=(), results=(box,), name="f"):
    module = ModuleOp()
    func = FuncOp(name, FunctionType(list(inputs), list(results)))
    module.append(func)
    return module, func, Builder(InsertionPoint.at_end(func.entry_block))


def opcodes(bytecode: BytecodeProgram, name: str = "f"):
    return [ins[0] for ins in bytecode.functions[name].code]


class TestCfgCompilation:
    def test_int_and_return(self):
        module, func, builder = cfg_function()
        value = builder.create(lp.IntOp, 7)
        builder.create(ReturnOp, [value.result()])
        compiled = compile_cfg_module(module)
        assert compiled.functions["f"].code == [(OP_INT, 0, 7), (OP_RET, 0)]

    def test_bigint(self):
        module, func, builder = cfg_function()
        value = builder.create(lp.BigIntOp, str(10**30))
        builder.create(ReturnOp, [value.result()])
        compiled = compile_cfg_module(module)
        assert compiled.functions["f"].code[0] == (OP_BIGINT, 0, 10**30)

    def test_construct_getlabel_project(self):
        module, func, builder = cfg_function()
        field = builder.create(lp.IntOp, 3)
        ctor = builder.create(lp.ConstructOp, 1, [field.result()])
        empty = builder.create(lp.ConstructOp, 2, [])
        label = builder.create(lp.GetLabelOp, ctor.result())
        proj = builder.create(lp.ProjectOp, ctor.result(), 0)
        builder.create(ReturnOp, [proj.result()])
        code = compile_cfg_module(module).functions["f"].code
        assert code[1] == (OP_CONSTRUCT, 1, 1, (0,), "alloc_ctor")
        assert code[2] == (OP_CONSTRUCT, 2, 2, (), "move")
        assert code[3] == (OP_GETLABEL, 3, 1)
        assert code[4] == (OP_PROJ, 4, 1, 0)

    def test_rc_and_reuse_ops(self):
        module, func, builder = cfg_function(inputs=(box,))
        argument = func.entry_block.arguments[0]
        builder.create(lp.IncOp, argument, 2)
        builder.create(lp.DecOp, argument, 1)
        token = builder.create(lp.ResetOp, argument)
        reused = builder.create(lp.ReuseOp, token.result(), 4, [argument])
        builder.create(ReturnOp, [reused.result()])
        code = compile_cfg_module(module).functions["f"].code
        assert code[0] == (OP_INC, 0, 2)
        assert code[1] == (OP_DEC, 0, 1)
        assert code[2] == (OP_RESET, 1, 0)
        assert code[3] == (OP_REUSE, 2, 1, 4, (0,))

    def test_closures(self):
        module, func, builder = cfg_function(inputs=(box,), name="g")
        helper = FuncOp("callee", FunctionType([box, box], [box]))
        inner = Builder(InsertionPoint.at_end(helper.entry_block))
        inner.create(ReturnOp, [helper.entry_block.arguments[0]])
        module.append(helper)
        argument = func.entry_block.arguments[0]
        pap = builder.create(lp.PapOp, "callee", [argument])
        missing = builder.create(lp.PapOp, "nowhere", [])
        extended = builder.create(lp.PapExtendOp, pap.result(), [argument])
        builder.create(ReturnOp, [extended.result()])
        code = compile_cfg_module(module).functions["g"].code
        assert code[0] == (OP_PAP, 1, "callee", 2, (0,))
        assert code[1] == (OP_PAP, 2, "nowhere", None, ())
        assert code[2] == (OP_PAPEXTEND, 3, 1, (0,))

    def test_call_resolution(self):
        module, func, builder = cfg_function(inputs=(box,))
        callee = FuncOp("known", FunctionType([box], [box]))
        inner = Builder(InsertionPoint.at_end(callee.entry_block))
        inner.create(ReturnOp, [callee.entry_block.arguments[0]])
        module.append(callee)
        declaration = FuncOp(
            "lean_nat_add", FunctionType([box, box], [box]),
            create_entry_block=False,
        )
        module.append(declaration)
        argument = func.entry_block.arguments[0]
        direct = builder.create(CallOp, "known", [argument], [box])
        runtime = builder.create(
            CallOp, "lean_nat_add", [argument, argument], [box]
        )
        builder.create(CallOp, "missing_fn", [], [])
        builder.create(ReturnOp, [runtime.result()])
        compiled = compile_cfg_module(module)
        code = compiled.functions["f"].code
        assert code[0] == (OP_CALL, 1, compiled.functions["known"], (0,))
        assert code[1] == (OP_RTCALL, 2, "lean_nat_add", (0, 0))
        assert code[2] == (OP_BADCALL, "missing_fn")
        assert "lean_nat_add" not in compiled.functions  # declarations skipped

    def test_globals(self):
        module, func, builder = cfg_function(inputs=(box,))
        argument = func.entry_block.arguments[0]
        builder.create(SetGlobalOp, "slot", argument)
        loaded = builder.create(GetGlobalOp, "slot", box)
        builder.create(ReturnOp, [loaded.result()])
        code = compile_cfg_module(module).functions["f"].code
        assert code[0] == (OP_SETGLOBAL, "slot", 0)
        assert code[1] == (OP_GETGLOBAL, 1, "slot")

    def test_arith(self):
        module, func, builder = cfg_function(results=(i64,))
        one = builder.create(arith.ConstantOp, 1)
        two = builder.create(arith.ConstantOp, 2)
        added = builder.create(arith.AddIOp, one.result(), two.result())
        compared = builder.create(arith.CmpIOp, "slt", one.result(), two.result())
        chosen = builder.create(
            arith.SelectOp, compared.result(), added.result(), one.result()
        )
        cast = builder.create(arith.TruncIOp, chosen.result(), i64)
        builder.create(ReturnOp, [cast.result()])
        code = compile_cfg_module(module).functions["f"].code
        assert code[0] == (OP_CONST, 0, 1)
        assert code[1] == (OP_CONST, 1, 2)
        assert code[2][0] == OP_BINARITH and code[2][1:2] + code[2][3:] == (2, 0, 1)
        assert code[2][2](4, 5) == 9  # resolved addi callable
        assert code[3][0] == OP_CMP and code[3][2](1, 2) == 1
        assert code[4] == (OP_SELECT, 4, 3, 2, 0)
        assert code[5] == (OP_CAST, 5, 4)

    def test_branches_and_switch(self):
        module, func, builder = cfg_function(inputs=(i1,), results=(i64,))
        condition = func.entry_block.arguments[0]
        then_block = Block([i64])
        exit_block = Block([i64])
        other_block = Block()
        for block in (then_block, exit_block, other_block):
            func.body.add_block(block)
        one = builder.create(arith.ConstantOp, 1)
        builder.create(
            cf.CondBranchOp, condition, then_block, exit_block,
            [one.result()], [one.result()],
        )
        then_builder = Builder(InsertionPoint.at_end(then_block))
        then_builder.create(
            cf.SwitchOp, then_block.arguments[0], other_block,
            [3, 5], [exit_block, exit_block],
        )
        exit_builder = Builder(InsertionPoint.at_end(exit_block))
        exit_builder.create(ReturnOp, [exit_block.arguments[0]])
        other_builder = Builder(InsertionPoint.at_end(other_block))
        other_builder.create(cf.UnreachableOp)
        code = compile_cfg_module(module).functions["f"].code
        condbr = code[1]
        assert condbr[0] == OP_COND_BR and condbr[1] == 0
        switch_pc, ret_pc = condbr[2], condbr[5]
        assert code[switch_pc][0] == OP_SWITCH
        assert code[switch_pc][2] == {3: ret_pc, 5: ret_pc}
        unreachable_pc = code[switch_pc][3]
        assert code[unreachable_pc][0] == OP_UNREACHABLE
        assert code[ret_pc][0] == OP_RET

    def test_unconditional_branch_forwards_arguments(self):
        module, func, builder = cfg_function(results=(i64,))
        target = Block([i64])
        func.body.add_block(target)
        one = builder.create(arith.ConstantOp, 41)
        builder.create(cf.BranchOp, target, [one.result()])
        target_builder = Builder(InsertionPoint.at_end(target))
        target_builder.create(ReturnOp, [target.arguments[0]])
        code = compile_cfg_module(module).functions["f"].code
        constant_reg = code[0][1]
        assert code[1][0] == OP_JMP
        assert code[1][2] == (constant_reg,)  # forwards the constant ...
        assert len(code[1][3]) == 1           # ... into the block argument


# ---------------------------------------------------------------------------
# Bytecode compilation units: the λrc flavour
# ---------------------------------------------------------------------------


def rc_program(body, params=(), name="main", extra=()):
    program = rc_ir.Program()
    program.add_function(rc_ir.Function(name, list(params), body))
    for fn in extra:
        program.add_function(fn)
    return program


class TestRcCompilation:
    def test_let_literal_ret(self):
        body = rc_ir.Let("x", rc_ir.Lit(5), rc_ir.Ret("x"))
        compiled = compile_rc_program(rc_program(body))
        assert compiled.flavor == "rc"
        assert compiled.functions["main"].code == [(OP_INT, 0, 5), (OP_RET, 0)]

    def test_every_expression_kind(self):
        body = rc_ir.Let(
            "x", rc_ir.Lit(1),
            rc_ir.Let(
                "c", rc_ir.Ctor(2, ["x"]),
                rc_ir.Let(
                    "p", rc_ir.Proj(0, "c"),
                    rc_ir.Let(
                        "t", rc_ir.Reset("c"),
                        rc_ir.Let(
                            "r", rc_ir.Reuse("t", 3, ["p"]),
                            rc_ir.Let(
                                "s", rc_ir.Call("lean_nat_add", ["x", "x"]),
                                rc_ir.Let(
                                    "f", rc_ir.PAp("helper", ["s"]),
                                    rc_ir.Let(
                                        "a", rc_ir.App("f", ["r"]),
                                        rc_ir.Ret("a"),
                                    ),
                                ),
                            ),
                        ),
                    ),
                ),
            ),
        )
        helper = rc_ir.Function("helper", ["u", "v"], rc_ir.Ret("u"))
        compiled = compile_rc_program(rc_program(body, extra=[helper]))
        kinds = [ins[0] for ins in compiled.functions["main"].code]
        assert kinds == [
            OP_INT, OP_CONSTRUCT, OP_PROJ, OP_RESET, OP_REUSE,
            OP_RTCALL, OP_PAP, OP_PAPEXTEND, OP_RET,
        ]
        pap = compiled.functions["main"].code[6]
        assert pap[2] == "helper" and pap[3] == 2

    def test_inc_dec_and_case(self):
        body = rc_ir.Inc(
            "n",
            rc_ir.Dec(
                "n",
                rc_ir.Case(
                    "n",
                    alts=[rc_ir.CaseAlt(0, "zero", rc_ir.Ret("n"))],
                    default=rc_ir.Unreachable(),
                ),
                count=1,
            ),
            count=2,
        )
        compiled = compile_rc_program(rc_program(body, params=("n",)))
        code = compiled.functions["main"].code
        assert code[0] == (OP_INC, 0, 2)
        assert code[1] == (OP_DEC, 0, 1)
        assert code[2][0] == OP_CASE and code[2][1] == 0
        assert code[code[2][2][0]][0] == OP_RET
        assert code[code[2][3]][0] == OP_UNREACHABLE

    def test_join_point_becomes_jump(self):
        body = rc_ir.JDecl(
            "j", ["a"], rc_ir.Ret("a"),
            rc_ir.Let("x", rc_ir.Lit(9), rc_ir.Jmp("j", ["x"])),
        )
        compiled = compile_rc_program(rc_program(body))
        code = compiled.functions["main"].code
        jump = next(ins for ins in code if ins[0] == OP_JMP)
        assert code[jump[1]][0] == OP_RET
        assert jump[2] != jump[3]  # argument register copied into the param slot

    def test_shadowing_after_join_declaration(self):
        # let x := 1; jdecl j() := ret x; let x := 2; jmp j()
        # The tree-walker restores the captured environment on the jump; the
        # compiler must alpha-rename the second x onto a fresh register so
        # the join body still reads 1.
        body = rc_ir.Let(
            "x", rc_ir.Lit(1),
            rc_ir.JDecl(
                "j", [], rc_ir.Ret("x"),
                rc_ir.Let("x", rc_ir.Lit(2), rc_ir.Jmp("j", [])),
            ),
        )
        program = rc_program(body)
        tree = RcInterpreter(program).run_main()
        vm = VirtualMachine(compile_rc_program(program)).run_main()
        assert tree.value == vm.value == 1

    def test_self_recursive_join_loop(self):
        # jdecl loop(i, acc) := case i of 0 => ret acc | _ => jmp loop(i-1,…)
        body = rc_ir.JDecl(
            "loop", ["i", "acc"],
            rc_ir.Case(
                "i",
                alts=[rc_ir.CaseAlt(0, "zero", rc_ir.Ret("acc"))],
                default=rc_ir.Let(
                    "one", rc_ir.Lit(1),
                    rc_ir.Let(
                        "i2", rc_ir.Call("lean_nat_sub", ["i", "one"]),
                        rc_ir.Let(
                            "acc2", rc_ir.Call("lean_nat_add", ["acc", "i"]),
                            rc_ir.Jmp("loop", ["i2", "acc2"]),
                        ),
                    ),
                ),
            ),
            rc_ir.Let(
                "n", rc_ir.Lit(10),
                rc_ir.Let("z", rc_ir.Lit(0), rc_ir.Jmp("loop", ["n", "z"])),
            ),
        )
        program = rc_program(body)
        tree = RcInterpreter(program).run_main()
        vm = VirtualMachine(compile_rc_program(program)).run_main()
        assert_identical_runs(tree, vm)
        assert vm.value == 55


# ---------------------------------------------------------------------------
# VM error behaviour
# ---------------------------------------------------------------------------


class TestVmErrors:
    def test_unknown_call_raises_flavor_error(self):
        body = rc_ir.Let("x", rc_ir.Call("nowhere", []), rc_ir.Ret("x"))
        with pytest.raises(RuntimeError_, match="unknown function"):
            VirtualMachine(compile_rc_program(rc_program(body))).run_main()

    def test_pap_of_unknown_function_raises(self):
        body = rc_ir.Let("x", rc_ir.PAp("nowhere", []), rc_ir.Ret("x"))
        with pytest.raises(RuntimeError_, match="pap of unknown function"):
            VirtualMachine(compile_rc_program(rc_program(body))).run_main()

    def test_unreachable_raises(self):
        module, func, builder = cfg_function(name="main")
        builder.create(cf.UnreachableOp)
        with pytest.raises(CfgInterpreterError, match="cf.unreachable"):
            VirtualMachine(compile_cfg_module(module)).run_main()

    def test_case_without_alternative_raises(self):
        body = rc_ir.Case("n", alts=[rc_ir.CaseAlt(7, "seven", rc_ir.Ret("n"))])
        program = rc_program(body, params=("n",))
        vm = VirtualMachine(compile_rc_program(program))
        from repro.runtime import Scalar

        with pytest.raises(RuntimeError_, match="no alternative"):
            vm.run_main([Scalar(3)])

    def test_arity_mismatch_raises(self):
        body = rc_ir.Ret("a")
        vm = VirtualMachine(compile_rc_program(rc_program(body, params=("a",))))
        with pytest.raises(RuntimeError_, match="expected 1"):
            vm.run_main([])


# ---------------------------------------------------------------------------
# Differential: the VM against the tree-walking oracles
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _compiled_cfg(name: str, variant: str):
    options = (
        PipelineOptions()
        if variant == "default"
        else PipelineOptions.variant(variant)
    )
    return MlirCompiler(options).compile(REGRESSION_BY_NAME[name].source).cfg_module


@functools.lru_cache(maxsize=None)
def _compiled_rc(name: str, rc_mode: str):
    compiler = BaselineCompiler(rc_mode=rc_mode)
    return compiler.compile(REGRESSION_BY_NAME[name].source).rc_program


@pytest.mark.parametrize(
    "program", REGRESSION, ids=[p.name for p in REGRESSION]
)
def test_every_testsuite_program_cfg_vm_matches_tree(program):
    module = _compiled_cfg(program.name, "default")
    tree = CfgInterpreter(module).run_main()
    vm = VirtualMachine(compile_cfg_module(module)).run_main()
    assert_identical_runs(tree, vm)


@pytest.mark.parametrize(
    "program", REGRESSION, ids=[p.name for p in REGRESSION]
)
def test_every_testsuite_program_rc_vm_matches_tree(program):
    rc = _compiled_rc(program.name, "naive")
    tree = RcInterpreter(rc).run_main()
    vm = VirtualMachine(compile_rc_program(rc)).run_main()
    assert_identical_runs(tree, vm)


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(REGRESSION_BY_NAME)),
    variant=st.sampled_from(["default", "rgn", "none", "rc-opt+reuse"]),
)
def test_hypothesis_cfg_differential(name, variant):
    module = _compiled_cfg(name, variant)
    tree = CfgInterpreter(module).run_main()
    vm = VirtualMachine(compile_cfg_module(module)).run_main()
    assert_identical_runs(tree, vm)


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(sorted(REGRESSION_BY_NAME)),
    rc_mode=st.sampled_from(["naive", "opt", "opt+reuse"]),
)
def test_hypothesis_rc_differential(name, rc_mode):
    rc = _compiled_rc(name, rc_mode)
    tree = RcInterpreter(rc).run_main()
    vm = VirtualMachine(compile_rc_program(rc)).run_main()
    assert_identical_runs(tree, vm)


# ---------------------------------------------------------------------------
# Engine selection plumbing
# ---------------------------------------------------------------------------

TINY = "def main : Nat := 20 + 22"


class TestEngineSelection:
    def test_run_mlir_engines_agree(self):
        vm = run_mlir(TINY, PipelineOptions(execution_engine="vm"))
        tree = run_mlir(TINY, PipelineOptions(execution_engine="tree"))
        assert_identical_runs(tree, vm)

    def test_run_baseline_engines_agree(self):
        vm = run_baseline(TINY, execution_engine="vm")
        tree = run_baseline(TINY, execution_engine="tree")
        assert_identical_runs(tree, vm)

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown execution engine"):
            MlirCompiler(PipelineOptions(execution_engine="jit"))
        with pytest.raises(ValueError, match="unknown execution engine"):
            BaselineCompiler(execution_engine="jit")

    def test_session_caches_bytecode_per_module(self):
        session = CompilationSession()
        compiler = MlirCompiler(PipelineOptions(), session=session)
        module = compiler.compile(TINY).cfg_module
        first = session.bytecode_for(module)
        second = session.bytecode_for(module)
        assert first is second
        assert session.stats["bytecode_hits"] == 1
        assert session.stats["bytecode_misses"] == 1
        other = compiler.compile("def main : Nat := 2").cfg_module
        assert session.bytecode_for(other) is not first
        assert session.stats["bytecode_misses"] == 2

    def test_cli_execution_engine_flag(self, tmp_path, capsys):
        from repro.__main__ import main

        path = tmp_path / "p.lean"
        path.write_text(TINY)
        assert main([str(path), "--execution-engine", "vm"]) == 0
        vm_out = capsys.readouterr().out
        assert main([str(path), "--execution-engine", "tree"]) == 0
        tree_out = capsys.readouterr().out
        assert vm_out == tree_out
        assert "result: 42" in vm_out

    def test_harness_engines_produce_identical_figures(self):
        from repro.eval.figures import figure9_report
        from repro.eval.harness import EvaluationHarness

        sizes = {"filter": {"length": 8}, "digits": {"reps": 2, "span": 5}}
        vm_report = figure9_report(EvaluationHarness(sizes))
        tree_report = figure9_report(
            EvaluationHarness(sizes, execution_engine="tree")
        )
        assert vm_report == tree_report


class TestArithSemanticsTable:
    """``arith.BINARY_FNS`` / ``CMP_FNS`` are the one definition of arith
    semantics: the folder and the tree-walkers look them up by name, the VM
    holds the same callables."""

    def test_binary_edge_values(self):
        cases = {
            "arith.addi": [((-7, 2), -5)],
            "arith.subi": [((-7, 2), -9)],
            "arith.muli": [((-7, 2), -14)],
            # Signed division truncates toward zero, like C.
            "arith.divsi": [((-7, 2), -3), ((7, -2), -3), ((-7, -2), 3)],
            # The remainder takes the dividend's sign.
            "arith.remsi": [((-7, 2), -1), ((7, -2), 1), ((-7, -2), -1)],
            "arith.andi": [((-7, 2), 0), ((6, 3), 2)],
            "arith.ori": [((-7, 2), -5), ((4, 1), 5)],
            "arith.xori": [((-7, 2), -5), ((6, 3), 5)],
        }
        assert set(cases) == set(arith.BINARY_FNS)
        for name, rows in cases.items():
            for (lhs, rhs), expected in rows:
                assert arith.BINARY_FNS[name](lhs, rhs) == expected, name
                assert arith.evaluate_binary(name, lhs, rhs) == expected, name

    def test_division_by_zero_messages(self):
        for name, message in (
            ("arith.divsi", "division by zero in arith.divsi"),
            ("arith.remsi", "remainder by zero in arith.remsi"),
        ):
            with pytest.raises(ZeroDivisionError) as info:
                arith.evaluate_binary(name, 5, 0)
            assert str(info.value) == message

    def test_unknown_names_raise_key_error(self):
        with pytest.raises(KeyError) as info:
            arith.evaluate_binary("arith.shli", 1, 2)
        assert info.value.args == ("not a foldable binary op: arith.shli",)
        with pytest.raises(KeyError) as info:
            arith.evaluate_cmpi("lt", 1, 2)
        assert info.value.args == ("lt",)

    def test_cmp_predicates(self):
        # Operands (-5, 3), (-4, 4) and (3, 3): signed order, then the
        # unsigned predicates, which compare magnitudes (|-5| > 3).
        expected = {
            "eq": (0, 0, 1), "ne": (1, 1, 0),
            "slt": (1, 1, 0), "sle": (1, 1, 1),
            "sgt": (0, 0, 0), "sge": (0, 0, 1),
            "ult": (0, 0, 0), "ule": (0, 1, 1),
            "ugt": (1, 0, 0), "uge": (1, 1, 1),
        }
        assert tuple(expected) == arith.CMP_PREDICATES == tuple(arith.CMP_FNS)
        for predicate, row in expected.items():
            got = tuple(
                arith.evaluate_cmpi(predicate, lhs, rhs)
                for lhs, rhs in ((-5, 3), (-4, 4), (3, 3))
            )
            assert got == row, predicate

    def test_vm_holds_the_table_callables(self):
        module, func, builder = cfg_function(results=(i64,))
        one = builder.create(arith.ConstantOp, 1)
        builder.create(arith.RemSIOp, one.result(), one.result())
        compared = builder.create(arith.CmpIOp, "ult", one.result(), one.result())
        builder.create(ReturnOp, [compared.result()])
        code = compile_cfg_module(module).functions["f"].code
        assert code[1][2] is arith.BINARY_FNS["arith.remsi"]
        assert code[2][2] is arith.CMP_FNS["ult"]


class TestSwitchDispatchTable:
    def test_tree_walker_builds_dispatch_tables(self):
        source = REGRESSION_BY_NAME["match_multi_scrutinee"].source
        module = MlirCompiler().compile(source).cfg_module
        interpreter = CfgInterpreter(module)
        result = interpreter.run_main()
        assert result.value == 150
        for op, table in interpreter._switch_tables.items():
            assert table == dict(zip(op.case_values, op.case_dests))


# ---------------------------------------------------------------------------
# VM 2.0: superinstruction fusion, dispatch modes, the explicit call stack
# ---------------------------------------------------------------------------

_EQ = arith.CMP_FNS["eq"]
_LT = arith.CMP_FNS["slt"]
_ADD = arith.BINARY_FNS["arith.addi"]

#: How each base opcode of a fusion rule can fail inside a fused chain.
_FAULT_MODES = {
    "const": (), "int": (),
    "cmp": ("bad-operand",), "binarith": ("bad-operand",),
    "cond_br": ("budget",), "switch": ("budget",),
    "call": ("arity", "budget"),
    "getlabel": ("non-constructor",),
    "proj": ("non-constructor", "freed-field"),
    "inc": ("freed",), "dec": ("freed",),
    "rtcall": ("unknown-builtin",),
}


class _ChainAssembler:
    """Hand-assembles a cfg-flavour ``main(p)`` that runs the base opcodes
    of one fusion rule back to back, wired so the rule's dataflow match
    holds (each base consumes the registers the bases before it produced),
    with the base at one position made to fail.

    Layout: set-up; a ``cast`` barrier no rule fuses across; the chain;
    then tails ``@T`` / ``@F`` that publish the chain's results as globals
    and return 111 / 222 (a chain that does not branch runs into ``@T``).
    """

    BARRIER = (OP_CAST, 1, 0)

    def __init__(self, bases, fault, moves):
        self.num_regs = 2  # 0: the parameter p; 1: the barrier's result
        self.setup, self.chain, self.outs = [], [], []
        self.extras = []
        self.budget_steps = None
        for position, base in enumerate(bases):
            mode = fault[1] if fault and fault[0] == position else None
            self.chain.append(self._instance(base, mode, moves))

    def reg(self):
        self.num_regs += 1
        return self.num_regs - 1

    def emit(self, *ins):
        self.setup.append(ins)
        return ins[1]

    def cell(self, value):
        """A heap constructor with one (scalar) field: an object RC ops
        really count, and free when they drop it to zero."""
        field = self.emit(OP_INT, self.reg(), value)
        return self.emit(OP_CONSTRUCT, self.reg(), 1, (field,), "alloc_ctor")

    def out(self):
        self.outs.append(self.reg())
        return self.outs[-1]

    def _instance(self, base, fault, moves):
        outs = self.outs
        if base == "const":
            return (OP_CONST, self.out(), 2)
        if base == "int":
            return (OP_INT, self.out(), 7)
        if base in ("cmp", "binarith"):
            lhs = outs[-2] if len(outs) >= 2 else 0
            rhs = outs[-1] if outs else self.emit(OP_CONST, self.reg(), 5)
            if fault:
                # Poison the right operand where it is produced, so the
                # registers (and the rule's match) stay the same.
                producer = self.chain if outs else self.setup
                producer[-1] = producer[-1][:2] + (None,)
            if base == "cmp":
                return (OP_CMP, self.out(), _LT, lhs, rhs)
            return (OP_BINARITH, self.out(), _ADD, lhs, rhs)
        if base in ("cond_br", "switch"):
            if fault:
                self.budget_steps = 1  # the entry charge, then this one
            flag = outs[-1]
            if base == "switch":
                return (OP_SWITCH, flag, {1: "@T"}, "@F")
            moved = ((0,), (self.out(),)) if moves else ((), ())
            return (OP_COND_BR, flag, "@T") + moved + ("@F", (), ())
        if base == "getlabel":
            if fault:
                source = self.emit(OP_CONST, self.reg(), 9)
            else:
                q = self.emit(OP_CONST, self.reg(), 5)
                small = self.emit(OP_CMP, self.reg(), _LT, 0, q)
                one = self.emit(OP_CONSTRUCT, self.reg(), 1, (), "move")
                two = self.emit(OP_CONSTRUCT, self.reg(), 2, (), "move")
                source = self.emit(OP_SELECT, self.reg(), small, one, two)
            return (OP_GETLABEL, self.out(), source)
        if base == "proj":
            field = self.cell(3)
            source = self.emit(
                OP_CONSTRUCT, self.reg(), 1, (field,), "alloc_ctor"
            )
            if fault == "non-constructor":
                source = self.emit(OP_CONST, self.reg(), 9)
            elif fault == "freed-field":
                self.emit(OP_DEC, field, 1)
            return (OP_PROJ, self.out(), source, 0)
        if base == "call":
            callee = BytecodeFunction(f"callee{len(self.extras)}", 1)
            callee.num_regs = 1
            callee.code = [(OP_RET, 0)]
            if fault == "arity":
                callee.num_params = callee.num_regs = 2
            elif fault == "budget":
                self.budget_steps = 1
            self.extras.append(callee)
            args = (outs[-1] if outs else 0,)
            return (OP_CALL, self.out(), callee, args)
        if base in ("inc", "dec"):
            value = self.cell(4)
            if fault:
                self.emit(OP_DEC, value, 1)
            return (OP_INC if base == "inc" else OP_DEC, value, 1)
        if base == "rtcall":
            value = self.emit(OP_INT, self.reg(), 4)
            name = "lean_no_such_builtin" if fault else "lean_nat_add"
            return (OP_RTCALL, self.out(), name, (value, value))
        raise AssertionError(f"no chain instance for {base}")

    def program(self):
        head = self.setup + [self.BARRIER] + self.chain
        publish = [(OP_SETGLOBAL, f"r{reg}", reg) for reg in self.outs]
        tails = {}
        code = list(head)
        for label, value in (("@T", 111), ("@F", 222)):
            tails[label] = len(code)
            result = self.reg()
            code += publish + [(OP_INT, result, value), (OP_RET, result)]
        code = [
            tuple(
                tails.get(x, x) if isinstance(x, str) else
                {k: tails.get(v, v) for k, v in x.items()}
                if isinstance(x, dict) else x
                for x in ins
            )
            for ins in code
        ]
        program = BytecodeProgram("cfg")
        fn = BytecodeFunction("main", 1)
        fn.num_regs = self.num_regs
        fn.code = code
        program.functions["main"] = fn
        for extra in self.extras:
            program.functions[extra.name] = extra
        return program


def _outcome(vm, run):
    """Everything a run lets an observer see, minus dispatch frequencies."""
    try:
        result = run()
        status = ("ok", result.value)
    except Exception as error:  # the error itself is the observable
        status = ("error", type(error).__name__, str(error))
    published = {
        name: value if value is None or isinstance(value, int)
        else repr(python_value(value))
        for name, value in vm.globals.items()
    }
    return (status, dict(vm.metrics.counts), vm.ctx.heap.stats.as_dict(),
            published)


def _fault_cases():
    for rule in FUSION_RULES:
        bases = FUSED_OPCODE_BASES[rule.name]
        faults = [None] + [
            (position, mode)
            for position, base in enumerate(bases)
            for mode in _FAULT_MODES[base]
        ]
        for fault in faults:
            for moves in (False, True) if bases[-1] == "cond_br" else (False,):
                label = "ok" if fault is None else f"{fault[0]}-{fault[1]}"
                yield pytest.param(
                    rule, fault, moves,
                    id=f"{rule.name}-{label}" + ("-moves" if moves else ""),
                )


class TestSuperinstructions:
    """Fusion is invisible: for every rule and every way each base of its
    expansion can fail, fused code gives exactly what unfused code gives
    (value or error, metrics, heap statistics, stores) in both dispatch
    modes, on both edges of a branch."""

    @pytest.mark.parametrize("rule,fault,moves", list(_fault_cases()))
    def test_fused_equals_unfused(self, rule, fault, moves):
        code = {op.name: op.code for op in OPCODES}[rule.name]
        for p in (1, 9):
            reference = None
            for fused in (False, True):
                for dispatch in DISPATCH_MODES:
                    chain = _ChainAssembler(
                        FUSED_OPCODE_BASES[rule.name], fault, moves
                    )
                    program = chain.program()
                    if fused:
                        fuse_program(program)
                        main = program.functions["main"].code
                        start = main.index(chain.BARRIER) + 1
                        assert main[start][0] == code, main
                    budget = None
                    if chain.budget_steps is not None:
                        budget = ExecutionBudget(max_steps=chain.budget_steps)
                    vm = VirtualMachine(program, dispatch=dispatch, budget=budget)
                    outcome = _outcome(
                        vm, lambda: vm.run_main([p], check_heap=False)
                    )
                    if fault is not None:
                        assert outcome[0][0] == "error", outcome
                    if reference is None:
                        reference = outcome
                    assert outcome == reference, (fused, dispatch, p)

    def test_fused_opcode_bases_decompose_chains(self):
        assert FUSED_OPCODE_BASES["getlabel_cmp_br"] == (
            "getlabel", "const", "cmp", "cond_br"
        )
        assert FUSED_OPCODE_BASES["const_cmp_br"] == ("const", "cmp", "cond_br")
        assert FUSED_OPCODE_BASES["proj3"] == ("proj",) * 3
        assert FUSED_OPCODE_BASES["proj4"] == ("proj",) * 4
        assert FUSED_OPCODE_BASES["dec_inc"] == ("dec", "inc")
        base_names = set(OPCODE_NAMES.values()) - set(FUSED_OPCODE_BASES)
        for bases in FUSED_OPCODE_BASES.values():
            assert set(bases) <= base_names

    def test_fused_facts_are_derived_from_the_bases(self):
        by_name = {op.name: op for op in OPCODES}
        for name, bases in FUSED_OPCODE_BASES.items():
            fused = by_name[name]
            assert fused.charges == sum(
                (by_name[base].charges for base in bases), ()
            )
            assert len(fused.operands) == sum(
                len(by_name[base].operands) for base in bases
            )
        assert by_name["getlabel_cmp_br"].pc_slots == [10, 13]
        assert by_name["getlabel_switch"].table_slots == [4]
        assert by_name["construct"].charges == (4,)  # the category operand

    def test_jump_target_blocks_fusion(self):
        code = [
            (OP_CMP, 2, _EQ, 0, 1),
            (OP_COND_BR, 2, 3, (), (), 5, (), ()),
            (OP_JMP, 1, (), ()),  # unreachable, but makes pc 1 a target
            (OP_CONST, 3, 1), (OP_RET, 3),
            (OP_CONST, 3, 0), (OP_RET, 3),
        ]
        fused, sites = fuse_code(code)
        assert sites == 0
        assert fused == code

    def test_fusion_rules_are_declarative_and_unique(self):
        pairs = [(rule.first, rule.second) for rule in FUSION_RULES]
        assert len(pairs) == len(set(pairs))
        names = set(OPCODE_NAMES.values())
        for rule in FUSION_RULES:
            assert {rule.first, rule.second, rule.name} <= names

    def test_generated_code_names_its_opcode_in_tracebacks(self):
        import traceback

        chain = _ChainAssembler(("proj", "proj"), (1, "non-constructor"), False)
        program = fuse_program(chain.program())
        with pytest.raises(CfgInterpreterError) as info:
            VirtualMachine(program).run_main([1], check_heap=False)
        text = "".join(traceback.format_tb(info.value.__traceback__))
        assert 'File "<bytecode:proj_proj>"' in text
        assert "projection from non-constructor" in text  # the source line


class TestFreedFieldErrorPath:
    """``heap.inc`` of an already-freed field raises inside ``proj``: every
    VM configuration must stop charging where the tree-walker does (``proj``
    charged, its ``rc`` not, nothing after it)."""

    @staticmethod
    def module(consumer):
        module, func, builder = cfg_function(name="main")
        callee = FuncOp("callee", FunctionType([box], [box]))
        inner = Builder(InsertionPoint.at_end(callee.entry_block))
        inner.create(ReturnOp, [callee.entry_block.arguments[0]])
        module.append(callee)
        scalar = builder.create(lp.IntOp, 3)
        field = builder.create(lp.ConstructOp, 1, [scalar.result()])
        ctor = builder.create(lp.ConstructOp, 1, [field.result()])
        builder.create(lp.DecOp, field.result(), 1)  # the ctor's field dies
        projected = builder.create(lp.ProjectOp, ctor.result(), 0)
        result = projected
        if consumer == "proj":
            result = builder.create(lp.ProjectOp, ctor.result(), 0)
        elif consumer == "call":
            result = builder.create(CallOp, "callee", [projected.result()], [box])
        builder.create(ReturnOp, [result.result()])
        return module

    @pytest.mark.parametrize(
        "consumer,fused_opcode",
        [(None, None), ("proj", OP_PROJ_PROJ), ("call", OP_PROJ_CALL)],
        ids=["proj", "proj_proj", "proj_call"],
    )
    def test_counts_match_the_tree_walker(self, consumer, fused_opcode):
        module = self.module(consumer)
        tree = CfgInterpreter(module)
        with pytest.raises(RuntimeError_, match="inc of a freed object"):
            tree.run_main(check_heap=False)
        expected = dict(tree.metrics.counts)
        # The dec's rc and main's call: proj's rc, and the callee's call,
        # never come.
        assert (expected["proj"], expected["rc"], expected["call"]) == (1, 1, 1)
        for fuse in (False, True):
            program = compile_cfg_module(module, fuse=fuse)
            if fused_opcode is not None:
                assert (fused_opcode in opcodes(program, "main")) == fuse
            for dispatch in DISPATCH_MODES:
                vm = VirtualMachine(program, dispatch=dispatch)
                with pytest.raises(RuntimeError_, match="inc of a freed object"):
                    vm.run_main(check_heap=False)
                assert vm.metrics.counts == expected, (fuse, dispatch)


class TestExplicitCallStack:
    def test_100k_deep_recursion_under_default_recursion_limit(self):
        import sys

        source = (
            "def countdown (n : Nat) : Nat :=\n"
            "  if n == 0 then 0\n"
            "  else\n"
            "    let r := countdown (n - 1);\n"
            "    r + 1\n"
            "\n"
            "def main : Nat := countdown 100000"
        )
        before = sys.getrecursionlimit()
        result = run_mlir(source, PipelineOptions())
        assert result.value == 100000
        assert sys.getrecursionlimit() == before

    def test_dispatch_modes_and_fusion_agree_on_regression_programs(self):
        for name in ("match_multi_scrutinee", "list_fold_sum"):
            program = REGRESSION_BY_NAME.get(name)
            if program is None:
                continue
            runs = [
                run_mlir(program.source, PipelineOptions(
                    dispatch=dispatch, superinstructions=fusion,
                ))
                for dispatch in DISPATCH_MODES
                for fusion in (True, False)
            ]
            for run in runs[1:]:
                assert_identical_runs(runs[0], run)


class TestVm2SessionCache:
    def test_session_cache_keys_on_dispatch_and_fusion(self):
        session = CompilationSession()
        compiler = MlirCompiler(PipelineOptions(), session=session)
        module = compiler.compile(TINY).cfg_module
        misses0 = session.stats["bytecode_misses"]
        hits0 = session.stats["bytecode_hits"]
        base = session.bytecode_for(module)
        assert session.bytecode_for(module) is base  # hit
        switch = session.bytecode_for(module, dispatch="switch")
        assert switch is not base  # miss: its own cache row
        unfused = session.bytecode_for(module, superinstructions=False)
        assert unfused is not base and unfused is not switch
        assert base.fused and switch.fused and not unfused.fused
        assert session.bytecode_for(module, dispatch="switch") is switch
        assert session.bytecode_for(
            module, superinstructions=False
        ) is unfused
        assert session.stats["bytecode_misses"] == misses0 + 3
        assert session.stats["bytecode_hits"] == hits0 + 3


class TestVm2Cli:
    RECURSIVE = (
        "def f (n : Nat) : Nat := if n == 0 then 5 else f (n - 1)\n"
        "def main : Nat := f 10"
    )

    def test_exec_stats_reports_fused_names(self, tmp_path, capsys):
        from repro.__main__ import main

        path = tmp_path / "p.lean"
        path.write_text(self.RECURSIVE)
        assert main([str(path), "--exec-stats"]) == 0
        out = capsys.readouterr().out
        assert any(name in out for name in FUSED_OPCODE_BASES)

    def test_exec_stats_unfused_decomposes_to_base_opcodes(
        self, tmp_path, capsys
    ):
        from repro.__main__ import main

        path = tmp_path / "p.lean"
        path.write_text(self.RECURSIVE)
        assert main([str(path), "--exec-stats", "--unfused"]) == 0
        out = capsys.readouterr().out
        assert not any(name in out for name in FUSED_OPCODE_BASES)

    def test_unfused_requires_exec_stats(self, tmp_path, capsys):
        from repro.__main__ import main

        path = tmp_path / "p.lean"
        path.write_text(self.RECURSIVE)
        assert main([str(path), "--unfused"]) == 2
