"""Parity of the plain record classes with the ``@dataclass`` they replace.

The modules both CLIs import define their records as ordinary classes on
:class:`repro.record.Record` (see that module for why).  For every such
class this test builds a twin with :func:`dataclasses.make_dataclass` from
the class's ``__init__`` signature and frozen flag, and checks that the
two agree on ``repr``, ``==``, hashability and assignment.
"""

import dataclasses
import importlib
import inspect

import pytest

from repro.lean import ast as lean_ast
from repro.record import FrozenRecord, Record

#: Every module defining records, the oracles loaded on first use included.
MODULES = (
    "repro.__main__",
    "repro.opt",
    "repro.interp.rc_interp",
    "repro.interp.cfg_interp",
    "repro.interp.reference",
    "repro.rewrite.registry",
)


def record_classes():
    """Every concrete record; family bases such as ``Expr`` are abstract."""
    for module in MODULES:
        importlib.import_module(module)
    importlib.import_module("repro.rewrite.registry").ensure_passes_loaded()
    found, todo = set(), [Record]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in found:
                found.add(sub)
                todo.append(sub)
    leaves = [cls for cls in found if not cls.__subclasses__()]
    return sorted(leaves, key=lambda cls: (cls.__module__, cls.__qualname__))


RECORDS = record_classes()


def init_params(cls):
    if cls.__init__ is object.__init__:
        return []
    return list(inspect.signature(cls.__init__).parameters.values())[1:]


def twin_of(cls):
    """The ``@dataclass`` the class replaces."""
    fields = []
    if issubclass(cls, lean_ast.Expr):
        # Set by the type checker: compared, but neither passed nor shown.
        fields.append(
            ("inferred_type", object,
             dataclasses.field(default=None, init=False, repr=False))
        )
    for param in init_params(cls):
        if param.default is inspect.Parameter.empty:
            fields.append((param.name, object))
        else:
            fields.append((param.name, object, dataclasses.field(default=param.default)))
    # A class's own __repr__ wins over the generated one, as with @dataclass.
    namespace = {"__repr__": vars(cls)["__repr__"]} if "__repr__" in vars(cls) else {}
    return dataclasses.make_dataclass(
        cls.__name__,
        fields,
        frozen=issubclass(cls, FrozenRecord),
        namespace=namespace,
    )


def sample_args(cls):
    # Strings: hashable, and distinct per field.
    return [f"{param.name}-value" for param in init_params(cls)]


def test_the_cli_records_are_all_found():
    names = {cls.__name__ for cls in RECORDS}
    for expected in (
        "PipelineOptions", "CrashBundle", "GreedyRewriteResult",
        "PassStatistics", "PassOption", "RegisteredPass", "PassInvocation",
        "RunResult", "RefCtor", "Token", "ApplyOutcome", "FunType", "Match",
        "PWild", "Unreachable", "CompilationArtifacts", "RcOptReport",
    ):
        assert expected in names
    assert len(RECORDS) >= 63


@pytest.mark.parametrize(
    "cls", RECORDS, ids=lambda cls: f"{cls.__module__}.{cls.__qualname__}"
)
class TestRecordParity:
    def test_fields_follow_init(self, cls):
        assert cls._fields == tuple(p.name for p in init_params(cls))

    def test_repr(self, cls):
        args = sample_args(cls)
        assert repr(cls(*args)) == repr(twin_of(cls)(*args))

    def test_equality(self, cls):
        twin = twin_of(cls)
        args = sample_args(cls)
        assert cls(*args) == cls(*args)
        assert twin(*args) == twin(*args)
        assert (cls(*args) == object()) is (twin(*args) == object()) is False
        for index in range(len(args)):
            other = list(args)
            other[index] = "different"
            assert (cls(*args) == cls(*other)) is (twin(*args) == twin(*other))
            assert cls(*args) != cls(*other)

    def test_hashability(self, cls):
        twin = twin_of(cls)
        args = sample_args(cls)

        def hashable(value):
            try:
                hash(value)
            except TypeError:
                return False
            return True

        assert hashable(cls(*args)) is hashable(twin(*args))
        if hashable(cls(*args)):
            assert hash(cls(*args)) == hash(cls(*args))

    def test_assignment(self, cls):
        twin = twin_of(cls)
        args = sample_args(cls)
        for name in cls._fields:
            real, double = cls(*args), twin(*args)
            frozen = issubclass(cls, FrozenRecord)
            for instance in (real, double):
                if frozen:
                    with pytest.raises(AttributeError):
                        setattr(instance, name, "changed")
                else:
                    setattr(instance, name, "changed")
                    assert getattr(instance, name) == "changed"


def test_inferred_type_takes_part_in_expr_equality():
    typed, untyped = lean_ast.Var("x"), lean_ast.Var("x")
    typed.inferred_type = lean_ast.NatType()
    assert typed != untyped
    assert "inferred_type" not in repr(typed)


def test_default_factories_give_fresh_containers():
    from repro.backend.options import PipelineOptions
    from repro.interp.metrics import DEFAULT_COSTS, ExecutionMetrics
    from repro.lambda_pure.ir import Program

    first, second = Program(), Program()
    assert first.functions == {} and first.functions is not second.functions
    metrics = ExecutionMetrics()
    assert metrics.costs == DEFAULT_COSTS and metrics.costs is not DEFAULT_COSTS
    assert PipelineOptions() == PipelineOptions()
    assert PipelineOptions(rc_mode="opt") != PipelineOptions()
