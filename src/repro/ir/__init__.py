"""Mini-MLIR: the SSA+regions IR infrastructure used by the reproduction.

Public surface::

    from repro.ir import (
        Operation, Block, Region, Value, Builder, InsertionPoint,
        IntegerType, FunctionType, BoxType, RegionType,
        IntegerAttr, StringAttr, SymbolRefAttr,
        verify, print_op, parse_module,
    )

The exports resolve lazily (PEP 562), so importing one submodule, such
as :mod:`repro.ir.core`, does not load the others (the textual parser
included).
"""

from ..lazy import lazy_exports

#: Exported name -> the module defining it.
_EXPORTS = {
    # attributes
    "ArrayAttr": ".attributes",
    "Attribute": ".attributes",
    "BoolAttr": ".attributes",
    "DictAttr": ".attributes",
    "FloatAttr": ".attributes",
    "IntegerAttr": ".attributes",
    "StringAttr": ".attributes",
    "SymbolRefAttr": ".attributes",
    "TypeAttr": ".attributes",
    "UnitAttr": ".attributes",
    "int_attr": ".attributes",
    # builder
    "Builder": ".builder",
    "InsertionPoint": ".builder",
    # core
    "Block": ".core",
    "BlockArgument": ".core",
    "IRMapping": ".core",
    "Operation": ".core",
    "OpResult": ".core",
    "Region": ".core",
    "Use": ".core",
    "Value": ".core",
    # dialect registry
    "Dialect": ".dialect",
    "ensure_dialects_loaded": ".dialect",
    "lookup_op": ".dialect",
    "register_op": ".dialect",
    "registered_dialects": ".dialect",
    "registered_ops": ".dialect",
    # dominance
    "DominanceAnalysis": ".dominance",
    "DominanceInfo": ".dominance",
    "verify_dominance": ".dominance",
    # parser / printer
    "ParseError": ".parser",
    "parse_module": ".parser",
    "Printer": ".printer",
    "print_module": ".printer",
    "print_op": ".printer",
    # traits
    "Allocates": ".traits",
    "ConstantLike": ".traits",
    "IsolatedFromAbove": ".traits",
    "IsTerminator": ".traits",
    "NoTerminatorRequired": ".traits",
    "Pure": ".traits",
    "SingleBlock": ".traits",
    "Symbol": ".traits",
    "SymbolTable": ".traits",
    "Trait": ".traits",
    "has_trait": ".traits",
    # types
    "BoxType": ".types",
    "DialectType": ".types",
    "FloatType": ".types",
    "FunctionType": ".types",
    "IndexType": ".types",
    "IntegerType": ".types",
    "NoneType": ".types",
    "RegionType": ".types",
    "Type": ".types",
    "box": ".types",
    "f64": ".types",
    "i1": ".types",
    "i8": ".types",
    "i16": ".types",
    "i32": ".types",
    "i64": ".types",
    "index": ".types",
    "none": ".types",
    "parse_type": ".types",
    "region": ".types",
    # verifier
    "VerificationError": ".verifier",
    "collect_errors": ".verifier",
    "verify": ".verifier",
}

__all__ = list(_EXPORTS)

__getattr__ = lazy_exports(globals(), _EXPORTS)
