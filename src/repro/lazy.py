"""Lazy module attributes (PEP 562) for the modules the CLIs import.

A package ``__init__`` that imports every submodule makes importing any
one of them load all of them.  Instead, such a module lists what it
exports and where from, and a module-level ``__getattr__`` imports the
defining module on first use::

    _EXPORTS = {"run_mlir": ".pipeline"}
    __all__ = list(_EXPORTS)
    __getattr__ = lazy_exports(globals(), _EXPORTS)

so ``from repro.backend import run_mlir`` keeps working.
"""

import importlib


def lazy_exports(namespace: dict, exports: dict):
    """A module ``__getattr__`` for the module whose globals are ``namespace``.

    ``exports`` maps each name to the module defining it, as a relative
    import (``".pipeline"``, ``"..interp.cfg_interp"``).  A resolved value is
    stored in ``namespace``, so each name is looked up once.
    """
    module_name = namespace["__name__"]
    package = namespace["__package__"]

    def __getattr__(name):
        source = exports.get(name)
        if source is None:
            raise AttributeError(
                f"module {module_name!r} has no attribute {name!r}"
            )
        value = getattr(importlib.import_module(source, package), name)
        namespace[name] = value
        return value

    return __getattr__
