"""Plain record classes: structural ``==`` and a dataclass-style ``repr``.

Both CLIs run as one process per file, so whatever they build at import
time they build on every run.  ``@dataclass`` generates and ``exec``\\ s
``__init__``/``__repr__``/``__eq__`` source for every class it decorates,
and importing :mod:`dataclasses` loads :mod:`inspect`, :mod:`ast`,
:mod:`dis` and :mod:`tokenize`.  The records of the modules the CLIs
import therefore write their ``__init__`` by hand and take ``==`` and
``repr`` from :class:`Record`.  ``tests/test_records.py`` checks each one
against a ``dataclasses`` twin.
"""


class Record:
    """Base of a plain record class (``@dataclass`` behaviour).

    A record's fields are the parameters of its ``__init__``, in order,
    which stores each under its own name; they are collected into
    ``_fields`` when the class is created.  ``==`` compares the fields of
    two instances of the same class, ``repr`` reads
    ``Name(field=value, ...)``, and instances are unhashable.
    """

    __slots__ = ()
    _fields: tuple = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        init = vars(cls).get("__init__")
        if init is not None:
            code = init.__code__
            cls._fields = code.co_varnames[
                1 : code.co_argcount + code.co_kwonlyargcount
            ]

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        fields = self._fields
        return [getattr(self, name) for name in fields] == [
            getattr(other, name) for name in fields
        ]

    __hash__ = None

    def __repr__(self):
        fields = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self._fields
        )
        return f"{type(self).__qualname__}({fields})"


class FrozenRecord(Record):
    """A :class:`Record` that rejects assignment and hashes by its fields
    (``@dataclass(frozen=True)``).  Its ``__init__`` sets the fields with
    ``object.__setattr__``."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self):
        return hash(tuple(getattr(self, name) for name in self._fields))
