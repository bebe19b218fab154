"""Immutable records: slotted classes compared, hashed and printed by their fields.

A record class lists its fields in ``__slots__``; a slot whose name starts
with an underscore holds private state (a cached hash, say) and is not a
field. Assignment and deletion raise ``AttributeError``, so each class's
``__init__`` sets its fields through the slot descriptors (``__set__`` of
``Class.field``), which costs no Python-level ``__setattr__``. The base
supplies the rest from the field names: equality within one class, a hash,
``repr`` in the ``Name(field=value, ...)`` form, and pickling and copying,
which rebuild a record through its ``__init__``.
"""

from operator import attrgetter


class Record:
    """Base of the package's value classes: immutable, slotted, compared by field."""

    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # a class without its own __slots__ would give instances a __dict__
        if "__slots__" not in cls.__dict__:
            raise TypeError(f"record class {cls.__name__} declares no __slots__")
        own = (name for name in cls.__slots__ if not name.startswith("_"))
        fields = cls._fields + tuple(own)
        cls._fields = cls.__match_args__ = fields
        # the field values as one tuple, read at C level; attrgetter gives a
        # bare value for one name
        get = attrgetter(*fields) if fields else lambda record: ()
        cls._values = staticmethod(
            get if len(fields) != 1 else lambda record: (get(record),)
        )

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values(self)
