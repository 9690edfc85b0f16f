"""Frozen records on ``__slots__``: the value classes of the library, each
holding what it was given or computed and nothing it can derive.

A record's fields are its ``__slots__``, at least two of them; its own
``__init__`` validates them and stores each with :data:`set_field`.  Only a
builder in a record's own module, such as ``barcodes._half_open_bar``, skips it.
Equality and hashing go by class and field values, the repr reads
``Name(field=value, ...)``, fields cannot be assigned or deleted, and copy
and pickle rebuild a record through its ``__init__``.
"""

from __future__ import annotations

from operator import attrgetter

set_field = object.__setattr__


class Record:
    __slots__ = ()

    def __init_subclass__(cls):
        cls._values = attrgetter(*cls.__slots__)
        cls.__match_args__ = cls.__slots__

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._values(self)))
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values(self)
