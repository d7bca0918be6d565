"""Plain value classes with dataclass-style equality, hash and repr.

A record's fields are its ``__slots__``, in order, save those whose name
starts with an underscore: such a private slot holds a value derived from
the fields, kept so that it is computed once, and no equality, hash, repr,
constructor or pickle reads it.  Two records are equal when they have the
same class and equal fields; the repr lists the fields
as keywords, ``CycleType(m=2, mult=(0, 1))``.  A :class:`Record` is mutable
and unhashable, and its constructor takes every field by keyword: a missing
or unknown field raises TypeError.  A :class:`FrozenRecord` validates in
its own ``__init__``, is set once, by :meth:`_init`, then refuses
assignment with AttributeError and hashes its fields.  These stand
in for ``dataclasses``, whose import (with ``inspect``) and class
processing cost more than the rest of the package at start-up.
"""

from operator import attrgetter


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))
        if not cls._fields:
            return
        getter = attrgetter(*cls._fields)
        if len(cls._fields) == 1:
            cls._fields_of = staticmethod(lambda record: (getter(record),))
        else:
            cls._fields_of = staticmethod(getter)

    def __init__(self, **fields):
        missing = [name for name in self._fields if name not in fields]
        if missing:
            raise TypeError(f"{type(self).__qualname__}() missing fields {missing}")
        unknown = sorted(fields.keys() - set(self._fields))
        if unknown:
            raise TypeError(f"{type(self).__qualname__}() got unknown fields {unknown}")
        for name in self._fields:
            setattr(self, name, fields[name])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields_of(self) == other._fields_of(other)

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={value!r}" for name, value in zip(self._fields, self._fields_of(self))
        )
        return f"{type(self).__qualname__}({fields})"


class FrozenRecord(Record):
    __slots__ = ()

    def _init(self, *values) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __hash__(self) -> int:
        return hash(self._fields_of(self))

    def __setattr__(self, name, _value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._fields_of(self)
