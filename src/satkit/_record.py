"""Frozen value records without ``dataclasses``.

A CLI command runs in a fresh interpreter, and ``dataclasses`` costs it the
``inspect`` import plus compiling each decorated class's methods. A
:class:`Record` subclass names its fields in ``_fields`` and gets what
``@dataclass(frozen=True)`` gave: construction by position or keyword, a
``Name(field=value, ...)`` repr, ``==`` and ``hash`` over the compared
fields between instances of one class, and ``AttributeError`` on assignment
or deletion. A subclass's own ``__init__`` sets fields with
``object.__setattr__``.
"""

from operator import attrgetter


class Record:
    _fields: tuple[str, ...]  # set by every subclass, in repr order
    _compared: tuple[str, ...]  # what == and hash read; defaults to _fields

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # A plain callable, not a method: self._key(obj) is the tuple of
        # obj's compared values (every record compares at least two).
        cls._key = attrgetter(*cls.__dict__.get("_compared", cls._fields))

    def __init__(self, *args, **kwargs):
        fields = self._fields
        values = dict(zip(fields, args), **kwargs)
        if len(args) + len(kwargs) != len(fields) or values.keys() != set(fields):
            raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(fields)}")
        for name in fields:
            object.__setattr__(self, name, values[name])

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
