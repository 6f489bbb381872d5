"""Frozen value records without ``dataclasses``.

A CLI command runs in a fresh interpreter, and ``dataclasses`` costs it the
``inspect`` import plus compiling each decorated class's methods. A
:class:`Record` subclass's fields are its own class annotations, in order
(``_fields``); class attributes without an annotation are not fields. It
gets what ``@dataclass(frozen=True)`` gave: construction by position or
keyword, a ``Name(field=value, ...)`` repr, ``==`` and ``hash`` over the
compared fields between instances of one class, and ``AttributeError`` on
assignment or deletion. A subclass's own ``__init__`` sets fields with
``object.__setattr__``.

The repr prints a ``frozenset`` field's elements sorted by their repr. A
set of strings iterates in hash order, which changes with the process's
string-hash seed, so the built-in repr would differ between runs.
"""

from operator import attrgetter


def _field_repr(value) -> str:
    if isinstance(value, frozenset) and value:
        return f"frozenset({{{', '.join(sorted(map(repr, value)))}}})"
    return repr(value)


class Record:
    _fields: tuple[str, ...]  # the subclass's annotated names, in repr order
    _compared: tuple[str, ...]  # what == and hash read; defaults to _fields

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # The class's own namespace: a class without annotations has none
        # there, and cls.__annotations__ could answer with a base's.
        fields = tuple(cls.__dict__.get("__annotations__", ()))
        if not fields:
            raise TypeError(f"{cls.__name__} declares no fields: annotate them in the class body")
        # _key is a plain callable, not a method: self._key(obj) is the tuple
        # of obj's compared values (every record compares at least two).
        cls._fields, cls._key = fields, attrgetter(*cls.__dict__.get("_compared", fields))

    def __init__(self, *args, **kwargs):
        fields = self._fields
        values = dict(zip(fields, args), **kwargs)
        if len(args) + len(kwargs) != len(fields) or values.keys() != set(fields):
            raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(fields)}")
        for name in fields:
            object.__setattr__(self, name, values[name])

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={_field_repr(getattr(self, name))}" for name in self._fields)
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
