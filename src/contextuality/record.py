"""Immutable value records, written out rather than generated at import.

A record's ``__slots__`` name its fields in constructor order, and its
``__init__`` stores them with ``_fill``.  Records of one class compare and
hash by their fields, print as ``Name(field=value, ...)``, refuse assignment
and deletion, and pickle and copy through the constructor.
"""

from __future__ import annotations

_set = object.__setattr__


class Record:
    __slots__ = ()

    def _fill(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            _set(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({inner})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


class Failure(Record):
    """One failed condition of a verdict, with a concrete counterexample."""

    __slots__ = ("condition", "detail")

    def __init__(self, condition: str, detail: str):
        self._fill(condition, detail)

    def __str__(self) -> str:
        return f"[{self.condition}] {self.detail}"
