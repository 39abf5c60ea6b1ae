"""Immutable records whose constructor checks or normalises its fields.

A subclass names its fields in ``__slots__``, in order, and stores them once,
from ``__init__``, through :meth:`FrozenRecord._set_fields`.  Every other
assignment or deletion raises :class:`AttributeError`.  ``repr``, equality and
hashing are those of a frozen dataclass: ``Name(field=value, ...)``, equal
only to a record of the same class with equal fields, hashed as the tuple of
the fields.  Records that need no check are plain ``NamedTuple`` classes.
"""

from __future__ import annotations

__all__ = ["FrozenRecord"]


class FrozenRecord:
    __slots__ = ()

    def _set_fields(self, *values: object) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        # copy and pickle rebuild the record through __init__, checks included
        return (type(self), self._values())
