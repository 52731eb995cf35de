"""The immutable base of the library's value classes.

A subclass names its fields, in constructor order, in ``_fields`` and writes
its own ``__init__``, which stores each field with ``object.__setattr__``.  The
base then behaves as a frozen dataclass does: a field cannot be assigned or
deleted, an instance equals only an instance of the same class with an equal
field tuple, it hashes as that tuple, it renders as ``Name(field=value, ...)``,
and copy and pickle rebuild it from its fields.
"""

from __future__ import annotations

from operator import attrgetter


class Frozen:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        fields = cls._fields
        if len(fields) > 1:
            values = attrgetter(*fields)
        elif fields:  # attrgetter returns the bare value for one name
            one = attrgetter(*fields)
            values = lambda obj: (one(obj),)
        else:
            values = lambda obj: ()
        cls._values = staticmethod(values)  # the field tuple of an instance

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __reduce__(self):
        # copy and pickle rebuild through __init__, whose parameters are the fields in order
        return self.__class__, self._values(self)

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values(self)))
        return f"{self.__class__.__qualname__}({body})"
