"""The immutable base of the library's value classes.

A subclass names its fields once, in constructor order, in ``_fields``, and
the defaults of its last fields, if any, in ``_defaults``.  Unless its body
writes its own ``__init__``, the base compiles one whose parameters are the
fields and which stores each with ``object.__setattr__``, as ``dataclasses``
and ``namedtuple`` do.  The base then behaves as a frozen dataclass does: a
field cannot be assigned or deleted, an instance equals only an instance of
the same class with an equal field tuple, it hashes as that tuple, it renders
as ``Name(field=value, ...)``, and copy and pickle rebuild it from its fields.
"""

from __future__ import annotations

from operator import attrgetter


def _compile_init(cls) -> None:
    """Give ``cls`` the ``__init__(self, <fields>)`` that stores each field."""
    fields = cls._fields
    if not all(map(str.isidentifier, fields)):  # a name that is not a str raises TypeError here too
        raise TypeError(f"{cls.__qualname__}._fields must be identifiers, got {fields!r}")
    body = "".join(f"\n    setattr(self, {name!r}, {name})" for name in fields) or "\n    pass"
    namespace = {"setattr": object.__setattr__}
    try:
        exec(f"def __init__(self, {', '.join(fields)}):{body}", namespace)
    except SyntaxError as exc:  # a keyword, a repeated name or "self"
        raise TypeError(f"{cls.__qualname__}._fields {fields!r}: {exc.msg}") from None
    init = namespace["__init__"]
    init.__defaults__ = vars(cls).get("_defaults")  # for the last fields, from the same class body
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__init__ = init


class Frozen:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        if "_fields" in vars(cls) and "__init__" not in vars(cls):
            _compile_init(cls)
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
