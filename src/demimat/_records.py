"""Value types that import no ``dataclasses`` and generate almost no code.

Each behaves as the matching dataclass would: built by position or
keyword, equal by value only to its own type, and shown as
``Name(field=...)``.  Creating a class costs one ``namedtuple`` call (which
compiles a one-line ``__new__``) at most, where ``dataclasses`` writes,
compiles and inspects several methods per class.  Two shapes:

- ``record(name, fields)`` is a ``namedtuple`` base for small read-only
  records, hashed by value.  A subclass declares ``__slots__ = ()`` and may
  validate in ``__new__``.
- ``Frozen`` is the base of a read-only, hashable value whose fields are
  plain instance attributes, which hot loops read, and into whose instance
  dict derived values are written (``cached_property``, ``core``'s lazily
  derived table values and ``core.per_table``).  Since assignment raises, a
  subclass's ``__init__`` stores its fields straight into ``self.__dict__``.

The fields of a ``Frozen`` are the parameters of its class's ``__init__``.
"""

from collections import namedtuple


def _same_type_eq(self, other):
    if type(other) is type(self):
        return tuple.__eq__(self, other)
    # NotImplemented would hand a tuple the comparison, which it answers by value.
    return False if isinstance(other, tuple) else NotImplemented


def record(typename: str, field_names: str, defaults=None) -> type:
    """A ``namedtuple`` base that, unlike a plain one, never equals a tuple
    or a record of another type."""
    base = namedtuple(typename, field_names, defaults=defaults)
    base.__eq__, base.__ne__, base.__hash__ = _same_type_eq, object.__ne__, tuple.__hash__
    return base


class Frozen:
    """Equality, hash and repr by the fields of a read-only value."""

    __slots__ = ()

    def __init_subclass__(cls):
        if "__init__" in vars(cls):  # else the fields are inherited
            code = cls.__init__.__code__
            cls._fields = code.co_varnames[1:code.co_argcount]

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __repr__(self):
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
