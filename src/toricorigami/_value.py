"""Immutable value records without ``dataclasses``.

Creating a frozen dataclass generates its methods from source text at import
time, which costs about a millisecond a class; these records share one set of
methods instead.
"""

from operator import attrgetter

# subclass constructors store their fields with this (their own __setattr__
# raises); a subclass without __slots__, whose __dict__ holds cached_property
# values, may store them all with one vars(self).update(...)
set_field = object.__setattr__


class Value:
    """Base of the package's immutable records.

    A subclass names the fields that ``repr`` shows, in constructor order, in
    ``_repr``, and the fields that equality and hashing use in ``_compare``
    (default: ``_repr``).  Records are equal when they have the same class
    and equal compared fields, and hash as the tuple of those fields.
    """

    __slots__ = ()
    _repr = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._key = attrgetter(*cls.__dict__.get("_compare", cls._repr))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            key = self._key
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._repr)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
