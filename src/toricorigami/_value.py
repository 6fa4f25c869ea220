"""Immutable value records without ``dataclasses``.

Creating a frozen dataclass generates its methods from source text at import
time, which costs about a millisecond a class; these records share one set of
methods instead.

A record takes ``Value.__init__``, which stores its positional values in
``_repr`` order.  A subclass defines its own ``__init__`` only when
construction does more: a default or keywords (``Halfspace``, ``Location``,
``DelzantReport``, ``Fusion``), derived state (``HPolytope``,
``OrigamiTemplate``), or direct stores, twice as fast, in a record built per
fusion entry or per DH sample (``FacetAddress``, ``Fusion``, ``DHValue``).

A shown field may be a ``cached_property`` of a record without
``__slots__``: the constructor stores it when given, and the package builds
the record with :func:`derived_record`, which leaves it to be derived from
a hidden field on first read (``Halfspace.offset``,
``DelzantVertexRecord.vertex`` and ``.determinant``, ``CriticalFace.vertices``).
A hidden field may serve the package alone (``DelzantVertexRecord._walls``).
"""

import sys
from operator import attrgetter

# stores a field past the records' own __setattr__, which raises; a record
# without __slots__ may store all its fields with one vars(self).update(...)
set_field = object.__setattr__


def _shown(value) -> str:
    """``repr(value)``, or a note where repr refuses an int of too many digits."""
    try:
        return repr(value)
    except ValueError:
        return f"<a value of more than {sys.get_int_max_str_digits()} digits>"


def derived_record(cls, **fields):
    """A record of ``cls`` holding ``fields``, built without its constructor;
    a shown field left out is one its class derives on first read."""
    record = object.__new__(cls)
    vars(record).update(fields)
    return record


class Value:
    """Base of the package's immutable records.

    A subclass names the fields that ``repr`` shows (through :func:`_shown`),
    in constructor order, in ``_repr``, and the fields that equality and
    hashing use in ``_compare`` (default: ``_repr``).  Records are equal when
    they have the same class and equal compared fields, and hash as the
    tuple of those fields.
    """

    __slots__ = ()
    _repr = ()

    def __init__(self, *values):
        if len(values) != len(self._repr):
            raise TypeError(f"{type(self).__name__} takes {self._repr}, "
                            f"got {len(values)}")
        for name, value in zip(self._repr, values):
            set_field(self, name, value)

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
        fields = ", ".join(f"{name}={_shown(getattr(self, name))}" for name in self._repr)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
