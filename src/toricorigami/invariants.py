"""Signed lattice-point quantization and Duistermaat-Heckman data.

Both invariants weight each distinct polytope of an oriented template by the
sum of its entries' signs (``OrigamiTemplate._polytope_weights``): the virtual
quantization dimension adds the weight at every lattice point, and the DH
density at a point is the weighted count of the polytopes containing it.
Nonorientable templates are rejected: both need orientation signs.
"""

from __future__ import annotations

from functools import cached_property
from operator import mul

from ._value import Value, derived_record
from .errors import NonIntegralError
from .exactgeom import _integers, _scaled, _sum_ratios, _vertex, as_point
from .template import OrigamiTemplate


class QuantizationResult(Value):
    """Signed multiplicity per lattice point plus their total.

    ``per_point`` is None when the total was counted without the points.
    """

    __slots__ = _repr = ("per_point", "virtual_dimension")


class DHValue(Value):
    """The DH density at a point, and whether the point is generic.

    A value of :func:`dh_density` derives its point, the Fractions X / s,
    from the integers (X, s) when first read.
    """

    _repr = ("point", "density", "generic")

    @cached_property
    def point(self) -> tuple:
        return _vertex(self._X, self._s)


def quantize(T: OrigamiTemplate, points: bool = True) -> QuantizationResult:
    """Add each polytope's sign at each of its lattice points.

    Requires an orientation and integral vertices (the polytope-level
    sufficient condition for an integral form).  With ``points=False`` only
    the total is computed, from each polytope's lattice count, and
    ``per_point`` is None.
    """
    weights = T._polytope_weights
    # a vertex is the primitive integer ray (X, t), a lattice point iff t = 1;
    # tested once per distinct polytope, listed per entry for the message
    if any(t != 1 for P, _ in weights for _, t in P._rays):
        raise NonIntegralError(
            P.vertices[vid]
            for P in T.polytopes
            for vid, (_, t) in enumerate(P._rays)
            if t != 1
        )
    # a weight of 0 adds nothing to the total but still lists its points
    if not points:
        total = sum(weight * P.lattice_count() for P, weight in weights if weight)
        return QuantizationResult(None, total)
    per: dict = {}
    total = 0
    for P, weight in weights:
        lattice = P.lattice_points()
        total += weight * len(lattice)
        for p in lattice:
            per[p] = per.get(p, 0) + weight
    return QuantizationResult(dict(sorted(per.items())), total)


def dh_density(T: OrigamiTemplate, x, s=1) -> DHValue:
    """Signed number of polytopes containing x / s (closed containment).

    ``s`` is a positive integer.  An x of ints of the template's dimension
    is read as it is, anything else through ``Fraction``; each distinct
    polytope's integer rows are read at x / s until the first negative
    slack.  The ``generic`` flag is False when x / s lies on some polytope
    boundary, a polytope of weight 0 included; the density is still reported
    with the closed-containment convention.
    """
    weights = T._polytope_weights
    if type(s) is not int:  # the sampler passes an int: skip the read
        (s,) = _integers((s,), "denominator s")
    if s <= 0:
        raise ValueError("denominator s must be positive")
    X = tuple(x)
    if len(X) != T.dim or not all(type(c) is int for c in X):
        from fractions import Fraction

        X, s = _scaled(as_point([Fraction(c) / s for c in X], T.dim))
    density = 0
    generic = True
    for P, weight in weights:
        boundary = False
        for p, n in P._integer_rows:
            slack = p * s - sum(map(mul, n, X))
            if slack <= 0:
                if slack:
                    break
                boundary = True
        else:
            density += weight
            if boundary:
                generic = False
    return derived_record(DHValue, _X=X, _s=s, density=density, generic=generic)


def _signed_volume(T: OrigamiTemplate) -> tuple[int, int]:
    """:func:`signed_volume` as (p, q) in lowest terms, q > 0."""
    return _sum_ratios(
        (weight * p, q)
        for P, weight in T._polytope_weights if weight
        for p, q in (P._volume,)
    )


def signed_volume(T: OrigamiTemplate) -> Fraction:
    """Total mass of the signed Lebesgue sum over the template polytopes; a
    polytope of weight 0 adds nothing, so its volume is not computed."""
    from fractions import Fraction

    return Fraction(*_signed_volume(T))
