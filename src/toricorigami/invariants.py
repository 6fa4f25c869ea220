"""Signed lattice-point quantization and Duistermaat-Heckman data.

Both invariants weight each polytope of an oriented template by its sign:
the virtual quantization dimension adds the sign at every lattice point of
every polytope, and the DH density at a point is the signed count of the
polytopes containing it.  Nonorientable templates are rejected, since both
quantities are defined only through orientation signs.
"""

from __future__ import annotations

from fractions import Fraction

from ._value import Value, set_field
from .errors import NonIntegralError
from .exactgeom import _scaled, as_point
from .template import OrigamiTemplate, orientation_signs


class QuantizationResult(Value):
    """Signed multiplicity per lattice point plus their total.

    ``per_point`` is None when the total was counted without the points.
    """

    __slots__ = _repr = ("per_point", "virtual_dimension")

    def __init__(self, per_point: dict | None, virtual_dimension: int):
        set_field(self, "per_point", per_point)
        set_field(self, "virtual_dimension", virtual_dimension)


class DHValue(Value):
    __slots__ = _repr = ("point", "density", "generic")

    def __init__(self, point: tuple, density: int, generic: bool):
        set_field(self, "point", point)
        set_field(self, "density", density)
        set_field(self, "generic", generic)


def quantize(T: OrigamiTemplate, points: bool = True) -> QuantizationResult:
    """Add each polytope's sign at each of its lattice points.

    Requires an orientation and integral vertices (the polytope-level
    sufficient condition for an integral form).  With ``points=False`` only
    the total is computed, from each polytope's lattice count, and
    ``per_point`` is None.
    """
    signs = orientation_signs(T)
    bad = [
        v
        for P in T.polytopes
        for v in P.vertices
        if any(c.denominator != 1 for c in v)
    ]
    if bad:
        raise NonIntegralError(bad)
    # a template repeats its polytopes: add up each distinct one's signs, then
    # count or scan it once; a weight of 0 still lists its points
    weights: dict = {}
    for sign, P in zip(signs, T.polytopes):
        weights[P] = weights.get(P, 0) + sign
    if not points:
        total = sum(weight * P.lattice_count() for P, weight in weights.items())
        return QuantizationResult(None, total)
    per: dict = {}
    total = 0
    for P, weight in weights.items():
        lattice = P.lattice_points()
        total += weight * len(lattice)
        for p in lattice:
            per[p] = per.get(p, 0) + weight
    return QuantizationResult(dict(sorted(per.items())), total)


def dh_density(T: OrigamiTemplate, x) -> DHValue:
    """Signed number of polytopes containing x (closed containment).

    The ``generic`` flag is False when x lies on some polytope boundary;
    the density is still reported with the closed-containment convention.
    """
    signs = orientation_signs(T)
    pt = as_point(x, T.dim)
    X, s = _scaled(pt)
    density = 0
    generic = True
    for sign, P in zip(signs, T.polytopes):
        slacks = P._slacks(X, s)
        if min(slacks) >= 0:
            density += sign
            if 0 in slacks:
                generic = False
    return DHValue(pt, density, generic)


def signed_volume(T: OrigamiTemplate) -> Fraction:
    """Total mass of the signed Lebesgue sum over the template polytopes."""
    signs = orientation_signs(T)
    return sum(
        (sign * P.volume() for sign, P in zip(signs, T.polytopes)),
        Fraction(0),
    )
