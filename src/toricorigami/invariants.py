"""Signed lattice-point quantization and Duistermaat-Heckman data.

Both invariants weight each distinct polytope of an oriented template by the
sum of its entries' signs (``OrigamiTemplate._polytope_weights``): the virtual
quantization dimension adds the weight at every lattice point, and the DH
density at a point is the weighted count of the polytopes containing it.
Nonorientable templates are rejected: both need orientation signs.
"""

from __future__ import annotations

from ._value import Value, set_field
from .errors import NonIntegralError
from .exactgeom import _scaled, as_point
from .template import OrigamiTemplate


class QuantizationResult(Value):
    """Signed multiplicity per lattice point plus their total.

    ``per_point`` is None when the total was counted without the points.
    """

    __slots__ = _repr = ("per_point", "virtual_dimension")


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
    weights = T._polytope_weights
    # a vertex is the primitive integer ray (X, t), a lattice point iff t = 1
    bad = [
        P.vertices[vid]
        for P in T.polytopes
        for vid, (_, t) in enumerate(P._rays)
        if t != 1
    ]
    if bad:
        raise NonIntegralError(bad)
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


def dh_density(T: OrigamiTemplate, x) -> DHValue:
    """Signed number of polytopes containing x (closed containment).

    The ``generic`` flag is False when x lies on some polytope boundary, a
    polytope of weight 0 included; the density is still reported with the
    closed-containment convention.
    """
    weights = T._polytope_weights
    pt = as_point(x, T.dim)
    X, s = _scaled(pt)
    density = 0
    generic = True
    for P, weight in weights:
        slacks = P._slacks(X, s)
        if min(slacks) >= 0:
            density += weight
            if 0 in slacks:
                generic = False
    return DHValue(pt, density, generic)


def signed_volume(T: OrigamiTemplate) -> Fraction:
    """Total mass of the signed Lebesgue sum over the template polytopes; a
    polytope of weight 0 adds nothing, so its volume is not computed."""
    from fractions import Fraction

    return sum(
        (weight * P.volume() for P, weight in T._polytope_weights if weight),
        Fraction(0),
    )
