"""Signed sums as computed before the per-template table of distinct polytopes.

``toricorigami.invariants`` sums ``signed_volume`` and ``dh_density`` once
per distinct polytope, weighted by the sum of its entries' orientation signs
(``OrigamiTemplate._polytope_weights``).  These are the bodies they replaced,
which walk every template entry with its own sign, unchanged apart from
their imports, so that the differential tests compare the new code with an
independent one.
"""

from fractions import Fraction

from toricorigami.exactgeom import _scaled, as_point
from toricorigami.invariants import DHValue
from toricorigami.template import OrigamiTemplate, orientation_signs


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
