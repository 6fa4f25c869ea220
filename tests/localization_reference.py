"""Signed volume and signed lattice count of an oriented template, summed
over its fixed points only.

The paper shows that an oriented origami manifold is cobordant to the
disjoint union of its symplectic cut pieces.  Summed polytope by polytope,
the localization formulas of Brion and Lawrence have a term at every vertex.
At a vertex on a fused facet, the two fused polytopes agree near the facet:
both have that vertex with the same edge directions and opposite orientation
signs, so their two terms cancel.  What is left is a sum over
``fixed_points(T)``, the vertices on no fused facet.  For the volume this is
the Duistermaat-Heckman (Atiyah-Bott-Berline-Vergne) formula on the manifold
itself; for the count, Riemann-Roch localized at its fixed points.

At a fixed point v of sign s, with primitive edge directions w_1, ..., w_n
and a vector c with y_i = <c, w_i> nonzero:

    volume = (-1)^n / n!  sum  s |det(w)| <c, v>^n / (y_1 ... y_n)
    count  = (-1)^n       sum  s [t^n] (e^(<c, v> t) Td(-y_1 t) ... Td(-y_n t))
                                 / (y_1 ... y_n)

with Td(-z) = z / (e^z - 1) = sum_k B_k z^k / k!.  The count needs every
fixed point to be a lattice point with a unimodular cone.  Both sums equal
the template's signed invariants only when each fused pair agrees near its
facet; on a template where it does not, they differ.

The sums read only the fixed points, their edge directions and the
orientation signs, in Fraction arithmetic: nothing of the package's fan
(``HPolytope.volume``) or lattice count (``count_box``).
"""

import math
import random
from fractions import Fraction

from exact_reference import _det
from toricorigami.template import OrigamiTemplate, fixed_points, orientation_signs


def _bernoulli(m: int) -> tuple[Fraction, ...]:
    """B_0, ..., B_m with B_1 = -1/2: sum_{j <= k} C(k + 1, j) B_j = 0."""
    table = [Fraction(1)]
    for k in range(1, m + 1):
        table.append(-sum(math.comb(k + 1, j) * table[j] for j in range(k)) / (k + 1))
    return tuple(table)


BERNOULLI = _bernoulli(24)


def _terms(T: OrigamiTemplate):
    """(sign, vertex, edge directions w, |det(w)|) at each fixed point."""
    signs = orientation_signs(T)
    for fp in fixed_points(T):
        directions = T.polytopes[fp.polytope].edge_directions(fp.vertex)
        yield signs[fp.polytope], fp.vertex, directions, abs(_det(directions))


def _pairings(c, vertex, directions):
    ell = sum(Fraction(a) * b for a, b in zip(c, vertex))
    ys = [sum(a * b for a, b in zip(c, w)) for w in directions]
    if 0 in ys:
        raise ValueError(f"{c} is orthogonal to an edge direction {directions}")
    return ell, ys


def localized_volume(T: OrigamiTemplate, c) -> Fraction:
    """The signed volume as a sum over the fixed points of T."""
    n = T.dim
    total = Fraction(0)
    for sign, vertex, directions, det in _terms(T):
        ell, ys = _pairings(c, vertex, directions)
        total += sign * det * ell**n / math.prod(ys)
    return (-1) ** n * total / math.factorial(n)


def _times(series, factor, n):
    """The product of two power series, cut after degree n."""
    return [
        sum(series[j] * factor[k - j] for j in range(k + 1)) for k in range(n + 1)
    ]


def localized_count(T: OrigamiTemplate, c) -> Fraction:
    """The signed lattice count as a sum over the fixed points of T."""
    n = T.dim
    total = Fraction(0)
    for sign, vertex, directions, det in _terms(T):
        if det != 1 or any(Fraction(x).denominator != 1 for x in vertex):
            raise ValueError(f"fixed point {vertex} is not a unimodular lattice vertex")
        ell, ys = _pairings(c, vertex, directions)
        series = [ell**k / math.factorial(k) for k in range(n + 1)]
        for y in ys:
            todd = [BERNOULLI[k] * Fraction(y) ** k / math.factorial(k) for k in range(n + 1)]
            series = _times(series, todd, n)
        total += sign * series[n] / math.prod(ys)
    return (-1) ** n * total


def generic_vectors(T: OrigamiTemplate, seed, count: int = 3) -> list[tuple[int, ...]]:
    """``count`` seeded integer vectors pairing to nonzero with every edge
    direction at a fixed point of T."""
    directions = [w for _, _, ws, _ in _terms(T) for w in ws]
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        c = tuple(rng.randint(-50, 50) for _ in range(T.dim))
        if all(sum(a * b for a, b in zip(c, w)) for w in directions):
            out.append(c)
    return out
