"""Shared polytopes and templates for the test suite."""

from fractions import Fraction

from toricorigami import OrigamiTemplate, make_polytope, pair, single


def triangle(k=1):
    """x1 >= 0, x2 >= 0, x1 + x2 <= k.  Facet 2 is the hypotenuse."""
    return make_polytope([((-1, 0), 0), ((0, -1), 0), ((1, 1), k)])


def bad_triangle():
    """x1 >= 0, x2 >= 0, x1 + 2 x2 <= 2: not Delzant at (0, 1)."""
    return make_polytope([((-1, 0), 0), ((0, -1), 0), ((1, 2), 2)])


def square(side=1):
    """[0, side]^2 with facets left(0), bottom(1), right(2), top(3)."""
    return make_polytope(
        [((-1, 0), 0), ((0, -1), 0), ((1, 0), side), ((0, 1), side)]
    )


def trapezoid(a):
    """Hirzebruch trapezoid x1 >= 0, x2 >= 0, x2 <= 1, x1 + x2 <= a.

    Facet 0 is the left vertical edge from (0,0) to (0,1).
    """
    return make_polytope(
        [((-1, 0), 0), ((0, -1), 0), ((0, 1), 1), ((1, 1), a)]
    )


def pentagon():
    """[0,2]^2 with the corner (2,2) cut off: a square cut at one corner."""
    return make_polytope(
        [((-1, 0), 0), ((0, -1), 0), ((1, 0), 2), ((0, 1), 2), ((1, 1), 3)]
    )


def hexagon():
    """[-1,1]^2 with corners (1,-1) and (-1,1) cut: square cut at two corners.

    Alternate facets 0, 2, 4 are pairwise disjoint, as are 1, 3, 5.
    """
    return make_polytope(
        [
            ((1, 0), 1),
            ((0, 1), 1),
            ((-1, 1), 1),
            ((-1, 0), 1),
            ((0, -1), 1),
            ((1, -1), 1),
        ]
    )


def segment(a=0, b=1):
    """[a, b] with facet 0 the left endpoint and facet 1 the right one."""
    return make_polytope([((-1,), -a), ((1,), b)])


def s4_template(k=1):
    """Two triangles glued along their hypotenuses."""
    tri = triangle(k)
    return OrigamiTemplate((tri, tri), (pair((0, 2), (1, 2)),))


def rp4_template(k=1):
    """One triangle with a single folded hypotenuse."""
    return OrigamiTemplate((triangle(k),), (single((0, 2)),))


def hirzebruch_pair():
    """Two Hirzebruch trapezoids fused along their left vertical edges."""
    return OrigamiTemplate(
        (trapezoid(2), trapezoid(3)), (pair((0, 0), (1, 0)),)
    )


def square_template(side=1):
    return OrigamiTemplate((square(side),))


def triangle_template(k=1):
    return OrigamiTemplate((triangle(k),))


def hexagon_cycle(count):
    """count copies of the hexagon fused in a cycle along alternate facets.

    Even cycles alternate two opposite facets; odd cycles walk the three
    pairwise-disjoint facets 0, 2, 4 (works when count % 3 != 1).
    """
    if count % 2 == 1 and count % 3 == 1:
        raise ValueError("odd cycle length must not be 1 mod 3")
    hexa = hexagon()
    fusions = []
    for i in range(count):
        j = (i + 1) % count
        facet = 2 * (i % 2) if count % 2 == 0 else 2 * (i % 3)
        fusions.append(pair((i, facet), (j, facet)))
    return OrigamiTemplate((hexa,) * count, tuple(fusions))


def path_of_segments(s, marks=0):
    """s identical segments fused into a path, with 0..2 marked free ends.

    Fusion i joins segments i and i+1 at their right ends (even i) or left
    ends (odd i); marks become single fusions at the free end slots.
    """
    seg = segment(0, 1)
    fusions = [
        pair((i, 1 - i % 2), (i + 1, 1 - i % 2)) for i in range(s - 1)
    ]
    if s == 1:
        free = [(0, 0), (0, 1)]
    else:
        # the last segment's fused end is 1 - (s-2) % 2, so s % 2 is free
        free = [(0, 0), (s - 1, s % 2)]
    if marks >= 1:
        fusions.append(single(free[0]))
    if marks == 2:
        fusions.append(single(free[1]))
    return OrigamiTemplate((seg,) * s, tuple(fusions))


def cycle_of_segments(s):
    """s identical segments fused in a cycle (s must be even)."""
    seg = segment(0, 1)
    fusions = [
        pair((i, 1 - i % 2), ((i + 1) % s, 1 - i % 2)) for i in range(s)
    ]
    return OrigamiTemplate((seg,) * s, tuple(fusions))


def trapezoid_chain():
    """Three trapezoids in a path: left edges fused, then slant edges.

    The third polytope extends the a=3 trapezoid past x1 = 0, so all three
    have different shapes; orientation signs alternate (1, -1, 1).
    """
    extended = make_polytope(
        [((-1, 0), 1), ((0, -1), 0), ((0, 1), 1), ((1, 1), 3)]
    )
    return OrigamiTemplate(
        (trapezoid(2), trapezoid(3), extended),
        (pair((0, 0), (1, 0)), pair((1, 3), (2, 3))),
    )


def fold_segments_template(a=1):
    """Two segments [0, a] fused at their right endpoints (the 1D fold)."""
    seg = segment(0, a)
    return OrigamiTemplate((seg, seg), (pair((0, 1), (1, 1)),))


def half_triangle():
    """The moment image of the folded 4-sphere: x1 + x2 <= 1/2."""
    return make_polytope([((-1, 0), 0), ((0, -1), 0), ((1, 1), Fraction(1, 2))])


def box(sides):
    """[0, s_1] x ... x [0, s_d]: facets x_i >= 0 (index i), then x_i <= s_i
    (index d + i)."""
    d = len(sides)
    lower = [(tuple(-(i == j) for j in range(d)), 0) for i in range(d)]
    upper = [(tuple(int(i == j) for j in range(d)), s) for i, s in enumerate(sides)]
    return make_polytope(lower + upper)


def cube(d, side=1):
    """[0, side]^d, facets indexed as in :func:`box`."""
    return box((side,) * d)


def simplex(d, k):
    """The k-dilated standard d-simplex; facet d is the slanted one."""
    lower = [(tuple(-(i == j) for j in range(d)), 0) for i in range(d)]
    return make_polytope(lower + [((1,) * d, k)])


def doubled(P, facet):
    """Two copies of P fused along the same facet."""
    return OrigamiTemplate((P, P), (pair((0, facet), (1, facet)),))


def doubled_cube(d):
    """[0, 1]^d doubled along the facet x_1 <= 1."""
    return doubled(cube(d), d)


def doubled_simplex(d, k):
    """The k-dilated standard d-simplex doubled along its slanted facet."""
    return doubled(simplex(d, k), d)
