"""Ehrhart oracle: lattice counts of dilates against volume and reciprocity.

For a lattice polytope P of dimension d, L(k) = |kP ∩ Z^d| is a polynomial
in k of degree d, with leading coefficient vol(P) and constant term 1, and
Ehrhart–Macdonald reciprocity gives L(−k) = (−1)^d |int(kP) ∩ Z^d| (Beck &
Robins, *Computing the Continuous Discretely*, ch. 3-4).  A Delzant polytope
with integral vertices has primitive integer normals and integer offsets, so
the interior of kP is the system with each offset lowered by 1.

0P is a point, which ``make_polytope`` refuses as not full-dimensional, so
the counts are taken at k = 1…d+2: d+1 of them fix the polynomial, the last
checks that the degree is at most d, and L(0) and L(−k) are its
extrapolations.
"""

import math
from fractions import Fraction

import pytest

from factories import (
    box,
    cube,
    doubled_cube,
    doubled_simplex,
    fold_segments_template,
    hirzebruch_pair,
    s4_template,
    simplex,
    square_template,
    trapezoid_chain,
)
from toricorigami import OrigamiTemplate, _latticescan, make_polytope, pair
from toricorigami.invariants import quantize, signed_volume
from toricorigami.template import orientation_signs


def dilate(P, k):
    return make_polytope([(hs.normal, k * hs.offset) for hs in P.halfspaces])


def newton(values):
    """Forward differences of the values at k = 1, 2, ...: [Δ^j f(1)]_j."""
    diffs, row = [], list(values)
    while row:
        diffs.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    return diffs


def evaluate(diffs, x):
    """The interpolating polynomial at x: sum of Δ^j f(1) · C(x − 1, j)."""
    total, binom = Fraction(0), Fraction(1)
    for j, delta in enumerate(diffs):
        total += delta * binom
        binom = binom * (x - 1 - j) / (j + 1)
    return total


def ehrhart_diffs(count, d):
    """Newton differences of count(k) for k = 1…d+2; the last must vanish."""
    diffs = newton([count(k) for k in range(1, d + 3)])
    assert diffs[d + 1] == 0, "counts are not a polynomial of degree <= d"
    return diffs


def interior_count(P):
    """|int(P) ∩ Z^d| from the strict system: each integer offset lowered by 1."""
    assert all(hs.offset.denominator == 1 for hs in P.halfspaces)
    assert all(math.gcd(*hs.normal) == 1 for hs in P.halfspaces)
    rows = [hs.normal for hs in P.halfspaces]
    rhs = [int(hs.offset) - 1 for hs in P.halfspaces]
    lo, hi = P.bounding_box()
    return _latticescan.count_box(rows, rhs, [int(c) for c in lo], [int(c) for c in hi])


LATTICE_POLYTOPES = {
    **{f"cube-{d}": (lambda d=d: cube(d)) for d in range(2, 6)},
    "box-2-1": lambda: box((2, 1)),
    "box-1-3-2": lambda: box((1, 3, 2)),
    "box-2-1-1-3": lambda: box((2, 1, 1, 3)),
    "box-1-1-2-1-1": lambda: box((1, 1, 2, 1, 1)),
    **{f"simplex-{d}-{k}": (lambda d=d, k=k: simplex(d, k))
       for d in range(2, 6) for k in (1, 2)},
}


@pytest.mark.parametrize("name", sorted(LATTICE_POLYTOPES))
def test_ehrhart_polynomial_has_volume_and_constant_term_one(name):
    P = LATTICE_POLYTOPES[name]()
    d = P.dim
    diffs = ehrhart_diffs(lambda k: dilate(P, k).lattice_count(), d)
    assert Fraction(diffs[d], math.factorial(d)) == P.volume()
    assert evaluate(diffs, 0) == 1


@pytest.mark.parametrize("name", sorted(LATTICE_POLYTOPES))
def test_ehrhart_macdonald_reciprocity(name):
    P = LATTICE_POLYTOPES[name]()
    d = P.dim
    diffs = ehrhart_diffs(lambda k: dilate(P, k).lattice_count(), d)
    for k in (1, 2):
        assert evaluate(diffs, -k) == (-1) ** d * interior_count(dilate(P, k))


def test_interior_count_of_cubes_and_simplices():
    # int(k[0,1]^d) holds (k−1)^d points; int(kΔ_d) holds C(k−1, d)
    assert interior_count(dilate(cube(3), 4)) == 27
    assert interior_count(dilate(simplex(3, 1), 5)) == math.comb(4, 3)
    assert interior_count(simplex(4, 1)) == 0


def dilate_template(T, k):
    """kT: every polytope dilated by k; the facet indices and fusions carry over."""
    return OrigamiTemplate(tuple(dilate(P, k) for P in T.polytopes), T.fusions)


def unequal_boxes(d):
    """[0,1]^d and [0,2]×[0,1]^(d−1) fused on x_1 = 0: signed volume ±1."""
    return OrigamiTemplate(
        (cube(d), box((2,) + (1,) * (d - 1))), (pair((0, 0), (1, 0)),)
    )


ORIENTED_TEMPLATES = {
    "s4": lambda: s4_template(2),
    "hirzebruch-pair": hirzebruch_pair,
    "trapezoid-chain": trapezoid_chain,
    "square": lambda: square_template(2),
    "fold-segments": lambda: fold_segments_template(3),
    **{f"doubled-cube-{d}": (lambda d=d: doubled_cube(d)) for d in range(2, 6)},
    **{f"doubled-simplex-{d}": (lambda d=d: doubled_simplex(d, 2)) for d in range(2, 5)},
    **{f"unequal-boxes-{d}": (lambda d=d: unequal_boxes(d)) for d in range(2, 6)},
}


def test_some_oriented_templates_have_nonzero_signed_volume():
    volumes = {name: signed_volume(make()) for name, make in ORIENTED_TEMPLATES.items()}
    assert all(volumes[f"unequal-boxes-{d}"] == -1 for d in range(2, 6))
    assert volumes["hirzebruch-pair"] != 0 and volumes["trapezoid-chain"] != 0


@pytest.mark.parametrize("name", sorted(ORIENTED_TEMPLATES))
def test_signed_ehrhart_polynomial_leads_with_signed_volume(name):
    T = ORIENTED_TEMPLATES[name]()
    d = T.dim

    def signed_count(k):
        return quantize(dilate_template(T, k), points=False).virtual_dimension

    diffs = ehrhart_diffs(signed_count, d)
    assert Fraction(diffs[d], math.factorial(d)) == signed_volume(T)
    # each polytope's count contributes its sign times L(0) = 1
    assert evaluate(diffs, 0) == sum(orientation_signs(T))
    assert diffs[0] == quantize(T).virtual_dimension
