"""Integers that a caller passes are checked, never truncated.

Halfspace normals, polarizing vectors, the seed of the sampler, height and
auxiliary vectors and orientation signs are lattice data.  Every entry point
that takes one reads it through ``exactgeom._integers``: an entry that is not
equal to an int (a half-integral Fraction or float, a string, None) raises
ValueError naming the argument, and an integral Fraction or float is read as
the int, with the same result.  Read with ``int()`` alone,
``verify_dh_identity(v=(Fraction(3, 2), 1))`` would run with v = (1, 1) and
``face_ht_series(X, 8, (0.5, 1))`` with (0, 1); unread, ``seed=0.5`` would
raise a raw TypeError, and an orientation of (1.0,) would be stored as given,
so that ``quantize`` reports a virtual dimension of 6.0 instead of 6.
"""

import math
from fractions import Fraction

import pytest

from factories import doubled, s4_template, square, triangle
from toricorigami import OrigamiTemplate, make_polytope, quantize
from toricorigami.cohomology import critical_faces, face_ht_series
from toricorigami.cones import Lcg64, polarize, verify_dh_identity, weight_sets


def square_with_normal(normal):
    return make_polytope([(normal, 2), ((-1, 0), 0), ((0, 1), 1), ((0, -1), 0)])


def polarized(v):
    return polarize(weight_sets(s4_template())[0], v)


def identity(v):
    return verify_dh_identity(s4_template(), v=v, sample_count=20)


def seeded_identity(seed):
    return verify_dh_identity(s4_template(), sample_count=20, seed=seed[0])


def draws(seed):
    rng = Lcg64(seed[0])
    return rng.state, rng.next_u64(), rng.next_fraction()


def heights(xi):
    return critical_faces(s4_template(), xi)


def fold_edge_series(xi_aux):
    # the doubled square's critical faces are edges, each with one direction
    T = doubled(square(), 0)
    return face_ht_series(critical_faces(T, (-1, 0))[0], 8, xi_aux)


def oriented_triangle(orientation):
    T = OrigamiTemplate((triangle(2),), orientation=orientation)
    return T, quantize(T)


# site id -> (call on an entry vector, the argument name, an integral vector)
SITES = {
    "make_polytope": (square_with_normal, "halfspace normal", (2, 0)),
    "polarize": (polarized, "polarizing vector", (2, 1)),
    "verify_dh_identity": (identity, "polarizing vector", (2, 1)),
    "verify_dh_identity-seed": (seeded_identity, "seed", (2,)),
    "Lcg64": (draws, "seed", (2,)),
    "critical_faces": (heights, "height vector", (2, 2)),
    "face_ht_series": (fold_edge_series, "auxiliary vector", (2, 1)),
    "OrigamiTemplate": (oriented_triangle, "orientation", (1,)),
}

NOT_INTEGRAL = [Fraction(3, 2), 1.5, 0.5, "2", None, math.nan, math.inf]


@pytest.mark.parametrize("site", sorted(SITES))
def test_a_non_integral_entry_is_refused(site):
    call, what, base = SITES[site]
    for bad in NOT_INTEGRAL:
        vector = (bad,) + base[1:]
        with pytest.raises(ValueError) as info:
            call(vector)
        assert str(info.value) == f"{what} must be integral, got {vector}"


@pytest.mark.parametrize("site", sorted(SITES))
def test_an_integral_fraction_or_float_reads_as_the_int(site):
    call, _, base = SITES[site]
    expected = repr(call(base))
    for spelled in (Fraction(base[0]), float(base[0])):
        assert repr(call((spelled,) + base[1:])) == expected

