"""Integers that a caller passes are checked, never truncated.

Halfspace normals, polarizing vectors, the seed and sample count of the
sampler, height and auxiliary vectors, orientation signs and the degree cap of
the Poincare series are lattice data.  Every entry point that takes one reads
it through ``exactgeom._integers``: an entry that is not equal to an int (a
half-integral Fraction or float, a string, None) raises ValueError naming the
argument, and an integral Fraction or float is read as the int, with the same
result.  Read with ``int()`` alone, ``verify_dh_identity(v=(Fraction(3, 2), 1))``
would run with v = (1, 1) and ``face_ht_series(X, 8, (0.5, 1))`` with (0, 1);
unread, ``seed=0.5``, ``sample_count=2.5`` and ``cap=8.0`` would raise raw
TypeErrors, and an orientation of (1.0,) would be stored as given, so that
``quantize`` reports a virtual dimension of 6.0 instead of 6.  A bare number
where a vector belongs is refused with the same message, and a refusal is
still written when an entry has more digits than ``repr`` writes.
"""

import math
from fractions import Fraction

import pytest

from factories import doubled, s4_template, square, triangle
from test_document import int_max_str_digits
from toricorigami import OrigamiTemplate, make_polytope, quantize
from toricorigami.cohomology import critical_faces, face_ht_series, ht_poincare
from toricorigami.cones import Lcg64, polarize, verify_dh_identity, weight_sets
from toricorigami.errors import DimensionMismatch


def square_with_normal(normal):
    return make_polytope([(normal, 2), ((-1, 0), 0), ((0, 1), 1), ((0, -1), 0)])


def polarized(v):
    return polarize(weight_sets(s4_template())[0], v)


def identity(v):
    return verify_dh_identity(s4_template(), v=v, sample_count=20)


def seeded_identity(seed):
    return verify_dh_identity(s4_template(), sample_count=20, seed=seed[0])


def sampled(count):
    return verify_dh_identity(s4_template(), sample_count=count[0])


def draws(seed):
    rng = Lcg64(seed[0])
    return rng.state, rng.next_u64(), rng.next_fraction()


def heights(xi):
    return critical_faces(s4_template(), xi)


def fold_edge_series(xi_aux):
    # the doubled square's critical faces are edges, each with one direction
    T = doubled(square(), 0)
    return face_ht_series(critical_faces(T, (-1, 0))[0], 8, xi_aux)


def capped_edge_series(cap):
    T = doubled(square(), 0)
    return face_ht_series(critical_faces(T, (-1, 0))[0], cap[0])


def poincare(cap):
    return ht_poincare(s4_template(), cap[0])


def oriented_triangle(orientation):
    T = OrigamiTemplate((triangle(2),), orientation=orientation)
    return T, quantize(T)


# site id -> (call on an entry vector, the argument name, an integral vector)
SITES = {
    "make_polytope": (square_with_normal, "halfspace normal", (2, 0)),
    "polarize": (polarized, "polarizing vector", (2, 1)),
    "verify_dh_identity": (identity, "polarizing vector", (2, 1)),
    "verify_dh_identity-seed": (seeded_identity, "seed", (2,)),
    "verify_dh_identity-sample_count": (sampled, "sample_count", (20,)),
    "Lcg64": (draws, "seed", (2,)),
    "critical_faces": (heights, "height vector", (2, 2)),
    "face_ht_series": (fold_edge_series, "auxiliary vector", (2, 1)),
    "face_ht_series-cap": (capped_edge_series, "cap", (8,)),
    "ht_poincare-cap": (poincare, "cap", (8,)),
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


# a bare value where a vector belongs: (call, the argument name, the values);
# no spelling of it is accepted, so these are not in SITES.  None is the
# default polarizing vector.
BARE_VALUES = (5, Fraction(5), 5.0, Fraction(3, 2), math.inf)
BARE = {
    "critical_faces": (heights, "height vector", BARE_VALUES + (None,)),
    "make_polytope": (square_with_normal, "halfspace normal", BARE_VALUES + (None,)),
    "verify_dh_identity": (identity, "polarizing vector", BARE_VALUES),
}


@pytest.mark.parametrize("site", sorted(BARE))
def test_a_bare_value_where_a_vector_belongs_is_refused(site):
    call, what, values = BARE[site]
    for bare in values:
        with pytest.raises(ValueError) as info:
            call(bare)
        assert str(info.value) == f"{what} must be integral, got {bare!r}"


def test_a_refusal_writes_an_entry_past_the_digit_limit():
    with int_max_str_digits(4300):
        with pytest.raises(ValueError) as info:
            make_polytope([((10**5000, Fraction(1, 2)), 1), ((-1, 0), 0), ((0, -1), 0)])
    assert type(info.value) is ValueError
    assert str(info.value) == (
        "halfspace normal must be integral, got <a value of more than 4300 digits>"
    )


def test_a_length_refusal_writes_an_entry_past_the_digit_limit():
    with int_max_str_digits(4300):
        with pytest.raises(DimensionMismatch) as info:
            critical_faces(s4_template(), (10**5000, 1, 1))
    assert str(info.value) == (
        "height vector <a value of more than 4300 digits> is not a 2-vector"
    )


@pytest.mark.parametrize(
    "call", [polarized, identity], ids=["polarize", "verify_dh_identity"]
)
def test_a_polarization_length_refusal_writes_an_entry_past_the_digit_limit(call):
    with int_max_str_digits(4300):
        with pytest.raises(DimensionMismatch) as info:
            call((10**5000, 1, 1))
    assert str(info.value) == (
        "polarizing vector <a value of more than 4300 digits> "
        "does not match weight dimension"
    )


def test_an_auxiliary_vector_refusal_writes_an_entry_past_the_digit_limit():
    # (10^5000, 0) pairs to zero with the critical edge's direction (0, 1)
    with int_max_str_digits(4300):
        with pytest.raises(ValueError) as info:
            fold_edge_series((10**5000, 0))
    assert str(info.value) == (
        "auxiliary vector <a value of more than 4300 digits> pairs to zero "
        "with face edge (0, 1)"
    )
