"""Integers that a caller passes are checked, never truncated.

Halfspace normals, polarizing vectors, the seed and sample count of the
sampler, height vectors, orientation signs and the degree cap of the Poincare
series are lattice data.  Every entry point that takes one reads it through
``exactgeom._integers``: an entry that is not equal to an int (a
half-integral Fraction or float, a string, None) raises ValueError naming the
argument, and an integral Fraction or float is read as the int, with the same
result.  Read with ``int()`` alone, ``verify_dh_identity(v=(Fraction(3, 2), 1))``
would run with v = (1, 1) and ``critical_faces(T, (0.5, 1))`` with (0, 1);
unread, ``seed=0.5``, ``sample_count=2.5`` and ``cap=8.0`` would raise raw
TypeErrors, and an orientation of (1.0,) would be stored as given, so that
``quantize`` reports a virtual dimension of 6.0 instead of 6.  A bare number
where a vector belongs is refused with the same message, and a refusal is
still written when an entry has more digits than ``repr`` writes, as is one
of a facet index, a polytope index or a point that is not a vertex; the
``repr`` of a result record that holds such a number shows a note in its
place.  A sweep calls every integer slot of the public callables with a
5 000-digit value: each returns, or raises what a small refused value raises.
"""

import math
import sys
from fractions import Fraction

import pytest

from factories import doubled, s4_template, square, triangle
from test_document import int_max_str_digits
from toricorigami import (
    OrigamiTemplate, agrees_near, cone_density, dh_density, glue, make_polytope,
    multiplicity, pair, quantize, single, validate,
)
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


# a refusal of an index or a point past the digit limit: (call on H, the
# error class, its message)
HUGE_INDEX_SITES = {
    "HPolytope.facet": (
        lambda H: square().facet(H), IndexError,
        "no halfspace #<a value of more than 4300 digits>",
    ),
    "HPolytope.edge_directions": (
        lambda H: square().edge_directions((H, 0)), ValueError,
        "<a value of more than 4300 digits> is not a vertex",
    ),
    "HPolytope.face_vertices": (
        lambda H: square().face_vertices((0, H)), IndexError,
        "no halfspace #<a value of more than 4300 digits>",
    ),
    "pair-facet": (
        lambda H: OrigamiTemplate((square(), square()), (pair((0, H), (1, 0)),)),
        ValueError,
        "fusion #0: polytope 0 has no facet <a value of more than 4300 digits>",
    ),
    "pair-polytope": (
        lambda H: OrigamiTemplate((square(), square()), (pair((H, 0), (1, 0)),)),
        ValueError, "fusion #0: no polytope <a value of more than 4300 digits>",
    ),
    "single-polytope": (
        lambda H: OrigamiTemplate((square(), square()), (single((H, 0)),)),
        ValueError, "fusion #0: no polytope <a value of more than 4300 digits>",
    ),
}


@pytest.mark.parametrize("site", sorted(HUGE_INDEX_SITES))
def test_an_index_refusal_writes_an_index_past_the_digit_limit(site):
    call, error, message = HUGE_INDEX_SITES[site]
    with int_max_str_digits(4300):
        with pytest.raises(error) as info:
            call(10**5000)
    assert type(info.value) is error and str(info.value) == message


def test_an_index_refusal_writes_a_small_index_as_before():
    P = square()
    refusals = [
        (lambda: P.facet(7), IndexError, "no halfspace #7"),
        (lambda: P.edge_directions((3, 0)), ValueError,
         "(Fraction(3, 1), Fraction(0, 1)) is not a vertex"),
        (lambda: OrigamiTemplate((P, P), (pair((0, 10**10), (1, 0)),)), ValueError,
         "fusion #0: polytope 0 has no facet 10000000000"),
        (lambda: OrigamiTemplate((P, P), (single((2, 0)),)), ValueError,
         "fusion #0: no polytope 2"),
    ]
    for call, error, message in refusals:
        with pytest.raises(error) as info:
            call()
        assert type(info.value) is error and str(info.value) == message


def test_face_vertices_refuses_a_facet_index_out_of_range():
    # each index outside range(4) used to select no vertex and return ()
    P = square()
    for active, shown in [((7,), "7"), ((-1,), "-1"), ((0, 4), "4")]:
        with pytest.raises(IndexError) as info:
            P.face_vertices(active)
        assert str(info.value) == f"no halfspace #{shown}"
    assert P.face_vertices((0, 3)) == ((0, 1),)
    assert P.face_vertices(()) == P.vertices


def test_a_record_holding_a_number_past_the_digit_limit_has_a_repr():
    # dh_density succeeds at a 5 000-digit point; its record is shown with
    # the note that _shown writes in place of the point
    with int_max_str_digits(4300):
        value = dh_density(s4_template(), (10**5000, 0))
        assert repr(value) == (
            "DHValue(point=<a value of more than 4300 digits>, density=0, "
            "generic=True)"
        )
    assert value.point[0] == 10**5000


def test_the_repr_of_a_record_of_small_values_is_as_before():
    """Each field as ``!r`` writes it, the format before the note existed."""
    T = s4_template()
    records = [
        dh_density(T, (Fraction(1, 3), Fraction(1, 3))), validate(T), quantize(T),
        T.fusions[0], T.polytopes[0].halfspaces[0], critical_faces(T, (1, 2))[0],
    ]
    for record in records:
        fields = ", ".join(f"{name}={getattr(record, name)!r}" for name in record._repr)
        assert repr(record) == f"{type(record).__qualname__}({fields})"
    assert repr(records[0]) == (
        "DHValue(point=(Fraction(1, 3), Fraction(1, 3)), density=0, generic=True)"
    )


# ---------------------------------------------------------------------------
# the sweep: every integer slot of the public callables, at 5 000 digits
# ---------------------------------------------------------------------------

def two_squares(*fusions):
    return OrigamiTemplate((square(), square()), fusions)


def box_with_right_side(k):
    return make_polytope([((1, 0), k), ((-1, 0), 0), ((0, 1), 1), ((0, -1), 0)])


# slot -> (call on one int k, a small k that the slot refuses, or None where
# the slot takes every int).  A point is passed at its right length: a
# 5 000-digit point of the wrong length raises OutputLimitError by design, as
# the message would write it (test_fresh_process.py's dh-wrong-length pins
# that).  A huge positive sample count asks for that many samples and would
# never end, so that row passes -|k| only.
SWEEP = {
    "pair-a-polytope": (lambda k: two_squares(pair((k, 0), (1, 0))), 2),
    "pair-a-facet": (lambda k: two_squares(pair((0, k), (1, 0))), 4),
    "pair-b-polytope": (lambda k: two_squares(pair((0, 0), (k, 0))), 2),
    "pair-b-facet": (lambda k: two_squares(pair((0, 0), (1, k))), 4),
    "single-polytope": (lambda k: two_squares(single((k, 0))), 2),
    "single-facet": (lambda k: two_squares(single((0, k))), 4),
    "glue-pairing": (lambda k: glue(
        OrigamiTemplate((square(),)), OrigamiTemplate((square(),)),
        (pair((0, 2), (1, k)),),
    ), 4),
    "agrees_near-facet": (lambda k: agrees_near(square(), k, square(), 0), 4),
    "HPolytope.facet": (lambda k: square().facet(k), 4),
    "HPolytope.edge_directions": (lambda k: square().edge_directions((k, 0)), 2),
    "HPolytope.contains": (lambda k: square().contains((k, 0)), None),
    "HPolytope.face_vertices": (lambda k: square().face_vertices((k,)), 4),
    "dh_density-point": (lambda k: dh_density(s4_template(), (k, 0)), None),
    "multiplicity-point": (lambda k: multiplicity(s4_template(), (k, 0)), None),
    "cone_density-point": (
        lambda k: cone_density(s4_template(), (2, 1), (k, 1)), 0,
    ),
    "cone_density-v": (
        lambda k: cone_density(s4_template(), (k, 1), (Fraction(1, 3),) * 2), 0,
    ),
    "polarize": (lambda k: polarized((k, 1)), 0),
    "critical_faces": (lambda k: heights((k, 0)), 0),
    "face_ht_series-cap": (lambda k: capped_edge_series((k,)), 3),
    "ht_poincare-cap": (lambda k: poincare((k,)), 3),
    "make_polytope-normal": (lambda k: square_with_normal((k, 0)), -1),
    "make_polytope-offset": (box_with_right_side, -1),
    "verify_dh_identity-v": (lambda k: identity((k, 1)), 0),
    "verify_dh_identity-seed": (lambda k: seeded_identity((k,)), None),
    "verify_dh_identity-sample_count": (lambda k: sampled((-abs(k),)), 0),
    "Lcg64-seed": (lambda k: draws((k,)), None),
    "OrigamiTemplate-orientation": (lambda k: oriented_triangle((k,)), 2),
}


@pytest.mark.parametrize("slot", sorted(SWEEP))
def test_a_huge_integer_returns_or_is_refused_in_its_own_words(slot):
    call, small = SWEEP[slot]
    expected = None
    if small is not None:
        with pytest.raises(Exception) as info:
            call(small)
        expected = type(info.value)
    with int_max_str_digits(4300):
        for sign in (1, -1):
            try:
                call(sign * 10**5000)
            except Exception as exc:
                assert type(exc) is expected, sign
                assert "Exceeds the limit" not in str(exc), sign


@pytest.mark.parametrize("cap", [2**64, 10**5000], ids=["2**64", "5000-digits"])
def test_a_cap_past_the_longest_list_is_refused_before_a_list_is_built(cap):
    # a list of cap + 1 coefficients could not be built: [0] * (cap + 1)
    # raised a raw OverflowError for these caps
    message = f"cap must be at most {sys.maxsize // 8}"
    with int_max_str_digits(4300):
        for call in (poincare, capped_edge_series):
            with pytest.raises(ValueError) as info:
                call((cap,))
            assert str(info.value) == message
