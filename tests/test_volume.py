"""The volume as one integer numerator over one denominator.

``HPolytope._volume`` sums the fan's simplex volumes |det [X_v | t_v]| /
(n! prod t_v) as integers over the lcm of their denominators and holds
(p, q) in lowest terms; ``volume()`` is the Fraction p/q, and the CLI's
``volume`` writes its string from the two ints.  The oracle is the Fraction
sum it replaced, ``structure_reference.volume``.
"""

import random
from fractions import Fraction

import pytest

import structure_reference as sref
from factories import cube, doubled_cube, hirzebruch_pair, simplex, square_template
from test_corpus import CORPUS, blow_up
from toricorigami import make_polytope
from toricorigami.invariants import _signed_volume, signed_volume


def blow_ups():
    """Seeded blow-ups of cubes and simplices in dimensions 2 to 4."""
    rng = random.Random(45)
    found = []
    for P in [cube(2, 3), cube(3, 2), cube(4, 2), simplex(2, 4), simplex(3, 3),
              simplex(4, 3)]:
        for _ in range(4):
            Q = blow_up(P, rng)
            if Q is not None:
                found.append(Q)
                P = Q
    return found


def non_integral():
    """Polytopes with a vertex X / t, t > 1."""
    half, third = Fraction(1, 2), Fraction(1, 3)
    return [
        make_polytope([((-1, 0), 0), ((0, -1), 0), ((1, 2), 1)]),
        make_polytope([((-1, 0), 0), ((0, -1), 0), ((2, 3), 1), ((1, 0), half)]),
        make_polytope([((-1, 0, 0), 0), ((0, -1, 0), 0), ((0, 0, -1), 0),
                       ((2, 3, 5), 1)]),
        make_polytope([((-1, 0, 0), -third), ((0, -1, 0), 0), ((0, 0, -1), 0),
                       ((1, 0, 0), 2), ((0, 1, 0), half), ((1, 1, 1), Fraction(7, 3))]),
    ]


POLYTOPES = {
    **{f"cube-{d}": cube(d) for d in range(1, 8)},
    **{f"simplex-{d}-{k}": simplex(d, k) for d in range(1, 6) for k in (1, 2, 5)},
    **{f"blow-up-{i}": P for i, P in enumerate(blow_ups())},
    **{f"non-integral-{i}": P for i, P in enumerate(non_integral())},
    **{f"corpus-{name}": P for name, _, P, _ in CORPUS},
}


@pytest.mark.parametrize("name", sorted(POLYTOPES))
def test_the_integer_sum_is_the_fraction_sum(name):
    P = POLYTOPES[name]
    expected = sref.volume(P)
    assert P._volume == (expected.numerator, expected.denominator)
    assert P.volume() == expected and type(P.volume()) is Fraction


def test_the_cases_cover_each_kind():
    assert sum(name.startswith("blow-up") for name in POLYTOPES) == 9  # seeded
    assert all(max(t for _, t in P._rays) > 1 for P in non_integral())
    assert sref.volume(POLYTOPES["cube-7"]) == 1
    assert sref.volume(POLYTOPES["simplex-5-5"]) == Fraction(5**5, 120)


@pytest.mark.parametrize("make", [square_template, hirzebruch_pair, lambda: doubled_cube(3)])
def test_the_signed_volume_is_its_integer_pair(make):
    T = make()
    p, q = _signed_volume(T)
    assert Fraction(p, q) == signed_volume(T) and q > 0 and (p, q) == (
        signed_volume(T).numerator, signed_volume(T).denominator)
