"""The one adjacency test of rays and vertices against the rules it replaced.

``exactgeom._adjacent`` decides when two extreme rays of a cone span a
2-face: the double-description pass of ``make_polytope`` joins the rays it
passes, and ``HPolytope._edges`` joins the vertices, with the same helper.
The edge table must equal ``structure_reference.edges``, the frozenset rule
``_edges`` had, and its vertex pairs the rank rule
``test_incidence.reference_edges`` (common normals of rank n - 1).

The rank rule takes about 4 s on the 8-cube and 51 s on the 60-simplex, so
there the pairs are checked against the known edges instead: two corners of
a cube that differ in one coordinate, and every pair of simplex vertices.
"""

import itertools
import random

import pytest

import structure_reference as ref
from factories import cube, simplex
from test_corpus import CORPUS
from test_enumeration import random_system
from test_incidence import POLYTOPES, edge_pairs, reference_edges
from toricorigami import PolytopeError, make_polytope


def assert_edges_match_references(P):
    assert P._edges == ref.edges(P)
    normals = [hs.normal for hs in P.halfspaces]
    assert edge_pairs(P) == reference_edges(P.dim, normals, P._vertex_active)


@pytest.mark.parametrize("P", [P for _, P in POLYTOPES], ids=[n for n, _ in POLYTOPES])
def test_factory_gallery_and_random_polygons(P):
    assert_edges_match_references(P)


CORPUS_POLYTOPES = [
    (f"{name}-{which}", Q)
    for name, base, P, _ in CORPUS
    for which, Q in (("base", base), ("moved", P))
]


@pytest.mark.parametrize(
    "P", [P for _, P in CORPUS_POLYTOPES], ids=[n for n, _ in CORPUS_POLYTOPES]
)
def test_corpus(P):
    assert_edges_match_references(P)


def test_seeded_random_systems():
    """The systems of ``test_enumeration``, non-simple vertices included."""
    rng = random.Random(20261018)
    built = non_simple = 0
    for _ in range(1000):
        try:
            P = make_polytope(random_system(rng))
        except PolytopeError:
            continue
        assert_edges_match_references(P)
        built += 1
        non_simple += any(len(act) > P.dim for act in P._vertex_active)
    # the seed reaches both kinds of vertex
    assert built >= 300 and non_simple >= 20, (built, non_simple)


def test_eight_cube():
    P = cube(8)
    assert P._edges == ref.edges(P)
    expected = {
        (a, b)
        for a, b in itertools.combinations(range(len(P.vertices)), 2)
        if sum(x != y for x, y in zip(P.vertices[a], P.vertices[b])) == 1
    }
    assert len(expected) == 8 * 2 ** 7
    assert edge_pairs(P) == expected


def test_sixty_simplex():
    P = simplex(60, 1)
    assert P._edges == ref.edges(P)
    assert edge_pairs(P) == set(itertools.combinations(range(61), 2))
