"""The vertex-facet incidence and the edge table derived from it.

Each polytope's tight sets come out of vertex enumeration once; the edges,
their directions and the split of a vertex's edges against a face are read
from them.  These oracles recompute the same structure the long way.
"""

import random
from pathlib import Path

import pytest

from factories import (
    bad_triangle,
    half_triangle,
    hexagon,
    pentagon,
    segment,
    square,
    trapezoid,
    trapezoid_chain,
    triangle,
)
from test_properties import random_delzant_polygon, transform
from toricorigami import load_template, make_polytope
from toricorigami.exactgeom import _dot, primitive_vector

GALLERY = Path(__file__).resolve().parent.parent / "gallery"


def cube(d):
    lower = [(tuple(-(i == j) for j in range(d)), 0) for i in range(d)]
    upper = [(tuple(int(i == j) for j in range(d)), 1) for i in range(d)]
    return make_polytope(lower + upper)


def simplex(d, k):
    lower = [(tuple(-(i == j) for j in range(d)), 0) for i in range(d)]
    return make_polytope(lower + [((1,) * d, k)])


def square_pyramid():
    """Apex over a square base: four edges at the apex."""
    return make_polytope(
        [((0, 0, -1), 0), ((1, 0, 1), 1), ((-1, 0, 1), 1),
         ((0, 1, 1), 1), ((0, -1, 1), 1)]
    )


def pyramid_times_square():
    """Square pyramid x unit square in Q^5: not simple along apex x square.

    Two opposite corners over the apex share four facets (n - 1) whose
    normals have rank 3, so sharing n - 1 facets does not make an edge.
    """
    pyramid = [(hs.normal + (0, 0), hs.offset) for hs in square_pyramid().halfspaces]
    sq = [((0, 0, 0, -1, 0), 0), ((0, 0, 0, 0, -1), 0),
          ((0, 0, 0, 1, 0), 1), ((0, 0, 0, 0, 1), 1)]
    return make_polytope(pyramid + sq)


def factory_polytopes():
    return [
        ("triangle", triangle(2)), ("bad_triangle", bad_triangle()),
        ("square", square(3)), ("trapezoid", trapezoid(3)),
        ("pentagon", pentagon()), ("hexagon", hexagon()),
        ("segment", segment(-2, 5)), ("half_triangle", half_triangle()),
        ("extended_trapezoid", trapezoid_chain().polytopes[2]),
        ("cube3", cube(3)), ("cube4", cube(4)), ("simplex3", simplex(3, 2)),
        ("square_pyramid", square_pyramid()),
        ("pyramid_times_square", pyramid_times_square()),
    ]


def gallery_polytopes():
    return [
        (f"{path.stem}[{i}]", P)
        for path in sorted(GALLERY.glob("*.json"))
        for i, P in enumerate(load_template(path).polytopes)
    ]


def random_polygons():
    rng = random.Random(314)
    out = []
    for run in range(30):
        P, U, t = random_delzant_polygon(rng)
        out.append((f"random{run}", transform(P, U, t)))
    return out


POLYTOPES = factory_polytopes() + gallery_polytopes() + random_polygons()


def edges_at_oracle(P, vid):
    """Edges at a vertex: the 1-dimensional faces of the face lattice."""
    return [f for f in P._face_list if f.dim == 1 and vid in f.vids]


def tangency_oracle(P, w, active):
    """Split edges at w by whether every active normal is orthogonal."""
    along, leaving = [], []
    for u in P.edge_directions(w):
        tangent = all(_dot(P.halfspaces[k].normal, u) == 0 for k in active)
        (along if tangent else leaving).append(u)
    return tuple(along), tuple(leaving)


@pytest.mark.parametrize("P", [P for _, P in POLYTOPES], ids=[n for n, _ in POLYTOPES])
class TestIncidence:
    def test_tight_sets_match_reevaluation(self, P):
        assert P._vertex_active == tuple(
            frozenset(i for i, hs in enumerate(P.halfspaces) if hs.tight(v))
            for v in P.vertices
        )

    def test_edge_directions_are_differences_to_neighbors(self, P):
        for vid, v in enumerate(P.vertices):
            dirs = []
            for edge in edges_at_oracle(P, vid):
                other = next(i for i in edge.vids if i != vid)
                delta = [a - b for a, b in zip(P.vertices[other], v)]
                dirs.append(primitive_vector(delta))
            assert P.edge_directions(v) == tuple(sorted(dirs))

    def test_split_matches_dot_product_tangency(self, P):
        for face in P.faces():
            for w in P.face_vertices(face):
                assert P.split_edges(w, face.active) == tangency_oracle(
                    P, w, face.active
                )
