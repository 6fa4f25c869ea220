"""The vertex-facet incidence and the structure derived from it.

Each polytope's tight sets come out of vertex enumeration once; the kept
facets, the full-dimension test, the faces, the edges, their directions and
the split of a vertex's edges against a face are read from them as set
operations.  These oracles recompute the same structure the long way, by
exact row reduction.
"""

import itertools
import math
import random
from pathlib import Path

import pytest

import structure_reference as sref
from exact_reference import _det, primitive_vector
from factories import (
    bad_triangle,
    cube,
    half_triangle,
    hexagon,
    pentagon,
    segment,
    simplex,
    square,
    trapezoid,
    trapezoid_chain,
    triangle,
)
from test_enumeration import enumerate_vertices, rank
from test_properties import random_delzant_polygon, transform
from toricorigami import (
    DegenerateError,
    EmptyError,
    PolytopeError,
    load_template,
    make_polytope,
)
from toricorigami.exactgeom import _reduce_halfspace

GALLERY = Path(__file__).resolve().parent.parent / "gallery"


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


def edges_at_oracle(P, v):
    """Edges at a vertex, as vertex pairs: the 1-dimensional faces through it.

    ``faces`` leaves out the whole polytope, so a segment is its own edge.
    """
    if P.dim == 1:
        return [P.vertices]
    edges = (P.face_vertices(f) for f in P.faces(1))
    return [edge for edge in edges if v in edge]


@pytest.mark.parametrize("P", [P for _, P in POLYTOPES], ids=[n for n, _ in POLYTOPES])
class TestIncidence:
    def test_tight_sets_match_reevaluation(self, P):
        assert P._vertex_active == tuple(
            frozenset(i for i, hs in enumerate(P.halfspaces) if hs.tight(v))
            for v in P.vertices
        )

    def test_edge_directions_are_differences_to_neighbors(self, P):
        for v in P.vertices:
            dirs = []
            for edge in edges_at_oracle(P, v):
                other = next(w for w in edge if w != v)
                delta = [a - b for a, b in zip(other, v)]
                dirs.append(primitive_vector(delta))
            assert P.edge_directions(v) == tuple(sorted(dirs))

    def test_near_facet_matches_per_vertex_scatter(self, P):
        assert P._near_facet == sref.near_facet(P)

    def test_split_matches_dot_product_tangency(self, P):
        """An edge at w stays in a face iff its far vertex is tight on the
        face's active set, the rule the package reads, iff its direction is
        orthogonal to every active normal."""
        for face in P.faces():
            active = frozenset(face.active)
            for w in P.face_vertices(face):
                along, leaving = [], []
                for u, far in P._edges[P._vid(w)]:
                    (along if active <= P._vertex_active[far] else leaving).append(u)
                assert (tuple(along), tuple(leaving)) == sref.tangency_oracle(
                    P, w, face.active
                )


# ---------------------------------------------------------------------------
# rank references: the row reductions that decided these questions before
# they were read from the incidence
# ---------------------------------------------------------------------------

def affine_rank(points):
    """Dimension of the affine hull of a nonempty point list."""
    base = points[0]
    return rank([[a - b for a, b in zip(p, base)] for p in points[1:]])


def reference_faces(dim, normals, acts):
    """(active, dim, vertex ids) of every face, whole polytope included.

    The active sets are the tight sets closed under pairwise intersection;
    a face's dimension is n minus the rank of its active normals.
    """
    actives = {frozenset()} | set(acts)
    frontier = list(actives)
    while frontier:
        a = frontier.pop()
        for b in list(actives):
            if a & b not in actives:
                actives.add(a & b)
                frontier.append(a & b)
    faces = [
        (
            tuple(sorted(a)),
            dim - rank([normals[k] for k in a]) if a else dim,
            tuple(v for v, act in enumerate(acts) if a <= act),
        )
        for a in actives
    ]
    return sorted(faces, key=lambda f: (f[1], f[0]))


def reference_edges(dim, normals, acts):
    """Vertex pairs whose common normals have rank n - 1."""
    return {
        (a, b)
        for a, b in itertools.combinations(range(len(acts)), 2)
        if rank([normals[k] for k in acts[a] & acts[b]]) == dim - 1
    }


def reference_volume(dim, vertices, faces):
    """Fan triangulation from each face's first vertex over its subfaces."""

    def rec(vids, d):
        if d <= 1:
            return [vids]
        apex = vids[0]
        return [
            (apex,) + simplex
            for _, fd, sub in faces
            if fd == d - 1 and set(sub) <= set(vids) and apex not in sub
            for simplex in rec(sub, d - 1)
        ]

    total = sum(
        abs(_det([[a - b for a, b in zip(vertices[i], vertices[s[0]])] for i in s[1:]]))
        for s in rec(tuple(range(len(vertices))), dim)
    )
    return total / math.factorial(dim)


def reference_polytope(halfspaces):
    """make_polytope by the rank rules, for bounded systems of full rank.

    Returns the kept input positions, the proper faces as (active, dim), the
    edges as vertex-id pairs and the volume.
    """
    seen = {}
    for pos, (normal, offset) in enumerate(halfspaces):
        seen.setdefault(_reduce_halfspace(normal, offset), pos)
    hss = list(seen)
    dim = len(hss[0].normal)
    incidence = sorted(enumerate_vertices(hss, dim))
    if not incidence:
        raise EmptyError("no feasible point")
    vertices = [v for v, _ in incidence]
    if affine_rank(vertices) < dim:
        raise DegenerateError("affine hull is not full-dimensional")
    kept = [
        j for j in range(len(hss))
        if any(j in act for _, act in incidence)
        and affine_rank([v for v, act in incidence if j in act]) == dim - 1
    ]
    normals = [hss[j].normal for j in kept]
    acts = [
        frozenset(k for k, j in enumerate(kept) if j in act) for _, act in incidence
    ]
    faces = reference_faces(dim, normals, acts)
    return (
        tuple(seen[hss[j]] for j in kept),
        [(a, d) for a, d, _ in faces if d < dim],
        reference_edges(dim, normals, acts),
        reference_volume(dim, vertices, faces),
    )


def edge_pairs(P):
    return {(a, b) for a, edges in enumerate(P._edges) for _, b in edges if a < b}


@pytest.mark.parametrize("P", [P for _, P in POLYTOPES], ids=[n for n, _ in POLYTOPES])
class TestRankReferences:
    def test_face_dims_match_normal_rank_and_affine_rank(self, P):
        normals = [hs.normal for hs in P.halfspaces]
        expected = reference_faces(P.dim, normals, P._vertex_active)
        faces = P.faces()
        assert [(f.active, f.dim) for f in faces] == [
            (a, d) for a, d, _ in expected if d < P.dim
        ]
        for f in faces:
            assert f.dim == affine_rank(P.face_vertices(f))

    def test_contains_finds_each_face_at_its_vertex_centroid(self, P):
        normals = [hs.normal for hs in P.halfspaces]
        for f in P.faces():
            verts = P.face_vertices(f)
            centroid = tuple(sum(c) / len(verts) for c in zip(*verts))
            face = P.contains(centroid).face
            assert face.active == f.active
            assert face.dim == P.dim - rank([normals[k] for k in f.active])
            assert face.dim == f.dim  # the lattice's dimension of that face

    def test_every_kept_halfspace_is_a_facet(self, P):
        for j in range(len(P.halfspaces)):
            assert affine_rank(P.face_vertices((j,))) == P.dim - 1

    def test_edges_match_common_normal_rank(self, P):
        normals = [hs.normal for hs in P.halfspaces]
        assert edge_pairs(P) == reference_edges(P.dim, normals, P._vertex_active)

    def test_full_dimensional(self, P):
        assert affine_rank(P.vertices) == P.dim

    def test_euler_poincare(self, P):
        alternating = sum((-1) ** f.dim for f in P.faces())
        assert alternating == 1 - (-1) ** P.dim

    def test_faces_and_fan_match_the_full_lattice(self, P):
        vids = lambda active: tuple(
            v for v, act in enumerate(P._vertex_active) if act.issuperset(active)
        )
        assert [(f.active, f.dim, vids(f.active)) for f in P._face_list] == [
            (f.active, f.dim, f.vids) for f in sref.face_list(P)
        ]
        assert sorted(P._triangulation) == sorted(sref.triangulation(P))

    def test_volume_matches_reference_triangulation(self, P):
        normals = [hs.normal for hs in P.halfspaces]
        faces = reference_faces(P.dim, normals, P._vertex_active)
        assert P.volume() == reference_volume(P.dim, P.vertices, faces)


def random_boxed_system(rng):
    """A box in Q^2..Q^4 cut by a few halfspaces with entries in -1..1.

    Half the cuts pass through a box vertex, so non-simple vertices occur;
    some systems come out empty or lower-dimensional.
    """
    dim = rng.choice((2, 3, 3, 4))
    side = rng.randint(1, 3)
    system = []
    for i in range(dim):
        unit = tuple(int(i == j) for j in range(dim))
        system.append((unit, side))
        system.append((tuple(-c for c in unit), side))
    for _ in range(rng.randint(1, 4 if dim < 4 else 2)):
        normal = tuple(rng.randint(-1, 1) for _ in range(dim))
        if rng.random() < 0.5:
            offset = side * sum(c * rng.choice((-1, 1)) for c in normal)
        else:
            offset = rng.randint(-dim * side, dim * side)
        if any(normal):
            system.append((normal, offset))
    rng.shuffle(system)
    return system


def test_rank_free_rules_match_rank_references_on_random_systems():
    rng = random.Random(20261018)
    outcomes = {"polytope": 0, "non-simple": 0, "EmptyError": 0, "DegenerateError": 0}
    for _ in range(100):
        system = random_boxed_system(rng)
        try:
            expected = reference_polytope(system)
        except PolytopeError as exc:
            with pytest.raises(type(exc), match=f"^{exc}$"):
                make_polytope(system)
            outcomes[type(exc).__name__] += 1
            continue
        P = make_polytope(system)
        kept, faces, edges, volume = expected
        assert P.kept_input_indices == kept
        assert [(f.active, f.dim) for f in P.faces()] == faces
        assert edge_pairs(P) == edges
        assert P.volume() == volume
        outcomes["polytope"] += 1
        outcomes["non-simple"] += any(len(a) > P.dim for a in P._vertex_active)
    # the seed exercises every branch
    assert all(count >= 5 for count in outcomes.values()), outcomes
