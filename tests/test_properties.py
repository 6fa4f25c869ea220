"""Randomized and cross-route properties of the geometry and template layers."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from factories import (
    hexagon_cycle,
    hirzebruch_pair,
    s4_template,
    square_template,
    trapezoid_chain,
    triangle_template,
)
from toricorigami import (
    agrees_near,
    cut,
    dh_density,
    glue,
    make_polytope,
    multiplicity,
    pair,
    signed_volume,
)

# ---------------------------------------------------------------------------
# random Delzant polygons: base shape + corner chops + unimodular transform
# ---------------------------------------------------------------------------

def _matmul(A, B):
    return [
        [sum(A[i][k] * B[k][j] for k in range(2)) for j in range(2)]
        for i in range(2)
    ]


def random_unimodular(rng: random.Random):
    M = [[1, 0], [0, 1]]
    for _ in range(rng.randint(1, 3)):
        k = rng.randint(-2, 2)
        S = [[1, k], [0, 1]] if rng.random() < 0.5 else [[1, 0], [k, 1]]
        M = _matmul(M, S)
    if rng.random() < 0.5:
        M = _matmul(M, [[0, 1], [1, 0]])
    return M


def _inverse_unimodular(M):
    (a, b), (c, d) = M
    det = a * d - b * c
    assert det in (1, -1)
    return [[d * det, -b * det], [-c * det, a * det]]


def _edge_length_along(P, v, u):
    """Lattice length of the edge of P leaving v in primitive direction u."""
    for w in P.vertices:
        if w == v:
            continue
        delta = [x - y for x, y in zip(w, v)]
        j = next(i for i in range(2) if u[i] != 0)
        L = Fraction(delta[j], u[j])
        if L > 0 and all(delta[i] == L * u[i] for i in range(2)):
            return L
    raise AssertionError("edge endpoint not found")


def chop_corner(P, rng: random.Random):
    """Blow up one corner at a random integer depth; None if impossible."""
    v = P.vertices[rng.randrange(len(P.vertices))]
    dirs = P.edge_directions(v)
    if len(dirs) != 2:
        return None
    u1, u2 = dirs
    lengths = [_edge_length_along(P, v, u) for u in (u1, u2)]
    reach = min(lengths)
    if reach < 2:
        return None
    depth = rng.randint(1, int(reach) - 1)
    w = (u2[0] - u1[0], u2[1] - u1[1])
    normal = (w[1], -w[0])
    if normal[0] * u1[0] + normal[1] * u1[1] > 0:
        normal = (-normal[0], -normal[1])
    offset = normal[0] * (v[0] + depth * u1[0]) + normal[1] * (v[1] + depth * u1[1])
    try:
        chopped = make_polytope(
            [(hs.normal, hs.offset) for hs in P.halfspaces] + [(normal, offset)]
        )
    except Exception:
        return None
    if len(chopped.vertices) != len(P.vertices) + 1 or v in chopped.vertices:
        return None
    return chopped


def transform(P, U, t):
    """The image polytope U P + t, rebuilt from transformed halfspaces."""
    Uinv = _inverse_unimodular(U)
    halfspaces = []
    for hs in P.halfspaces:
        n = tuple(
            sum(hs.normal[i] * Uinv[i][j] for i in range(2)) for j in range(2)
        )
        halfspaces.append((n, hs.offset + n[0] * t[0] + n[1] * t[1]))
    return make_polytope(halfspaces)


def random_delzant_polygon(rng: random.Random):
    base = rng.choice(["square", "triangle", "trapezoid"])
    K = rng.randint(2, 4)
    if base == "square":
        P = make_polytope(
            [((-1, 0), 0), ((0, -1), 0), ((1, 0), K), ((0, 1), K)]
        )
    elif base == "triangle":
        P = make_polytope([((-1, 0), 0), ((0, -1), 0), ((1, 1), K)])
    else:
        P = make_polytope(
            [((-1, 0), 0), ((0, -1), 0), ((0, 1), K - 1), ((1, 1), K)]
        )
    for _ in range(rng.randint(0, 3)):
        chopped = chop_corner(P, rng)
        if chopped is not None and chopped.is_delzant().is_delzant:
            P = chopped
    U = random_unimodular(rng)
    t = (rng.randint(-5, 5), rng.randint(-5, 5))
    return P, U, t


class TestRandomDelzantPolygons:
    RUNS = 100

    def test_round_trip_and_delzant(self):
        rng = random.Random(20260810)
        for _ in range(self.RUNS):
            P, U, t = random_delzant_polygon(rng)
            image = transform(P, U, t)
            expected = {
                (
                    U[0][0] * v[0] + U[0][1] * v[1] + t[0],
                    U[1][0] * v[0] + U[1][1] * v[1] + t[1],
                )
                for v in P.vertices
            }
            assert set(image.vertices) == expected
            assert image.is_delzant().is_delzant
            rebuilt = make_polytope(
                [(hs.normal, hs.offset) for hs in image.halfspaces]
            )
            assert rebuilt.vertices == image.vertices
            assert rebuilt.halfspaces == image.halfspaces

    def test_vertex_cone_determinants(self):
        rng = random.Random(7)
        for _ in range(25):
            P, _, _ = random_delzant_polygon(rng)
            for rec in P.is_delzant().vertex_records:
                assert len(rec.directions) == 2
                assert rec.determinant in (1, -1)

    def test_lattice_count_matches_naive_oracle(self):
        rng = random.Random(99)
        for _ in range(25):
            P, U, t = random_delzant_polygon(rng)
            image = transform(P, U, t)
            lo, hi = image.bounding_box()
            count = 0
            for pt in itertools.product(
                *(range(math.ceil(l), math.floor(h) + 1) for l, h in zip(lo, hi))
            ):
                if all(hs.holds(pt) for hs in image.halfspaces):
                    count += 1
            assert len(image.lattice_points()) == count

    def test_volume_invariance(self):
        rng = random.Random(1234)
        for _ in range(25):
            P, _, _ = random_delzant_polygon(rng)
            vol = P.volume()
            pairs = [(hs.normal, hs.offset) for hs in P.halfspaces]
            rng.shuffle(pairs)
            assert make_polytope(pairs).volume() == vol
            shift = (rng.randint(-9, 9), rng.randint(-9, 9))
            moved = transform(P, [[1, 0], [0, 1]], shift)
            assert moved.volume() == vol

    def test_agrees_near_symmetry(self):
        rng = random.Random(55)
        for _ in range(20):
            P1, _, _ = random_delzant_polygon(rng)
            P2, _, _ = random_delzant_polygon(rng)
            for f1 in range(len(P1.halfspaces)):
                for f2 in range(len(P2.halfspaces)):
                    assert agrees_near(P1, f1, P2, f2) == agrees_near(
                        P2, f2, P1, f1
                    )


class TestCutGlueIdentity:
    def test_on_triangles(self):
        T1, T2 = triangle_template(2), triangle_template(2)
        glued = glue(T1, T2, [pair((0, 2), (1, 2))])
        assert cut(glued) == T1.polytopes + T2.polytopes

    def test_on_hexagon_halves(self):
        half = hexagon_cycle(4)
        import toricorigami as to

        h1 = to.OrigamiTemplate(half.polytopes[:2], (half.fusions[0],))
        h2 = to.OrigamiTemplate(half.polytopes[2:], (to.pair((0, 0), (1, 0)),))
        glued = glue(h1, h2, [to.pair((1, 2), (2, 2)), to.pair((3, 2), (0, 2))])
        assert cut(glued) == h1.polytopes + h2.polytopes


class TestMultiplicityDecomposition:
    def test_multiplicity_is_signless_contain_count(self):
        T = hirzebruch_pair()
        rng = random.Random(3)
        for _ in range(50):
            x = (Fraction(rng.randint(-40, 40), 8), Fraction(rng.randint(-40, 40), 8))
            direct = sum(P.contains(x).inside for P in T.polytopes)
            assert multiplicity(T, x) == direct

    @pytest.mark.parametrize("make", [
        s4_template, hirzebruch_pair, trapezoid_chain, lambda: hexagon_cycle(4),
    ])
    def test_counts_by_slacks_without_the_face_lattice(self, make):
        # random points, the vertices, the edge midpoints and the centroids
        # of the vertices, counted first on fresh polytopes, whose face
        # lattice must stay unbuilt
        T = make()
        rng = random.Random(5)
        points = [
            (Fraction(rng.randint(-40, 40), 8), Fraction(rng.randint(-40, 40), 7))
            for _ in range(40)
        ]
        for P in T.polytopes:
            points += P.vertices
            points.append(tuple(sum(c) / len(P.vertices) for c in zip(*P.vertices)))
            points += [
                tuple((a + b) / 2 for a, b in zip(P.vertices[v], P.vertices[far]))
                for v, edges in enumerate(P._edges)
                for _, far in edges
            ]
        counts = [multiplicity(T, x) for x in points]
        assert not any("_face_list" in vars(P) for P in T.polytopes)
        assert counts == [
            sum(P.contains(x).inside for P in T.polytopes) for x in points
        ]
        assert {"interior", "boundary", "outside"} <= {
            P.contains(x).kind for P in T.polytopes for x in points
        }


# ---------------------------------------------------------------------------
# exact integral of the DH density by cell decomposition (2D)
# ---------------------------------------------------------------------------

def dh_integral_by_cells(T):
    """Integrate the signed density over the plane, slab by slab, exactly.

    The facet lines of all polytopes cut the plane into cells of constant
    density; each cell's density is sampled at an interior rational point
    and multiplied by the exact cell area.
    """
    lines = [
        (hs.normal[0], hs.normal[1], hs.offset)
        for P in T.polytopes
        for hs in P.halfspaces
    ]
    xs = {v[0] for P in T.polytopes for v in P.vertices}
    for i, (a1, b1, c1) in enumerate(lines):
        if b1 == 0:
            xs.add(Fraction(c1, a1))
        for a2, b2, c2 in lines[i + 1:]:
            det = a1 * b2 - a2 * b1
            if det != 0:
                xs.add(Fraction(c1 * b2 - c2 * b1, 1) / det)
    breaks = sorted(xs)
    total = Fraction(0)
    for a, b in zip(breaks, breaks[1:]):
        if a == b:
            continue
        mid = Fraction(a + b, 2)
        graphs = {}
        for A, B, C in lines:
            if B == 0:
                continue
            slope, intercept = Fraction(-A, B), Fraction(C, 1) / B
            graphs.setdefault(slope * mid + intercept, (slope, intercept))
        ordered = sorted(graphs.items())
        for (v1, (s1, q1)), (v2, (s2, q2)) in zip(ordered, ordered[1:]):
            midy = Fraction(v1 + v2, 2)
            density = dh_density(T, (mid, midy)).density
            if density == 0:
                continue
            at_a = (s2 * a + q2) - (s1 * a + q1)
            at_b = (s2 * b + q2) - (s1 * b + q1)
            total += density * (at_a + at_b) / 2 * (b - a)
    return total


class TestSignedVolumeIsDensityIntegral:
    @pytest.mark.parametrize(
        "make",
        [square_template, lambda: s4_template(2), hirzebruch_pair,
         lambda: hexagon_cycle(4), lambda: triangle_template(3),
         trapezoid_chain],
    )
    def test_cell_integral_matches(self, make):
        T = make()
        assert dh_integral_by_cells(T) == signed_volume(T)
