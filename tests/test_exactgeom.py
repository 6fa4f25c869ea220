import math
from fractions import Fraction

import pytest

from factories import (
    bad_triangle,
    cube,
    hexagon,
    pentagon,
    simplex,
    square,
    trapezoid,
    triangle,
)
from toricorigami import (
    DegenerateError,
    DimensionMismatch,
    EmptyError,
    Halfspace,
    UnboundedError,
    agrees_near,
    make_polytope,
)
from toricorigami.exactgeom import _reduce_halfspace


def F(*parts):
    return tuple(Fraction(p) for p in parts)


class TestMakePolytope:
    def test_unit_simplex(self):
        P = make_polytope([((-1, 0), 0), ((0, -1), 0), ((1, 1), 1)])
        assert P.vertices == (F(0, 0), F(0, 1), F(1, 0))

    def test_half_simplex_rational_offset(self):
        P = make_polytope(
            [((-1, 0), 0), ((0, -1), 0), ((1, 1), Fraction(1, 2))]
        )
        assert P.vertices == (F(0, 0), F(0, Fraction(1, 2)), F(Fraction(1, 2), 0))

    def test_open_cone_is_unbounded(self):
        with pytest.raises(UnboundedError):
            make_polytope([((-1, 0), 0), ((0, -1), 0)])

    def test_halfplane_is_unbounded(self):
        with pytest.raises(UnboundedError):
            make_polytope([((-1, 0), 0)])

    def test_empty_intersection(self):
        with pytest.raises(EmptyError):
            make_polytope([((1, 0), 0), ((-1, 0), -1)])

    def test_empty_full_rank(self):
        with pytest.raises(EmptyError):
            make_polytope([((-1, 0), 0), ((0, -1), 0), ((1, 1), -1)])

    def test_empty_rank_deficient(self):
        # x + y <= 0, x >= 1, y >= 0 in Q^3: the normals span only x, y
        with pytest.raises(EmptyError):
            make_polytope([((1, 1, 0), 0), ((-1, 0, 0), -1), ((0, -1, 0), 0)])

    def test_rank_deficient_square_prism_is_unbounded(self):
        # a unit square in the x2, x3 coordinates, free along x1
        square = [((0, 1, 0), 1), ((0, -1, 0), 0), ((0, 0, 1), 1), ((0, 0, -1), 0)]
        with pytest.raises(UnboundedError) as info:
            make_polytope(square)
        assert info.value.direction == (1, 0, 0)

    def test_degenerate_slab(self):
        with pytest.raises(DegenerateError):
            make_polytope(
                [((1, 0), 0), ((-1, 0), 0), ((0, 1), 1), ((0, -1), 0)]
            )

    def test_normal_reduced_to_primitive(self):
        P = make_polytope([((-2, 0), 0), ((0, -2), 0), ((2, 2), 3)])
        assert P.halfspaces[2].normal == (1, 1)
        assert P.halfspaces[2].offset == Fraction(3, 2)

    def test_redundant_halfspace_removed(self):
        P = make_polytope(
            [((-1, 0), 0), ((0, -1), 0), ((1, 0), 1), ((0, 1), 1), ((1, 1), 5)]
        )
        assert len(P.halfspaces) == 4
        assert P.kept_input_indices == (0, 1, 2, 3)

    def test_duplicate_halfspace_dropped(self):
        P = make_polytope(
            [((-1, 0), 0), ((0, -1), 0), ((1, 1), 1), ((2, 2), 2)]
        )
        assert len(P.halfspaces) == 3

    def test_nonzero_normal_required(self):
        with pytest.raises(ValueError):
            make_polytope([((0, 0), 1)])

    def test_integral_normal_required(self):
        with pytest.raises(ValueError):
            make_polytope([((Fraction(1, 2), 0), 1)])

    def test_halfspace_values_build_as_pairs(self):
        pairs = [((-2, 0), 0), ((0, -1), 0), ((1, 1), Fraction(3, 2)), ((1, 0), 5)]
        P = make_polytope([Halfspace(n, Fraction(o)) for n, o in pairs])
        Q = make_polytope(pairs)
        assert P == Q
        assert (P.vertices, P.kept_input_indices) == (Q.vertices, Q.kept_input_indices)

    def test_no_halfspaces(self):
        with pytest.raises(ValueError) as info:
            make_polytope([])
        assert str(info.value) == "need at least one halfspace"

    def test_normals_of_mixed_length(self):
        with pytest.raises(DimensionMismatch):
            make_polytope([((-1, 0), 0), ((1,), 1)])


class TestIntegerOffsets:
    """A halfspace keeps its offset as the integers p/q; ``offset`` reads as
    before: the value given, or the Fraction of a reduced halfspace."""

    def test_reduced_offset_is_a_fraction_built_on_first_read(self):
        P = make_polytope([((-2, 0), 0), ((0, -2), 0), ((2, 2), 3), ((4, 0), 4)])
        hs = P.halfspaces[2]
        assert (hs._p, hs._q) == (3, 2)
        assert "offset" not in vars(hs)
        assert [(h._p, h._q) for h in P.halfspaces] == [(0, 1), (0, 1), (3, 2), (1, 1)]
        assert [type(h.offset) for h in P.halfspaces] == [Fraction] * 4
        assert repr(hs) == "Halfspace(normal=(1, 1), offset=Fraction(3, 2))"
        assert P._integer_rows == ((0, (-1, 0)), (0, (0, -1)), (3, (2, 2)), (1, (1, 0)))

    def test_a_given_offset_is_kept(self):
        for offset, ratio in ((1, (1, 1)), (Fraction(-6, 4), (-3, 2)), (0.5, (1, 2))):
            hs = Halfspace((1,), offset)
            assert hs.offset is offset and (hs._p, hs._q) == ratio
        assert Halfspace((1,), 2) == Halfspace((1,), Fraction(2))
        assert hash(Halfspace((1,), 2)) == hash(Halfspace((1,), Fraction(2)))
        assert Halfspace((1,), 2) != Halfspace((1,), Fraction(2, 3))

    @pytest.mark.parametrize("offset", [7, -7, Fraction(7, 3), Fraction(-1, 6), 0])
    @pytest.mark.parametrize("normal", [(1, 0), (3, 6), (-4, 0), (2, -2)])
    def test_reduction_divides_the_offset_by_the_gcd(self, normal, offset):
        hs = _reduce_halfspace(normal, offset)
        g = math.gcd(*normal)
        assert hs.normal == tuple(c // g for c in normal)
        assert hs.offset == Fraction(offset) / g
        assert (hs._p, hs._q) == (hs.offset.numerator, hs.offset.denominator)


class TestVertices:
    def test_unit_square(self):
        assert square().vertices == (F(0, 0), F(0, 1), F(1, 0), F(1, 1))

    def test_triangle_count(self):
        assert len(triangle(2).vertices) == 3

    def test_trapezoid(self):
        # oracle: solve all 2-subsets of the 4 constraints and keep the
        # feasible ones: (0,0), (0,1), (1,1), (2,0)
        assert trapezoid(2).vertices == (F(0, 0), F(0, 1), F(1, 1), F(2, 0))

    def test_lex_order(self):
        verts = pentagon().vertices
        assert list(verts) == sorted(verts)

    def test_every_vertex_feasible_and_tight(self):
        for P in (square(), triangle(3), trapezoid(2), hexagon(), pentagon()):
            for v in P.vertices:
                assert all(hs.holds(v) for hs in P.halfspaces)
                assert sum(hs.tight(v) for hs in P.halfspaces) >= P.dim


class TestEdgeDirections:
    def test_square_corner(self):
        assert square().edge_directions((0, 0)) == ((0, 1), (1, 0))

    def test_triangle_apex(self):
        # neighbors of (2,0) are (0,0) and (0,2); primitive directions
        assert triangle(2).edge_directions((2, 0)) == ((-1, 0), (-1, 1))

    def test_trapezoid_slant(self):
        assert trapezoid(2).edge_directions((1, 1)) == ((-1, 0), (1, -1))

    def test_not_a_vertex(self):
        with pytest.raises(ValueError):
            square().edge_directions((7, 7))


class TestDelzant:
    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_triangle_is_delzant(self, k):
        assert triangle(k).is_delzant().is_delzant

    def test_square_determinants(self):
        report = square().is_delzant()
        assert report.is_delzant
        assert all(rec.determinant in (1, -1) for rec in report.vertex_records)

    def test_bad_triangle_fails_with_det_2(self):
        report = bad_triangle().is_delzant()
        assert not report.is_delzant
        bad = [rec for rec in report.vertex_records if not rec.ok]
        assert len(bad) == 1
        assert bad[0].vertex == F(0, 1)
        assert abs(bad[0].determinant) == 2

    @pytest.mark.parametrize("make", [pentagon, hexagon, lambda: trapezoid(3)])
    def test_blowup_family(self, make):
        assert make().is_delzant().is_delzant

    @pytest.mark.parametrize("make", [square, bad_triangle])
    def test_report_is_computed_once(self, make):
        P = make()
        assert P.is_delzant() is P.is_delzant()

    @pytest.mark.parametrize("make", [square, bad_triangle, pentagon, lambda: cube(3)])
    def test_records_build_their_vertex_when_read(self, make):
        P = make()
        records = P.is_delzant().vertex_records
        # a failure message names its vertex; no other vertex is built
        assert "vertices" not in vars(P)
        assert sum("vertex" in vars(rec) for rec in records) == (make is bad_triangle)
        assert tuple(rec.vertex for rec in records) == P.vertices


class TestAgreesNear:
    def test_hirzebruch_left_edges(self):
        assert agrees_near(trapezoid(2), 0, trapezoid(3), 0)

    def test_same_polytope_any_facet(self):
        P = square()
        for i in range(4):
            assert agrees_near(P, i, P, i)

    def test_square_vs_triangle(self):
        # active sets differ at the vertex (0,1)
        assert not agrees_near(square(), 0, triangle(1), 0)

    def test_different_point_sets(self):
        P = square()
        assert not agrees_near(P, 0, P, 2)

    def test_dimension_mismatch(self):
        seg = make_polytope([((-1,), 0), ((1,), 1)])
        with pytest.raises(DimensionMismatch):
            agrees_near(square(), 0, seg, 0)

    def test_needs_a_facet(self):
        with pytest.raises(IndexError):
            agrees_near(square(), 9, square(), 0)

    def test_rejects_non_facet_face(self):
        P = square()
        corner = P.contains((0, 0)).face
        with pytest.raises(ValueError):
            agrees_near(P, corner, P, corner)


class TestLatticePoints:
    def test_triangle(self):
        assert triangle(2).lattice_points() == [
            (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0),
        ]

    def test_square(self):
        assert len(square().lattice_points()) == 4

    @pytest.mark.parametrize("k", [1, 2, 7])
    def test_segment(self, k):
        seg = make_polytope([((-1,), 0), ((1,), k)])
        assert seg.lattice_points() == [(i,) for i in range(k + 1)]

    @pytest.mark.parametrize("make", [
        lambda: triangle(3), pentagon, lambda: cube(3),
        lambda: make_polytope([((-1, 0), Fraction(-1, 4)), ((0, -1), Fraction(-7, 3)),
                               ((1, 1), Fraction(13, 4))]),
        lambda: make_polytope([((1, 0), Fraction(-1, 2)), ((-1, 0), 5), ((0, 1), -2),
                               ((0, -1), Fraction(9, 2))]),
    ])
    def test_scan_box_is_the_bounding_box_rounded_inward(self, make):
        P = make()
        lo, hi = P._scan_args()[2:]
        assert "vertices" not in vars(P)
        box = P.bounding_box()
        assert lo == tuple(map(math.ceil, box[0]))
        assert hi == tuple(map(math.floor, box[1]))

    def test_thin_polytope_without_lattice_points(self):
        P = make_polytope(
            [((-1, 0), Fraction(-1, 4)), ((0, -1), Fraction(-1, 4)),
             ((1, 1), Fraction(3, 4))]
        )
        assert P.lattice_points() == []


class TestContains:
    def test_interior(self):
        loc = square().contains((Fraction(1, 2), Fraction(1, 2)))
        assert loc.kind == "interior" and loc.inside

    def test_boundary_carries_smallest_face(self):
        loc = square().contains((0, Fraction(1, 2)))
        assert loc.kind == "boundary"
        assert loc.face.active == (0,)
        assert loc.face.dim == 1

    def test_vertex_active_set(self):
        loc = square().contains((0, 0))
        assert loc.face.active == (0, 1)
        assert loc.face.dim == 0

    def test_outside(self):
        assert square().contains((2, 0)).kind == "outside"

    def test_rational_offsets(self):
        # x1 >= 0, x2 >= 0, x1 + x2 <= 1/2: slacks compared at a common scale
        P = make_polytope([((-1, 0), 0), ((0, -1), 0), ((1, 1), Fraction(1, 2))])
        assert P.contains((Fraction(1, 3), Fraction(1, 6))).face.active == (2,)
        assert P.contains((Fraction(1, 3), Fraction(1, 7))).kind == "interior"
        assert P.contains((Fraction(1, 3), Fraction(1, 5))).kind == "outside"
        assert P.contains((Fraction(1, 2), 0)).face.active == (1, 2)

    def test_dimension_checked(self):
        with pytest.raises(DimensionMismatch):
            square().contains((1, 2, 3))


class TestVolume:
    def test_unit_square(self):
        assert square().volume() == 1

    def test_triangle(self):
        assert triangle(1).volume() == Fraction(1, 2)

    def test_trapezoid(self):
        # oracle: triangulate {(0,0),(2,0),(1,1)} u {(0,0),(1,1),(0,1)}
        assert trapezoid(2).volume() == Fraction(3, 2)

    def test_hexagon(self):
        # 2x2 square minus two half-unit corner triangles
        assert hexagon().volume() == 3

    @pytest.mark.parametrize("d", range(1, 6))
    def test_unit_cube(self, d):
        assert cube(d).volume() == 1

    @pytest.mark.parametrize("d", range(1, 6))
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_dilated_simplex(self, d, k):
        assert simplex(d, k).volume() == Fraction(k ** d, math.factorial(d))

    def test_unit_20_simplex(self):
        # the fan descends into one facet per dimension, not into 2^21 faces
        assert simplex(20, 1).volume() == Fraction(1, math.factorial(20))

    def test_segment_length(self):
        seg = make_polytope([((-1,), 1), ((1,), Fraction(5, 2))])
        assert seg.volume() == Fraction(7, 2)
