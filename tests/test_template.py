from fractions import Fraction

import pytest

import structure_reference
from factories import (
    bad_triangle,
    cycle_of_segments,
    fold_segments_template,
    hexagon,
    hexagon_cycle,
    hirzebruch_pair,
    path_of_segments,
    rp4_template,
    s4_template,
    segment,
    square,
    square_template,
    triangle,
    triangle_template,
)
from toricorigami import (
    DimensionError,
    NonorientableError,
    OrigamiTemplate,
    StructureError,
    ValidationError,
    classify_surface,
    cut,
    fixed_points,
    fold_components,
    glue,
    multiplicity,
    orient,
    orientation_signs,
    pair,
    reversed_orientation,
    single,
    validate,
)
from test_document import DOCUMENTS
from toricorigami.document import parse_template
from toricorigami.exactgeom import agrees_near

KLEIN_BOTTLE = "klein-bottle"
PROJECTIVE_PLANE = "projective-plane"
SPHERE = "sphere"
TORUS = "torus"


class TestConstruction:
    def test_needs_polytopes(self):
        with pytest.raises(ValueError):
            OrigamiTemplate(())

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(ValueError):
            OrigamiTemplate((square(), segment()))

    def test_fusion_indices_checked(self):
        with pytest.raises(ValueError):
            OrigamiTemplate((square(),), (single((1, 0)),))
        with pytest.raises(ValueError):
            OrigamiTemplate((square(),), (single((0, 9)),))

    def test_pair_must_join_distinct_facets(self):
        with pytest.raises(ValueError):
            OrigamiTemplate((square(),), (pair((0, 0), (0, 0)),))

    def test_orientation_values_checked(self):
        with pytest.raises(ValueError):
            OrigamiTemplate((square(),), orientation=(2,))

    def test_orientation_length_checked(self):
        with pytest.raises(ValueError, match="orientation length mismatch"):
            OrigamiTemplate((square(),), orientation=(1, -1))

    def test_supplied_orientation_with_a_single_fusion_is_refused(self):
        T = OrigamiTemplate((square(),), (single((0, 0)),), orientation=(1,))
        with pytest.raises(NonorientableError) as caught:
            orientation_signs(T)
        assert caught.value.single == 0


class TestValidate:
    def test_s4_valid(self):
        assert validate(s4_template()).valid

    def test_rp4_valid(self):
        assert validate(rp4_template()).valid

    def test_fusion_free_single_polytope_valid(self):
        assert validate(square_template()).valid

    def test_delzant_failure_reported(self):
        T = OrigamiTemplate((bad_triangle(),))
        report = validate(T)
        assert not report.valid
        assert report.delzant_failures[0][0] == 0

    def test_agreement_failure_reported(self):
        # a square and a triangle share the facet line x1 = 0 but their
        # active cones at (0, 1) differ
        T = OrigamiTemplate(
            (square(), triangle(1)), (pair((0, 0), (1, 0)),)
        )
        report = validate(T)
        assert not report.valid
        assert report.agreement_failures[0][0] == 0

    @pytest.mark.parametrize("name, doc", DOCUMENTS, ids=[n for n, _ in DOCUMENTS])
    def test_agreement_matches_reference_on_every_fusion(self, name, doc):
        T = parse_template(doc)
        for fu in T.fusions:
            if fu.is_pair:
                ends = (T.polytopes[fu.a.polytope], fu.a.facet,
                        T.polytopes[fu.b.polytope], fu.b.facet)
                assert agrees_near(*ends) == structure_reference.agrees_near(*ends)

    @pytest.mark.parametrize("name, doc", DOCUMENTS, ids=[n for n, _ in DOCUMENTS])
    def test_near_facet_matches_per_vertex_scatter(self, name, doc):
        for P in parse_template(doc).polytopes:
            assert P._near_facet == structure_reference.near_facet(P)

    def test_agreement_cases_include_a_failure(self):
        doc = dict(DOCUMENTS)["agreement_failure"]
        assert validate(parse_template(doc)).agreement_failures

    def test_adjacent_fused_facets_invalid(self):
        # two pairs fusing two adjacent facet pairs of two unit squares
        sq = square()
        T = OrigamiTemplate(
            (sq, sq), (pair((0, 2), (1, 2)), pair((0, 3), (1, 3)))
        )
        report = validate(T)
        assert not report.valid
        assert report.adjacency_failures
        assert not report.agreement_failures

    def test_facet_reuse_invalid(self):
        tri = triangle(1)
        T = OrigamiTemplate(
            (tri, tri, tri),
            (pair((0, 2), (1, 2)), pair((0, 2), (2, 2))),
        )
        report = validate(T)
        assert any("reuse" in msg for msg in report.adjacency_failures)

    def test_disconnected_invalid(self):
        T = OrigamiTemplate((square(), square()))
        report = validate(T)
        assert not report.connected and not report.valid

    def test_opposite_square_facets_not_neighbors(self):
        sq = square()
        T = OrigamiTemplate(
            (sq, sq, sq, sq),
            (
                pair((0, 2), (1, 2)),
                pair((1, 0), (2, 0)),
                pair((2, 2), (3, 2)),
                pair((3, 0), (0, 0)),
            ),
        )
        assert validate(T).valid

    def test_self_pair_flagged(self):
        sq = square()
        T = OrigamiTemplate((sq, sq), (pair((0, 0), (0, 2)), pair((0, 3), (1, 3))))
        report = validate(T)
        assert report.self_pairs == (0,)
        # distinct facets of one polytope are never equal point sets
        assert not report.valid

    def test_validation_order_independent(self):
        T = s4_template()
        flipped = OrigamiTemplate(
            T.polytopes[::-1], (pair((1, 2), (0, 2)),)
        )
        assert validate(T).valid and validate(flipped).valid


class TestOrient:
    def test_s4_signs(self):
        assert orient(s4_template()) == (1, -1)

    def test_rp4_single_witness(self):
        with pytest.raises(NonorientableError) as info:
            orient(rp4_template())
        assert info.value.single == 0

    def test_three_cycle_odd_witness(self):
        T = hexagon_cycle(3)
        assert validate(T).valid
        with pytest.raises(NonorientableError) as info:
            orient(T)
        cyc = info.value.odd_cycle
        assert cyc is not None and len(cyc) % 2 == 1
        assert set(cyc) <= {0, 1, 2}

    def test_witnesses_are_the_first_in_template_order(self):
        sq = square()
        self_pairs = (pair((1, 0), (1, 2)), pair((0, 0), (0, 2)))
        singles = (single((2, 1)), single((0, 1)))
        for fusions, witness in (
            (self_pairs + singles, {"single": 2}),
            (singles[1:] + self_pairs, {"single": 0}),
            (self_pairs, {"odd_cycle": (1,)}),
            (self_pairs[::-1], {"odd_cycle": (0,)}),
        ):
            with pytest.raises(NonorientableError) as info:
                orient(OrigamiTemplate((sq, sq, sq), fusions))
            assert {k: getattr(info.value, k) for k in witness} == witness

    def test_four_cycle_orientable(self):
        T = hexagon_cycle(4)
        assert validate(T).valid
        assert orient(T) == (1, -1, 1, -1)

    def test_negated_orientation_also_consistent(self):
        T = s4_template()
        signs = orient(T)
        negated = OrigamiTemplate(
            T.polytopes, T.fusions, tuple(-s for s in signs)
        )
        assert orientation_signs(negated) == (-1, 1)

    def test_every_pair_joins_opposite_signs(self):
        for T in (s4_template(), hirzebruch_pair(), hexagon_cycle(4)):
            signs = orient(T)
            for fu in T.fusions:
                assert signs[fu.a.polytope] == -signs[fu.b.polytope]

    def test_supplied_inconsistent_orientation_rejected(self):
        T = s4_template()
        bad = OrigamiTemplate(T.polytopes, T.fusions, (1, 1))
        with pytest.raises(ValueError):
            orientation_signs(bad)

    def test_reversed_orientation(self):
        T = s4_template()
        assert orientation_signs(reversed_orientation(T)) == (-1, 1)


class TestMultiplicity:
    def test_s4_interior(self):
        assert multiplicity(s4_template(), (Fraction(1, 4), Fraction(1, 4))) == 2

    def test_s4_outside(self):
        assert multiplicity(s4_template(), (2, 2)) == 0

    def test_hirzebruch_overlap_and_fringe(self):
        T = hirzebruch_pair()
        assert multiplicity(T, (Fraction(1, 2), Fraction(1, 2))) == 2
        assert multiplicity(T, (Fraction(5, 2), Fraction(1, 4))) == 1

    def test_boundary_counts_as_containing(self):
        assert multiplicity(square_template(), (0, 0)) == 1


class TestFoldComponents:
    def test_s4(self):
        comps = fold_components(s4_template())
        assert len(comps) == 1 and comps[0].coorientable

    def test_rp4(self):
        comps = fold_components(rp4_template())
        assert len(comps) == 1 and not comps[0].coorientable

    def test_fusion_free(self):
        assert fold_components(square_template()) == ()


class TestFixedPoints:
    def test_s4_two_poles(self):
        fps = fixed_points(s4_template())
        assert [(fp.polytope, fp.vertex) for fp in fps] == [
            (0, (Fraction(0), Fraction(0))),
            (1, (Fraction(0), Fraction(0))),
        ]

    def test_rp4_one(self):
        assert len(fixed_points(rp4_template())) == 1

    def test_plain_segment_two(self):
        T = OrigamiTemplate((segment(0, 3),))
        assert len(fixed_points(T)) == 2

    def test_torus_none(self):
        assert fixed_points(cycle_of_segments(2)) == ()


class TestCutGlue:
    def test_cut_returns_polytopes(self):
        T = s4_template()
        assert cut(T) == T.polytopes

    def test_glue_builds_s4(self):
        glued = glue(triangle_template(), triangle_template(), [pair((0, 2), (1, 2))])
        assert glued == s4_template()

    def test_glue_four_cycle(self):
        hexa = hexagon()
        half = OrigamiTemplate((hexa, hexa), (pair((0, 0), (1, 0)),))
        glued = glue(
            half, half, [pair((1, 2), (2, 2)), pair((3, 4), (0, 4))]
        )
        assert validate(glued).valid
        assert len(glued.polytopes) == 4
        assert orient(glued) == (1, -1, 1, -1)

    def test_glue_within_one_template(self):
        hexa = hexagon()
        chain = OrigamiTemplate(
            (hexa,) * 4,
            (pair((0, 0), (1, 0)), pair((1, 2), (2, 2)), pair((2, 0), (3, 0))),
        )
        closed = glue(chain, None, [pair((3, 2), (0, 2))])
        assert validate(closed).valid
        assert len(closed.fusions) == 4

    def test_glue_rejects_disagreeing_facets(self):
        with pytest.raises(ValidationError):
            glue(square_template(), triangle_template(), [pair((0, 0), (1, 0))])

    def test_glue_rejects_disconnected(self):
        with pytest.raises(ValidationError):
            glue(square_template(), square_template(), [])

    def test_glue_joins_names(self):
        T1 = OrigamiTemplate((triangle(),), names=("left",))
        T2 = OrigamiTemplate((triangle(),), names=("right",))
        seam = [pair((0, 2), (1, 2))]
        assert glue(T1, T2, seam).names == ("left", "right")
        assert glue(T1, triangle_template(), seam).names is None
        closed = OrigamiTemplate((triangle(),) * 2, names=("a", "b"))
        assert glue(closed, None, seam).names == ("a", "b")

    def test_cut_of_glue_concatenates(self):
        T1, T2 = triangle_template(2), triangle_template(2)
        glued = glue(T1, T2, [pair((0, 2), (1, 2))])
        assert cut(glued) == T1.polytopes + T2.polytopes


class TestClassifySurface:
    @pytest.mark.parametrize("s", [1, 2, 3, 4, 5])
    def test_sphere_family(self, s):
        T = path_of_segments(s, marks=0)
        assert validate(T).valid
        got = classify_surface(T)
        assert (got.family, got.fixed_points, got.fold_components) == (
            SPHERE, 2, s - 1,
        )

    @pytest.mark.parametrize("s", [1, 2, 3, 4, 5])
    def test_projective_plane_family(self, s):
        T = path_of_segments(s, marks=1)
        assert validate(T).valid
        got = classify_surface(T)
        assert (got.family, got.fixed_points, got.fold_components) == (
            PROJECTIVE_PLANE, 1, s,
        )

    @pytest.mark.parametrize("s", [1, 2, 3, 4, 5])
    def test_klein_bottle_family(self, s):
        T = path_of_segments(s, marks=2)
        assert validate(T).valid
        got = classify_surface(T)
        assert (got.family, got.fixed_points, got.fold_components) == (
            KLEIN_BOTTLE, 0, s + 1,
        )

    @pytest.mark.parametrize("s", [2, 4])
    def test_torus_family(self, s):
        T = cycle_of_segments(s)
        assert validate(T).valid
        got = classify_surface(T)
        assert (got.family, got.fixed_points, got.fold_components) == (
            TORUS, 0, s,
        )

    def test_odd_cycles_fail_agreement(self):
        # closing an odd cycle forces fusing a left end to a right end,
        # which are different points
        assert not validate(cycle_of_segments(3)).valid

    def test_unvalidated_odd_cycle_is_structural_error(self):
        with pytest.raises(StructureError, match="odd cycle of segments"):
            classify_surface(cycle_of_segments(3))

    def test_fixed_point_count_matches_fixed_points(self):
        for T in (path_of_segments(3), path_of_segments(2, marks=1),
                  path_of_segments(4, marks=2), cycle_of_segments(2)):
            assert classify_surface(T).fixed_points == len(fixed_points(T))

    def test_requires_dimension_one(self):
        with pytest.raises(DimensionError):
            classify_surface(s4_template())

    def test_disconnected_is_structural_error(self):
        T = OrigamiTemplate((segment(), segment()))
        with pytest.raises(StructureError):
            classify_surface(T)

    def test_fold_template_is_sphere(self):
        got = classify_surface(fold_segments_template())
        assert got.family == SPHERE and got.fold_components == 1
