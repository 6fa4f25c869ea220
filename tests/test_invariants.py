import json
from collections import Counter
from fractions import Fraction

import pytest

from factories import (
    cycle_of_segments,
    doubled,
    half_triangle,
    hexagon_cycle,
    hirzebruch_pair,
    path_of_segments,
    rp4_template,
    s4_template,
    square_template,
    trapezoid_chain,
    triangle,
    triangle_template,
)
from toricorigami import (
    NonIntegralError,
    _latticescan,
    NonorientableError,
    OrigamiTemplate,
    dh_density,
    glue,
    pair,
    quantize,
    reversed_orientation,
    signed_volume,
)
from toricorigami.document import document_from_template, parse_template

ORIENTED_TEMPLATES = [
    s4_template(2),
    hirzebruch_pair(),
    square_template(),
    triangle_template(3),
    cycle_of_segments(2),
    hexagon_cycle(4),
    trapezoid_chain(),
]


class TestQuantize:
    def test_s4_cancels_pointwise(self):
        result = quantize(s4_template(2))
        assert result.virtual_dimension == 0
        assert result.per_point
        assert all(m == 0 for m in result.per_point.values())

    def test_fusion_free_triangle(self):
        result = quantize(triangle_template(2))
        assert result.virtual_dimension == 6
        assert all(m == 1 for m in result.per_point.values())

    def test_hirzebruch_overlap_cancels(self):
        T = hirzebruch_pair()
        result = quantize(T)
        overlap = set(T.polytopes[0].lattice_points())
        for point, mult in result.per_point.items():
            assert mult == (0 if point in overlap else -1)
        assert result.virtual_dimension == 5 - 7

    def test_virtual_dimension_is_signed_count_sum(self):
        from toricorigami import orientation_signs

        for T in ORIENTED_TEMPLATES:
            signs = orientation_signs(T)
            expected = sum(
                s * len(P.lattice_points())
                for s, P in zip(signs, T.polytopes)
            )
            result = quantize(T)
            assert result.virtual_dimension == expected
            assert result.virtual_dimension == sum(result.per_point.values())

    def test_every_key_lies_in_some_polytope(self):
        for T in (s4_template(2), hirzebruch_pair()):
            for point in quantize(T).per_point:
                assert any(P.contains(point).inside for P in T.polytopes)

    def test_nonorientable_rejected(self):
        with pytest.raises(NonorientableError):
            quantize(rp4_template(2))

    def test_non_integral_vertices_rejected(self):
        T = OrigamiTemplate((half_triangle(),))
        with pytest.raises(NonIntegralError) as info:
            quantize(T)
        assert (Fraction(1, 2), Fraction(0)) in info.value.vertices

    @pytest.mark.parametrize("points", [True, False], ids=["points", "count"])
    def test_non_integral_vertices_listed_once_per_entry(self, points):
        # one shared instance at two entries is tested once, listed twice
        P = half_triangle()
        T = doubled(P, 0)
        assert T.polytopes[0] is T.polytopes[1] and len(T._polytope_weights) == 1
        bad = ((Fraction(0), Fraction(1, 2)), (Fraction(1, 2), Fraction(0)))
        with pytest.raises(NonIntegralError) as info:
            quantize(T, points=points)
        assert info.value.vertices == bad + bad
        assert str(info.value) == f"non-integer vertices: {bad + bad}"
        # entry order, not the order of the distinct polytopes
        Q = triangle(Fraction(3, 2))
        with pytest.raises(NonIntegralError) as info:
            quantize(OrigamiTemplate((P, Q, P)), points=points)
        assert info.value.vertices == (
            bad + ((Fraction(0), Fraction(3, 2)), (Fraction(3, 2), Fraction(0))) + bad
        )

    @pytest.mark.parametrize("T", ORIENTED_TEMPLATES)
    def test_count_only_matches_full_scan(self, T):
        counted = quantize(T, points=False)
        assert counted.per_point is None
        assert counted.virtual_dimension == quantize(T).virtual_dimension

    def test_count_only_keeps_the_preconditions(self):
        with pytest.raises(NonorientableError):
            quantize(rp4_template(2), points=False)
        with pytest.raises(NonIntegralError):
            quantize(OrigamiTemplate((half_triangle(),)), points=False)


def _document_copy(T):
    """T through its JSON document: each entry is parsed on its own."""
    return parse_template(json.loads(json.dumps(document_from_template(T))))


class TestQuantizeOncePerPolytope:
    """quantize scans each distinct polytope once, or counts each one of
    nonzero weight once, weighted by the sum of its entries' signs."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = Counter()
        for name in ("count_box", "scan_box"):
            def counting(*args, _name=name, _fn=getattr(_latticescan, name)):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(_latticescan, name, counting)
        return calls

    @pytest.mark.parametrize("points", [False, True], ids=["count", "points"])
    @pytest.mark.parametrize(
        "make, expected",
        [
            (lambda: path_of_segments(400), 0),
            (lambda: _document_copy(path_of_segments(400)), 0),
            (lambda: doubled(triangle(2), 2), 0),
            # two equal polytopes built apart are one distinct polytope
            (lambda: OrigamiTemplate((triangle(2), triangle(2)), (pair((0, 2), (1, 2)),)), 0),
            (lambda: hirzebruch_pair(), 5 - 7),
        ],
        ids=["path-400", "path-400-document", "doubled-triangle", "equal-copies", "hirzebruch"],
    )
    def test_one_call_per_distinct_polytope(self, calls, make, expected, points):
        T = make()
        # a polytope of weight 0 is counted no time, and still lists its points
        distinct = len(set(T.polytopes)) if points else sum(
            weight != 0 for _, weight in T._polytope_weights
        )
        result = quantize(T, points=points)
        assert result.virtual_dimension == expected
        assert calls["scan_box" if points else "count_box"] == distinct
        assert sum(calls.values()) == distinct

    def test_huge_double_is_counted_without_a_scan(self, calls):
        # s4 with both hypotenuses at x + y <= 10^4300: about 10^4300 fibers,
        # but the two triangles are one polytope of weight 0
        doc = document_from_template(s4_template())
        for spec in doc["polytopes"]:
            spec["halfspaces"][2]["offset"] = "1e4300"
        assert quantize(parse_template(doc), points=False).virtual_dimension == 0
        assert calls == {}

    def test_zero_weight_still_lists_its_points(self):
        T = doubled(triangle(2), 2)
        result = quantize(T)
        assert len(result.per_point) == len(triangle(2).lattice_points()) == 6
        assert set(result.per_point.values()) == {0}


class TestDHDensity:
    def test_s4_cancellation(self):
        value = dh_density(s4_template(), (Fraction(1, 4), Fraction(1, 4)))
        assert value.density == 0 and value.generic

    def test_single_triangle_interior(self):
        value = dh_density(triangle_template(), (Fraction(1, 4), Fraction(1, 4)))
        assert value.density == 1 and value.generic

    def test_outside_everything(self):
        assert dh_density(s4_template(), (5, 5)).density == 0

    def test_boundary_flagged_not_generic(self):
        value = dh_density(square_template(), (0, Fraction(1, 2)))
        assert not value.generic
        assert value.density == 1  # closed-containment convention

    def test_hirzebruch_fringe(self):
        value = dh_density(hirzebruch_pair(), (Fraction(5, 2), Fraction(1, 4)))
        assert value.density == -1 and value.generic

    def test_nonorientable_rejected(self):
        with pytest.raises(NonorientableError):
            dh_density(rp4_template(), (0, 0))

    def test_additive_under_glue_with_compatible_orientations(self):
        t1 = OrigamiTemplate((triangle(2),), orientation=(1,))
        t2 = OrigamiTemplate((triangle(2),), orientation=(-1,))
        glued = glue(t1, t2, [pair((0, 2), (1, 2))])
        oriented = OrigamiTemplate(glued.polytopes, glued.fusions, (1, -1))
        for x in ((Fraction(1, 3), Fraction(1, 3)), (Fraction(3, 2), Fraction(1, 5))):
            assert (
                dh_density(oriented, x).density
                == dh_density(t1, x).density + dh_density(t2, x).density
            )


class TestSignedVolume:
    def test_s4_zero(self):
        assert signed_volume(s4_template()) == 0

    def test_unit_square(self):
        assert signed_volume(square_template()) == 1

    def test_hirzebruch(self):
        # exact areas 3/2 and 5/2 with opposite signs
        assert signed_volume(hirzebruch_pair()) == Fraction(3, 2) - Fraction(5, 2)

    def test_two_triangles_shared_elsewhere(self):
        t1 = OrigamiTemplate((triangle(1),), orientation=(1,))
        t2 = OrigamiTemplate((triangle(2),), orientation=(-1,))
        # fuse along the x2 = 0 facets? they differ; use explicit data
        assert signed_volume(t1) == Fraction(1, 2)
        assert signed_volume(t2) == -2

    def test_nonorientable_rejected(self):
        with pytest.raises(NonorientableError):
            signed_volume(rp4_template())


class TestOrientationReversal:
    @pytest.mark.parametrize("index", range(len(ORIENTED_TEMPLATES)))
    def test_reversal_negates_everything(self, index):
        T = ORIENTED_TEMPLATES[index]
        R = reversed_orientation(T)
        assert signed_volume(R) == -signed_volume(T)
        x = tuple(Fraction(1, 3) for _ in range(T.dim))
        assert dh_density(R, x).density == -dh_density(T, x).density
        qt, qr = quantize(T), quantize(R)
        assert qr.virtual_dimension == -qt.virtual_dimension
        assert qr.per_point == {p: -m for p, m in qt.per_point.items()}
