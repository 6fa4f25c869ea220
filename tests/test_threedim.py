"""Three-dimensional sanity coverage: the kernel is dimension-generic."""

from fractions import Fraction

import pytest

from toricorigami import (
    OrigamiTemplate,
    PreconditionError,
    critical_faces,
    dh_density,
    fold_direction,
    ht_poincare,
    make_polytope,
    orient,
    pair,
    quantize,
    signed_volume,
    validate,
    verify_dh_identity,
)


def cube(side=1):
    return make_polytope(
        [
            ((-1, 0, 0), 0),
            ((0, -1, 0), 0),
            ((0, 0, -1), 0),
            ((1, 0, 0), side),
            ((0, 1, 0), side),
            ((0, 0, 1), side),
        ]
    )


def square_pyramid():
    """Apex over a square base: simple nowhere at the apex (4 edges)."""
    return make_polytope(
        [
            ((0, 0, -1), 0),
            ((1, 0, 1), 1),
            ((-1, 0, 1), 1),
            ((0, 1, 1), 1),
            ((0, -1, 1), 1),
        ]
    )


class TestCubeGeometry:
    def test_vertices(self):
        assert len(cube().vertices) == 8

    def test_volume(self):
        assert cube(2).volume() == 8

    def test_lattice(self):
        assert len(cube(2).lattice_points()) == 27

    def test_delzant(self):
        report = cube().is_delzant()
        assert report.is_delzant
        assert all(len(r.directions) == 3 for r in report.vertex_records)

    def test_face_census(self):
        P = cube()
        assert len(P.faces(0)) == 8
        assert len(P.faces(1)) == 12
        assert len(P.faces(2)) == 6


class TestPyramid:
    def test_not_delzant_at_apex(self):
        report = square_pyramid().is_delzant()
        assert not report.is_delzant
        apex = (Fraction(0), Fraction(0), Fraction(1))
        rec = next(r for r in report.vertex_records if r.vertex == apex)
        assert len(rec.directions) == 4 and rec.determinant is None

    def test_volume(self):
        # base 2x2 square at height 0, apex height 1
        assert square_pyramid().volume() == Fraction(4, 3)

    def test_critical_faces_need_a_simple_polytope(self):
        # doubled along its base: the apex has four edges in Q^3
        P = square_pyramid()
        T = OrigamiTemplate((P, P), (pair((0, 0), (1, 0)),))
        xi, _ = fold_direction(T)
        with pytest.raises(PreconditionError, match="is not simple"):
            critical_faces(T, xi)


class TestCubePairTemplate:
    def template(self):
        c = cube()
        return OrigamiTemplate((c, c), (pair((0, 3), (1, 3)),))

    def test_validates_and_orients(self):
        T = self.template()
        assert validate(T).valid
        assert orient(T) == (1, -1)

    def test_quantization_cancels(self):
        result = quantize(self.template())
        assert result.virtual_dimension == 0
        assert all(m == 0 for m in result.per_point.values())

    def test_signed_volume_and_density(self):
        T = self.template()
        assert signed_volume(T) == 0
        x = (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))
        assert dh_density(T, x).density == 0

    def test_cone_identity(self):
        report = verify_dh_identity(self.template(), sample_count=120, seed=5)
        assert report.success

    def test_cohomology_series(self):
        T = self.template()
        xi, offset = fold_direction(T)
        assert xi == (1, 0, 0) and offset == 1
        faces = critical_faces(T, xi)
        # the opposite squares x1 = 0 are the critical manifolds
        assert len(faces) == 2
        assert all(X.m == 2 for X in faces)
        assert sorted(X.r for X in faces) == [0, 2]
        got = ht_poincare(T, 8).coefficients
        from test_cohomology import expand_binomial_power, series_quotient

        # each square face contributes (1 + t^2)^2 / (1 - t^2)^3
        oracle = series_quotient(
            [1, 0, 3, 0, 3, 0, 1], expand_binomial_power(8, 3), 8
        )
        assert got == oracle
        assert got[0] == 1 and all(got[k] == 0 for k in range(1, 9, 2))
