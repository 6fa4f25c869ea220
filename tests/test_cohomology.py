from pathlib import Path

import pytest

from factories import (
    cycle_of_segments,
    doubled_cube,
    doubled_simplex,
    fold_segments_template,
    hirzebruch_pair,
    rp4_template,
    s4_template,
    segment,
    square,
    square_template,
)
from toricorigami import (
    DimensionMismatch,
    OrigamiTemplate,
    PreconditionError,
    critical_faces,
    face_ht_series,
    fixed_points,
    fold_direction,
    ht_poincare,
    load_template,
    pair,
    reversed_orientation,
)

GALLERY = Path(__file__).resolve().parent.parent / "gallery"
GOLDEN_INPUTS = Path(__file__).resolve().parent / "golden" / "inputs"


def series_quotient(numerator, denominator, cap):
    """Oracle: power-series long division numerator/denominator up to cap.

    Polynomials are dense integer coefficient lists; denominator[0] must be
    a unit.
    """
    num = list(numerator) + [0] * (cap + 1 - len(numerator))
    den = list(denominator) + [0] * (cap + 1 - len(denominator))
    assert den[0] in (1, -1)
    out = []
    for k in range(cap + 1):
        c = num[k] - sum(out[j] * den[k - j] for j in range(k))
        out.append(c // den[0])
    return tuple(out)


def expand_binomial_power(cap, n):
    """(1 - t^2)^n as a coefficient list."""
    import math

    coeffs = [0] * (2 * n + 1)
    for i in range(n + 1):
        coeffs[2 * i] = (-1) ** i * math.comb(n, i)
    return coeffs


def poincare_polynomial(T):
    """(1 - t^2)^n times ``ht_poincare(T)`` up to degree 2n, after checking
    that the product vanishes in the four degrees above 2n."""
    n = T.dim
    cap = 2 * n + 4
    series = ht_poincare(T, cap).coefficients
    factor = expand_binomial_power(cap, n)
    product = [
        sum(factor[j] * series[k - j] for j in range(min(k, 2 * n) + 1))
        for k in range(cap + 1)
    ]
    assert product[2 * n + 1:] == [0] * 4
    return product[: 2 * n + 1]


class TestSeriesOracle:
    def test_geometric(self):
        assert series_quotient([1], [1, 0, -1], 6) == (1, 0, 1, 0, 1, 0, 1)

    def test_squared(self):
        assert series_quotient([1], expand_binomial_power(4, 2), 8) == (
            1, 0, 2, 0, 3, 0, 4, 0, 5,
        )


class TestFoldDirection:
    def test_s4(self):
        xi, offset = fold_direction(s4_template(2))
        assert xi == (1, 1) and offset == 2

    def test_two_segments(self):
        xi, offset = fold_direction(fold_segments_template(3))
        assert xi == (1,) and offset == 3

    def test_single_fold_rejected(self):
        with pytest.raises(PreconditionError):
            fold_direction(rp4_template())

    def test_multiple_fusions_rejected(self):
        with pytest.raises(PreconditionError):
            fold_direction(cycle_of_segments(2))

    def test_fusion_free_rejected(self):
        with pytest.raises(PreconditionError):
            fold_direction(square_template())

    def test_height_vanishes_exactly_on_fold(self):
        T = s4_template(2)
        xi, offset = fold_direction(T)
        P = T.polytopes[0]
        fold_vertices = set(P.face_vertices(P.facet(2)))
        for v in P.vertices:
            height = offset - sum(a * c for a, c in zip(xi, v))
            assert (height == 0) == (v in fold_vertices)
            assert height >= 0


class TestCriticalFaces:
    def test_s4_two_point_faces(self):
        T = s4_template(2)
        faces = critical_faces(T, (1, 1))
        assert len(faces) == 2
        assert all(X.m == 0 for X in faces)
        assert all(X.ind == 4 for X in faces)
        assert sorted(X.r for X in faces) == [0, 4]
        plus = next(X for X in faces if X.side == 1)
        assert plus.r == 4  # both edges descend on the positive side

    def test_two_segments(self):
        faces = critical_faces(fold_segments_template(), (1,))
        assert len(faces) == 2
        assert all(X.ind == 2 for X in faces)
        assert sorted(X.r for X in faces) == [0, 2]

    def test_square_pair_whole_facets_critical(self):
        sq = square()
        T = OrigamiTemplate((sq, sq), (pair((0, 2), (1, 2)),))
        faces = critical_faces(T, (1, 0))
        # the opposite facets x1 = 0 are critical as whole faces; their
        # vertices are not reported separately
        assert len(faces) == 2
        assert all(X.m == 1 for X in faces)
        assert all(X.face.active == (0,) for X in faces)
        assert all(X.ind == 2 for X in faces)
        assert sorted(X.r for X in faces) == [0, 2]

    @pytest.mark.parametrize("xi", [(1,), (0, 1, 5)])
    def test_height_vector_of_another_length_rejected(self, xi):
        with pytest.raises(DimensionMismatch, match="is not a 2-vector"):
            critical_faces(hirzebruch_pair(), xi)

    def test_vertices_are_read_from_the_face(self):
        # every critical face of the fold height on the gallery and the golden
        # inputs; ht_poincare builds no polytope's Fraction vertices
        documents = sorted(GALLERY.glob("*.json")) + sorted(GOLDEN_INPUTS.glob("*.json"))
        faces = 0
        for path in documents:
            T = load_template(path)
            try:
                ht_poincare(T)
            except PreconditionError:
                continue
            assert not any("vertices" in vars(P) for P in T.polytopes)
            for X in critical_faces(T, fold_direction(T)[0]):
                assert "vertices" not in vars(X)
                assert X.vertices == X.face.polytope.face_vertices(X.face)
                faces += 1
        assert faces >= 20

    def test_exactly_one_minimum(self):
        for T in (s4_template(2), fold_segments_template()):
            xi, _ = fold_direction(T)
            faces = critical_faces(T, xi)
            assert sum(X.r == 0 for X in faces) == 1


class TestFaceSeries:
    def test_point_face_dim2(self):
        T = s4_template(2)
        X = next(F for F in critical_faces(T, (1, 1)) if F.side == 1)
        assert face_ht_series(X, 6) == (1, 0, 2, 0, 3, 0, 4)

    def test_point_face_dim1(self):
        X = critical_faces(fold_segments_template(), (1,))[0]
        assert face_ht_series(X, 4) == (1, 0, 1, 0, 1)

    def test_segment_face(self):
        sq = square()
        T = OrigamiTemplate((sq, sq), (pair((0, 2), (1, 2)),))
        X = critical_faces(T, (1, 0))[0]
        assert X.m == 1
        # (1 + t^2) / (1 - t^2)^2
        assert face_ht_series(X, 4) == (1, 0, 3, 0, 5)

    def test_auxiliary_vector_invariance(self):
        sq = square()
        T = OrigamiTemplate((sq, sq), (pair((0, 2), (1, 2)),))
        for X in critical_faces(T, (1, 0)):
            default = face_ht_series(X, 8)
            assert face_ht_series(X, 8, xi_aux=(5, 3)) == default
            assert face_ht_series(X, 8, xi_aux=(-1, -7)) == default

    def test_non_generic_auxiliary_rejected(self):
        sq = square()
        T = OrigamiTemplate((sq, sq), (pair((0, 2), (1, 2)),))
        X = critical_faces(T, (1, 0))[0]
        with pytest.raises(ValueError):
            face_ht_series(X, 4, xi_aux=(1, 0))

    def test_auxiliary_vector_of_another_length_rejected(self):
        T = hirzebruch_pair()
        X = critical_faces(T, fold_direction(T)[0])[0]
        with pytest.raises(DimensionMismatch, match="is not a 2-vector"):
            face_ht_series(X, 6, (1,))

    def test_odd_cap_rejected(self):
        X = critical_faces(fold_segments_template(), (1,))[0]
        with pytest.raises(ValueError):
            face_ht_series(X, 5)


class TestHtPoincare:
    def test_s4_series(self):
        got = ht_poincare(s4_template(2), 8).coefficients
        oracle = series_quotient(
            [1, 0, 0, 0, 1], expand_binomial_power(8, 2), 8
        )
        assert got == oracle == (1, 0, 2, 0, 4, 0, 6, 0, 8)

    def test_s2_series(self):
        got = ht_poincare(fold_segments_template(), 8).coefficients
        oracle = series_quotient([1, 0, 1], expand_binomial_power(8, 1), 8)
        assert got == oracle == (1, 0, 2, 0, 2, 0, 2, 0, 2)

    def test_square_pair_series(self):
        sq = square()
        T = OrigamiTemplate((sq, sq), (pair((0, 2), (1, 2)),))
        # two segment faces with shifts 0 and 2: (1 + t^2)^2 / (1 - t^2)^2
        got = ht_poincare(T, 8).coefficients
        oracle = series_quotient(
            [1, 0, 2, 0, 1], expand_binomial_power(8, 2), 8
        )
        assert got == oracle

    def test_coefficient_zero_is_one_and_odds_vanish(self):
        for T in (s4_template(2), fold_segments_template(), hirzebruch_pair()):
            series = ht_poincare(T, 12)
            assert series.coefficients[0] == 1
            assert all(series.coefficients[k] == 0 for k in range(1, 13, 2))

    def test_orientation_reversal_invariance_on_symmetric_template(self):
        T = s4_template(2)
        assert (
            ht_poincare(T, 10).coefficients
            == ht_poincare(reversed_orientation(T), 10).coefficients
        )

    def test_default_cap(self):
        series = ht_poincare(s4_template(2))
        assert series.cap == 20 and len(series.coefficients) == 21

    def test_odd_cap_rejected(self):
        with pytest.raises(ValueError):
            ht_poincare(s4_template(2), 7)

    def test_rp4_rejected(self):
        with pytest.raises(PreconditionError):
            ht_poincare(rp4_template(), 8)

    def test_segment_fused_to_itself_rejected(self):
        T = OrigamiTemplate((segment(0, 1),), (pair((0, 0), (0, 1)),))
        with pytest.raises(PreconditionError) as info:
            ht_poincare(T, 8)
        assert str(info.value) == (
            "template is not orientable: odd fusion cycle through polytopes (0,)"
        )


FORMAL_TEMPLATES = {
    "s4": lambda: load_template(GALLERY / "s4.json"),
    "hirzebruch_pair": lambda: load_template(GALLERY / "hirzebruch_pair.json"),
    "sphere_fold_2segments": lambda: load_template(
        GALLERY / "sphere_fold_2segments.json"
    ),
    **{f"cube-{d}": (lambda d=d: doubled_cube(d)) for d in range(1, 5)},
    **{
        f"simplex-{d}-{k}": (lambda d=d, k=k: doubled_simplex(d, k))
        for d, k in ((1, 3), (2, 1), (2, 4), (3, 2), (4, 1))
    },
}


class TestEquivariantFormality:
    """(1 - t^2)^n times the series is the ordinary Poincare polynomial.

    The manifold is equivariantly formal, so the product is a polynomial of
    degree 2n; Poincare duality makes it palindromic, and its coefficients
    sum to the Euler characteristic, the number of fixed points.
    """

    @pytest.mark.parametrize("name", sorted(FORMAL_TEMPLATES))
    def test_poincare_polynomial(self, name):
        T = FORMAL_TEMPLATES[name]()
        poly = poincare_polynomial(T)
        assert poly[-1] > 0
        assert all(c >= 0 for c in poly)
        assert poly == poly[::-1]
        assert sum(poly) == len(fixed_points(T))
