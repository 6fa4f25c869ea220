"""Acceptance suite: one test per criterion, timed, with a PASS line each.

Run ``pytest -s tests/test_acceptance.py`` to see the per-criterion lines.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

import structure_reference as sref
from factories import (
    bad_triangle,
    cycle_of_segments,
    fold_segments_template,
    hexagon,
    hexagon_cycle,
    hirzebruch_pair,
    path_of_segments,
    pentagon,
    rp4_template,
    s4_template,
    square_template,
    trapezoid,
    triangle_template,
)
from test_cohomology import expand_binomial_power, series_quotient
from test_properties import random_delzant_polygon, transform
from toricorigami import (
    NonorientableError,
    agrees_near,
    classify_surface,
    cone_density,
    cut,
    dh_density,
    fixed_points,
    glue,
    ht_poincare,
    orient,
    pair,
    quantize,
    reversed_orientation,
    signed_volume,
    validate,
    verify_dh_identity,
)


class _Timer:
    def __init__(self, name, budget):
        self.name = name
        self.budget = budget

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            verdict = "PASS" if elapsed < self.budget else "FAIL (too slow)"
            print(f"ACCEPTANCE {self.name}: {verdict} [{elapsed:.3f}s]")
            assert elapsed < self.budget, (
                f"{self.name} took {elapsed:.3f}s, budget {self.budget}s"
            )
        else:
            print(f"ACCEPTANCE {self.name}: FAIL [{elapsed:.3f}s]")
        return False


def test_criterion_1_delzant_validation():
    with _Timer("1 delzant validation", 1.0):
        for P in (trapezoid(2), trapezoid(3), pentagon(), hexagon()):
            assert P.is_delzant().is_delzant
        report = bad_triangle().is_delzant()
        assert not report.is_delzant
        offending = [r for r in report.vertex_records if not r.ok]
        assert len(offending) == 1
        assert offending[0].vertex == (Fraction(0), Fraction(1))
        assert abs(offending[0].determinant) == 2


def test_criterion_2_template_gallery():
    with _Timer("2 template gallery", 1.0):
        s4 = s4_template(2)
        assert validate(s4).valid
        assert sorted(orient(s4)) == [-1, 1] and orient(s4)[0] == 1

        rp4 = rp4_template(2)
        assert validate(rp4).valid
        with pytest.raises(NonorientableError) as info:
            orient(rp4)
        assert info.value.single == 0

        cycle3 = hexagon_cycle(3)
        assert validate(cycle3).valid
        with pytest.raises(NonorientableError) as info:
            orient(cycle3)
        assert info.value.odd_cycle is not None
        assert len(info.value.odd_cycle) % 2 == 1


def test_criterion_3_surface_classification_table():
    with _Timer("3 surface classification", 1.0):
        for s in range(1, 6):
            sphere = classify_surface(path_of_segments(s, marks=0))
            assert (sphere.family, sphere.fixed_points, sphere.fold_components) == (
                "sphere", 2, s - 1,
            )
            plane = classify_surface(path_of_segments(s, marks=1))
            assert (plane.family, plane.fixed_points, plane.fold_components) == (
                "projective-plane", 1, s,
            )
            klein = classify_surface(path_of_segments(s, marks=2))
            assert (klein.family, klein.fixed_points, klein.fold_components) == (
                "klein-bottle", 0, s + 1,
            )
            if s % 2 == 0:  # cycles glue left ends to right ends otherwise
                torus = classify_surface(cycle_of_segments(s))
                assert (torus.family, torus.fixed_points, torus.fold_components) == (
                    "torus", 0, s,
                )


def test_criterion_4_quantization():
    with _Timer("4 quantization", 1.0):
        s4 = quantize(s4_template(2))
        assert s4.virtual_dimension == 0
        assert s4.per_point and all(m == 0 for m in s4.per_point.values())

        free = quantize(triangle_template(2))
        assert free.virtual_dimension == 6

        hirz = hirzebruch_pair()
        overlap = set(hirz.polytopes[0].lattice_points())
        result = quantize(hirz)
        assert all(result.per_point[p] == 0 for p in overlap)


def test_criterion_5_dh_identity():
    with _Timer("5 dh identity", 5.0):
        cases = [
            square_template(),
            triangle_template(3),
            s4_template(2),
            hirzebruch_pair(),
        ]
        for T in cases:
            report = verify_dh_identity(T, sample_count=200, seed=0)
            assert report.success and report.disagreements == 0

        # the same samples under two different generic polarizations
        T = hirzebruch_pair()
        from toricorigami import Lcg64

        rng = Lcg64(0)
        lo = [Fraction(-1, 2), Fraction(-1, 2)]
        span = [Fraction(5), Fraction(3)]
        checked = 0
        while checked < 60:
            x = tuple(l + s * rng.next_fraction() for l, s in zip(lo, span))
            try:
                d1 = cone_density(T, (1, 2), x)
                d2 = cone_density(T, (3, 1), x)
            except Exception:
                continue
            assert d1 == d2
            checked += 1


def test_criterion_6_cohomology():
    with _Timer("6 cohomology", 1.0):
        got_s4 = ht_poincare(s4_template(2), 8).coefficients
        oracle_s4 = series_quotient([1, 0, 0, 0, 1], expand_binomial_power(8, 2), 8)
        assert got_s4 == oracle_s4 == (1, 0, 2, 0, 4, 0, 6, 0, 8)

        s2 = fold_segments_template()
        got_s2 = ht_poincare(s2, 8).coefficients
        oracle_s2 = series_quotient([1, 0, 1], expand_binomial_power(8, 1), 8)
        assert got_s2 == oracle_s2 == (1, 0, 2, 0, 2, 0, 2, 0, 2)

        # independence of the auxiliary generic vector in the face series:
        # the reference sorts the vertices by another generic vector
        from toricorigami import critical_faces, face_ht_series, fold_direction

        for T in (s4_template(2), s2):
            xi, _ = fold_direction(T)
            for X in critical_faces(T, xi):
                assert face_ht_series(X, 8) == sref.face_ht_series(
                    X, 8, xi_aux=tuple(7 ** j for j in range(T.dim))
                )


def test_criterion_7_orientation_reversal():
    with _Timer("7 orientation reversal", 5.0):
        templates = [
            s4_template(2),
            hirzebruch_pair(),
            square_template(),
            triangle_template(2),
            cycle_of_segments(2),
            hexagon_cycle(4),
        ]
        for T in templates:
            R = reversed_orientation(T)
            qt, qr = quantize(T), quantize(R)
            assert qr.virtual_dimension == -qt.virtual_dimension
            assert qr.per_point == {p: -m for p, m in qt.per_point.items()}
            assert signed_volume(R) == -signed_volume(T)
            x = tuple(Fraction(1, 3) for _ in range(T.dim))
            assert dh_density(R, x).density == -dh_density(T, x).density


def test_criterion_8_property_suites():
    with _Timer("8 property suites", 30.0):
        rng = random.Random(20260810)
        for _ in range(100):
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

            lo, hi = image.bounding_box()
            naive = sum(
                1
                for pt in itertools.product(
                    *(
                        range(math.ceil(l), math.floor(h) + 1)
                        for l, h in zip(lo, hi)
                    )
                )
                if all(hs.holds(pt) for hs in image.halfspaces)
            )
            assert len(image.lattice_points()) == naive

        # agreement symmetry across a mixed pool of facets
        pool = [random_delzant_polygon(rng)[0] for _ in range(6)]
        pool += [trapezoid(2), trapezoid(3)]
        for P1, P2 in itertools.combinations(pool, 2):
            for f1 in range(len(P1.halfspaces)):
                for f2 in range(len(P2.halfspaces)):
                    assert agrees_near(P1, f1, P2, f2) == agrees_near(
                        P2, f2, P1, f1
                    )

        # cut of glue returns the concatenated data
        T1, T2 = triangle_template(2), triangle_template(2)
        glued = glue(T1, T2, [pair((0, 2), (1, 2))])
        assert cut(glued) == T1.polytopes + T2.polytopes
        assert len(fixed_points(glued)) == 2
