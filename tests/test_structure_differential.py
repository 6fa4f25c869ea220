"""The fusion-graph walk and the incidence reads against the code they replaced.

``structure_reference`` holds the earlier graph builders, orientation,
classification, ``critical_faces`` and ``agrees_near``; every outcome here,
a value or an error with its message and witness, must match it exactly.
"""

import itertools
import random
from pathlib import Path

import pytest

import structure_reference as ref
from factories import (
    cube,
    doubled,
    doubled_cube,
    fold_segments_template,
    hexagon,
    hirzebruch_pair,
    pentagon,
    s4_template,
    segment,
    square,
    trapezoid,
    triangle,
)
from test_properties import random_delzant_polygon, transform
from toricorigami import OrigamiTemplate, pair, single
from toricorigami.cohomology import critical_faces, fold_direction
from toricorigami.document import load_template
from toricorigami.errors import OrigamiError
from toricorigami.exactgeom import _generic_vector, agrees_near
from toricorigami.template import classify_surface, orient, validate

GALLERY = Path(__file__).resolve().parent.parent / "gallery"


def outcome(f, *args):
    """("value", f(*args)), or the error it raises with its message and witness."""
    try:
        return "value", f(*args)
    except OrigamiError as exc:
        return (
            type(exc).__name__, str(exc),
            getattr(exc, "single", None), getattr(exc, "odd_cycle", None),
        )


def random_segment_template(rng):
    """1 to 7 segments of lengths 1 and 2 under random fusions.

    Draws singles, self-pairs (both ends of one segment), repeats of an
    earlier pair (parallel edges) and pairs of two random ends, so the
    graphs include paths, even and odd cycles and several components.
    """
    n = rng.randint(1, 7)
    segments = tuple(segment(0, rng.choice((1, 1, 2))) for _ in range(n))
    fusions = []
    for _ in range(rng.randint(0, 2 * n)):
        a = rng.randrange(n)
        roll = rng.random()
        pairs = [fu for fu in fusions if fu.is_pair]
        if roll < 0.1:
            fusions.append(single((a, rng.randrange(2))))
        elif roll < 0.15:
            fusions.append(pair((a, 0), (a, 1)))
        elif roll < 0.25 and pairs:
            fusions.append(rng.choice(pairs))
        elif n > 1:
            b = rng.choice([p for p in range(n) if p != a])
            fusions.append(pair((a, rng.randrange(2)), (b, rng.randrange(2))))
    return OrigamiTemplate(segments, tuple(fusions))


class TestFusionWalk:
    RUNS = 600

    def test_matches_reference_on_random_segment_templates(self):
        rng = random.Random(20261018)
        seen = set()
        for _ in range(self.RUNS):
            T = random_segment_template(rng)
            connected = ref._is_connected(T)
            assert validate(T).connected == connected
            expected = outcome(ref.orient, T)
            assert outcome(orient, T) == expected
            assert outcome(classify_surface, T) == outcome(ref.classify_surface, T)

            edges = [frozenset((u, v)) for u, v, _ in ref._pair_edges(T)]
            seen.add("disconnected" if not connected else "connected")
            if len(set(edges)) < len(edges):
                seen.add("parallel")
            if expected[0] != "value" and expected[2] is not None:
                seen.add("single")
            elif expected[0] != "value":
                seen.add("self-pair" if len(expected[3]) == 1 else "odd cycle")
            elif connected and len(set(edges)) >= len(T.polytopes) > 2:
                seen.add("even cycle")
        assert seen == {
            "connected", "disconnected", "parallel", "single", "self-pair",
            "odd cycle", "even cycle",
        }

    @pytest.mark.parametrize("name", [
        "s4", "rp4", "hirzebruch_pair", "hexagon_3cycle", "torus_2segments",
        "sphere_fold_2segments", "unit_square", "trapezoid_chain",
    ])
    def test_matches_reference_on_gallery(self, name):
        T = load_template(GALLERY / f"{name}.json")
        assert validate(T).connected == ref._is_connected(T)
        assert outcome(orient, T) == outcome(ref.orient, T)
        if T.dim == 1:
            assert classify_surface(T) == ref.classify_surface(T)


def one_fold_templates():
    rng = random.Random(20261019)
    templates = {
        "s4": s4_template(1),
        "s4-3": s4_template(3),
        "hirzebruch_pair": hirzebruch_pair(),
        "fold_segments": fold_segments_template(2),
        "sphere_fold_2segments": load_template(GALLERY / "sphere_fold_2segments.json"),
    }
    templates.update({f"doubled-cube-{d}": doubled_cube(d) for d in range(1, 6)})
    templates["doubled-cube-3-lower"] = doubled(cube(3), 1)
    for k in range(8):
        P = transform(*random_delzant_polygon(rng))
        templates[f"doubled-polygon-{k}"] = doubled(P, rng.randrange(len(P.halfspaces)))
    return templates


ONE_FOLD = one_fold_templates()


class TestCriticalFaces:
    @pytest.mark.parametrize("name", sorted(ONE_FOLD))
    def test_matches_reference(self, name):
        # the fold normal, a generic vector and every vector of entries -1, 0
        # and 1 in the first three coordinates, among them the zero vector,
        # which is level on every edge
        T = ONE_FOLD[name]
        fold, _ = fold_direction(T)
        generic = _generic_vector(
            [hs.normal for P in T.polytopes for hs in P.halfspaces], T.dim
        )
        box = itertools.product((-1, 0, 1), repeat=min(T.dim, 3))
        pad = (0,) * max(T.dim - 3, 0)
        for xi in [fold, generic] + [head + pad for head in box]:
            assert outcome(critical_faces, T, xi) == outcome(
                ref.critical_faces, T, xi
            )
        assert critical_faces(T, fold) and critical_faces(T, generic)
        assert outcome(critical_faces, T, (0,) * T.dim)[0] == "InconsistentIndex"


def agreement_polygons():
    rng = random.Random(20261020)
    polygons = [square(1), trapezoid(2), trapezoid(3), triangle(1), pentagon(), hexagon()]
    for _ in range(4):
        P, U, t = random_delzant_polygon(rng)
        polygons += [transform(P, U, t), transform(P, U, (t[0] + 1, t[1]))]
    return polygons


class TestAgreesNear:
    def test_matches_reference_on_facet_pairs(self):
        polygons = agreement_polygons()
        agreeing = set()
        for (i, P1), (j, P2) in itertools.product(enumerate(polygons), repeat=2):
            for f1, f2 in itertools.product(
                range(len(P1.halfspaces)), range(len(P2.halfspaces))
            ):
                expected = ref.agrees_near(P1, f1, P2, f2)
                assert agrees_near(P1, f1, P2, f2) == expected
                if expected:
                    agreeing.add(i == j)
        # both a polygon with itself and two different polygons agree somewhere
        assert agreeing == {True, False}
