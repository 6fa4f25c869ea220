"""The fusion-graph walk and the incidence reads against the code they replaced.

``structure_reference`` holds the earlier graph builders, orientation,
classification, ``critical_faces``, ``face_ht_series`` and ``agrees_near``;
every outcome here, a value or an error with its message and witness, must
match it exactly.  The package's ``face_ht_series`` takes no auxiliary
vector: its series must equal the reference's under every vector the
reference accepts.
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
from toricorigami.cohomology import (
    CriticalFace,
    critical_faces,
    face_ht_series,
    fold_direction,
    ht_poincare,
)
from toricorigami.document import load_template
from toricorigami.errors import OrigamiError
from toricorigami.exactgeom import HPolytope, _generic_vector, agrees_near
from toricorigami.template import classify_surface, orient, validate

HERE = Path(__file__).resolve().parent
GALLERY = HERE.parent / "gallery"
GOLDEN_INPUTS = HERE / "golden" / "inputs"


def outcome(f, *args):
    """("value", f(*args)), or the error it raises with its message and witness."""
    try:
        return "value", f(*args)
    except (OrigamiError, ValueError) as exc:
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


def document_templates():
    # the oracle builds the whole face lattice, so documents above
    # dimension 3, such as simplex12_double, are left out
    documents = {}
    for prefix, folder in (("gallery", GALLERY), ("golden", GOLDEN_INPUTS)):
        for path in sorted(folder.glob("*.json")):
            T = load_template(path)
            if T.dim <= 3:
                documents[f"{prefix}-{path.stem}"] = T
    return documents


DOCUMENTS = document_templates()


class TestCriticalFaces:
    @pytest.mark.parametrize("name", sorted(ONE_FOLD) + sorted(DOCUMENTS))
    def test_matches_reference(self, name):
        # on a one-fold template: the fold normal, a generic vector and every
        # vector of entries -1, 0 and 1 in the first three coordinates, among
        # them the zero vector, which both refuse; on a document: every
        # nonzero vector of entries -2 to 2
        if name in DOCUMENTS:
            T = DOCUMENTS[name]
            box = itertools.product(range(-2, 3), repeat=T.dim)
            vectors = [xi for xi in box if any(xi)]
        else:
            T = ONE_FOLD[name]
            fold, _ = fold_direction(T)
            generic = _generic_vector(
                [hs.normal for P in T.polytopes for hs in P.halfspaces], T.dim
            )
            assert critical_faces(T, fold) and critical_faces(T, generic)
            assert outcome(critical_faces, T, (0,) * T.dim)[:2] == (
                "ValueError", "height vector must be nonzero",
            )
            box = itertools.product((-1, 0, 1), repeat=min(T.dim, 3))
            pad = (0,) * max(T.dim - 3, 0)
            vectors = [fold, generic] + [head + pad for head in box]
        for xi in vectors:
            assert outcome(critical_faces, T, xi) == outcome(
                ref.critical_faces, T, xi
            )


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


def series_outcome(f, X, cap, xi_aux):
    """("value", f(X, cap, xi_aux)), or the ValueError it raises with its message."""
    try:
        return "value", f(X, cap, xi_aux)
    except ValueError as exc:
        return "ValueError", str(exc)


def checked_series(X, cap, xi_aux):
    """The kind of the reference's outcome under xi_aux; its value, if it
    has one, must be the package's series, which takes no auxiliary vector."""
    expected = series_outcome(ref.face_ht_series, X, cap, xi_aux)
    if expected[0] == "value":
        assert face_ht_series(X, cap) == expected[1]
    return expected[0]


def series_cases(T):
    """(critical face, auxiliary vector) pairs on T's faces, among them ones
    that the reference refuses.

    The faces are those of the fold normal, when T has one fold, and of a
    generic vector; the auxiliary vectors are the default, the default
    reversed with alternating signs (generic too) and the first unit vector,
    which pairs to zero with many face edges.
    """
    normals = [hs.normal for P in T.polytopes for hs in P.halfspaces]
    xis = [_generic_vector(normals, T.dim)]
    if outcome(fold_direction, T)[0] == "value":
        xis.append(fold_direction(T)[0])
    for xi in xis:
        if outcome(critical_faces, T, xi)[0] != "value":
            continue
        for X in critical_faces(T, xi):
            P = X.face.polytope
            edges = [
                u for vid, act in enumerate(P._vertex_active)
                if act.issuperset(X.face.active) for u, _ in P._edges[vid]
            ]
            default = _generic_vector(edges, T.dim)
            flipped = tuple((-1) ** j * c for j, c in enumerate(default[::-1]))
            unit = (1,) + (0,) * (T.dim - 1)
            for xi_aux in (None, flipped, unit):
                yield X, xi_aux


def series_templates():
    documents = sorted(GALLERY.glob("*.json")) + sorted(GOLDEN_INPUTS.glob("*.json"))
    templates = {path.stem: load_template(path) for path in documents}
    templates.update({f"doubled-cube-{d}": doubled_cube(d) for d in range(1, 7)})
    return templates


SERIES_TEMPLATES = series_templates()


class TestFaceSeries:
    @pytest.mark.parametrize("name", sorted(SERIES_TEMPLATES))
    def test_matches_reference(self, name):
        T = SERIES_TEMPLATES[name]
        cap = 2 * T.dim + 4
        kinds = {checked_series(X, cap, xi_aux) for X, xi_aux in series_cases(T)}
        # the nonorientable files have no critical faces, and neither has the
        # torus, whose every vertex lies on a fold
        assert kinds or name in {"adjacency_interleaved", "hexagon_3cycle", "rp4",
                                 "torus_2segments"}

    @pytest.mark.parametrize("P", [pentagon(), cube(3), trapezoid(2)])
    def test_hand_built_faces(self, P):
        # records built without critical_faces, on full active sets and on
        # the single halfspace of each facet
        refs = list(P.faces()) + [P.facet(j) for j in range(len(P.halfspaces))]
        for face in refs:
            X = CriticalFace(0, face, P.face_vertices(face), face.dim, 1, 0, 0)
            for xi_aux in (None, (1,) + (0,) * (P.dim - 1)):
                checked_series(X, 8, xi_aux)

    def test_reference_cases_include_errors(self):
        T = doubled_cube(3)
        kinds = {
            series_outcome(ref.face_ht_series, X, 8, xi_aux)[0]
            for X, xi_aux in series_cases(T)
        }
        assert kinds == {"value", "ValueError"}

    @pytest.mark.parametrize("name", sorted(ONE_FOLD))
    def test_ht_poincare_finds_no_vertex_by_its_point(self, name, monkeypatch):
        T = ONE_FOLD[name]
        xi, _ = fold_direction(T)
        expected = [0] * 11
        for X in ref.critical_faces(T, xi):
            series = ref.face_ht_series(X, 10)
            for k in range(X.r, 11, 2):
                expected[k] += series[k - X.r]

        def refuse(self, v):
            raise AssertionError(f"vertex {v} searched by its point")

        monkeypatch.setattr(HPolytope, "_vid", refuse)
        assert ht_poincare(T, 10).coefficients == tuple(expected)
