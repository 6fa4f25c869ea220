"""The Poincare series against Betti numbers read from face counts alone.

For P1 and P2 fused along one facet F, the Betti numbers of the toric
origami manifold are those of the symplectic toric manifolds of P1 and P2,
less those of the divisor over F once as they are and once two degrees up:

    (1 - t^2)^n ht_poincare(T) = h_P1(t^2) + h_P2(t^2) - (1 + t^2) h_F(t^2),

where h is the h-polynomial of ``structure_reference.h_polynomial``.  For one
polytope and a generic height xi, each vertex is a critical point of index
twice its ascending edges, and sum_v t^ind(v) = h_P(t^2).  So each critical
face F, of whichever height, has (1 - t^2)^n face_ht_series(F) = h_F(t^2),
with no auxiliary vector to choose.  The oracle reads only ``faces()``;
``critical_faces`` and ``face_ht_series`` read the edge table.

The gallery and golden inputs that ``ht_poincare`` accepts are all compared,
and the critical faces of all of them, but ``simplex12_double``, whose 8 190
faces per polytope take about 0.3 s to list.
"""

import contextlib
import random
from pathlib import Path

import pytest

import structure_reference as ref
from factories import cube, doubled, simplex, square, trapezoid, triangle
from test_cohomology import cleared, poincare_polynomial
from test_corpus import blow_up
from toricorigami import (
    NonorientableError,
    OrigamiTemplate,
    PreconditionError,
    load_template,
    pair,
    validate,
)
from toricorigami.cohomology import (
    critical_faces, face_ht_series, fold_direction, ht_poincare,
)
from toricorigami.exactgeom import _generic_vector

ROOT = Path(__file__).resolve().parent.parent
LEFT_OUT = {"simplex12_double"}


def input_templates():
    """(stem, template) of each gallery and golden input but those left out."""
    paths = sorted((ROOT / "gallery").glob("*.json"))
    paths += sorted((ROOT / "tests" / "golden" / "inputs").glob("*.json"))
    kept = [path for path in paths if path.stem not in LEFT_OUT]
    return [(path.stem, load_template(path)) for path in kept]


def accepted_documents():
    """(stem, template) of each input ht_poincare accepts."""
    out = []
    for stem, T in INPUTS:
        try:
            ht_poincare(T, 0)
        except PreconditionError:
            continue
        out.append((stem, T))
    return out


def input_critical_faces():
    """(id, critical face) of each input: those of the fold normal, where the
    template has one fold, and those of a generic height, where it is
    orientable."""
    out = []
    for stem, T in INPUTS:
        normals = [hs.normal for P in T.polytopes for hs in P.halfspaces]
        heights = {"generic": _generic_vector(normals, T.dim)}
        with contextlib.suppress(PreconditionError):
            heights["fold"] = fold_direction(T)[0]
        for kind, xi in heights.items():
            with contextlib.suppress(NonorientableError):
                faces = critical_faces(T, xi)
                out += [(f"{stem}-{kind}-{j}", X) for j, X in enumerate(faces)]
    return out


INPUTS = input_templates()
DOCUMENTS = accepted_documents()
CRITICAL_FACES = input_critical_faces()

FACTORIES = {
    "triangle": triangle,
    "square": square,
    "trapezoid-3": lambda: trapezoid(3),
    "simplex-3": lambda: simplex(3, 1),
    "simplex-4": lambda: simplex(4, 1),
    "cube-3": lambda: cube(3),
    "cube-4": lambda: cube(4),
}
DOUBLES = [
    (f"{name}-{facet}", doubled(P, facet))
    for name, make in FACTORIES.items()
    for P in [make()]
    for facet in range(len(P.halfspaces))
]


def agreeing_pair(rng):
    """A blown-up box or simplex fused along a random facet F with a further
    blow-up of itself at a vertex off F, in random order: a valid template of
    two unequal polytopes that agree near F."""
    d = rng.randint(2, 3)
    if rng.random() < 0.5:
        P = cube(d, rng.randint(2, 3))
    else:
        P = simplex(d, rng.randint(3, 4))
    P = blow_up(P, rng) or P
    for _ in range(100):
        facet = rng.randrange(len(P.halfspaces))
        Q = blow_up(P, rng)
        if Q is None:
            continue
        polytopes = (P, Q) if rng.random() < 0.5 else (Q, P)
        T = OrigamiTemplate(polytopes, (pair((0, facet), (1, facet)),))
        if validate(T).valid:
            return T
    raise AssertionError("no blow-up off a facet kept the template valid")


PAIRS = [(f"seed-{seed}", agreeing_pair(random.Random(seed))) for seed in range(20)]


def betti_numbers(T):
    """h_P1(t^2) + h_P2(t^2) - (1 + t^2) h_F(t^2) from the face counts."""
    (fusion,) = T.fusions
    out = [0] * (2 * T.dim + 1)
    for address in (fusion.a, fusion.b):
        for k, c in enumerate(ref.h_polynomial(T.polytopes[address.polytope])):
            out[2 * k] += c
    facet = (fusion.a.facet,)
    for k, c in enumerate(ref.h_polynomial(T.polytopes[fusion.a.polytope], facet)):
        out[2 * k] -= c
        out[2 * k + 2] -= c
    return out


def test_the_inputs_cover_each_kind():
    assert len(DOCUMENTS) == 10
    assert len(CRITICAL_FACES) == 105
    assert len(DOUBLES) == 3 + 4 + 4 + 4 + 5 + 6 + 8
    assert {T.dim for _name, T in PAIRS} == {2, 3}
    assert all(T.polytopes[0] != T.polytopes[1] for _name, T in PAIRS)


@pytest.mark.parametrize(
    "name, T", DOCUMENTS + DOUBLES + PAIRS,
    ids=[name for name, _T in DOCUMENTS + DOUBLES + PAIRS],
)
def test_series_matches_the_betti_numbers_of_the_face_counts(name, T):
    assert poincare_polynomial(T) == betti_numbers(T)


POLYTOPES = [
    (f"{name}-{i}", P) for name, T in DOCUMENTS + PAIRS for i, P in enumerate(T.polytopes)
] + [(name, make()) for name, make in FACTORIES.items()]


@pytest.mark.parametrize("name, P", POLYTOPES, ids=[name for name, _P in POLYTOPES])
def test_vertex_indices_of_a_generic_height_sum_to_the_h_polynomial(name, P):
    xi = _generic_vector((u for edges in P._edges for u, _far in edges), P.dim)
    faces = critical_faces(OrigamiTemplate((P,), ()), xi)
    assert {X.m for X in faces} == {0}
    counts = [0] * (P.dim + 1)
    for X in faces:
        counts[X.ind // 2] += 1
    assert tuple(counts) == ref.h_polynomial(P)


@pytest.mark.parametrize(
    "name, X", CRITICAL_FACES, ids=[name for name, _X in CRITICAL_FACES]
)
def test_a_critical_face_series_is_its_h_polynomial_over_the_torus(name, X):
    P = X.face.polytope
    expected = [0] * (2 * P.dim + 1)
    for k, c in enumerate(ref.h_polynomial(P, X.face.active)):
        expected[2 * k] = c
    assert cleared(face_ht_series(X, 2 * P.dim + 4), P.dim) == expected
