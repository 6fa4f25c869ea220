"""A seeded corpus of Delzant polytopes in dimensions 3 and 4.

Each polytope starts as a box or a dilated simplex, takes toric blow-ups at
simple vertices (at a vertex with tight halfspaces <a_i, x> <= b_i, the cut
<sum a_i, x> <= sum b_i - k for k = 1 or 2, kept when the result is still
Delzant), and is then moved by a random unimodular map and an integer
translation.  Doubled along a random facet, each becomes a valid oriented
template.  The edges, volumes, weight cones and critical faces of the corpus
are checked against the independent references of the other test modules.
"""

import random

import pytest

import cone_reference as cref
import structure_reference as sref
from exact_reference import primitive_vector
from factories import box, doubled, simplex
from test_cohomology import expand_binomial_power
from test_incidence import edge_pairs, reference_edges, reference_faces, reference_volume
from test_structure_differential import outcome
from toricorigami import PolytopeError, fixed_points, make_polytope, validate
from toricorigami.cohomology import critical_faces, fold_direction, ht_poincare
from toricorigami.cones import verify_dh_identity
from toricorigami.exactgeom import _dot


def blow_up(P, rng):
    """P cut at a random simple vertex, or None if the cut is not Delzant."""
    vid = rng.randrange(len(P._rays))
    act = P._vertex_active[vid]
    if len(act) != P.dim:
        return None
    tight = [P.halfspaces[j] for j in act]
    normal = tuple(map(sum, zip(*(hs.normal for hs in tight))))
    offset = sum(hs.offset for hs in tight) - rng.choice((1, 2))
    try:
        Q = make_polytope([(hs.normal, hs.offset) for hs in P.halfspaces] + [(normal, offset)])
    except PolytopeError:
        return None
    return Q if Q.is_delzant().is_delzant else None


def random_unimodular(rng, d):
    """(U, U^-1) for a product of random elementary integer matrices."""
    U = [[int(i == j) for j in range(d)] for i in range(d)]
    V = [row[:] for row in U]
    for _ in range(rng.randint(2, 2 * d)):
        i, j = rng.sample(range(d), 2)
        k = rng.choice((-2, -1, 1, 2))
        # U <- U E with E = I + k e_i e_j^T, and U^-1 <- E^-1 U^-1
        for row in U:
            row[j] += k * row[i]
        V[i] = [a - k * b for a, b in zip(V[i], V[j])]
    return U, V


def moved(P, rng):
    """The image U P + t under a random unimodular U and integer t."""
    U, V = random_unimodular(rng, P.dim)
    t = [rng.randint(-3, 3) for _ in range(P.dim)]
    # <a, x> <= b becomes <a U^-1, y> <= b + <a U^-1, t> for y = U x + t
    system = []
    for hs in P.halfspaces:
        a = tuple(_dot(hs.normal, col) for col in zip(*V))
        system.append((a, hs.offset + _dot(a, t)))
    return make_polytope(system)


def corpus_polytope(rng, d):
    """(name, base, moved): a blown-up box or simplex and its unimodular image.

    The name gives the start shape and the number of blow-ups taken.
    """
    if rng.random() < 0.5:
        shape, P = "box", box(tuple(rng.randint(2, 3) for _ in range(d)))
    else:
        shape, P = "simplex", simplex(d, rng.randint(3, 4))
    wanted, cuts = rng.randint(1, 3), 0
    for _ in range(30):
        Q = blow_up(P, rng)
        if Q is not None:
            P, cuts = Q, cuts + 1
            if cuts == wanted:
                break
    return f"{shape}-{cuts}cuts", P, moved(P, rng)


def build_corpus():
    rng = random.Random(20261018)
    out = []
    for d, count in ((3, 12), (4, 6)):
        for k in range(count):
            name, base, P = corpus_polytope(rng, d)
            facet = rng.randrange(len(P.halfspaces))
            out.append((f"d{d}-{k}-{name}", base, P, doubled(P, facet)))
    return out


CORPUS = build_corpus()
IDS = [name for name, *_ in CORPUS]


def test_corpus_is_varied():
    for d in (3, 4):
        names = [name for name in IDS if name.startswith(f"d{d}-")]
        assert any("-box-" in name for name in names)
        assert any("-simplex-" in name for name in names)
    assert not any(name.endswith("-0cuts") for name in IDS)
    assert all(P.is_delzant().is_delzant for _, _, P, _ in CORPUS)


@pytest.mark.parametrize("name, base, P, T", CORPUS, ids=IDS)
class TestCorpus:
    def test_valid_template(self, name, base, P, T):
        assert validate(T).valid

    def test_edges_match_reference(self, name, base, P, T):
        normals = [hs.normal for hs in P.halfspaces]
        assert edge_pairs(P) == reference_edges(P.dim, normals, P._vertex_active)
        for a, edges in enumerate(P._edges):
            for u, b in edges:
                step = [y - x for x, y in zip(P.vertices[a], P.vertices[b])]
                assert u == primitive_vector(step)

    def test_volume_matches_reference(self, name, base, P, T):
        normals = [hs.normal for hs in P.halfspaces]
        faces = reference_faces(P.dim, normals, P._vertex_active)
        assert P.volume() == reference_volume(P.dim, P.vertices, faces)
        # a unimodular map keeps the volume
        assert P.volume() == base.volume()

    @pytest.mark.parametrize("seed", [0, 11])
    def test_cones_match_reference(self, name, base, P, T, seed):
        # (-N^(n-1), N^(n-2), ..., +-1) is generic for the same reason as
        # the default (1, N, ..., N^(n-1)), and flips other weights
        default = cref.default_polarization(T)
        v = tuple((-1) ** (j + 1) * c for j, c in enumerate(default[::-1]))
        v = v if seed else None
        report = verify_dh_identity(T, v, 40, seed)
        assert report == cref.verify_dh_identity(T, v, 40, seed)
        assert report.success

    def test_critical_faces_match_reference(self, name, base, P, T):
        normal, _ = fold_direction(T)
        generic = (1, 7, 53, 419)[: T.dim]
        for xi in (normal, generic):
            assert outcome(critical_faces, T, xi) == outcome(sref.critical_faces, T, xi)

    def test_formal(self, name, base, P, T):
        n = T.dim
        cap = 2 * n + 2
        series = ht_poincare(T, cap).coefficients
        factor = expand_binomial_power(cap, n)
        product = [
            sum(factor[j] * series[k - j] for j in range(min(k, 2 * n) + 1))
            for k in range(cap + 1)
        ]
        poly = product[: 2 * n + 1]
        assert product[2 * n + 1:] == [0] * (cap - 2 * n)
        assert poly == poly[::-1] and all(c >= 0 for c in poly)
        assert sum(poly) == len(fixed_points(T))
