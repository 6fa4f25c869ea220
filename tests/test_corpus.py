"""A seeded corpus of Delzant polytopes in dimensions 3, 4 and 5.

Each polytope starts as a box or a dilated simplex, takes toric blow-ups at
simple vertices (at a vertex with tight halfspaces <a_i, x> <= b_i, the cut
<sum a_i, x> <= sum b_i - k for k = 1 or 2, kept when the result is still
Delzant), and is then moved by a random unimodular map and an integer
translation.  Doubled along a random facet, each becomes a valid oriented
template.  The edges, volumes, weight cones, critical faces and face series
of the corpus are checked against the independent references of the other
test modules.

Chains are three copies of a blown-up polytope before its move, fused
alternately along two facets that share no vertex: their signed volume is
the polytope's volume, and their signed lattice counts of dilates lead with
it.  Every double and chain also goes through a document round trip that
shuffles its polytopes, halfspaces and fusions, which may change nothing but
the numbering and one global orientation sign.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest

import cone_reference as cref
import structure_reference as sref
from exact_reference import primitive_vector
from factories import box, doubled, simplex
from test_cohomology import poincare_polynomial
from test_ehrhart import dilate, ehrhart_diffs
from test_incidence import edge_pairs, reference_edges, reference_faces, reference_volume
from test_structure_differential import checked_series, outcome, series_cases
from toricorigami import (
    OrigamiTemplate,
    PolytopeError,
    fixed_points,
    make_polytope,
    pair,
    validate,
)
from toricorigami.cohomology import critical_faces, fold_direction, ht_poincare
from toricorigami.cones import verify_dh_identity
from toricorigami.document import document_from_template, parse_template
from toricorigami.exactgeom import _dot
from toricorigami.invariants import quantize, signed_volume
from toricorigami.template import orientation_signs


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


def random_motion(rng, d):
    """(U^-1, t) for a random unimodular U and integer translation t."""
    _, V = random_unimodular(rng, d)
    return V, [rng.randint(-3, 3) for _ in range(d)]


def moved(P, rng):
    """The image U P + t under a random unimodular U and integer t."""
    return image(P, *random_motion(rng, P.dim))


def image(P, V, t):
    """The image U P + t, given V = U^-1; halfspaces keep their order."""
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
    for d, count in ((3, 12), (4, 6), (5, 2)):
        for k in range(count):
            name, base, P = corpus_polytope(rng, d)
            facet = rng.randrange(len(P.halfspaces))
            out.append((f"d{d}-{k}-{name}", base, P, doubled(P, facet)))
    return out


CORPUS = build_corpus()
IDS = [name for name, *_ in CORPUS]


def test_corpus_is_varied():
    for d in (3, 4, 5):
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

    def test_fan_matches_reference(self, name, base, P, T):
        assert sorted(P._triangulation) == sorted(sref.triangulation(P))

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
        generic = (1, 7, 53, 419, 3307)[: T.dim]
        for xi in (normal, generic):
            assert outcome(critical_faces, T, xi) == outcome(sref.critical_faces, T, xi)

    def test_formal(self, name, base, P, T):
        poly = poincare_polynomial(T)
        assert poly == poly[::-1] and all(c >= 0 for c in poly)
        assert sum(poly) == len(fixed_points(T))

    def test_face_series_match_reference(self, name, base, P, T):
        cap = 2 * T.dim + 2
        kinds = {checked_series(X, cap, xi_aux) for X, xi_aux in series_cases(T)}
        assert kinds == {"value"}

    def test_every_vertex_pairs_to_minus_one(self, name, base, P, T):
        # every vertex passes the pairing test that the Delzant record and
        # the cone compiler read, and the determinant oracle agrees
        expected = sref.delzant_by_determinant(P)
        assert expected.is_delzant and P.is_delzant() == expected

    def test_shuffled_round_trip(self, name, base, P, T):
        # the signed counts of a double vanish, so quantize is left to the chains
        shuffled_round_trip(T, random.Random(name))


# ---------------------------------------------------------------------------
# chains
# ---------------------------------------------------------------------------

def disjoint_facets(P):
    """The first two facets of P, in index order, that share no vertex."""
    return next(
        (f, g)
        for f, g in itertools.combinations(range(len(P.halfspaces)), 2)
        if not any(f in act and g in act for act in P._vertex_active)
    )


def chain(P, copies):
    """copies of P in a path, fused alternately along two facets sharing no vertex."""
    f, g = disjoint_facets(P)
    facets = [(f, g)[i % 2] for i in range(copies - 1)]
    fusions = tuple(pair((i, j), (i + 1, j)) for i, j in enumerate(facets))
    return OrigamiTemplate((P,) * copies, fusions)


CHAINS = [(name, base, chain(base, 3)) for name, base, _, _ in CORPUS]


@pytest.mark.parametrize("name, base, T", CHAINS, ids=IDS)
class TestChains:
    def test_valid_with_alternating_signs(self, name, base, T):
        assert validate(T).valid
        assert orientation_signs(T) == (1, -1, 1)

    def test_odd_chain_has_the_volume_of_one_copy(self, name, base, T):
        assert signed_volume(T) == base.volume() != 0

    def test_quantize_counts_without_points(self, name, base, T):
        # the signs 1, -1, 1 leave each lattice point of one copy once
        full = quantize(T)
        assert full.per_point == {p: 1 for p in base.lattice_points()}
        assert quantize(T, points=False).virtual_dimension == full.virtual_dimension

    def test_cones(self, name, base, T):
        assert verify_dh_identity(T, None, 20, 3).success

    def test_shuffled_round_trip(self, name, base, T):
        U, perm, sign = shuffled_round_trip(T, random.Random(name))
        full, shuffled = quantize(T), quantize(U)
        assert shuffled.per_point == {p: sign * m for p, m in full.per_point.items()}
        assert shuffled.virtual_dimension == sign * full.virtual_dimension


# the dilates of the 5-dimensional chains would take seconds to count
@pytest.mark.parametrize(
    "name, base, T", [c for c in CHAINS if c[2].dim <= 4],
    ids=[name for name, _, T in CHAINS if T.dim <= 4],
)
def test_chain_ehrhart_polynomial_leads_with_signed_volume(name, base, T):
    d = T.dim

    def signed_count(k):
        # kT is the chain of k base: the facets and fusions carry over
        return quantize(chain(dilate(base, k), 3), points=False).virtual_dimension

    diffs = ehrhart_diffs(signed_count, d)
    assert Fraction(diffs[d], math.factorial(d)) == signed_volume(T)
    assert diffs[0] == base.lattice_count()


# ---------------------------------------------------------------------------
# lattice-affine invariance
# ---------------------------------------------------------------------------

AFFINE = [(name, T) for name, _, _, T in CORPUS] + [
    (f"{name}-chain", T) for name, _, T in CHAINS
]


@pytest.mark.parametrize("name, T", AFFINE, ids=[name for name, _ in AFFINE])
def test_lattice_affine_image_has_the_same_invariants(name, T):
    """Every polytope of T moved by one fresh unimodular map and translation.

    The facet numbering is kept, so the fusions and the orientation carry
    over unchanged.
    """
    V, t = random_motion(random.Random(f"{name}-affine"), T.dim)
    U = OrigamiTemplate(tuple(image(P, V, t) for P in T.polytopes), T.fusions)
    assert U.polytopes != T.polytopes
    assert validate(U).valid and validate(T).valid
    assert orientation_signs(U) == orientation_signs(T)
    assert signed_volume(U) == signed_volume(T)
    if len(T.fusions) == 1:
        cap = 2 * T.dim + 2
        assert ht_poincare(U, cap) == ht_poincare(T, cap)
    else:
        # the two equal copies of a double cancel, whatever their count
        assert (quantize(U, points=False).virtual_dimension
                == quantize(T, points=False).virtual_dimension != 0)
    # T's own identity holds by TestCorpus and TestChains
    assert verify_dh_identity(U, None, 20, 9).success


# ---------------------------------------------------------------------------
# document round trip with shuffled numbering
# ---------------------------------------------------------------------------

def shuffled_document(T, rng):
    """T's document with polytopes, halfspaces and fusions shuffled and pairs swapped.

    Returns the document and ``perm``: polytope i of T is polytope perm[i]
    of the document.
    """
    doc = document_from_template(T)
    count = len(doc["polytopes"])
    perm = rng.sample(range(count), count)
    polytopes, renumber = [None] * count, []
    for i, spec in enumerate(doc["polytopes"]):
        order = rng.sample(range(len(spec["halfspaces"])), len(spec["halfspaces"]))
        renumber.append({old: new for new, old in enumerate(order)})
        halfspaces = [spec["halfspaces"][j] for j in order]
        polytopes[perm[i]] = dict(spec, halfspaces=halfspaces)
    fusions = []
    for spec in doc["fusions"]:
        ends = [
            {"polytope": perm[end["polytope"]],
             "facet": renumber[end["polytope"]][end["facet"]]}
            for end in (spec.get("a"), spec.get("b")) if end is not None
        ]
        if rng.random() < 0.5:
            ends.reverse()
        fusions.append(dict(spec, **dict(zip(("a", "b"), ends))))
    rng.shuffle(fusions)
    return dict(doc, polytopes=polytopes, fusions=fusions), perm


def shuffled_round_trip(T, rng):
    """U, perm and sign: T through a shuffled document, checked against T.

    U must be valid iff T is, carry T's orientation up to one global sign,
    and have the same signed volume up to that sign, the same Poincare
    series (or the same error) and the same cone identity report.
    """
    doc, perm = shuffled_document(T, rng)
    U = parse_template(doc)
    assert validate(U).valid == validate(T).valid
    signs, moved = orientation_signs(T), orientation_signs(U)
    sign = moved[perm[0]] * signs[0]
    assert [moved[perm[i]] for i in range(len(perm))] == [sign * s for s in signs]
    assert signed_volume(U) == sign * signed_volume(T)
    cap = 2 * T.dim + 2
    assert outcome(ht_poincare, U, cap) == outcome(ht_poincare, T, cap)
    assert verify_dh_identity(U, None, 20, 5) == verify_dh_identity(T, None, 20, 5)
    return U, perm, sign


def test_shuffles_reach_both_global_signs():
    signs = set()
    for name, _, T in CHAINS:
        doc, perm = shuffled_document(T, random.Random(name))
        U = parse_template(doc)
        signs.add(orientation_signs(U)[perm[0]] * orientation_signs(T)[0])
    assert signs == {1, -1}
