"""Signed sums over distinct polytopes against the per-entry reference.

``signed_volume`` and ``dh_density`` read ``OrigamiTemplate._polytope_weights``:
one (polytope, summed sign) pair per distinct polytope.  ``signed_reference``
holds the bodies they replaced, which add every entry's own sign.  On the
gallery, the golden inputs, the corpus doubles and chains, equal polytopes
built apart and a template whose signs cancel on one polytope, both must give
the same values or raise the same error.
"""

import random
from fractions import Fraction

import pytest

import signed_reference as ref
from factories import (
    box,
    doubled_cube,
    path_of_segments,
    rp4_template,
    s4_template,
    triangle,
)
from golden.record import documents
from test_corpus import CHAINS, CORPUS
from toricorigami import (
    NonorientableError,
    OrigamiTemplate,
    fixed_points,
    load_template,
    pair,
    validate,
)
from toricorigami.cones import _compile, default_polarization
from toricorigami.exactgeom import Halfspace, HPolytope
from toricorigami.invariants import dh_density, signed_volume


def outcome(f, *args):
    """The value, or the error's type name and message."""
    try:
        return f(*args)
    except NonorientableError as exc:
        return type(exc).__name__, str(exc)


def query_points(T, rng, count=24):
    """Each polytope's vertices, vertex mean and facet vertex means (on its
    boundary), and ``count`` seeded points of the box one unit around T."""
    points = []
    for P in dict.fromkeys(T.polytopes):
        facets = [P.face_vertices((j,)) for j in range(len(P.halfspaces))]
        points += P.vertices
        for group in [P.vertices] + facets:
            points.append(tuple(sum(c) / len(group) for c in zip(*group)))
    lows, highs = zip(*(P.bounding_box() for P in T.polytopes))
    lo, hi = map(min, zip(*lows)), map(max, zip(*highs))
    sides = [(l - 1, h - l + 2) for l, h in zip(lo, hi)]
    for _ in range(count):
        points.append(tuple(l + w * Fraction(rng.randrange(97), 96) for l, w in sides))
    return points


def assert_same(T, seed):
    assert outcome(signed_volume, T) == outcome(ref.signed_volume, T)
    for x in query_points(T, random.Random(seed)):
        assert outcome(dh_density, T, x) == outcome(ref.dh_density, T, x)


FILES = documents()
TEMPLATES = [(f"double-{name}", T) for name, _, _, T in CORPUS] + [
    (f"chain-{name}", T) for name, _, T in CHAINS
]


@pytest.mark.parametrize("path", FILES, ids=[p.name for p in FILES])
def test_documents_on_disk(path):
    assert_same(load_template(path), path.name)


@pytest.mark.parametrize("name, T", TEMPLATES, ids=[name for name, _ in TEMPLATES])
def test_corpus_doubles_and_chains(name, T):
    assert_same(T, name)


def test_equal_polytopes_built_apart_are_one_entry():
    T = OrigamiTemplate((triangle(2), triangle(2)), (pair((0, 2), (1, 2)),))
    assert T.polytopes[0] is not T.polytopes[1]
    assert T._polytope_weights == ((T.polytopes[0], 0),)
    assert_same(T, "equal-copies")


class TestCancellingSigns:
    """[0,1]^2 fused with R = [0,2]x[0,1] along x = 0, R fused with a second
    R along x = 2: the square has weight 1 and R weight -1 + 1 = 0."""

    @pytest.fixture(params=["shared", "apart"])
    def T(self, request):
        R = box((2, 1))
        second = R if request.param == "shared" else box((2, 1))
        fusions = (pair((0, 0), (1, 0)), pair((1, 2), (2, 2)))
        return OrigamiTemplate((box((1, 1)), R, second), fusions)

    def test_weights(self, T):
        assert validate(T).valid
        assert T._polytope_weights == ((T.polytopes[0], 1), (T.polytopes[1], 0))

    @pytest.mark.parametrize(
        "x, density, generic",
        [
            ((Fraction(1, 2), Fraction(1, 2)), 1, True),
            ((Fraction(3, 2), Fraction(1, 2)), 0, True),
            # on the boundary of the weight-0 polytope only
            ((2, Fraction(1, 2)), 0, False),
            ((Fraction(3, 2), 1), 0, False),
            # on the square's boundary, inside R
            ((1, Fraction(1, 2)), 1, False),
            ((3, 0), 0, True),
        ],
    )
    def test_density(self, T, x, density, generic):
        value = dh_density(T, x)
        assert (value.density, value.generic) == (density, generic)
        assert value == ref.dh_density(T, x)

    def test_against_the_reference(self, T):
        assert signed_volume(T) == ref.signed_volume(T) == 1
        assert_same(T, "cancelling")


def test_doubled_cube_volume_is_computed_once(monkeypatch):
    # at most once: the two copies share one polytope of weight 0, which
    # adds nothing to the sum, so its volume is not computed at all
    calls = []
    volume = HPolytope.volume
    monkeypatch.setattr(HPolytope, "volume", lambda P: calls.append(P) or volume(P))
    assert signed_volume(doubled_cube(5)) == 0
    assert len(calls) == 0


@pytest.mark.parametrize("name, base, T", CHAINS, ids=[c[0] for c in CHAINS])
def test_chain_volume_is_computed_once(monkeypatch, name, base, T):
    # three unmoved copies with signs 1, -1, 1: one polytope of weight 1
    expected = ref.signed_volume(T)
    assert expected == base.volume() != 0
    calls = []
    volume = HPolytope.volume
    monkeypatch.setattr(HPolytope, "volume", lambda P: calls.append(P) or volume(P))
    assert T._polytope_weights == ((T.polytopes[0], 1),)
    assert signed_volume(T) == expected
    assert calls == [T.polytopes[0]]


def test_the_table_hashes_each_halfspace_system_once(monkeypatch):
    T = path_of_segments(400)
    calls = []
    hash_ = Halfspace.__hash__
    monkeypatch.setattr(Halfspace, "__hash__", lambda hs: calls.append(hs) or hash_(hs))
    assert T._polytope_weights == ((T.polytopes[0], 0),)
    assert len(calls) <= len(T.polytopes[0].halfspaces)


def test_s4_cones_compile_into_one_polytope_group():
    T = s4_template()
    ((P, rows, cones),) = _compile(T, default_polarization(T))
    assert P == T.polytopes[0]
    assert len(fixed_points(T)) == 2
    # the mirrored cones at the shared vertex (0, 0) cancel, and their walls
    # x = 0 and y = 0 (facets 0 and 1) stay
    assert cones == ()
    assert sorted(rows) == sorted(P._integer_rows[:2])


def test_nonorientable_table_raises_and_caches_nothing():
    T = rp4_template()
    for _ in range(2):
        with pytest.raises(NonorientableError):
            T._polytope_weights
        assert "_polytope_weights" not in vars(T)
    # the table is read before the point is checked
    with pytest.raises(NonorientableError):
        dh_density(T, (0, 0, 0))
