"""``validate`` against the per-entry reference.

The package checks each distinct polytope for the Delzant property once and
compares each fused pair of facets on the polytopes' own per-facet tables;
``validate_reference`` checks every entry and pair on its own.  On the
gallery, the golden inputs, the corpus doubles and chains, the fuzz doubles,
hand-made hostile templates and seeded random templates (shared polytopes,
equal copies built apart, pairs, singles and self pairs on random facets),
both must give reports equal in every field and in ``str()``.
"""

import random

import pytest

import validate_reference as ref
from factories import (
    bad_triangle,
    box,
    cube,
    cycle_of_segments,
    hexagon,
    hexagon_cycle,
    path_of_segments,
    pentagon,
    segment,
    square,
    trapezoid,
    triangle,
)
from golden.record import documents
from test_corpus import CHAINS, CORPUS
from test_fuzz_templates import random_double
from toricorigami import OrigamiTemplate, load_template, pair, single, validate
from toricorigami.template import FacetAddress, Fusion


def assert_same(T):
    report = validate(T)
    expected = ref.validate(T)
    for field in type(report)._repr:
        assert getattr(report, field) == getattr(expected, field), field
    assert str(report) == str(expected)
    return report


FILES = documents()
TEMPLATES = (
    [(f"double-{name}", T) for name, _, _, T in CORPUS]
    + [(f"chain-{name}", T) for name, _, T in CHAINS]
    + [(f"fuzz-{seed}", random_double(random.Random(1000 + seed))) for seed in range(5)]
    + [
        ("path-40", path_of_segments(40)),
        ("path-marked", path_of_segments(9, marks=2)),
        ("cycle-12", cycle_of_segments(12)),
        ("hexagons-8", hexagon_cycle(8)),
        ("hexagons-5", hexagon_cycle(5)),
    ]
)


@pytest.mark.parametrize("path", FILES, ids=[p.name for p in FILES])
def test_documents_on_disk(path):
    assert_same(load_template(path))


@pytest.mark.parametrize("name, T", TEMPLATES, ids=[name for name, _ in TEMPLATES])
def test_corpus_chains_fuzz_and_ladders(name, T):
    assert_same(T)


# ---------------------------------------------------------------------------
# hostile templates: each fails the condition it is named after
# ---------------------------------------------------------------------------

def _squares(count):
    P = square()
    return (P,) * count


HOSTILE = {
    # facet 2 of square 0 is fused twice
    "reused-facet": lambda: OrigamiTemplate(
        _squares(3), (pair((0, 2), (1, 0)), pair((0, 2), (2, 0)))
    ),
    # facets 2 and 3 of square 0 meet at (1, 1)
    "neighbouring-facets": lambda: OrigamiTemplate(
        _squares(3), (pair((0, 2), (1, 2)), pair((0, 3), (2, 3)))
    ),
    # a square's left edge against a triangle's leg, a trapezoid's against
    # a wider square's, and the hexagon against itself on opposite facets
    "disagreeing-facets": lambda: OrigamiTemplate(
        (square(), triangle(1), trapezoid(2), square(2), hexagon()),
        (pair((0, 0), (1, 0)), pair((2, 0), (3, 0)), pair((4, 0), (4, 3))),
    ),
    # one non-Delzant polytope at indices 0, 2 and 3, and an equal copy
    # built apart at index 4
    "non-delzant-repeated": lambda: _non_delzant_repeated(),
    "self-pairs": lambda: OrigamiTemplate(
        (square(), hexagon()),
        (pair((0, 0), (0, 2)), pair((1, 0), (1, 3)), pair((0, 1), (1, 4))),
    ),
    "disconnected": lambda: OrigamiTemplate(
        (triangle(1), triangle(1), square(), square()),
        (pair((0, 2), (1, 2)), pair((2, 2), (3, 2))),
    ),
    "no-fusions": lambda: OrigamiTemplate((segment(0, 1), segment(1, 3))),
    "singles": lambda: OrigamiTemplate(
        (triangle(1), triangle(1)),
        (single((0, 0)), single((0, 1)), pair((0, 2), (1, 2)), single((1, 2))),
    ),
}


def _non_delzant_repeated():
    B = bad_triangle()
    fusions = (pair((0, 2), (1, 2)), pair((1, 0), (2, 0)), pair((2, 1), (3, 1)),
               pair((3, 2), (4, 2)))
    return OrigamiTemplate((B, triangle(1), B, B, bad_triangle()), fusions)


@pytest.mark.parametrize("name", sorted(HOSTILE))
def test_hostile_templates(name):
    report = assert_same(HOSTILE[name]())
    assert not report.valid
    if name == "non-delzant-repeated":
        assert [i for i, _ in report.delzant_failures] == [0, 2, 3, 4]
    if name == "self-pairs":
        assert report.self_pairs == (0, 1)


# ---------------------------------------------------------------------------
# seeded random templates
# ---------------------------------------------------------------------------

def _pool(dim):
    """Polytopes of one dimension, each also as an equal copy built apart."""
    if dim == 1:
        makes = [lambda: segment(0, 1), lambda: segment(0, 2), lambda: segment(1, 2)]
    elif dim == 2:
        makes = [square, lambda: triangle(1), bad_triangle, lambda: trapezoid(2),
                 pentagon, hexagon, lambda: box((2, 1))]
    else:
        makes = [lambda: cube(3), lambda: box((2, 1, 1))]
    return [make() for make in makes] + [make() for make in makes[:2]]


def random_template(rng, dim):
    pool = _pool(dim)
    polytopes = [rng.choice(pool) for _ in range(rng.randint(1, 6))]
    fusions = []
    for _ in range(rng.randint(0, 6)):
        a = rng.randrange(len(polytopes))
        fa = FacetAddress(a, rng.randrange(len(polytopes[a].halfspaces)))
        if rng.random() < 0.2:
            fusions.append(Fusion(fa))
            continue
        b = a if rng.random() < 0.15 else rng.randrange(len(polytopes))
        fb = FacetAddress(b, rng.randrange(len(polytopes[b].halfspaces)))
        if fb != fa:
            fusions.append(Fusion(fa, fb))
    return OrigamiTemplate(tuple(polytopes), tuple(fusions))


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("seed", range(4))
def test_random_templates(dim, seed):
    rng = random.Random(f"validate-{dim}-{seed}")
    seen = set()
    for _ in range(60):
        report = assert_same(random_template(rng, dim))
        seen.add((bool(report.delzant_failures), bool(report.agreement_failures),
                  bool(report.adjacency_failures), report.connected))
    # the templates reach failures of more than one kind
    assert len(seen) > 2
