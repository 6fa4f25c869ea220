"""The Delzant check against the determinant rule it replaced.

``HPolytope.is_delzant`` decides a vertex by pairing each of its n edges
with the normal of the one tight facet the edge leaves: the vertex is ok iff
every pairing is -1.  ``structure_reference.delzant_by_determinant`` decides
it by the determinant of the edge directions, as the package did before.
Every report, record and failure message must match it, on polytopes with
Delzant vertices, simple vertices of larger determinant and vertices with
more than n edges.

A record's determinant is derived on first read, so no command that the CLI
runs on a Delzant template eliminates anything; a template that fails the
check eliminates once, for the determinant its message names.
"""

import json
import random
from fractions import Fraction

import pytest

import structure_reference as sref
import toricorigami.exactgeom as exactgeom
from factories import (
    bad_triangle,
    box,
    cube,
    doubled_simplex,
    half_triangle,
    hexagon,
    hirzebruch_pair,
    pentagon,
    s4_template,
    segment,
    simplex,
    square,
    trapezoid,
    trapezoid_chain,
    triangle,
)
from golden.record import documents, run_case, stage
from test_cones import unimodularity_polytopes
from test_corpus import CORPUS
from toricorigami import make_polytope
from toricorigami.cli import main
from toricorigami.document import document_from_template, load_template


def factory_polytopes():
    templates = (s4_template(2), hirzebruch_pair(), trapezoid_chain())
    return [
        triangle(), triangle(3), bad_triangle(), half_triangle(), square(),
        square(4), trapezoid(2), trapezoid(3), pentagon(), hexagon(), segment(),
        segment(-2, 5), box((2, 1, 3)), cube(4), simplex(3, 2), simplex(6, 1),
    ] + [P for T in templates for P in T.polytopes]


def document_polytopes():
    return [P for path in documents() for P in load_template(path).polytopes]


def corpus_polytopes():
    return [P for _, base, moved, _ in CORPUS for P in (base, moved)]


def random_polytopes():
    """[-3, 3]^d cut by one to four random halfspaces, some at rational
    offsets; most keep no Delzant vertex set, and some vertices lie on more
    than d facets."""
    rng = random.Random(20261020)
    out = []
    for _ in range(60):
        d = rng.choice((2, 2, 3, 3, 4))
        units = [tuple(int(i == j) for j in range(d)) for i in range(d)]
        system = [(u, 3) for u in units] + [(tuple(-c for c in u), 3) for u in units]
        for _ in range(rng.randint(1, 4)):
            normal = tuple(rng.randint(-2, 2) for _ in range(d))
            if any(normal):
                offset = rng.choice((rng.randint(1, 4), Fraction(rng.randint(1, 9), 2)))
                system.append((normal, offset))
        out.append(make_polytope(system))
    return out


SOURCES = {
    "factories": factory_polytopes,
    "documents": document_polytopes,
    "corpus": corpus_polytopes,
    "unimodularity": unimodularity_polytopes,
    "random": random_polytopes,
}


def kinds(report, dim):
    """(ok, n edges) of each vertex record."""
    return {(r.ok, len(r.directions) == dim) for r in report.vertex_records}


@pytest.mark.parametrize("source", sorted(SOURCES))
def test_the_pairing_rule_matches_the_determinant_rule(source):
    seen = set()
    for P in SOURCES[source]():
        report, expected = P.is_delzant(), sref.delzant_by_determinant(P)
        assert (report.is_delzant, report.failure) == (
            expected.is_delzant, expected.failure
        )
        assert len(report.vertex_records) == len(expected.vertex_records)
        for record, want in zip(report.vertex_records, expected.vertex_records):
            assert (record.vertex, record.directions, record.determinant, record.ok) == (
                want.vertex, want.directions, want.determinant, want.ok
            )
        assert repr(report) == repr(expected)
        seen |= kinds(expected, P.dim)
    if source in ("unimodularity", "random"):
        # Delzant vertices, simple ones of larger determinant, non-simple ones
        assert seen == {(True, True), (False, True), (False, False)}
    else:
        assert (True, True) in seen


def test_the_determinant_is_derived_on_first_read():
    P = bad_triangle()
    report = P.is_delzant()
    assert report.failure == (
        "vertex (Fraction(0, 1), Fraction(1, 1)) has edge determinant 2"
    )
    # the message read the first failing record's determinant, and only it
    derived = [rec for rec in report.vertex_records if "determinant" in vars(rec)]
    assert [rec.vertex for rec in derived] == [(0, 1)]
    assert [rec.determinant for rec in report.vertex_records] == [-1, 2, 1]
    records = square().is_delzant().vertex_records
    assert not any("determinant" in vars(rec) for rec in records)


@pytest.fixture
def eliminations(monkeypatch):
    """A list that counts the calls of ``exactgeom._eliminate``."""
    calls = []
    eliminate = exactgeom._eliminate

    def counted(rows):
        calls.append(len(rows))
        return eliminate(rows)

    monkeypatch.setattr(exactgeom, "_eliminate", counted)
    return calls


COMMANDS = ("validate", "orient", "quantize", "dh", "cones", "cohomology")


def test_no_command_eliminates_on_a_template_document(tmp_path, eliminations):
    stage(tmp_path)
    doc = document_from_template(doubled_simplex(40, 1))
    (tmp_path / "doubled_simplex40.json").write_text(json.dumps(doc), encoding="utf-8")
    names = [path.name for path in documents()] + ["doubled_simplex40.json"]
    counts = {}
    for name in names:
        dim = json.loads((tmp_path / name).read_text(encoding="utf-8"))["dimension"]
        for command in COMMANDS:
            argv = [command, name]
            if command == "dh":
                argv += ["--point", ",".join(["1/3"] * dim)]
            eliminations.clear()
            run_case(main, argv, tmp_path)
            counts[name, command] = len(eliminations)
    # each command validates first, and on nondelzant2 the message names one
    # vertex's determinant
    failing = {key: count for key, count in counts.items() if "nondelzant2" in key[0]}
    assert failing == {("nondelzant2.json", command): 1 for command in COMMANDS}
    assert not any(counts[key] for key in counts.keys() - failing.keys())
