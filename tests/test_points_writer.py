"""``quantize --points`` output against the dict-per-point form it replaced.

The CLI writes the points array from one template per dimension; the
reference here is the earlier form, one ``{"point", "multiplicity"}`` dict
per point through ``json.dumps(indent=2, sort_keys=True)``.  The two must
agree byte for byte on templates in dimensions 1 to 5, with multiplicities
of both signs and 0 and with negative coordinates.
"""

import json

import pytest

from factories import (
    fold_segments_template,
    hirzebruch_pair,
    path_of_segments,
    s4_template,
    segment,
    trapezoid_chain,
)
from test_corpus import CHAINS, CORPUS
from toricorigami import OrigamiTemplate, make_polytope, pair
from toricorigami.cli import _dumps, _points_json, main
from toricorigami.document import document_from_template, load_template
from toricorigami.exactgeom import _dot
from toricorigami.invariants import quantize


def reference_report(path):
    """The report as the CLI wrote it with one dict per point."""
    result = quantize(load_template(path))
    report = {
        "command": "quantize",
        "file": path,
        "points": [
            {"point": list(p), "multiplicity": m}
            for p, m in result.per_point.items()
        ],
        "virtual_dimension": result.virtual_dimension,
    }
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def translated(T, t):
    """T moved by the integer vector t; facet numbers and fusions unchanged."""
    return OrigamiTemplate(
        tuple(
            make_polytope([(h.normal, h.offset + _dot(h.normal, t)) for h in P.halfspaces])
            for P in T.polytopes
        ),
        T.fusions,
    )


def unequal_segments():
    """[0, 1] and [0, 2] fused at their left ends: multiplicities 0 and -1."""
    return OrigamiTemplate((segment(0, 1), segment(0, 2)), (pair((0, 0), (1, 0)),))


TEMPLATES = [
    ("path-3", path_of_segments(3)),
    ("fold-4", fold_segments_template(4)),
    ("unequal-segments", unequal_segments()),
    ("unequal-segments-moved", translated(unequal_segments(), (-7,))),
    ("s4", s4_template(3)),
    ("hirzebruch", hirzebruch_pair()),
    ("hirzebruch-moved", translated(hirzebruch_pair(), (-5, -3))),
    ("trapezoid-chain", trapezoid_chain()),
    ("trapezoid-chain-moved", translated(trapezoid_chain(), (4, -9))),
]
TEMPLATES += [(f"{name}-double", T) for name, _base, _moved, T in CORPUS]
TEMPLATES += [(f"{name}-chain", T) for name, _base, T in CHAINS]


def test_templates_cover_dimensions_signs_and_negative_coordinates():
    tables = [quantize(T).per_point for _name, T in TEMPLATES]
    assert {len(next(iter(per))) for per in tables} == {1, 2, 3, 4, 5}
    multiplicities = {m for per in tables for m in per.values()}
    assert {-1, 0, 1} <= multiplicities
    assert any(c < 0 for per in tables for p in per for c in p)


@pytest.mark.parametrize("name, T", TEMPLATES, ids=[name for name, _ in TEMPLATES])
def test_points_match_the_dict_per_point_form(capsys, tmp_path, name, T):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(document_from_template(T)), encoding="utf-8")
    assert main(["quantize", str(path), "--points"]) == 0
    assert capsys.readouterr().out == reference_report(str(path))


@pytest.mark.parametrize("per_point", [
    {},
    {(0,): 0},
    {(-3, 0): -2, (0, 7): 5, (12, -1): 0},
    {(1, 2, 3, 4, 5): -1, (10**30, -(10**30), 0, 1, -1): 3},
], ids=["empty", "one-zero", "both-signs", "five-dimensional"])
def test_table_matches_json_dumps(per_point):
    expected = [{"point": list(p), "multiplicity": m} for p, m in per_point.items()]
    report = {"command": "quantize", "file": "a\nb \"c\".json", "virtual_dimension": -4}
    assert _dumps({**report, "points": per_point}) == json.dumps(
        {**report, "points": expected}, indent=2, sort_keys=True
    )


def test_empty_table_is_an_empty_array():
    assert _points_json({}) == "[]"
