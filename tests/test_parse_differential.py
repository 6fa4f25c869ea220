"""``parse_template`` against the reference parser, which shares nothing.

The package reads each entry on its own too, but equal parsed lists share
one polytope (and its facet numbering) and each offset string is read once;
``parse_reference`` builds every entry apart.  On the gallery, the golden
inputs, the corpus, shuffled documents and mutated copies of them, both must
build an equal template (names included) or raise the same error message.
"""

import copy
import json
import random
from fractions import Fraction

import pytest

import parse_reference
from factories import hexagon_cycle, path_of_segments
from golden.record import documents
from test_corpus import CHAINS, CORPUS, shuffled_document
from toricorigami import DocumentError, OrigamiError
from toricorigami import document as document_module
from toricorigami.document import document_from_template, parse_template


def outcome(parse, doc):
    """The template and its names, or the error's type name and message.

    A document error is a ``DocumentError``; a list that builds no polytope
    can also raise a ``PolytopeError`` (exit 2 in the CLI).
    """
    try:
        T = parse(doc)
    except (DocumentError, OrigamiError) as exc:
        return type(exc).__name__, str(exc)
    return T, T.names


def assert_same(doc):
    expected = outcome(parse_reference.parse_template, copy.deepcopy(doc))
    assert outcome(parse_template, doc) == expected
    return expected


def wire(T):
    """T's document through JSON text."""
    return json.loads(json.dumps(document_from_template(T)))


FILES = documents()
TEMPLATES = (
    [(name, T) for name, _, _, T in CORPUS]
    + [(f"chain-{name}", T) for name, _, T in CHAINS]
    + [("path-12", path_of_segments(12)), ("hexagons-8", hexagon_cycle(8))]
)


@pytest.mark.parametrize("path", FILES, ids=[p.name for p in FILES])
def test_documents_on_disk(path):
    assert_same(json.loads(path.read_text(encoding="utf-8")))


@pytest.mark.parametrize("name, T", TEMPLATES, ids=[name for name, _ in TEMPLATES])
def test_template_documents_and_shuffles(name, T):
    assert_same(wire(T))
    for seed in range(3):
        doc, _perm = shuffled_document(T, random.Random(f"{name}-{seed}"))
        assert_same(json.loads(json.dumps(doc)))


# values a JSON document may hold where the parser wants another
JUNK = [True, False, 1.0, 0.0, "1", "x", "1/0", None, [], {}, -1, 0, 2, 2**70, [1], {"a": 1}]


def _slots(value, path=()):
    """Every (path, value) inside a decoded JSON value, containers included."""
    yield path, value
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _slots(item, path + (key,))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _slots(item, path + (index,))


def _replaced(doc, path, value):
    doc = copy.deepcopy(doc)
    holder = doc
    for key in path[:-1]:
        holder = holder[key]
    holder[path[-1]] = value
    return doc


@pytest.mark.parametrize(
    "name, T", [TEMPLATES[0], TEMPLATES[-2], TEMPLATES[-1]],
    ids=["corpus", "path-12", "hexagons-8"],
)
def test_mutated_documents(name, T):
    rng = random.Random(name)
    base = wire(T)
    failures = 0
    for _ in range(300):
        doc = base
        for _ in range(rng.choice((1, 1, 2))):
            slots = [path for path, _ in _slots(doc) if path]
            doc = _replaced(doc, rng.choice(slots), copy.deepcopy(rng.choice(JUNK)))
        failures += isinstance(assert_same(doc)[0], str)
    assert failures  # the mutations reach the error paths


def _int_path(count):
    """path_of_segments(count) as a document with plain int offsets."""
    doc = wire(path_of_segments(count))
    for spec in doc["polytopes"]:
        for hs in spec["halfspaces"]:
            hs["offset"] = int(hs["offset"])
    return doc


@pytest.mark.parametrize("where", ["normal", "offset"])
@pytest.mark.parametrize("value", [True, 1.0, "1", "x"], ids=["true", "1.0", "str", "x"])
@pytest.mark.parametrize("k", [1, 5, 11])
def test_kth_repeat_differs_in_type_only(k, value, where):
    """A repeat whose 1 became true, 1.0, "1" or "x" is read on its own."""
    doc = _int_path(12)
    hs = doc["polytopes"][k]["halfspaces"][1]
    assert hs == {"normal": [1], "offset": 1}
    if where == "normal":
        hs["normal"] = [value]
    else:
        hs["offset"] = value
    result = assert_same(doc)
    if where == "offset" and value == "1":
        # a string offset is valid: the same template, read on its own
        assert result[0] == parse_template(_int_path(12))
    else:
        assert result[0] == "DocumentError"
        assert result[1].startswith(f"polytopes[{k}].halfspaces[1].{where}: ")


def test_huge_integers_in_repeats_are_keys_not_text():
    """An int past ``sys.get_int_max_str_digits()`` is hashed, never written."""
    big = 10**5000
    seg = [{"normal": [-1], "offset": 0}, {"normal": [1], "offset": big}]
    doc = {"dimension": 1, "polytopes": [{"halfspaces": seg} for _ in range(3)]}
    T, _names = assert_same(doc)
    assert len(set(map(id, T.polytopes))) == 1


def test_each_distinct_list_is_read_once(monkeypatch):
    calls = []

    def counting(value, where):
        calls.append(where)
        return parse_rational(value, where)

    parse_rational = document_module.parse_rational
    monkeypatch.setattr(document_module, "parse_rational", counting)
    doc = wire(path_of_segments(300))  # offsets are "0" and "1" strings
    parse_template(doc)
    assert calls == ["polytopes[0].halfspaces[0].offset", "polytopes[0].halfspaces[1].offset"]


def _sharing(T):
    """Each entry's polytope as the index of the first entry holding it."""
    first = {}
    return [first.setdefault(id(P), i) for i, P in enumerate(T.polytopes)]


@pytest.mark.parametrize("offsets", [
    [2, "2", "4/2", "1e0", " 2 ", 2],
    ["1e0", 2, "2/1", "20e-1"],
    ["3/2", "1.5", "3/2", "6/4", 2],
], ids=["two", "two-first-text", "halves"])
def test_equal_offsets_share_a_polytope_as_before(offsets):
    """Offsets written as equal rationals share one polytope, whatever the
    spelling; an integral one is kept as an int, equal and hashed alike."""
    doc = {"dimension": 1, "polytopes": [
        {"halfspaces": [{"normal": [-1], "offset": 0}, {"normal": [1], "offset": o}]}
        for o in offsets
    ]}
    T, _names = assert_same(doc)
    assert _sharing(T) == _sharing(parse_reference.parse_template(copy.deepcopy(doc)))
    # one polytope per distinct value
    assert len(set(_sharing(T))) == len({Fraction(str(o).strip()) for o in offsets})


@pytest.mark.parametrize("value", [
    True, False, -1, 2, 7, 2**70, None, "0", 0.0, [0], {"polytope": 0},
], ids=["true", "false", "negative", "out-of-range", "far", "huge", "null",
        "string", "float", "list", "dict"])
@pytest.mark.parametrize("field", ["polytope", "facet"])
@pytest.mark.parametrize("side", ["a", "b"])
def test_bad_address_messages_do_not_change(value, field, side):
    doc = wire(path_of_segments(2))
    doc["fusions"][0][side][field] = value
    kind, message = assert_same(doc)
    assert kind == "DocumentError" and message.startswith(f"fusions[0].{side}.")


@pytest.mark.parametrize("side", ["a", "b"])
@pytest.mark.parametrize("address", [
    "missing-polytope", "missing-facet", "empty", None, [0, 1], "0", 3,
])
def test_bad_address_objects_do_not_change(address, side):
    doc = wire(path_of_segments(2))
    if address == "missing-polytope":
        del doc["fusions"][0][side]["polytope"]
    elif address == "missing-facet":
        del doc["fusions"][0][side]["facet"]
    elif address == "empty":
        doc["fusions"][0][side] = {}
    else:
        doc["fusions"][0][side] = address
    kind, message = assert_same(doc)
    assert kind == "DocumentError" and message.startswith(f"fusions[0].{side}")
