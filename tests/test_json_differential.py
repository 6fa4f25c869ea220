"""The package's JSON reader and report writer against the standard library.

``document._json_value`` reads a document with the C scanner that
``json.loads`` runs, and ``cli._encode`` writes a report as
``json.dumps(indent=2, sort_keys=True)`` does, so that a CLI call on a
well-formed document loads no ``json``.  Each is compared with ``json``
itself here.  The reader must return the same value with the same types
(bool against int, float, nested containers, key order), or raise the same
exception type with the same message.  The writer must write the same
bytes; a number past the digit limit raises ValueError from both, and a
value that no report holds (a float, a key that is neither a str nor, in
quantize's point table, a tuple of ints) raises TypeError.

This process has imported ``json``, so the scanner raises json's own
errors here; ``tests/test_imports.py`` checks a malformed document in a
fresh interpreter, where the scanner fails before ``json`` is loaded.
"""

import json
import random
from pathlib import Path

import pytest

from test_document import DOCUMENTS, int_max_str_digits
from toricorigami.cli import _encode
from toricorigami.document import _json_value, _scan, load_template
from toricorigami.errors import DocumentError, OutputLimitError, written

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"


def typed(value):
    """``value`` with the type of every entry and the order of every key;
    a float as its repr, so that NaN equals NaN."""
    if isinstance(value, dict):
        return "dict", [(key, typed(item)) for key, item in value.items()]
    if isinstance(value, list):
        return "list", [typed(item) for item in value]
    if isinstance(value, float):
        return "float", repr(value)
    return type(value).__name__, value


def outcome(read, text):
    """(``"value"``, the typed value) or (exception type, message)."""
    try:
        return "value", typed(read(text))
    except Exception as exc:
        return type(exc), str(exc)


def assert_read_alike(text):
    got = outcome(_json_value, text)
    assert got == outcome(json.loads, text)
    return got


# --- reader ---------------------------------------------------------------

FILES = {
    f"{path.parent.name}/{path.name}": path.read_text(encoding="utf-8")
    for folder in (ROOT / "gallery", GOLDEN / "inputs", GOLDEN / "refused")
    for path in sorted(folder.glob("*.json"))
}

S4 = FILES["gallery/s4.json"]
DEPTH = 100_000  # past any recursion limit

# documents that parse_template or the rational reader refuses, malformed
# JSON, and the numbers and constants json reads its own way
HOSTILE = {
    "empty": "",
    "whitespace-only": " \t\n\r ",
    "array": "[1, 2, 3]",
    "string": '"text"',
    "no-polytopes": '{"dimension": 2, "polytopes": []}',
    "boolean-dimension": '{"dimension": true, "polytopes": [{}]}',
    "float-normal": '{"dimension": 1, "polytopes": '
                    '[{"halfspaces": [{"normal": [1.0], "offset": 1}]}]}',
    "huge-exponent-offset": S4.replace('"2"', '"1e30000000"', 1),
    "5000-digit-offset": S4.replace('"2"', "1" * 5000, 1),
    "5000-digit-literal": "1" * 5000,
    "negative-5000-digit-literal": "[-" + "9" * 5000 + "]",
    "4300-digit-literal": "9" * 4300,
    "long-float": "1" * 5000 + ".5",
    "overflowing-float": "[1e400, -1e400, 1E5, -0, -0.0]",
    "constants": "[NaN, Infinity, -Infinity]",
    "constant-alone": "-Infinity",
    "lowercase-nan": "[nan]",
    "negative-nan": "[-NaN]",
    "constant-prefix": "[Infinityx]",
    "duplicate-keys": '{"a": 1, "b": [2], "a": {"c": 3}}',
    "duplicate-dimension": S4.replace("{", '{"dimension": 7, ', 1),
    "bool-beside-int": '[true, 1, false, 0, null]',
    "control-character": '"a\x01b"',
    "raw-tab-in-string": '"a\tb"',
    "escapes": '["\u00e9\U0001d11e", "\\ud800", "\\/\\b\\f\\n\\r\\t\\"\\\\"]',
    "bad-escape": r'"\x41"',
    "unterminated-string": '{"a": "b',
    "trailing-comma": '{"a": [1, 2,]}',
    "single-quotes": "{'a': 1}",
    "bom": "\ufeff" + S4,
    "bom-after-space": " \ufeff{}",
    "extra-value": S4 + "{}",
    "extra-word": S4.rstrip() + " x",
    "two-values": "1 2",
    "deep-arrays": "[" * DEPTH + "]" * DEPTH,
    "deep-objects": '{"a": ' * DEPTH + "1" + "}" * DEPTH,
    "deep-unclosed": "[" * DEPTH,
    "shallow-arrays": "[" * 50 + "]" * 50,
}
# whitespace json skips, and whitespace that str.strip skips but json does not
for name, space in {
    "json-whitespace": " \t\n\r", "form-feed": "\f", "vertical-tab": "\v",
    "no-break-space": "\u00a0", "line-separator": "\u2028", "next-line": "\x85",
    "file-separator": "\x1c",
}.items():
    HOSTILE[f"{name}-before"] = space + S4
    HOSTILE[f"{name}-after"] = S4 + space
    HOSTILE[f"{name}-around"] = space + "[1]" + space


@pytest.mark.parametrize("name", sorted(FILES))
def test_every_document_file_reads_alike(name):
    kind, _ = assert_read_alike(FILES[name])
    assert kind == "value"


@pytest.mark.parametrize("index", range(len(DOCUMENTS)), ids=[n for n, _ in DOCUMENTS])
def test_every_corpus_document_reads_alike(index):
    doc = DOCUMENTS[index][1]
    assert assert_read_alike(json.dumps(doc)) == ("value", typed(doc))
    assert assert_read_alike(json.dumps(doc, indent=2, sort_keys=True))[0] == "value"


@pytest.mark.parametrize("name", sorted(HOSTILE))
def test_hostile_texts_read_alike(name):
    assert_read_alike(HOSTILE[name])


def test_the_hostile_texts_reach_every_outcome():
    kinds = {assert_read_alike(text)[0] for text in HOSTILE.values()}
    assert {"value", json.JSONDecodeError, ValueError, RecursionError} <= kinds


def test_the_scanner_reads_every_well_formed_text_itself():
    """json.loads is the reader's fallback, so a wrong scanner context would
    only be slower: every text that json.loads reads, the scanner reads whole."""
    read = 0
    for text in [*FILES.values(), *HOSTILE.values()]:
        kind, value = outcome(json.loads, text)
        if kind == "value":
            body = text.strip(" \t\n\r")
            scanned, end = _scan(body, 0)
            assert (typed(scanned), end) == (value, len(body))
            read += 1
    assert read > len(FILES)


# characters that move a scanner between states
SIGNIFICANT = ' \t\n\f,:[]{}"\\/-+.0123456789eEtfnNI\x01\ufeff'


@pytest.mark.parametrize("name", sorted(FILES))
def test_truncated_documents_read_alike(name):
    text = FILES[name]
    rng = random.Random(f"truncate {name}")
    for end in {0, 1, len(text) - 1, *rng.sample(range(len(text)), min(40, len(text)))}:
        assert_read_alike(text[:end])


@pytest.mark.parametrize("name", sorted(FILES))
def test_mutated_documents_read_alike(name):
    text = FILES[name]
    rng = random.Random(f"mutate {name}")
    for _ in range(60):
        at = rng.randrange(len(text))
        char = rng.choice(SIGNIFICANT)
        mutated = rng.choice((
            text[:at] + char + text[at:],  # insert
            text[:at] + text[at + 1:],  # delete
            text[:at] + char + text[at + 1:],  # replace
        ))
        assert_read_alike(mutated)


@pytest.mark.parametrize("text, prefix", [
    ("{not json", "invalid JSON"),
    ("\ufeff{}", "invalid JSON"),
    ("{} []", "invalid JSON"),
    ("", "invalid JSON"),
    ("1" * 5000, "invalid JSON"),
    ("[" * DEPTH, "JSON nested too deeply"),
], ids=["malformed", "bom", "extra-data", "empty", "5000-digits", "deep"])
def test_load_template_names_the_error_of_json(tmp_path, text, prefix):
    path = tmp_path / "bad.json"
    path.write_text(text, encoding="utf-8")
    _, message = outcome(json.loads, text)
    with pytest.raises(DocumentError) as info:
        load_template(path)
    assert str(info.value) == f"{path}: {prefix}: {message}"


# --- writer ---------------------------------------------------------------

REPORTS = {
    path.stem: path.read_text(encoding="utf-8")
    for path in sorted((GOLDEN / "expected").glob("*.out"))
    if path.stat().st_size
}


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_every_golden_report_is_written_alike(name):
    text = REPORTS[name]
    report = json.loads(text)
    assert _encode(report, "") + "\n" == text
    assert json.dumps(report, indent=2, sort_keys=True) + "\n" == text
    if "points" in report:  # what quantize hands _encode: the per-point dict
        report["points"] = {
            tuple(entry["point"]): entry["multiplicity"] for entry in report["points"]
        }
        assert _encode(report, "") + "\n" == text


def test_golden_reports_hold_only_what_the_encoder_writes():
    kinds = set()

    def walk(value):
        kinds.add(type(value))
        if isinstance(value, dict):
            value = list(value.values())
        if isinstance(value, list):
            for item in value:
                walk(item)

    for text in REPORTS.values():
        walk(json.loads(text))
    assert kinds == {dict, list, str, int, bool, type(None)}
    assert any('"points": [' in text for text in REPORTS.values())


STRING_CHARS = 'ab \x00\x01\x1f\x7f\t\n\r"\\/\u00e9\u20ac\U0001d11e\u2028\ud800'


def random_string(rng):
    return "".join(rng.choice(STRING_CHARS) for _ in range(rng.randrange(6)))


def random_value(rng, depth=0):
    """A report-like value: str, None, bool, int, list, tuple or str-keyed dict."""
    kind = rng.randrange(8 if depth < 4 else 4)
    if kind == 0:
        return rng.choice((None, True, False))
    if kind == 1:
        return rng.choice((0, 1, -1, 2**64, -(10**30), rng.randrange(-999, 999)))
    if kind in (2, 3):
        return random_string(rng)
    items = [random_value(rng, depth + 1) for _ in range(rng.randrange(4))]
    if kind == 4:
        return items
    if kind == 5:
        return tuple(items)
    return {random_string(rng): item for item in items}


@pytest.mark.parametrize("seed", range(20))
def test_seeded_nested_reports_are_written_alike(seed):
    rng = random.Random(seed)
    for _ in range(25):
        report = {random_string(rng): random_value(rng) for _ in range(rng.randrange(5))}
        expected = json.dumps(report, indent=2, sort_keys=True)
        assert _encode(report, "") == expected
        for value in report.values():
            assert _encode(value, "") == json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize("report", [
    {}, [], (), {"a": [], "b": {}, "c": ()}, [[], [{}], {"x": []}],
    {"flags": [True, 1, False, 0, None], "one": 1, "true": True},
    {"text": "\u00e9\x00\x1f\n\"\\\U0001d11e\ud800", "\u00e9": "key"},
], ids=["empty-dict", "empty-list", "empty-tuple", "empties", "nested-empties",
        "bool-beside-int", "non-ascii-and-control"])
def test_edge_reports_are_written_alike(report):
    assert _encode(report, "") == json.dumps(report, indent=2, sort_keys=True)


def test_an_int_past_the_digit_limit_raises_value_error_from_both():
    report = {"command": "cohomology", "coefficients": [1, 10**5000]}
    with int_max_str_digits(4300):
        with pytest.raises(ValueError) as expected:
            json.dumps(report, indent=2, sort_keys=True)
        with pytest.raises(ValueError) as got:
            _encode(report, "")
        assert type(got.value) is type(expected.value) is ValueError
        assert str(got.value) == str(expected.value)
        with pytest.raises(OutputLimitError, match="more than 4300 digits"):
            written(_encode, report, "")
    with int_max_str_digits(0):
        assert _encode(report, "") == json.dumps(report, indent=2, sort_keys=True)


@pytest.mark.parametrize("value", [
    1.5, float("nan"), {"a": [0.5]}, {1: "a"}, {"a": {2: 3}}, {None: 1},
    {True: 1}, {"a": 1, 2: 3}, {1, 2}, b"bytes", object(),
    {("a", "b"): 1}, {(1, None): 2}, {(1,): "m"}, {(1,): None}, {(1,): 2, "a": 3},
], ids=["float", "nan", "nested-float", "int-key", "nested-int-key", "none-key",
        "bool-key", "mixed-keys", "set", "bytes", "object", "str-tuple-key",
        "none-in-tuple-key", "str-multiplicity", "none-multiplicity", "tuple-then-str-key"])
def test_what_no_report_holds_raises_type_error(value):
    with pytest.raises(TypeError):
        _encode(value, "")
    with pytest.raises(TypeError):
        _encode({"command": "x", "value": value}, "")
