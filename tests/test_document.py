import contextlib
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from factories import bad_triangle, hirzebruch_pair, rp4_template, s4_template
from test_corpus import CHAINS, CORPUS, shuffled_document
from test_incidence import square_pyramid
from toricorigami import (
    DimensionMismatch,
    DocumentError,
    NonIntegralError,
    OrigamiTemplate,
    OutputLimitError,
    UnboundedError,
    make_polytope,
    validate,
)
from toricorigami.document import (
    MAX_EXPONENT,
    document_from_template,
    format_rational,
    parse_rational,
    parse_template,
)
from toricorigami.exactgeom import as_point

ROOT = Path(__file__).resolve().parent.parent


def doc_of(T):
    # through JSON text to exercise the full wire format
    return json.loads(json.dumps(document_from_template(T)))


class TestRationals:
    def test_integers(self):
        assert parse_rational(5, "x") == 5
        assert parse_rational("-3", "x") == -3

    def test_fraction_strings(self):
        assert parse_rational("3/2", "x") * 2 == 3
        assert format_rational(parse_rational("-7/4", "x")) == "-7/4"

    def test_whole_values_have_no_denominator(self):
        assert format_rational(parse_rational("4/2", "x")) == "2"

    def test_floats_rejected(self):
        with pytest.raises(DocumentError):
            parse_rational(0.5, "x")

    def test_booleans_rejected(self):
        with pytest.raises(DocumentError):
            parse_rational(True, "x")

    def test_garbage_rejected(self):
        with pytest.raises(DocumentError):
            parse_rational("1/0", "x")

    def test_exponents_up_to_the_bound(self):
        assert MAX_EXPONENT == 4300
        assert parse_rational("1e4300", "x") == 10 ** 4300
        assert parse_rational(" 3E-4300 ", "x") == Fraction(3, 10 ** 4300)
        assert parse_rational("25e-1", "x") == Fraction(5, 2)

    @pytest.mark.parametrize("text", [
        "1e4301", "1e-4301", "1E+30000000", "1.5e-30000000", "1e3_000_000_0",
        "1e" + "9" * 10_000,
    ])
    def test_larger_exponents_refused_before_the_power(self, text):
        # 10^30000000 alone takes seconds to compute
        with pytest.raises(DocumentError, match=r"x: \|exponent\| > 4300"):
            parse_rational(text, "x")

    @pytest.mark.parametrize("text", ["1e", "e5", "1enan", "1e5/2", "1/2e5"])
    def test_malformed_exponents_rejected(self, text):
        with pytest.raises(DocumentError, match="bad rational"):
            parse_rational(text, "x")


@contextlib.contextmanager
def int_max_str_digits(limit):
    """Python's int-to-text digit limit set to ``limit`` (0: none) for the block."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


class TestOutputLimit:
    """``format_rational`` refuses what ``str()`` would fail on, as an OrigamiError."""

    @pytest.mark.parametrize("x", [
        10 ** 4300, -(10 ** 4300), Fraction(1, 10 ** 4300), Fraction(10 ** 4301, 3),
    ], ids=["numerator", "negative", "denominator", "both"])
    def test_more_digits_than_the_limit_refused(self, x):
        with int_max_str_digits(4300):
            with pytest.raises(OutputLimitError, match="more than 4300 digits"):
                format_rational(x)

    def test_digits_up_to_the_limit_written(self):
        with int_max_str_digits(4300):
            assert format_rational(10 ** 4300 - 1) == "9" * 4300
            assert format_rational(Fraction(-1, 10 ** 4300 - 1)) == "-1/" + "9" * 4300
            assert format_rational(2 ** (3 * 4300)) == str(2 ** (3 * 4300))

    def test_the_current_limit_applies(self):
        with int_max_str_digits(0):
            assert format_rational(10 ** 4300) == "1" + "0" * 4300
        with int_max_str_digits(5000):
            assert format_rational(Fraction(1, 10 ** 4300)) == "1/1" + "0" * 4300
            with pytest.raises(OutputLimitError, match="more than 5000 digits"):
                format_rational(10 ** 5000)


class TestMessageNumbers:
    """A message names its numbers as ``str()`` writes them, or refuses one
    past the limit with the report's OutputLimitError."""

    def test_writable_numbers_are_named_as_before(self):
        assert bad_triangle().is_delzant().failure == (
            "vertex (Fraction(0, 1), Fraction(1, 1)) has edge determinant 2"
        )
        assert square_pyramid().is_delzant().failure == (
            "vertex (Fraction(0, 1), Fraction(0, 1), Fraction(1, 1)) has 4 edges, "
            "expected 3"
        )
        with pytest.raises(DimensionMismatch) as caught:
            as_point((1, Fraction(1, 2)), 3)
        assert str(caught.value) == (
            "expected a 3-vector, got (Fraction(1, 1), Fraction(1, 2))"
        )
        assert str(NonIntegralError([(Fraction(1, 3),)])) == (
            "non-integer vertices: ((Fraction(1, 3),),)"
        )

    def test_a_number_past_the_limit_is_refused(self):
        huge = Fraction(10**4300, 3)
        with int_max_str_digits(4300):
            with pytest.raises(OutputLimitError, match="more than 4300 digits"):
                make_polytope([((-1, 0), 0), ((0, -1), 0), ((1, 2), 2 * 10**4300)]).is_delzant()
            with pytest.raises(OutputLimitError, match="more than 4300 digits"):
                as_point((huge,), 2)
            with pytest.raises(OutputLimitError, match="more than 4300 digits"):
                NonIntegralError([(huge,)])


class TestRoundTrip:
    @pytest.mark.parametrize(
        "make", [s4_template, rp4_template, hirzebruch_pair]
    )
    def test_parse_of_serialize_is_equal(self, make):
        T = make()
        again = parse_template(doc_of(T))
        assert again == T
        assert validate(again).valid == validate(T).valid

    def test_names_preserved(self):
        T = OrigamiTemplate(
            s4_template().polytopes,
            s4_template().fusions,
            names=("north", "south"),
        )
        assert parse_template(doc_of(T)).names == ("north", "south")

    def test_serialized_offsets_are_strings(self):
        doc = document_from_template(s4_template())
        for poly in doc["polytopes"]:
            for hs in poly["halfspaces"]:
                assert isinstance(hs["offset"], str)


class TestParseErrors:
    def base_doc(self):
        return doc_of(s4_template())

    def test_dimension_required(self):
        doc = self.base_doc()
        del doc["dimension"]
        with pytest.raises(DocumentError, match="dimension"):
            parse_template(doc)

    def test_polytopes_required(self):
        with pytest.raises(DocumentError, match="polytopes"):
            parse_template({"dimension": 2, "polytopes": []})

    def test_normal_length_checked(self):
        doc = self.base_doc()
        doc["polytopes"][0]["halfspaces"][0]["normal"] = [1]
        with pytest.raises(DocumentError, match="normal"):
            parse_template(doc)

    def test_float_normal_rejected(self):
        doc = self.base_doc()
        doc["polytopes"][0]["halfspaces"][0]["normal"] = [0.5, 1]
        with pytest.raises(DocumentError, match="normal"):
            parse_template(doc)

    def test_fusion_polytope_range(self):
        doc = self.base_doc()
        doc["fusions"][0]["a"]["polytope"] = 7
        with pytest.raises(DocumentError, match="polytope"):
            parse_template(doc)

    def test_fusion_type_checked(self):
        doc = self.base_doc()
        doc["fusions"][0]["type"] = "tripled"
        with pytest.raises(DocumentError, match="type"):
            parse_template(doc)

    def test_pair_needs_distinct_facets(self):
        doc = self.base_doc()
        doc["fusions"][0]["b"] = dict(doc["fusions"][0]["a"])
        with pytest.raises(DocumentError, match="distinct"):
            parse_template(doc)

    def test_document_must_be_an_object(self):
        with pytest.raises(DocumentError) as info:
            parse_template([])
        assert str(info.value) == "document must be a JSON object"

    def test_single_takes_no_b(self):
        doc = doc_of(rp4_template())
        doc["fusions"][0]["b"] = {"polytope": 0, "facet": 0}
        with pytest.raises(DocumentError) as info:
            parse_template(doc)
        assert str(info.value) == "fusions[0]: singles take no 'b'"

    def test_geometry_errors_propagate(self):
        doc = {
            "dimension": 2,
            "polytopes": [
                {"halfspaces": [
                    {"normal": [-1, 0], "offset": 0},
                    {"normal": [0, -1], "offset": 0},
                ]}
            ],
            "fusions": [],
        }
        with pytest.raises(UnboundedError):
            parse_template(doc)


class TestFacetRemapping:
    def test_redundant_halfspace_shifts_indices(self):
        # insert a redundant inequality before the hypotenuse: the fusion
        # written against the document indices must land on the hypotenuse
        doc = {
            "dimension": 2,
            "polytopes": [
                {
                    "name": "padded-triangle",
                    "halfspaces": [
                        {"normal": [-1, 0], "offset": 0},
                        {"normal": [0, -1], "offset": 0},
                        {"normal": [1, 1], "offset": 99},
                        {"normal": [1, 1], "offset": 2},
                    ],
                },
                {
                    "name": "plain-triangle",
                    "halfspaces": [
                        {"normal": [-1, 0], "offset": 0},
                        {"normal": [0, -1], "offset": 0},
                        {"normal": [1, 1], "offset": 2},
                    ],
                },
            ],
            "fusions": [
                {
                    "type": "pair",
                    "a": {"polytope": 0, "facet": 3},
                    "b": {"polytope": 1, "facet": 2},
                }
            ],
        }
        T = parse_template(doc)
        assert len(T.polytopes[0].halfspaces) == 3
        assert T.fusions[0].a.facet == 2
        assert validate(T).valid

    def test_reference_to_removed_halfspace_rejected(self):
        doc = {
            "dimension": 2,
            "polytopes": [
                {
                    "halfspaces": [
                        {"normal": [-1, 0], "offset": 0},
                        {"normal": [0, -1], "offset": 0},
                        {"normal": [1, 1], "offset": 99},
                        {"normal": [1, 1], "offset": 2},
                    ],
                }
            ],
            "fusions": [
                {"type": "single", "a": {"polytope": 0, "facet": 2}}
            ],
        }
        with pytest.raises(DocumentError, match="redundant"):
            parse_template(doc)


def halfspace_pairs(spec):
    """A polytope entry's (normal, offset) pairs, parsed as parse_template does."""
    return [
        (tuple(hs["normal"]), parse_rational(hs["offset"], "offset"))
        for hs in spec["halfspaces"]
    ]


def documents():
    """(id, document) for every gallery file, golden input and corpus round trip."""
    files = sorted((ROOT / "gallery").glob("*.json")) + sorted(
        (ROOT / "tests" / "golden" / "inputs").glob("*.json")
    )
    for path in files:
        yield path.stem, json.loads(path.read_text(encoding="utf-8"))
    templates = [(name, T) for name, _, _, T in CORPUS]
    templates += [(f"{name}-chain", T) for name, _, T in CHAINS]
    for name, T in templates:
        yield name, document_from_template(T)
        yield f"{name}-shuffled", shuffled_document(T, random.Random(name))[0]


DOCUMENTS = list(documents())


class TestSharedPolytopes:
    """Equal halfspace lists of one document share one built polytope."""

    def test_repeated_entries_are_one_instance(self):
        T = parse_template(doc_of(s4_template()))
        assert T.polytopes[0] is T.polytopes[1]
        # and one facet numbering, built once
        assert T.polytopes[0]._input_index is T.polytopes[1]._input_index

    def test_reordered_copy_is_built_again(self):
        doc = doc_of(s4_template())
        # the second triangle lists its hypotenuse first
        second = doc["polytopes"][1]["halfspaces"]
        second.insert(0, second.pop())
        doc["fusions"][0]["b"]["facet"] = 0
        T = parse_template(doc)
        first, again = T.polytopes
        assert again.halfspaces == first.halfspaces[2:] + first.halfspaces[:2]
        assert again.kept_input_indices == first.kept_input_indices == (0, 1, 2)
        assert T.fusions[0].a.facet == 2 and T.fusions[0].b.facet == 0
        assert validate(T).valid

    def test_differently_written_copy_is_built_again(self):
        doc = doc_of(s4_template())
        # the same triangle, with an unreduced normal and a redundant halfspace
        doc["polytopes"][1]["halfspaces"][:0] = [
            {"normal": [1, 1], "offset": "9"},
            {"normal": [-2, 0], "offset": "0"},
        ]
        doc["fusions"][0]["b"]["facet"] = 4
        T = parse_template(doc)
        first, again = T.polytopes
        assert first is not again and first == again
        assert again.kept_input_indices == (1, 3, 4)
        assert T.fusions[0].b.facet == 2
        assert validate(T).valid

    @pytest.mark.parametrize("name, doc", DOCUMENTS, ids=[n for n, _ in DOCUMENTS])
    def test_each_polytope_is_the_one_built_alone(self, name, doc):
        T = parse_template(doc)
        pairs = [halfspace_pairs(spec) for spec in doc["polytopes"]]
        for P, own in zip(T.polytopes, pairs):
            alone = make_polytope(own)
            assert P == alone
            assert P._rays == alone._rays
            assert P._vertex_active == alone._vertex_active
            assert P.kept_input_indices == alone.kept_input_indices
        for i in range(len(pairs)):
            for j in range(i):
                assert (T.polytopes[i] is T.polytopes[j]) == (pairs[i] == pairs[j])

    def test_documents_repeat_lists(self):
        # the cases above include shared polytopes
        assert any(
            len({json.dumps(spec["halfspaces"]) for spec in doc["polytopes"]})
            < len(doc["polytopes"])
            for _, doc in DOCUMENTS
        )

    def test_invalid_repeated_polytope_reports_the_first_index(self):
        doc = doc_of(s4_template())
        for spec in doc["polytopes"]:
            spec["halfspaces"][0]["normal"] = [0, 0]
        with pytest.raises(DocumentError, match=r"^polytopes\[0\]: .* nonzero"):
            parse_template(doc)
