"""JSON template documents: parsing and serialization.

The wire format keeps every number exact: offsets (and any rational value in
reports) travel as strings like ``"3/2"`` or plain integers, never floats.
Facets are addressed by halfspace index; indices refer to the document's
halfspace list and are remapped onto the irredundant normalized system,
which preserves the input order of kept halfspaces.
"""

from __future__ import annotations

import sys
from _json import make_scanner
from types import SimpleNamespace

from .errors import DocumentError, written
from .exactgeom import HPolytope, make_polytope
from .template import FacetAddress, Fusion, OrigamiTemplate


# load_template refuses a longer document: about 145 times the largest
# benchmark document (a 1200-segment path), room for a 100 000-segment path
MAX_DOCUMENT_CHARS = 2**25

# parse_rational refuses |exponent| > MAX_EXPONENT before Fraction builds 10^exponent
MAX_EXPONENT = 4300  # the number of digits int() reads from text


def parse_rational(value, where: str) -> int | Fraction:
    """An int for an int or for a string that, stripped, is an optional sign
    and ASCII digits; a Fraction, as ``Fraction`` reads it, for any other
    string."""
    if isinstance(value, bool):
        raise DocumentError(f"{where}: expected a rational, got a boolean")
    if isinstance(value, int):
        return int(value)
    if isinstance(value, str):
        text = value.strip()
        digits = text[1:] if text[:1] in ("+", "-") else text
        try:
            if digits.isdigit() and digits.isascii():
                return int(text)
            if abs(float(value.lower().partition("e")[2] or 0)) > MAX_EXPONENT:
                raise DocumentError(f"{where}: |exponent| > {MAX_EXPONENT}: {value!r}")
            from fractions import Fraction

            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise DocumentError(f"{where}: bad rational {value!r}") from exc
    raise DocumentError(
        f"{where}: rationals must be integers or 'p/q' strings, got "
        f"{type(value).__name__}"
    )


def format_rational(x) -> str:
    """``p/q`` or ``p``, refusing what ``str()`` cannot write (OutputLimitError)."""
    from fractions import Fraction

    return written(str, Fraction(x))


def parse_template(doc) -> OrigamiTemplate:
    """Build a template from a decoded JSON document (dict).

    Every entry is checked on its own, so an error names the first entry
    that fails.  Equal parsed halfspace lists share one polytope, and each
    offset string is read once.
    """
    if not isinstance(doc, dict):
        raise DocumentError("document must be a JSON object")
    dim = doc.get("dimension")
    if not (isinstance(dim, int) and not isinstance(dim, bool) and dim >= 1):
        raise DocumentError("dimension: expected a positive integer")
    specs = doc.get("polytopes")
    if not (isinstance(specs, list) and specs):
        raise DocumentError("polytopes: expected a nonempty array")

    polytopes: list[HPolytope] = []
    # equal halfspace lists share one polytope, built and checked once
    built: dict = {}
    # offset string -> its value, stored once parse_rational has returned it
    offsets: dict = {}
    names: list[str] = []
    for pi, spec in enumerate(specs):
        if not isinstance(spec, dict):
            raise DocumentError(f"polytopes[{pi}]: expected an object")
        name = spec["name"] if "name" in spec else f"polytope-{pi}"
        if not isinstance(name, str):
            raise DocumentError(f"polytopes[{pi}].name: expected a string")
        pairs = _parse_halfspaces(spec.get("halfspaces"), dim, pi, offsets)
        try:
            polytopes.append(make_polytope(pairs, shared=built))
        except ValueError as exc:
            raise DocumentError(f"polytopes[{pi}]: {exc}") from exc
        names.append(name)

    fusions: list[Fusion] = []
    fusion_specs = doc.get("fusions", [])
    if not isinstance(fusion_specs, list):
        raise DocumentError("fusions: expected an array")
    for fi, spec in enumerate(fusion_specs):
        if not isinstance(spec, dict):
            raise DocumentError(f"fusions[{fi}]: expected an object")
        kind = spec.get("type")
        if kind not in ("pair", "single"):
            raise DocumentError(f"fusions[{fi}].type: 'pair' or 'single'")
        a = _parse_address(spec.get("a"), fi, "a", polytopes)
        if kind == "pair":
            b = _parse_address(spec.get("b"), fi, "b", polytopes)
            if a == b:
                raise DocumentError(
                    f"fusions[{fi}]: a pair must join two distinct facets"
                )
            fusions.append(Fusion(a, b))
        else:
            if spec.get("b") is not None:
                raise DocumentError(f"fusions[{fi}]: singles take no 'b'")
            fusions.append(Fusion(a))

    return OrigamiTemplate(tuple(polytopes), tuple(fusions), None, tuple(names))


def _parse_halfspaces(hs_specs, dim: int, pi: int, offsets: dict) -> tuple:
    """Check ``polytopes[pi].halfspaces`` and read its (normal, offset) pairs.

    ``offsets`` maps each offset string read so far to its value.
    """
    if not (isinstance(hs_specs, list) and hs_specs):
        raise DocumentError(f"polytopes[{pi}].halfspaces: expected a nonempty array")
    pairs = []
    for hi, hs in enumerate(hs_specs):
        if not isinstance(hs, dict):
            raise DocumentError(f"polytopes[{pi}].halfspaces[{hi}]: expected an object")
        normal = hs.get("normal")
        if not (
            isinstance(normal, list)
            and len(normal) == dim
            # plain ints pass at C speed; another int type (not bool) one by one
            and (
                {int}.issuperset(map(type, normal))
                or all(isinstance(c, int) and not isinstance(c, bool) for c in normal)
            )
        ):
            raise DocumentError(
                f"polytopes[{pi}].halfspaces[{hi}].normal: expected an array of "
                f"{dim} integers"
            )
        raw = hs.get("offset")
        # an int offset cannot fail: only another value needs a message ready
        if type(raw) is int:
            offset = raw
        elif type(raw) is not str or (offset := offsets.get(raw)) is None:
            offset = parse_rational(raw, f"polytopes[{pi}].halfspaces[{hi}].offset")
            if type(raw) is str:
                offsets[raw] = offset
        pairs.append((tuple(normal), offset))
    return tuple(pairs)


def _parse_address(spec, fi: int, side: str, polytopes) -> FacetAddress:
    """``fusions[fi].<side>`` as an address on the irredundant system."""
    if not isinstance(spec, dict):
        raise DocumentError(f"fusions[{fi}].{side}: expected an object")
    pi = spec.get("polytope")
    if not (type(pi) is int and 0 <= pi < len(polytopes)):
        raise DocumentError(
            f"fusions[{fi}].{side}.polytope: expected an index below {len(polytopes)}"
        )
    facet = spec.get("facet")
    if not (type(facet) is int and facet >= 0):
        raise DocumentError(f"fusions[{fi}].{side}.facet: expected a nonnegative index")
    mapped = polytopes[pi]._input_index.get(facet)
    if mapped is None:
        raise DocumentError(
            f"fusions[{fi}].{side}.facet: halfspace {facet} of polytope {pi} does "
            "not support a facet (redundant or out of range)"
        )
    return FacetAddress(pi, mapped)


def document_from_template(T: OrigamiTemplate) -> dict:
    """Serialize a template; re-parsing yields an equal template."""
    names = T.names or tuple(f"polytope-{i}" for i in range(len(T.polytopes)))
    polytopes = []
    for name, P in zip(names, T.polytopes):
        polytopes.append(
            {
                "name": name,
                "halfspaces": [
                    {"normal": list(hs.normal), "offset": format_rational(hs.offset)}
                    for hs in P.halfspaces
                ],
            }
        )
    fusions = []
    for fu in T.fusions:
        entry = {
            "type": "pair" if fu.is_pair else "single",
            "a": {"polytope": fu.a.polytope, "facet": fu.a.facet},
        }
        if fu.is_pair:
            entry["b"] = {"polytope": fu.b.polytope, "facet": fu.b.facet}
        fusions.append(entry)
    return {"dimension": T.dim, "polytopes": polytopes, "fusions": fusions}


# the scanner json.loads runs, with its defaults: strict strings, no hooks,
# float and int, json's NaN and Infinity
_scan = make_scanner(SimpleNamespace(
    strict=True, object_hook=None, object_pairs_hook=None, parse_float=float,
    parse_int=int, parse_constant={
        "NaN": float("nan"), "Infinity": float("inf"), "-Infinity": float("-inf"),
    }.__getitem__,
))


def _json_value(text: str):
    """``json.loads(text)``: the value the C scanner reads past the whitespace
    that json skips, or, for a text it does not read whole, what json.loads
    returns or raises, so that ``json`` is imported only for that text."""
    body = text.strip(" \t\n\r")
    try:
        value, end = _scan(body, 0)
    except Exception:  # on 3.11 a SystemError until json.decoder is imported
        end = -1
    if end == len(body):
        return value
    import json

    return json.loads(text)


def load_template(path) -> OrigamiTemplate:
    """Read a template document from a file path or '-' for stdin.

    A document longer than MAX_DOCUMENT_CHARS characters is refused after
    reading one character past the bound.  The text is read as
    ``json.loads`` reads it, by :func:`_json_value`, which imports ``json``
    only for a malformed document.
    """
    source = "<stdin>" if path == "-" else str(path)
    if path == "-" and sys.stdin is None:  # started with fd 0 closed
        raise DocumentError(f"{source}: standard input is closed")
    try:
        if path == "-":
            text = sys.stdin.read(MAX_DOCUMENT_CHARS + 1)
        else:
            with open(path, encoding="utf-8") as f:
                text = f.read(MAX_DOCUMENT_CHARS + 1)
    except OSError as exc:
        raise DocumentError(f"{source}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DocumentError(f"{source}: not UTF-8 text: {exc}") from exc
    if len(text) > MAX_DOCUMENT_CHARS:
        raise DocumentError(
            f"{source}: document longer than {MAX_DOCUMENT_CHARS} characters"
        )
    try:
        doc = _json_value(text)
    except ValueError as exc:  # JSONDecodeError, or an integer of too many digits
        raise DocumentError(f"{source}: invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise DocumentError(f"{source}: JSON nested too deeply: {exc}") from exc
    return parse_template(doc)
