"""JSON template documents: parsing and serialization.

The wire format keeps every number exact: offsets (and any rational value in
reports) travel as strings like ``"3/2"`` or plain integers, never floats.
Facets are addressed by halfspace index; indices refer to the document's
halfspace list and are remapped onto the irredundant normalized system,
which preserves the input order of kept halfspaces.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

from .errors import DocumentError, OutputLimitError
from .exactgeom import HPolytope, make_polytope
from .template import FacetAddress, Fusion, OrigamiTemplate


# parse_rational refuses |exponent| > MAX_EXPONENT before Fraction builds 10^exponent
MAX_EXPONENT = 4300  # the number of digits int() reads from text


def parse_rational(value, where: str) -> Fraction:
    if isinstance(value, bool):
        raise DocumentError(f"{where}: expected a rational, got a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            if abs(float(value.lower().partition("e")[2] or 0)) > MAX_EXPONENT:
                raise DocumentError(f"{where}: |exponent| > {MAX_EXPONENT}: {value!r}")
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise DocumentError(f"{where}: bad rational {value!r}") from exc
    raise DocumentError(
        f"{where}: rationals must be integers or 'p/q' strings, got "
        f"{type(value).__name__}"
    )


def check_digits(big: int) -> None:
    """Refuse (OutputLimitError) a nonnegative integer too long for ``str()``."""
    limit = getattr(sys, "get_int_max_str_digits", int)()  # 0 (or absent): no limit
    # under 3 * limit bits a number is below 2^(3 limit) < 10^limit: at most limit digits
    if limit and big.bit_length() > 3 * limit and big >= 10 ** limit:
        raise OutputLimitError(f"a result number has more than {limit} digits")


def format_rational(x) -> str:
    """``p/q`` or ``p``, refusing what ``str()`` cannot write (OutputLimitError)."""
    x = Fraction(x)
    check_digits(max(abs(x.numerator), x.denominator))
    return str(x)


def _raw_key(hs_specs):
    """A raw halfspace list as a hashable key, or None.

    The key holds each normal and offset as the document wrote them, and it
    exists only when every normal is a list of plain ints and every offset a
    plain int or string: so ``true``, ``1.0`` and ``"1"`` never match ``1``,
    no number is written as text, and hashing the key cannot fail.
    """
    if type(hs_specs) is not list:
        return None
    key = []
    for hs in hs_specs:
        if type(hs) is not dict:
            return None
        normal, offset = hs.get("normal"), hs.get("offset")
        if (
            type(normal) is not list
            or type(offset) not in (int, str)
            or not {int}.issuperset(map(type, normal))
        ):
            return None
        key.append((tuple(normal), offset))
    return tuple(key)


def parse_template(doc) -> OrigamiTemplate:
    """Build a template from a decoded JSON document (dict).

    Each distinct raw halfspace list is parsed and checked once: a repeat
    reuses its first occurrence's pairs and index map.  Only a first
    occurrence can fail, so every message names the entry it named when
    each list was parsed on its own.
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
    # raw key -> (pairs, index map) of the list's first occurrence
    parsed: dict = {}
    names: list[str] = []
    index_maps: list[dict[int, int]] = []
    for pi, spec in enumerate(specs):
        if not isinstance(spec, dict):
            raise DocumentError(f"polytopes[{pi}]: expected an object")
        name = spec["name"] if "name" in spec else f"polytope-{pi}"
        if not isinstance(name, str):
            raise DocumentError(f"polytopes[{pi}].name: expected a string")
        hs_specs = spec.get("halfspaces")
        key = _raw_key(hs_specs)
        pairs, index_map = parsed.get(key) or (
            _parse_halfspaces(hs_specs, dim, pi), None
        )
        try:
            P = make_polytope(pairs, shared=built)
        except ValueError as exc:
            raise DocumentError(f"polytopes[{pi}]: {exc}") from exc
        if index_map is None:
            index_map = {old: new for new, old in enumerate(P.kept_input_indices)}
            if key is not None:
                parsed[key] = pairs, index_map
        polytopes.append(P)
        names.append(name)
        index_maps.append(index_map)

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
        a = _parse_address(spec.get("a"), fi, "a", polytopes, index_maps)
        if kind == "pair":
            b = _parse_address(spec.get("b"), fi, "b", polytopes, index_maps)
            if a == b:
                raise DocumentError(
                    f"fusions[{fi}]: a pair must join two distinct facets"
                )
            fusions.append(Fusion(a, b))
        else:
            if spec.get("b") is not None:
                raise DocumentError(f"fusions[{fi}]: singles take no 'b'")
            fusions.append(Fusion(a))

    try:
        return OrigamiTemplate(
            tuple(polytopes), tuple(fusions), None, tuple(names)
        )
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc


def _parse_halfspaces(hs_specs, dim: int, pi: int) -> tuple:
    """Check ``polytopes[pi].halfspaces`` and read its (normal, offset) pairs."""
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
            and all(isinstance(c, int) and not isinstance(c, bool) for c in normal)
        ):
            raise DocumentError(
                f"polytopes[{pi}].halfspaces[{hi}].normal: expected an array of "
                f"{dim} integers"
            )
        offset = hs.get("offset")
        # an int offset cannot fail: only another value needs a message ready
        if type(offset) is not int:
            offset = parse_rational(offset, f"polytopes[{pi}].halfspaces[{hi}].offset")
            # an integral offset stays an int: an equal key, hashed in C
            if offset.denominator == 1:
                offset = offset.numerator
        pairs.append((tuple(normal), offset))
    return tuple(pairs)


def _parse_address(spec, fi: int, side: str, polytopes, index_maps) -> FacetAddress:
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
    mapped = index_maps[pi].get(facet)
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


def load_template(path) -> OrigamiTemplate:
    """Read a template document from a file path or '-' for stdin."""
    if path == "-":
        text = sys.stdin.read()
        source = "<stdin>"
    else:
        source = str(path)
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise DocumentError(f"{source}: {exc}") from exc
    try:
        doc = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer of too many digits
        raise DocumentError(f"{source}: invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise DocumentError(f"{source}: JSON nested too deeply: {exc}") from exc
    return parse_template(doc)
