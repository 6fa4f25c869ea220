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


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise DocumentError(message)


def parse_template(doc) -> OrigamiTemplate:
    """Build a template from a decoded JSON document (dict)."""
    _expect(isinstance(doc, dict), "document must be a JSON object")
    dim = doc.get("dimension")
    _expect(
        isinstance(dim, int) and not isinstance(dim, bool) and dim >= 1,
        "dimension: expected a positive integer",
    )
    specs = doc.get("polytopes")
    _expect(
        isinstance(specs, list) and specs,
        "polytopes: expected a nonempty array",
    )

    polytopes: list[HPolytope] = []
    # equal halfspace lists share one polytope, built and checked once
    built: dict = {}
    names: list[str] = []
    index_maps: list[dict[int, int]] = []
    for pi, spec in enumerate(specs):
        where = f"polytopes[{pi}]"
        _expect(isinstance(spec, dict), f"{where}: expected an object")
        name = spec.get("name", f"polytope-{pi}")
        _expect(isinstance(name, str), f"{where}.name: expected a string")
        hs_specs = spec.get("halfspaces")
        _expect(
            isinstance(hs_specs, list) and hs_specs,
            f"{where}.halfspaces: expected a nonempty array",
        )
        pairs = []
        for hi, hs in enumerate(hs_specs):
            hw = f"{where}.halfspaces[{hi}]"
            _expect(isinstance(hs, dict), f"{hw}: expected an object")
            normal = hs.get("normal")
            _expect(
                isinstance(normal, list)
                and len(normal) == dim
                and all(
                    isinstance(c, int) and not isinstance(c, bool)
                    for c in normal
                ),
                f"{hw}.normal: expected an array of {dim} integers",
            )
            offset = parse_rational(hs.get("offset"), f"{hw}.offset")
            pairs.append((tuple(normal), offset))
        try:
            P = make_polytope(pairs, shared=built)
        except ValueError as exc:
            raise DocumentError(f"{where}: {exc}") from exc
        polytopes.append(P)
        names.append(name)
        index_maps.append(
            {old: new for new, old in enumerate(P.kept_input_indices)}
        )

    fusions: list[Fusion] = []
    fusion_specs = doc.get("fusions", [])
    _expect(isinstance(fusion_specs, list), "fusions: expected an array")
    for fi, spec in enumerate(fusion_specs):
        where = f"fusions[{fi}]"
        _expect(isinstance(spec, dict), f"{where}: expected an object")
        kind = spec.get("type")
        _expect(kind in ("pair", "single"), f"{where}.type: 'pair' or 'single'")
        a = _parse_address(spec.get("a"), f"{where}.a", polytopes, index_maps)
        if kind == "pair":
            b = _parse_address(
                spec.get("b"), f"{where}.b", polytopes, index_maps
            )
            _expect(a != b, f"{where}: a pair must join two distinct facets")
            fusions.append(Fusion(a, b))
        else:
            _expect(spec.get("b") is None, f"{where}: singles take no 'b'")
            fusions.append(Fusion(a))

    try:
        return OrigamiTemplate(
            tuple(polytopes), tuple(fusions), None, tuple(names)
        )
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc


def _parse_address(spec, where, polytopes, index_maps) -> FacetAddress:
    _expect(isinstance(spec, dict), f"{where}: expected an object")
    pi = spec.get("polytope")
    _expect(
        isinstance(pi, int) and not isinstance(pi, bool)
        and 0 <= pi < len(polytopes),
        f"{where}.polytope: expected an index below {len(polytopes)}",
    )
    fi = spec.get("facet")
    _expect(
        isinstance(fi, int) and not isinstance(fi, bool) and fi >= 0,
        f"{where}.facet: expected a nonnegative index",
    )
    mapped = index_maps[pi].get(fi)
    _expect(
        mapped is not None,
        f"{where}.facet: halfspace {fi} of polytope {pi} does not support "
        "a facet (redundant or out of range)",
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
