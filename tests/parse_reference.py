"""Template documents as parsed before each distinct halfspace list was parsed once.

``toricorigami.document.parse_template`` keys each polytope entry on its raw
halfspace list and lets a repeat reuse the first occurrence's pairs and
index map; it formats a message only when it raises one.  This is the parser
it replaced, which parsed and checked every entry on its own, unchanged
apart from its imports, so that the differential tests compare the two:
``parse_template``, ``_parse_address`` and ``_expect``.

It reads every offset with ``parse_rational``, the reader that
``toricorigami.document.parse_rational`` was before it read an integral
string as an int: a ``Fraction`` of every value, as ``Fraction`` itself
reads a string on this Python.
"""

from __future__ import annotations

from fractions import Fraction

from toricorigami.document import MAX_EXPONENT
from toricorigami.errors import DocumentError
from toricorigami.exactgeom import HPolytope, make_polytope
from toricorigami.template import FacetAddress, Fusion, OrigamiTemplate


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
