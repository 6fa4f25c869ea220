"""Value semantics of the package's immutable records.

Every record compares and hashes over its compared fields only, is unequal
to a record of another class with the same field values, refuses assignment
and deletion, and prints as ``Name(field=value, ...)`` without its hidden
fields.  ``HPolytope.vertices``, ``HPolytope.kept_input_indices``,
``HPolytope._vertex_active`` and ``OrigamiTemplate.names`` are not
compared.

Every record the package defines is walked for its constructor: a record
either takes the shared ``Value.__init__``, which stores positional values
in ``_repr`` order, or is one of the few named in ``_value``'s docstring
and takes its ``_repr`` fields in that order itself.
"""

import importlib
import inspect
import pkgutil
from fractions import Fraction as F
from functools import cached_property

import pytest

import toricorigami
from factories import segment, square
from toricorigami._value import Value
from toricorigami.cohomology import CriticalFace, PoincareSeries
from toricorigami.cones import IdentityReport, PolarizedCone, WeightSet
from toricorigami.exactgeom import (
    DelzantReport,
    DelzantVertexRecord,
    FaceRef,
    Halfspace,
    HPolytope,
    Location,
)
from toricorigami.invariants import DHValue, QuantizationResult
from toricorigami.template import (
    FacetAddress,
    FixedPoint,
    FoldComponent,
    Fusion,
    OrigamiTemplate,
    SurfaceClass,
    ValidationReport,
    pair,
)

SEG = segment(0, 1)
SEG_REPR = (
    "HPolytope(dim=1, halfspaces=(Halfspace(normal=(-1,), offset=Fraction(0, 1)), "
    "Halfspace(normal=(1,), offset=Fraction(1, 1))), "
    "vertices=((Fraction(0, 1),), (Fraction(1, 1),)))"
)
FACE_REPR = f"FaceRef(polytope={SEG_REPR}, active=(0,), dim=0)"


def _reordered(P):
    """P with its vertices (and their tight sets) listed in reverse."""
    return HPolytope(
        P.dim, P.halfspaces, P._rays[::-1], P.kept_input_indices[::-1],
        P._vertex_active[::-1],
    )


def _template(names=None):
    return OrigamiTemplate([SEG, SEG], [pair((0, 1), (1, 1))], [1, -1], names)


# name -> (make, make an equal value, make an unequal value, all fields, repr)
CASES = {
    "Halfspace": (
        lambda: Halfspace((1, 0), F(1, 2)),
        lambda: Halfspace((1, 0), F(2, 4)),
        lambda: Halfspace((1, 0), F(1, 3)),
        ("normal", "offset"),
        "Halfspace(normal=(1, 0), offset=Fraction(1, 2))",
    ),
    "HPolytope": (
        lambda: SEG,
        lambda: _reordered(SEG),
        lambda: segment(0, 2),
        ("dim", "halfspaces", "_rays", "vertices", "kept_input_indices",
         "_vertex_active"),
        SEG_REPR,
    ),
    "FaceRef": (
        lambda: FaceRef(SEG, (0,), 0),
        lambda: FaceRef(_reordered(SEG), (0,), 0),
        lambda: FaceRef(SEG, (1,), 0),
        ("polytope", "active", "dim"),
        FACE_REPR,
    ),
    "Location": (
        lambda: Location("boundary", FaceRef(SEG, (0,), 0)),
        lambda: Location("boundary", FaceRef(SEG, (0,), 0)),
        lambda: Location("boundary", FaceRef(SEG, (1,), 0)),
        ("kind", "face"),
        f"Location(kind='boundary', face={FACE_REPR})",
    ),
    "DelzantVertexRecord": (
        lambda: DelzantVertexRecord((F(0),), ((1,),), 1, True),
        lambda: DelzantVertexRecord((F(0),), ((1,),), 1, True),
        lambda: DelzantVertexRecord((F(0),), ((1,),), -1, True),
        ("vertex", "directions", "determinant", "ok"),
        "DelzantVertexRecord(vertex=(Fraction(0, 1),), directions=((1,),), "
        "determinant=1, ok=True)",
    ),
    "DelzantReport": (
        lambda: DelzantReport(False, (), "bad"),
        lambda: DelzantReport(False, (), "bad"),
        lambda: DelzantReport(False, (), "worse"),
        ("is_delzant", "vertex_records", "failure"),
        "DelzantReport(is_delzant=False, vertex_records=(), failure='bad')",
    ),
    "FacetAddress": (
        lambda: FacetAddress(0, 1),
        lambda: FacetAddress(0, 1),
        lambda: FacetAddress(1, 0),
        ("polytope", "facet"),
        "FacetAddress(polytope=0, facet=1)",
    ),
    "Fusion": (
        lambda: Fusion(FacetAddress(0, 1), FacetAddress(1, 1)),
        lambda: pair((0, 1), (1, 1)),
        lambda: Fusion(FacetAddress(0, 1)),
        ("a", "b"),
        "Fusion(a=FacetAddress(polytope=0, facet=1), b=FacetAddress(polytope=1, facet=1))",
    ),
    "OrigamiTemplate": (
        lambda: _template(["a", "b"]),
        lambda: _template(["c", "d"]),
        lambda: OrigamiTemplate([SEG, SEG], [pair((0, 1), (1, 1))], [-1, 1], ["a", "b"]),
        ("polytopes", "fusions", "orientation", "names"),
        f"OrigamiTemplate(polytopes=({SEG_REPR}, {SEG_REPR}), fusions=(Fusion("
        "a=FacetAddress(polytope=0, facet=1), b=FacetAddress(polytope=1, facet=1)),), "
        "orientation=(1, -1), names=('a', 'b'))",
    ),
    "ValidationReport": (
        lambda: ValidationReport(((0, "m"),), (), ("x",), True, (1,)),
        lambda: ValidationReport(((0, "m"),), (), ("x",), True, (1,)),
        lambda: ValidationReport(((0, "m"),), (), ("x",), False, (1,)),
        ("delzant_failures", "agreement_failures", "adjacency_failures",
         "connected", "self_pairs"),
        "ValidationReport(delzant_failures=((0, 'm'),), agreement_failures=(), "
        "adjacency_failures=('x',), connected=True, self_pairs=(1,))",
    ),
    "FoldComponent": (
        lambda: FoldComponent(0, True),
        lambda: FoldComponent(0, True),
        lambda: FoldComponent(0, False),
        ("fusion", "coorientable"),
        "FoldComponent(fusion=0, coorientable=True)",
    ),
    "FixedPoint": (
        lambda: FixedPoint(0, (F(1),)),
        lambda: FixedPoint(0, (1,)),
        lambda: FixedPoint(1, (F(1),)),
        ("polytope", "vertex"),
        "FixedPoint(polytope=0, vertex=(Fraction(1, 1),))",
    ),
    "SurfaceClass": (
        lambda: SurfaceClass("sphere", 2, 1),
        lambda: SurfaceClass("sphere", 2, 1),
        lambda: SurfaceClass("torus", 0, 2),
        ("family", "fixed_points", "fold_components"),
        "SurfaceClass(family='sphere', fixed_points=2, fold_components=1)",
    ),
    "WeightSet": (
        lambda: WeightSet(0, (F(0),), ((1,),), 1),
        lambda: WeightSet(0, (F(0),), ((1,),), 1),
        lambda: WeightSet(0, (F(0),), ((1,),), -1),
        ("polytope", "vertex", "weights", "sign"),
        "WeightSet(polytope=0, vertex=(Fraction(0, 1),), weights=((1,),), sign=1)",
    ),
    "PolarizedCone": (
        lambda: PolarizedCone((F(0),), ((1,),), 0, -1),
        lambda: PolarizedCone((F(0),), ((1,),), 0, -1),
        lambda: PolarizedCone((F(0),), ((1,),), 1, -1),
        ("apex", "generators", "flips", "sign"),
        "PolarizedCone(apex=(Fraction(0, 1),), generators=((1,),), flips=0, sign=-1)",
    ),
    "IdentityReport": (
        lambda: IdentityReport((1, 2), 5, 5, 5, 0, 0, None),
        lambda: IdentityReport((1, 2), 5, 5, 5, 0, 0, None),
        lambda: IdentityReport((1, 2), 5, 5, 4, 1, 0, None),
        ("v", "requested", "samples", "agreements", "disagreements",
         "boundary_discards", "first_counterexample"),
        "IdentityReport(v=(1, 2), requested=5, samples=5, agreements=5, "
        "disagreements=0, boundary_discards=0, first_counterexample=None)",
    ),
    "CriticalFace": (
        lambda: CriticalFace(0, FaceRef(SEG, (0,), 0), ((F(0),),), 0, 1, 0, 0),
        lambda: CriticalFace(0, FaceRef(SEG, (0,), 0), ((F(0),),), 0, 1, 0, 0),
        lambda: CriticalFace(0, FaceRef(SEG, (0,), 0), ((F(0),),), 0, -1, 0, 2),
        ("polytope", "face", "vertices", "m", "side", "ind", "r"),
        f"CriticalFace(polytope=0, face={FACE_REPR}, vertices=((Fraction(0, 1),),), "
        "m=0, side=1, ind=0, r=0)",
    ),
    "PoincareSeries": (
        lambda: PoincareSeries(4, (1, 0, 1)),
        lambda: PoincareSeries(4, (1, 0, 1)),
        lambda: PoincareSeries(4, (1, 0, 2)),
        ("cap", "coefficients"),
        "PoincareSeries(cap=4, coefficients=(1, 0, 1))",
    ),
    "QuantizationResult": (
        lambda: QuantizationResult({(0,): 1}, 1),
        lambda: QuantizationResult({(0,): 1}, 1),
        lambda: QuantizationResult({(0,): -1}, -1),
        ("per_point", "virtual_dimension"),
        "QuantizationResult(per_point={(0,): 1}, virtual_dimension=1)",
    ),
    "DHValue": (
        lambda: DHValue((F(1, 2),), 1, True),
        lambda: DHValue((F(1, 2),), 1, True),
        lambda: DHValue((F(1, 2),), 1, False),
        ("point", "density", "generic"),
        "DHValue(point=(Fraction(1, 2),), density=1, generic=True)",
    ),
}

NAMES = sorted(CASES)
UNHASHABLE = {"QuantizationResult"}  # its per_point is a dict


def _records():
    """Every Value subclass the package defines, once each module is imported."""
    for info in pkgutil.iter_modules(toricorigami.__path__):
        importlib.import_module(f"toricorigami.{info.name}")
    found, stack = [], [Value]
    while stack:
        for cls in stack.pop().__subclasses__():
            stack.append(cls)
            if cls.__module__.startswith("toricorigami."):
                found.append(cls)
    return sorted(found, key=lambda cls: cls.__name__)


RECORDS = _records()
OWN = [cls for cls in RECORDS if "__init__" in vars(cls)]
SHARED = [cls for cls in RECORDS if "__init__" not in vars(cls)]
# construction does more than store required positional fields: a default or
# keywords, derived state, or direct stores in a record built per fusion entry
OWN_CONSTRUCTORS = {
    "DelzantReport", "FacetAddress", "Fusion", "HPolytope", "Halfspace",
    "Location", "OrigamiTemplate",
}


@pytest.mark.parametrize("name", NAMES)
def test_the_class_is_the_one_named(name):
    make = CASES[name][0]
    assert type(make()).__name__ == name


@pytest.mark.parametrize("name", NAMES)
def test_equal_over_compared_fields(name):
    make, same, other, _fields, _text = CASES[name]
    a, b, c = make(), same(), other()
    assert a == b and b == a and not a != b
    assert a != c and c != a and not a == c
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert len({a, b, c}) == 2


@pytest.mark.parametrize("name", NAMES)
def test_unequal_to_other_classes(name):
    value = CASES[name][0]()
    assert value.__eq__(object()) is NotImplemented
    for other in NAMES:
        if other != name:
            assert value != CASES[other][0]()
    assert value != tuple(getattr(value, f) for f in CASES[name][3])


def test_every_record_is_walked_and_has_a_case():
    assert [cls.__name__ for cls in RECORDS] == NAMES


def test_only_the_named_records_define_a_constructor():
    assert {cls.__name__ for cls in OWN} == OWN_CONSTRUCTORS


@pytest.mark.parametrize("cls", OWN, ids=lambda cls: cls.__name__)
def test_an_own_constructor_takes_the_repr_fields_in_order(cls):
    params = list(inspect.signature(cls).parameters)
    taken = [name for name in cls._repr if name in params]
    assert params[: len(taken)] == taken
    # a shown field that the constructor does not take is derived
    for name in cls._repr:
        if name not in params:
            assert isinstance(
                inspect.getattr_static(cls, name), (property, cached_property)
            )


@pytest.mark.parametrize("cls", SHARED, ids=lambda cls: cls.__name__)
def test_the_shared_constructor_stores_the_repr_fields_in_order(cls):
    values = [object() for _ in cls._repr]
    record = cls(*values)
    for name, value in zip(cls._repr, values, strict=True):
        assert getattr(record, name) is value
    for wrong in (values[:-1], [*values, object()]):
        with pytest.raises(TypeError, match=f"^{cls.__name__} takes "):
            cls(*wrong)
    with pytest.raises(TypeError):
        cls(**dict(zip(cls._repr, values)))


def test_same_fields_in_another_class_are_unequal():
    assert FacetAddress(0, 1) != FoldComponent(0, 1)
    assert FoldComponent(0, 1) != FacetAddress(0, 1)
    assert PoincareSeries(0, 1) != FacetAddress(0, 1)


@pytest.mark.parametrize("name", NAMES)
def test_assignment_and_deletion_raise(name):
    value = CASES[name][0]()
    for field in CASES[name][3]:
        before = getattr(value, field)
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
        assert getattr(value, field) is before
    with pytest.raises(AttributeError):
        value.extra = 1


@pytest.mark.parametrize("name", NAMES)
def test_repr_leaves_out_hidden_fields(name):
    make, _same, _other, _fields, text = CASES[name]
    assert repr(make()) == text


def test_uncompared_fields_are_kept():
    P = _reordered(SEG)
    assert P._rays == SEG._rays[::-1]
    assert P.vertices == SEG.vertices[::-1]
    assert P.kept_input_indices == SEG.kept_input_indices[::-1]
    assert P._vertex_active == SEG._vertex_active[::-1]
    assert _template(["c", "d"]).names == ("c", "d")


def test_cached_structure_survives_freezing():
    P = square()
    assert P.vertices is P.vertices
    assert P._face_list is P._face_list
    assert P._edges is P._edges
    T = _template()
    assert T._orientation_signs == (1, -1)
    assert T._fused_facets == (frozenset({1}), frozenset({1}))


def test_defaults():
    assert Location("interior").face is None
    assert DelzantReport(True, ()).failure is None
    assert Fusion(FacetAddress(0, 1)).b is None
    T = OrigamiTemplate((SEG,))
    assert (T.fusions, T.orientation, T.names) == ((), None, None)


def test_keyword_construction():
    assert Halfspace(normal=(1,), offset=F(1)) == Halfspace((1,), 1)
    assert OrigamiTemplate(polytopes=(SEG,), orientation=(1,)) == OrigamiTemplate(
        (SEG,), (), (1,)
    )
    assert Location(kind="outside") == Location("outside")


def test_template_turns_sequences_into_tuples():
    T = OrigamiTemplate([SEG, SEG], [pair((0, 1), (1, 1))], [1, -1], ["a", "b"])
    assert T.polytopes == (SEG, SEG) and type(T.polytopes) is tuple
    assert type(T.fusions) is tuple
    assert T.orientation == (1, -1) and type(T.orientation) is tuple
    assert T.names == ("a", "b") and type(T.names) is tuple
    assert T == OrigamiTemplate((SEG, SEG), (pair((0, 1), (1, 1)),), (1, -1))
    with pytest.raises(ValueError, match="names length mismatch"):
        OrigamiTemplate([SEG, SEG], names=["a"])


@pytest.mark.parametrize("read", ["eq", "hash", "repr"])
def test_a_derived_dh_point_is_the_given_point(read):
    """``dh_density`` derives its point from (X, s) when first read; the
    record compares, hashes and prints as one given the same point, whichever
    is read first."""
    from toricorigami.invariants import dh_density

    T = OrigamiTemplate([square()])
    derived = dh_density(T, (2, 4), 6)
    assert "point" not in vars(derived)
    given = DHValue((F(1, 3), F(2, 3)), 1, True)
    first = {"eq": lambda: derived == given, "hash": lambda: hash(derived),
             "repr": lambda: repr(derived)}[read]
    first()
    assert derived == given and given == derived
    assert hash(derived) == hash(given)
    assert repr(derived) == repr(given) == (
        "DHValue(point=(Fraction(1, 3), Fraction(2, 3)), density=1, generic=True)"
    )
