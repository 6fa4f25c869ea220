"""Toric origami templates: exact combinatorial invariants of fused Delzant polytopes.

Names are exported lazily (PEP 562): ``import toricorigami`` loads no
submodule, and the first use of a name imports the submodule that defines it.
"""

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "errors": (
        "BoundaryPoint", "DegenerateError", "DimensionError", "DimensionMismatch",
        "DocumentError", "EmptyError", "EnumerationLimitError", "InconsistentIndex",
        "NonGenericPolarization", "NonIntegralError", "NonorientableError",
        "OrigamiError", "OutputLimitError", "PolytopeError", "PreconditionError",
        "StructureError", "UnboundedError", "ValidationError",
    ),
    "exactgeom": (
        "DelzantReport", "FaceRef", "Halfspace", "HPolytope", "Location",
        "agrees_near", "make_polytope",
    ),
    "template": (
        "FacetAddress", "FixedPoint", "FoldComponent", "Fusion", "OrigamiTemplate",
        "SurfaceClass", "ValidationReport", "classify_surface", "cut", "fixed_points",
        "fold_components", "glue", "multiplicity", "orient", "orientation_signs",
        "pair", "reversed_orientation", "single", "validate",
    ),
    "invariants": (
        "DHValue", "QuantizationResult", "dh_density", "quantize", "signed_volume",
    ),
    "cones": (
        "IdentityReport", "Lcg64", "PolarizedCone", "WeightSet", "cone_density",
        "default_polarization", "polarize", "verify_dh_identity", "weight_sets",
    ),
    "cohomology": (
        "CriticalFace", "PoincareSeries", "critical_faces", "face_ht_series",
        "fold_direction", "ht_poincare",
    ),
    "document": ("document_from_template", "load_template", "parse_template"),
    "render": ("render_svg",),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_SOURCE])


def __getattr__(name):
    # the import system probes private submodules (``from . import
    # _latticescan``) here; they fail before importlib is loaded
    if name not in _EXPORTS and name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    value = getattr(import_module(f"{__name__}.{_SOURCE[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
