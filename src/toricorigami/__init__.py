"""Toric origami templates: exact combinatorial invariants of fused Delzant polytopes."""

from .errors import (
    BoundaryPoint,
    DegenerateError,
    DimensionError,
    DimensionMismatch,
    DocumentError,
    EmptyError,
    EnumerationLimitError,
    InconsistentIndex,
    NonGenericPolarization,
    NonIntegralError,
    NonorientableError,
    OrigamiError,
    PolytopeError,
    PreconditionError,
    StructureError,
    UnboundedError,
    ValidationError,
)
from .exactgeom import (
    DelzantReport,
    FaceRef,
    Halfspace,
    HPolytope,
    Location,
    agrees_near,
    make_polytope,
)
from .template import (
    FacetAddress,
    FixedPoint,
    FoldComponent,
    Fusion,
    OrigamiTemplate,
    SurfaceClass,
    ValidationReport,
    classify_surface,
    cut,
    fixed_points,
    fold_components,
    glue,
    multiplicity,
    orient,
    orientation_signs,
    pair,
    reversed_orientation,
    single,
    validate,
)
from .invariants import DHValue, QuantizationResult, dh_density, quantize, signed_volume
from .cones import (
    IdentityReport,
    Lcg64,
    PolarizedCone,
    WeightSet,
    cone_density,
    default_polarization,
    polarize,
    verify_dh_identity,
    weight_sets,
)
from .cohomology import (
    CriticalFace,
    PoincareSeries,
    critical_faces,
    face_ht_series,
    fold_direction,
    ht_poincare,
)
from .document import document_from_template, load_template, parse_template
from .render import render_svg

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
