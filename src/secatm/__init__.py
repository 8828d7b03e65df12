"""Certified integer bounds for sectional-category-type invariants.

The package models spaces, fibrations and map pairs by finite
graded-commutative cohomology algebras plus homotopy metadata, computes
exact degree-capped cup-length lower bounds with explicit certificates, and
propagates a system of inequality and equality rules to per-m integer
intervals with full provenance.
"""

from .domains import CoefficientDomain, NonPrimeModulus, Q, Z, GF
from .algebra import (
    AlgebraError,
    AlgebraMismatch,
    AssociativityViolation,
    CoefficientMismatch,
    CommutativityViolation,
    Element,
    GradedAlgebra,
    InvalidAlgebraSpec,
    MorphismMismatch,
    MultiplicativityViolation,
    RingMorphism,
    Subspace,
    UnitViolation,
    kernel,
    kunneth_product,
    make_algebra,
    tensor_square,
)
from .cuplength import CupLengthCertificate, CupLengthQuery, capped_cuplength
from .spaces import (
    FibrationModel,
    MapPairModel,
    SpaceModel,
    complex_projective,
    constant_map_pullback,
    moore,
    nonorientable_surface,
    orientable_surface,
    point,
    product,
    product_fibration,
    real_projective,
    sphere,
)
from .tables import (
    INF,
    BoundTable,
    InconsistentModel,
    Interval,
    render_text,
    table_from_json,
    table_to_json,
)
from .engine import Bundle, compute_tables, default_max_m
from .modelfile import ModelFileError, load_model_file, parse_model

__version__ = "0.1.0"
