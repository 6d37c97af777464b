"""Curvature and geodesics of doubly warped product pseudo-Riemannian metrics.

A product manifold B x F carries the metric h(y)^2 g_B + f(x)^2 g_F with
positive warp functions f on the base and h on the fiber.  This package
evaluates its Christoffel symbols, Riemann/Ricci/scalar curvature, and
geodesics numerically at points, three independent ways:

- block formulas in factor terms (closed_form.bundle_closed), exact:
  no quantity there is differenced,
- a finite-difference oracle on the assembled metric (oracle.bundle_fd),
- two algebraically identical geodesic right-hand sides (geodesics).

Expressions are plain strings over x0, x1, ..., compiled once into a register
program that runs as one generated Python function, its kernel, and gives
values and exact gradients and Hessians (expr, kernel); manifolds load from
JSON manifests and a small built-in catalog (manifest); the `warpcurv` CLI
wraps the rest.
"""

__version__ = "0.1.0"

from .bundle import CONVENTIONS, CurvatureBundle
from .closed_form import bundle_closed, christoffels_closed
from .errors import (
    ArityError,
    DegenerateMetricError,
    DomainExitError,
    EvalDomainError,
    ExpressionError,
    GeodesicError,
    GeometryError,
    ManifestError,
    NonpositiveWarpError,
    NumericalInstabilityError,
    OracleError,
    ParseError,
    StencilDomainError,
    StepTooLargeError,
    UnknownIdentifierError,
    WarpcurvError,
)
from .expr import (
    Expression,
    evaluate,
    format_expression,
    jet2,
    parse_expression,
    value_and_gradient,
)
from .geodesics import GeodesicState, Trajectory, integrate, rhs_full, rhs_split
from .geometry import (
    MetricSpec,
    Point,
    christoffels_of,
    metric_at,
)
from .manifest import Manifest, catalog_names, load_catalog, load_manifest, parse_manifest
from .oracle import (
    ComparisonReport,
    DiffPolicy,
    TensorComparison,
    bundle_fd,
    compare_bundles,
)
from .warped import (
    ProductPoint,
    WarpedProductSpec,
    as_plain_metric,
    assemble_metric,
    warp_values,
)

__all__ = [
    "__version__",
    "CONVENTIONS",
    "CurvatureBundle",
    "bundle_closed",
    "christoffels_closed",
    "ArityError",
    "DegenerateMetricError",
    "DomainExitError",
    "EvalDomainError",
    "ExpressionError",
    "GeodesicError",
    "GeometryError",
    "ManifestError",
    "NonpositiveWarpError",
    "NumericalInstabilityError",
    "OracleError",
    "ParseError",
    "StencilDomainError",
    "StepTooLargeError",
    "UnknownIdentifierError",
    "WarpcurvError",
    "Expression",
    "evaluate",
    "format_expression",
    "jet2",
    "parse_expression",
    "value_and_gradient",
    "GeodesicState",
    "Trajectory",
    "integrate",
    "rhs_full",
    "rhs_split",
    "MetricSpec",
    "Point",
    "christoffels_of",
    "metric_at",
    "Manifest",
    "catalog_names",
    "load_catalog",
    "load_manifest",
    "parse_manifest",
    "ComparisonReport",
    "DiffPolicy",
    "TensorComparison",
    "bundle_fd",
    "compare_bundles",
    "ProductPoint",
    "WarpedProductSpec",
    "as_plain_metric",
    "assemble_metric",
    "warp_values",
]
