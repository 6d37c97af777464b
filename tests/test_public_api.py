"""The package's public names, pinned: removing one, or adding one, is a
change to this list."""

import warpcurv

PUBLIC = [
    "ArityError",
    "CONVENTIONS",
    "ComparisonReport",
    "CurvatureBundle",
    "DegenerateMetricError",
    "DiffPolicy",
    "DomainExitError",
    "EvalDomainError",
    "Expression",
    "ExpressionError",
    "GeodesicError",
    "GeodesicState",
    "GeometryError",
    "Manifest",
    "ManifestError",
    "MetricSpec",
    "NonpositiveWarpError",
    "NumericalInstabilityError",
    "OracleError",
    "ParseError",
    "Point",
    "ProductPoint",
    "StencilDomainError",
    "StepTooLargeError",
    "TensorComparison",
    "Trajectory",
    "UnknownIdentifierError",
    "WarpcurvError",
    "WarpedProductSpec",
    "__version__",
    "as_plain_metric",
    "assemble_metric",
    "bundle_closed",
    "bundle_fd",
    "catalog_names",
    "christoffels_closed",
    "christoffels_of",
    "compare_bundles",
    "evaluate",
    "format_expression",
    "integrate",
    "jet2",
    "load_catalog",
    "load_manifest",
    "metric_at",
    "parse_expression",
    "parse_manifest",
    "rhs_full",
    "rhs_split",
    "value_and_gradient",
    "warp_values",
]


def test_public_names_are_pinned_and_resolve():
    assert PUBLIC == sorted(PUBLIC)
    assert sorted(warpcurv.__all__) == PUBLIC  # a repeated name fails here too
    for name in PUBLIC:
        assert getattr(warpcurv, name, None) is not None, name
