"""Exception types shared across the package.

Every error that callers are expected to catch lives here so that the CLI
can map exception classes to exit codes in one place.
"""

from __future__ import annotations


class WarpcurvError(Exception):
    """Base class for all package errors."""


class ExpressionError(WarpcurvError):
    """Base class for errors raised by the expression frontend."""


class ParseError(ExpressionError):
    """Malformed expression text.

    position is the 0-based character offset of the offending token.
    """

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.message = message
        self.position = position


class UnknownIdentifierError(ParseError):
    """Identifier that is neither a variable, function, nor constant."""

    def __init__(self, name: str, position: int):
        super().__init__(f"unknown identifier '{name}'", position)
        self.name = name


class ArityError(ParseError):
    """Variable index out of range for the declared arity."""

    def __init__(self, index: int, arity: int, position: int):
        super().__init__(
            f"variable x{index} out of range for arity {arity}", position
        )
        self.index = index
        self.arity = arity


class EvalDomainError(ExpressionError):
    """Evaluation hit an invalid input (log of nonpositive, division by
    zero, fractional power of a negative, numeric overflow).

    node is the AST node whose evaluation failed.
    """

    def __init__(self, message: str, node=None):
        super().__init__(message)
        self.node = node


class GeometryError(WarpcurvError):
    """Base class for metric-level failures."""


class DegenerateMetricError(GeometryError):
    """Metric determinant is zero within tolerance at the given point."""

    def __init__(self, message: str, determinant: float):
        super().__init__(message)
        self.determinant = determinant


class NonpositiveWarpError(GeometryError):
    """A warp function evaluated to a value <= 0.

    which is 'f' or 'h'.
    """

    def __init__(self, which: str, value: float):
        super().__init__(f"warp function {which} must be positive, got {value!r}")
        self.which = which
        self.value = value


class OracleError(WarpcurvError):
    """Base class for finite-difference oracle failures."""


class StencilDomainError(OracleError):
    """A finite-difference stencil point left the expression domain."""


class NumericalInstabilityError(OracleError):
    """A numerically computed tensor violated a structural identity by more
    than the documented tolerance."""


class GeodesicError(WarpcurvError):
    """Base class for integrator failures."""


class DomainExitError(GeodesicError):
    """Trajectory left the domain of the metric or warp functions.

    Carries the last parameter value and position that evaluated cleanly.
    """

    def __init__(self, s: float, position, message: str = ""):
        super().__init__(message or f"trajectory left the domain at s={s!r}")
        self.s = s
        self.position = position


class StepTooLargeError(GeodesicError):
    """Velocity-norm drift exceeded the abort threshold mid-trajectory."""

    def __init__(self, s: float, drift: float, threshold: float):
        super().__init__(
            f"norm drift {drift:.3e} exceeded threshold {threshold:.3e} at s={s!r}"
        )
        self.s = s
        self.drift = drift
        self.threshold = threshold


class ManifestError(WarpcurvError):
    """Manifest file missing, unreadable, or structurally invalid."""
