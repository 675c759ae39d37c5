"""Exception types shared across the package."""


class CutlocError(Exception):
    """Base class for all toolkit errors."""


class ConstructionError(CutlocError, ValueError):
    """Curve construction failed validation (closure, regularity, orientation, simplicity)."""


class ShapeParseError(ConstructionError):
    """Shape description file could not be parsed or is missing required keys."""

    def __init__(self, msg, line=None, column=None):
        super().__init__(msg)
        self.line = line
        self.column = column


class ConfigurationError(CutlocError):
    """Run configuration is inconsistent (grid too coarse, too few samples, bad flags)."""


class DegenerateRayError(CutlocError):
    """Normal ray leaves the domain immediately; no positive cut value exists."""


class InapplicableError(CutlocError):
    """Requested check is outside the result's hypotheses (e.g. concave corners present)."""


class FormulaOutOfScopeError(InapplicableError):
    """Identity invoked on a shape class it does not cover."""


class HypothesisViolationError(CutlocError):
    """A stated hypothesis fails on the given data (e.g. curvature maximum outside the window)."""


class OperatorRangeError(CutlocError):
    """m^-1 of an operator asked outside its range: a negative magnitude."""


class InvalidRayError(CutlocError):
    """Ray data violates kappa * lambda <= 1."""
