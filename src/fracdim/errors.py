"""Exception types shared across the package."""

__all__ = [
    "FracdimError",
    "DomainError",
    "HypothesisError",
    "CollinearDataError",
    "DegenerateDenominatorError",
    "ConditionError",
    "BetaRangeError",
    "ScaleError",
    "ConvergenceError",
]


class FracdimError(Exception):
    """Base class for all package-specific errors."""


class DomainError(FracdimError, ValueError):
    """Evaluation point outside [0, 1]."""


class HypothesisError(FracdimError):
    """A theorem hypothesis or configuration gate failed.

    These are diagnostics rather than programming errors: the inputs are
    well-formed but violate an assumption of the requested construction.
    """


class CollinearDataError(HypothesisError):
    """Interpolation data lies on a single line."""


class DegenerateDenominatorError(HypothesisError):
    """A quotient denominator in the Hausdorff condition is (near) zero."""


class ConditionError(HypothesisError):
    """The Hausdorff quotient condition fails even after perturbation."""


class BetaRangeError(HypothesisError):
    """Requested dimension outside the open interval (1, 2)."""


class ScaleError(HypothesisError):
    """Box-counting scale too fine for the available grid resolution."""


class ConvergenceError(FracdimError):
    """Fixed-point iteration failed to reach the requested tolerance."""

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations
