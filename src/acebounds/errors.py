"""Exception hierarchy shared across the package."""


class AceboundsError(Exception):
    """Base class for all errors raised by this package."""


class PositivityViolation(AceboundsError):
    """A conditional probability or density needed in a denominator is (numerically) zero."""


class MissingNuisance(AceboundsError):
    """A nuisance component required by an influence function is not available."""


class AssumptionViolation(AceboundsError):
    """The supplied distribution does not satisfy the assumptions of the requested comparison."""


class DomainError(AceboundsError, ValueError):
    """An argument is outside its mathematical domain."""


class FitError(AceboundsError):
    """Base class for nuisance-fitting failures."""


class RankDeficient(FitError):
    """Design matrix is rank deficient after applying misspecification directives."""


class SeparationDetected(FitError):
    """Logistic fit diverges because the classes are perfectly separated."""


class MaxIterExceeded(FitError):
    """Iterative fit did not converge within the iteration budget."""


class DegenerateModel(FitError):
    """Fitted model is degenerate (e.g. residual variance below the 1e-8 floor)."""


class QuadratureNonConvergence(AceboundsError):
    """Quadrature value not stable under doubling of the node count."""
