"""Average causal effect estimation under back-door, front-door and two-door assumptions."""

from .bounds import (
    BoundReport,
    SimDgpParams,
    bound,
    simdgp_bound,
    simdgp_theta,
)
from .dist import (
    DiscreteJoint,
    TreatmentPair,
    ace_backdoor,
    ace_frontdoor,
    ace_twodoor,
    chain_joint,
    factorized_joint,
    read_dist_csv,
    write_dist_csv,
)
from .errors import (
    AceboundsError,
    AssumptionViolation,
    DegenerateModel,
    DomainError,
    FitError,
    MaxIterExceeded,
    MissingNuisance,
    PositivityViolation,
    QuadratureNonConvergence,
    RankDeficient,
    SeparationDetected,
    ZeroConditioningEvent,
)
from .influence import (
    MODEL_TAGS,
    NuisanceSet,
    brute_force_mean,
    brute_force_variance,
    evaluate_m,
    truth_nuisances,
)
from .quadrature import FiniteZRule, GaussHermiteZRule, expect_z

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
