"""Every typed refusal of a bad input: its error type and a fragment of its message."""

from dataclasses import replace

import numpy as np
import pytest

from acebounds.bounds import BoundReport, SimDgpParams, bound, simdgp_bound
from acebounds.compare import ComparisonVerdict
from acebounds.dist import DiscreteJoint, factorized_joint
from acebounds.errors import DomainError, MissingNuisance, PositivityViolation, RankDeficient
from acebounds.estimators import estimate_all
from acebounds.fitting import CrossFitPlan, Dataset, ModelSpec, _Logistic, fit
from acebounds.influence import brute_force_mean, evaluate_m, truth_nuisances
from acebounds.quadrature import FiniteZRule, GaussHermiteZRule, expect_z
from acebounds.simlab import McConfig, McSummary, sample_dgp, setting_model_specs

from conftest import BINARY, PAIR, uniform_joint

PARAMS = dict(alpha=1.0, beta=0.5, gamma1=0.5, gamma2=0.5)
ROWS = tuple(np.array(col, dtype=float) for col in ([0, 1, 0, 1], [1, 0, 1, 0], [0, 0, 1, 1], [0, 1, 1, 0]))  # (c, a, z, y)


def _uniform(**supports):
    """The uniform joint on binary supports, with any support replaced; the pmf keeps the binary shape."""
    given = {"c": BINARY, "a": BINARY, "z": BINARY, "y": BINARY, **supports}
    return DiscreteJoint(given["c"], given["a"], given["z"], given["y"], np.full((2, 2, 2, 2), 1.0 / 16.0))


def _untreated_stratum():
    """The uniform joint on binary supports with no mass at (c, a) = (0, 1), so p(A=1|C=0) = 0."""
    pmf = np.full((2, 2, 2, 2), 1.0 / 12.0)
    pmf[0, 1] = 0.0
    return DiscreteJoint(BINARY, BINARY, BINARY, BINARY, pmf)


def _unmediated_arm():
    """The uniform joint on binary supports with no mass at (a, z) = (1, 1), so E(Y|A=1, Z=1) is undefined where p(Z=1|A=1) = 0."""
    pmf = np.full((2, 2, 2, 2), 1.0 / 12.0)
    pmf[:, 1, 1] = 0.0
    return DiscreteJoint(BINARY, BINARY, BINARY, BINARY, pmf)


def _fd_on_a_table_outcome(z_rule=None):
    """FD with an empirical E(y|a,z) under a fitted Gaussian p(z|a) whose means, 1.0 in each arm, lie on the z support {0, 1, 2, 3}."""
    z, a = np.tile([0.0, 1.0, 2.0, 3.0, 0.0, 0.0], 100), np.arange(600) // 6 % 2
    data = Dataset(np.zeros(600), a, z, z + a, PAIR)
    specs = [ModelSpec("p_a", "empirical"), ModelSpec("p_z_given_a", "gaussian-density", predictors=("a",)), ModelSpec("mean_y_az", "empirical", predictors=("a", "z"))]
    eta = fit(data, specs, z_rule=z_rule)
    assert eta.p_z_given_a.location_scale(np.array([0.0, 1.0]))[0].tolist() == [1.0, 1.0]  # a one-node rule reads the table there
    return estimate_all(data, eta, ("FD",))


def _fit_rows(a, specs):
    n = len(a)
    return fit(Dataset(np.zeros(n), np.asarray(a, dtype=float), np.arange(n, dtype=float), np.arange(n, dtype=float) ** 2, PAIR), specs)


LOGISTIC_PROPENSITY = [ModelSpec("p_a_given_c", "logistic", predictors=("c",))]
STUDY_DRAW = sample_dgp(SimDgpParams(**PARAMS), 300, 3)
# setting 0's specs with an empirical p(z|a,c): fit's Gauss-Hermite rule cannot integrate a table law
TABLE_LAW_SPECS = [s for s in setting_model_specs(0) if s.component != "p_z_given_ac"] + [ModelSpec("p_z_given_ac", "empirical", predictors=("a", "c"))]


REFUSALS = {
    "negative bound report": (lambda: BoundReport("BD", -1.0, "exact-sum", PAIR), DomainError, "bound for BD is negative"),
    "bound of an unknown model": (lambda: bound(uniform_joint(), PAIR, "XX"), DomainError, "unknown model 'XX'"),
    "family bound of an unknown model": (
        lambda: simdgp_bound(SimDgpParams(**PARAMS), PAIR, "XX"), DomainError, "unknown model 'XX'",
    ),
    "zero sigma_z": (lambda: SimDgpParams(**PARAMS, sigma_z=0.0), DomainError, "sigma_z and sigma_y must be positive"),
    "negative sigma_y": (lambda: SimDgpParams(**PARAMS, sigma_y=-1.0), DomainError, "sigma_z and sigma_y must be positive"),
    "p_c of 1": (lambda: SimDgpParams(**PARAMS, p_c=1.0), DomainError, "p_c must lie strictly inside (0, 1)"),
    "p_c of 0": (lambda: SimDgpParams(**PARAMS, p_c=0.0), DomainError, "p_c must lie strictly inside (0, 1)"),
    "empty support": (lambda: _uniform(z=[]), DomainError, "support of z must be a non-empty 1-d sequence"),
    "duplicated support": (lambda: _uniform(a=[1.0, 1.0]), DomainError, "support of a contains duplicate values"),
    "pmf shape mismatch": (lambda: _uniform(y=[0.0, 1.0, 2.0]), DomainError, "pmf shape (2, 2, 2, 2) does not match"),
    "value outside the support": (lambda: uniform_joint().index_of("a", 2.0), DomainError, "value 2.0 not in the support of a"),
    "table of an unknown variable": (lambda: uniform_joint().table(("a", "w")), DomainError, "unknown variables ['w']"),
    "unnormalised factors": (
        lambda: factorized_joint(BINARY, BINARY, BINARY, BINARY, *(lambda *v: 0.5,) * 3, lambda *v: 1.0),
        DomainError,
        "factor functions are not normalized",
    ),
    "unequal column lengths": (
        lambda: Dataset(np.zeros(3), np.array([0.0, 1.0, 1.0]), np.zeros(3), np.zeros(2), PAIR), DomainError, "must have equal length",
    ),
    "gaussian law without residual degrees of freedom": (
        lambda: _fit_rows([1, 0], [ModelSpec("p_z_given_a", "gaussian-density", predictors=("a",))]),
        DomainError,
        "need n > #predictors + 1",
    ),
    "logistic at an absent level": (
        lambda: _Logistic(("c",), ("c",), [0.0, 1.0], 1.0, 0.0)(np.array([2.0]), np.array([0.0])),
        DomainError,
        "level absent from the fit",
    ),
    "logistic on a non-binary response": (
        lambda: _fit_rows([1, 0, 2, 1], LOGISTIC_PROPENSITY),
        DomainError,
        "a must be binary for this family",
    ),
    "unknown model tag": (lambda: evaluate_m("XX", *ROWS, truth_nuisances(uniform_joint()), PAIR), DomainError, "unknown model tag 'XX'"),
    "FD_TD without c_support": (
        lambda: evaluate_m("FD_TD", *ROWS, replace(truth_nuisances(uniform_joint()), c_support=None), PAIR),
        MissingNuisance,
        "c_support is required",
    ),
    "FD_TD's pooled outcome at a zero p(a|c)": (
        lambda: brute_force_mean(_untreated_stratum(), PAIR, "FD_TD"), PositivityViolation, "p(a|c) has entries below 1e-12",
    ),
    "oracle mean through an undefined outcome cell": (
        lambda: brute_force_mean(_unmediated_arm(), PAIR, "FD"), PositivityViolation, "m of FD is not finite",
    ),
    "logistic p(a|c) on a one-level covariate": (lambda: _fit_rows([0, 1, 1, 1], LOGISTIC_PROPENSITY), RankDeficient, "singular weighted design in IRLS"),
    **{
        f"table outcome under {name}": (lambda rule=rule: _fd_on_a_table_outcome(rule), DomainError, "FD cannot integrate the table mean_y_az, defined on its z support only")
        for name, rule in (("fit's one-node rule", None), ("64 Gauss-Hermite nodes", GaussHermiteZRule(64)))
    },
    "finite rule on an empty support": (lambda: FiniteZRule([]), DomainError, "mediator support must be a non-empty"),
    "finite rule on a repeated node": (lambda: FiniteZRule([0.0, 1.0, 1.0]), DomainError, "mediator support contains duplicate values"),
    "finite rule on a NaN node": (lambda: FiniteZRule([0.0, np.nan]), DomainError, "mediator support must hold finite values"),
    "Gauss-Hermite rule of 2.5 nodes": (lambda: GaussHermiteZRule(2.5), DomainError, "needs a whole number of nodes (gh_nodes), got 2.5"),
    "Gauss-Hermite rule on a density without location_scale": (
        lambda: expect_z(GaussHermiteZRule(8), lambda z: np.ones_like(z), lambda z: z), MissingNuisance, "location_scale",
    ),
    **{
        f"{field} of {value!r}": (
            lambda field=field, value=value: McConfig(SimDgpParams(**PARAMS), **{field: value}),
            DomainError,
            f"{field} must be a non-negative integer, got {value!r}",
        )
        for field, value in (("replicates", 2.5), ("threads", 1.5), ("seed", 1.5), ("setting", 1.0), ("gh_nodes", 20.5), ("seed", -1))
    },
    # the Monte Carlo lab's node-count override is checked by the rule, before any replicate runs
    **{
        f"McConfig gh_nodes of {nodes}": (lambda nodes=nodes: McConfig(SimDgpParams(**PARAMS), gh_nodes=nodes), DomainError, message)
        for nodes, message in ((0, "needs at least one node (gh_nodes), got 0"), (400, "of 400 nodes (gh_nodes) exceeds the 256-node limit"))
    },
    "sizes of 50.7": (lambda: McConfig(SimDgpParams(**PARAMS), sizes=(50.7,)), DomainError, "sizes must be a non-negative integer, got 50.7"),
    "scalar sizes": (lambda: McConfig(SimDgpParams(**PARAMS), sizes=50), DomainError, "sizes must be a sequence of sample sizes, got 50"),
    "repeated tag": (
        lambda: McConfig(SimDgpParams(**PARAMS), tags=("BD", "TD", "BD")), DomainError, "tags repeat an estimator tag: ['BD']",
    ),
    "repeated predictor": (
        lambda: ModelSpec("mean_y_ac", "empirical", predictors=("a", "a")), DomainError, "predictors of mean_y_ac name 'a' twice",
    ),
    "repeated omit entry": (
        lambda: ModelSpec("mean_y_azc", "linear-mean", predictors=("a", "z", "c"), omit=("c", "c")),
        DomainError,
        "omit of mean_y_azc name 'c' twice",
    ),
    "folds of 2.5": (lambda: CrossFitPlan(folds=2.5), DomainError, "folds must be a non-negative integer, got 2.5"),
    **{
        f"cross-fitting seed of {seed!r}": (
            lambda seed=seed: CrossFitPlan(folds=2, seed=seed), DomainError, f"seed must be a non-negative integer, got {seed!r}",
        )
        for seed in (0.5, -1)
    },
    "summary row absent": (lambda: McSummary([], 0.0, None, {}).row(500, "BD"), KeyError, "(500, 'BD')"),
    "verdict everywhere and nowhere": (
        lambda: ComparisonVerdict("x", {(0.0, 0.0): 1.0}, True, True, "<="), DomainError, "cannot hold everywhere and nowhere",
    ),
}


@pytest.mark.parametrize("case", REFUSALS, ids=list(REFUSALS))
def test_each_bad_input_raises_its_typed_error(case):
    call, error, fragment = REFUSALS[case]
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert fragment in str(info.value)


def test_the_gauss_hermite_refusal_names_a_table_law_the_same_on_every_fit():
    # by its description, not its repr: two fitted tables, alive at once, lie at different addresses
    etas = [fit(STUDY_DRAW, TABLE_LAW_SPECS) for _ in range(2)]
    messages = []
    for eta in etas:
        with pytest.raises(MissingNuisance) as info:
            estimate_all(STUDY_DRAW, eta, ("TD",))
        messages.append(str(info.value))
    assert messages[0] == messages[1] and "0x" not in messages[0]
    assert messages[0].endswith("exposing location_scale(); got empirical p(z|a,c)")
