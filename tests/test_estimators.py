import math

import numpy as np
import pytest

from acebounds.bounds import SimDgpParams, simdgp_theta
from acebounds.dist import DiscreteJoint, TreatmentPair, ace_backdoor, ace_frontdoor, ace_twodoor
from acebounds.errors import DomainError, MissingNuisance
from acebounds.estimators import ESTIMATOR_TAGS, estimate, estimate_all
from acebounds.fitting import SLOTS, CrossFitPlan, Dataset, ModelSpec, fit
from acebounds.influence import evaluate_m, truth_nuisances
from acebounds.simlab import sample_dgp, setting_model_specs, simdgp_truth_nuisances
from acebounds.special import expit

from conftest import PAIR


def _enumerated_dataset(dist, copies=1):
    """Replicate every support cell proportionally to its (rational) mass."""
    scaled = dist.pmf * 160000
    counts = np.rint(scaled).astype(int)
    assert np.max(np.abs(scaled - counts)) < 1e-6, "pmf is not rational enough to enumerate"
    rows = []
    for (c, a, z, y, _), k in zip(dist.cells(), counts.ravel()):
        rows.extend([[c, a, z, y]] * (k * copies))
    arr = np.array(rows)
    return Dataset(arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3], PAIR)


def _rational_chain_dist():
    from acebounds.dist import chain_joint

    return chain_joint(
        [0.0, 1.0],
        [0.0, 1.0],
        [0.0, 1.0],
        [0.0, 1.0],
        lambda c: 0.4 if c == 1 else 0.6,
        lambda a, c: (0.25 + 0.5 * c) if a == 1 else 1.0 - (0.25 + 0.5 * c),
        lambda z, a: (0.3 + 0.4 * a) if z == 1 else 1.0 - (0.3 + 0.4 * a),
        lambda y, z, c: (0.2 + 0.25 * z + 0.25 * c) if y == 1 else 1.0 - (0.2 + 0.25 * z + 0.25 * c),
    )


def test_naive_difference_of_group_means():
    a = np.array([1.0, 1.0, 0.0, 0.0])
    y = np.array([2.5, 1.5, 1.5, 0.5])
    data = Dataset(np.zeros(4), a, np.zeros(4), y, PAIR)
    res = estimate(data, None, "NAIVE")
    assert res.theta_hat == pytest.approx(1.0, abs=1e-15)
    assert res.tag == "NAIVE"


def test_bd_on_enumerated_support_matches_functional():
    dist = _rational_chain_dist()
    data = _enumerated_dataset(dist)
    eta = truth_nuisances(dist)
    res = estimate(data, eta, "BD")
    assert res.theta_hat == pytest.approx(ace_backdoor(dist, PAIR), abs=1e-12)


def test_all_tags_on_enumerated_support_agree():
    dist = _rational_chain_dist()
    data = _enumerated_dataset(dist)
    eta = truth_nuisances(dist)
    theta = ace_twodoor(dist, PAIR)
    for res in estimate_all(data, eta, tags=("BD", "FD", "TD", "BD_TD", "FD_TD", "BD_FD_TD")):
        assert res.theta_hat == pytest.approx(theta, abs=1e-10)


def test_estimate_all_empty_tags():
    dist = _rational_chain_dist()
    data = _enumerated_dataset(dist)
    assert estimate_all(data, truth_nuisances(dist), tags=()) == []


def test_estimate_row_order_invariance():
    params = SimDgpParams(alpha=1.0, beta=0.5, gamma1=0.5, gamma2=0.5)
    data = sample_dgp(params, 500, 4)
    eta = fit(data, setting_model_specs(0))
    base = estimate(data, eta, "FD").theta_hat
    perm = np.random.default_rng(0).permutation(data.n)
    shuffled = Dataset(data.c[perm], data.a[perm], data.z[perm], data.y[perm], data.pair)
    assert estimate(shuffled, eta, "FD").theta_hat == pytest.approx(base, rel=0, abs=1e-12)


def test_estimates_close_to_truth_on_simulated_draw():
    params = SimDgpParams(alpha=1.0, beta=0.5, gamma1=0.5, gamma2=0.5)
    data = sample_dgp(params, 50_000, 123)
    eta = fit(data, setting_model_specs(0))
    theta = simdgp_theta(params, TreatmentPair(1.0, 0.0))
    results = estimate_all(data, eta, tags=("BD", "FD", "TD", "BD_TD", "FD_TD", "BD_FD_TD"), td_reduced=True)
    for res in results:
        assert abs(res.theta_hat - theta) < 4 * res.se_hat + 1e-3
    # pairwise estimates should agree with each other within sampling error
    vals = [r.theta_hat for r in results]
    assert max(vals) - min(vals) < 4 * max(r.se_hat for r in results)


def test_missing_nuisance_raises():
    dist = _rational_chain_dist()
    data = _enumerated_dataset(dist)
    eta = truth_nuisances(dist)
    eta.p_z_given_a = None
    with pytest.raises(MissingNuisance):
        estimate(data, eta, "FD")


def test_unknown_tag_rejected():
    dist = _rational_chain_dist()
    data = _enumerated_dataset(dist)
    with pytest.raises(DomainError):
        estimate(data, truth_nuisances(dist), "QD")


def test_crossfit_estimate_runs_and_holds_out():
    params = SimDgpParams(alpha=1.0, beta=0.5, gamma1=0.5, gamma2=0.5)
    data = sample_dgp(params, 800, 21)
    folded = fit(data, setting_model_specs(0), plan=CrossFitPlan(folds=4, seed=5))
    res = estimate(data, folded, "BD")
    theta = simdgp_theta(params, TreatmentPair(1.0, 0.0))
    assert abs(res.theta_hat - theta) < 6 * res.se_hat


# -- asymptotic robustness signatures ----------------------------------------
#
# Pseudo-true values of every fitted nuisance have closed forms here (binary
# covariate and treatment make each misspecified regression a saturated fit of
# a coarser conditional mean).  Integrating m against the truth then gives the
# large-sample value of each estimator; the misspecification settings must
# reproduce the known bias pattern.


def _pseudo_true_eta(setting: int, beta=1.5, g1=1.5, g2=1.5):
    """Large-sample limits of the fitted nuisances under each setting.

    With a binary covariate and treatment every misspecified regression is a
    saturated fit of a coarser conditional mean, so the pseudo-true components
    have closed forms layered onto the exact study-family nuisances.
    """
    params = SimDgpParams(alpha=1.0, beta=beta, gamma1=g1, gamma2=g2)
    eta = simdgp_truth_nuisances(params)
    p1 = params.p_a_marginal(1)
    e1 = float(expit(1.0))
    ec_a1 = (e1 * 0.5) / p1
    ec_a0 = ((1 - e1) * 0.5) / (1 - p1)

    def ey_a(a):
        return g1 * beta * a + g2 * (ec_a1 if a else ec_a0)

    class _MargGauss:
        # mediator law with the treatment omitted: N(E Z, var Z)
        sd = math.sqrt(1 + beta**2 * p1 * (1 - p1))
        mu = beta * p1

        def location_scale(self, a, *rest):
            return self.mu + 0.0 * np.asarray(a, dtype=float), self.sd

        def __call__(self, z, a, *rest):
            mu, sd = self.location_scale(a)
            z = np.asarray(z, dtype=float)
            return np.exp(-0.5 * ((z - mu) / sd) ** 2) / (sd * math.sqrt(2 * math.pi))

    def pa_const(v):
        return lambda a, *rest: np.where(np.asarray(a) == 1.0, v, 1 - v)

    def quarter_c(c):
        return np.where(np.asarray(c) == 1.0, 0.25, 0.75)

    def ey_c(c):
        c = np.asarray(c, dtype=float)
        return g1 * beta * expit(c) + g2 * c

    marg_pz = _MargGauss()
    if setting == 1:
        eta.p_z_given_a = marg_pz
        eta.p_z_given_ac = marg_pz
    elif setting == 2:
        eta.p_a = pa_const(0.25)
        eta.p_c = quarter_c
        eta.p_a_given_c = pa_const(p1)
        eta.mean_y_ac = lambda a, c: np.where(np.asarray(a) == 1.0, ey_a(1), ey_a(0)) + 0.0 * np.asarray(c, dtype=float)
        eta.mean_y_az = lambda a, z: np.where(np.asarray(a) == 1.0, ey_a(1), ey_a(0)) + 0.0 * np.asarray(z, dtype=float)
        eta.mean_y_zc = lambda z, c: ey_c(c) + 0.0 * np.asarray(z, dtype=float)
        eta.mean_y_azc = lambda a, z, c: ey_c(c) + 0.0 * np.asarray(z, dtype=float)
    elif setting == 3:
        eta.p_c = quarter_c
        eta.p_z_given_a = marg_pz
        eta.p_z_given_ac = marg_pz
    elif setting == 4:
        eta.p_a_given_c = pa_const(p1)
        eta.mean_y_zc = lambda z, c: ey_c(c) + 0.0 * np.asarray(z, dtype=float)
        eta.mean_y_azc = lambda a, z, c: ey_c(c) + 0.0 * np.asarray(z, dtype=float)
    return eta


def _asymptotic_value(tag, eta, beta=1.5, g1=1.5, g2=1.5):
    x, w = np.polynomial.hermite.hermgauss(64)
    w = w / math.sqrt(math.pi)
    keep = np.abs(x) <= 4.6  # drop negligible-weight tail nodes
    x, w = x[keep], w[keep]
    total = 0.0
    for c in (0.0, 1.0):
        for a in (0.0, 1.0):
            p_ca = 0.5 * (float(expit(c)) if a == 1 else 1 - float(expit(c)))
            z = beta * a + math.sqrt(2.0) * x
            y = g1 * z + g2 * c  # m is linear in y, so E(Y | c, a, z) suffices
            m = evaluate_m(tag, np.full_like(z, c), np.full_like(z, a), z, y, eta, PAIR)
            total += p_ca * float(m @ w)
    return total


EXPECTED_BIAS = {
    1: {"BD": 0.0, "FD": 0.0, "TD_REDUCED": 0.0, "BD_TD": 0.0, "FD_TD": 0.0, "BD_FD_TD": 0.0},
    2: {"BD": 0.366, "FD": 0.0, "TD_REDUCED": 0.0, "BD_TD": -0.047, "FD_TD": 0.0, "BD_FD_TD": -0.047},
    3: {"BD": 0.0, "FD": 0.0, "TD_REDUCED": 0.0, "BD_TD": 0.0, "FD_TD": -0.091, "BD_FD_TD": -0.091},
    4: {"BD": 0.0, "FD": 0.0, "TD_REDUCED": 0.0, "BD_TD": -0.047, "FD_TD": 0.0, "BD_FD_TD": -0.047},
}


@pytest.mark.parametrize("setting", sorted(EXPECTED_BIAS))
def test_asymptotic_bias_signatures(setting):
    eta = _pseudo_true_eta(setting)
    theta = 1.5 * 1.5
    for tag, expected in EXPECTED_BIAS[setting].items():
        got = _asymptotic_value(tag, eta) - theta
        assert got == pytest.approx(expected, abs=2e-3), (setting, tag)


def test_estimator_tags_exported():
    assert ESTIMATOR_TAGS[0] == "NAIVE"
    assert set(ESTIMATOR_TAGS[1:]) == {"BD", "FD", "TD", "BD_TD", "FD_TD", "BD_FD_TD"}


def test_general_td_path_on_continuous_mediator():
    # the full two-door estimating function (conditioning the mediator law and
    # outcome mean on the covariate) stays available next to the reduced form
    params = SimDgpParams(alpha=1.0, beta=1.5, gamma1=0.5, gamma2=0.5)
    data = sample_dgp(params, 20_000, 31)
    eta = fit(data, setting_model_specs(0))
    theta = simdgp_theta(params, TreatmentPair(1.0, 0.0))
    general = estimate(data, eta, "TD", td_reduced=False)
    reduced = estimate(data, eta, "TD", td_reduced=True)
    assert abs(general.theta_hat - theta) < 4 * general.se_hat
    assert abs(general.theta_hat - reduced.theta_hat) < 4 * general.se_hat


def test_truth_nuisances_sample_average_recovers_effect():
    # Monte Carlo oracle: averaging m over a large draw with the *true*
    # nuisance components lands on the causal effect within sampling error
    params = SimDgpParams(alpha=1.0, beta=1.5, gamma1=1.5, gamma2=1.5)
    data = sample_dgp(params, 100_000, 97)
    eta = _pseudo_true_eta(0)  # no misspecification: exact components
    theta = simdgp_theta(params, TreatmentPair(1.0, 0.0))
    for tag in ("BD", "FD", "TD_REDUCED", "BD_TD", "FD_TD", "BD_FD_TD"):
        m = evaluate_m(tag, data.c, data.a, data.z, data.y, eta, PAIR)
        se = m.std(ddof=1) / np.sqrt(data.n)
        assert abs(m.mean() - theta) < 4 * se + 1e-4, tag


def test_empirical_estimates_equal_exact_functionals_of_the_empirical_joint():
    # saturated plug-in: with every (a, z, c) cell observed, the estimates are
    # the exact BD/FD/TD functionals of the data's own frequency table
    rng = np.random.default_rng(61)
    n = 3000
    c = rng.integers(0, 3, n).astype(float)
    a = (rng.random(n) < 0.2 + 0.2 * c).astype(float) + (rng.random(n) < 0.5)
    z = np.minimum(rng.poisson(0.8 + a + 0.5 * c), 5).astype(float)
    y = np.round(rng.normal(0.4 * z + 0.3 * c + 0.2 * a, 1.0), 2)  # not dyadic
    pair = TreatmentPair(2.0, 0.0)
    data = Dataset(c, a, z, y, pair)
    supports = [np.unique(col) for col in (c, a, z, y)]
    assert [s.size for s in supports[:3]] == [3, 3, 6]
    index = tuple(np.searchsorted(s, col) for s, col in zip(supports, (c, a, z, y)))
    pmf = np.zeros(tuple(s.size for s in supports))
    np.add.at(pmf, index, 1.0)
    assert np.all(pmf.sum(axis=3) > 0), "every (c, a, z) cell must be observed"
    joint = DiscreteJoint(*supports, pmf / n)
    # the `empirical` preset: each slot conditioned on all of its arguments
    specs = [
        ModelSpec(slot, "empirical", predictors=tuple(v for v in args if v != response))
        for slot, (args, response, _) in SLOTS.items()
    ]
    eta = fit(data, specs)
    for tag, functional in (("BD", ace_backdoor), ("FD", ace_frontdoor), ("TD", ace_twodoor)):
        assert abs(estimate(data, eta, tag).theta_hat - functional(joint, pair)) <= 1e-12, tag
