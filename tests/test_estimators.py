import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import acebounds.fitting as fitting
import acebounds.influence as influence
from acebounds.bounds import SimDgpParams, simdgp_theta
from acebounds.dist import DiscreteJoint, TreatmentPair, ace_backdoor, ace_frontdoor, ace_twodoor
from acebounds.errors import AceboundsError, DomainError, MissingNuisance
from acebounds.estimators import ESTIMATOR_TAGS, EstimationResult, estimate, estimate_all
from acebounds.fitting import SLOTS, CrossFitPlan, Dataset, FoldedNuisances, ModelSpec, fit
from acebounds.influence import MODEL_TAGS, evaluate_m, truth_nuisances
from acebounds.quadrature import GaussHermiteZRule
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


def test_naive_needs_two_rows_per_arm():
    data = Dataset(np.zeros(4), np.array([1.0, 0.0, 0.0, 0.0]), np.zeros(4), np.arange(4.0), PAIR)
    with pytest.raises(DomainError, match="treatment level 1.0 has 1 row"):
        estimate(data, None, "NAIVE")


@pytest.mark.parametrize("theta_hat, se_hat", [(math.nan, 0.1), (math.inf, 0.1), (0.1, math.nan), (0.1, math.inf), (0.1, -1.0)])
def test_estimation_result_rejects_non_finite_values(theta_hat, se_hat):
    with pytest.raises(DomainError):
        EstimationResult("BD", theta_hat, se_hat, 10, 0, {})


def _continuous_c_data(n=300):
    rng = np.random.default_rng(17)
    c = rng.standard_normal(n)
    a = (rng.random(n) < expit(c)).astype(float)
    z = 1.5 * a + rng.standard_normal(n)
    y = 1.5 * z + 1.5 * c + rng.standard_normal(n)
    return Dataset(c, a, z, y, PAIR)


def _clipping_case():
    # a = 1 whenever c = 1, so the empirical p(a=0|c=1) is 0 and p(a=1|c=1) is 1: both clip
    d = sample_dgp(SimDgpParams(alpha=1.0, beta=1.5, gamma1=1.5, gamma2=1.5), 900, 8)
    data = Dataset(d.c, np.where(d.c == 1.0, 1.0, d.a), d.z, d.y, PAIR)
    empirical = ModelSpec("p_a_given_c", "empirical", predictors=("c",))
    return data, fit(data, [empirical if s.component == "p_a_given_c" else s for s in setting_model_specs(0)])


def _bitwise_case(case):
    """(data, nuisances) of one case of the batch-versus-per-tag comparison."""
    params = SimDgpParams(alpha=1.0, beta=1.5, gamma1=1.5, gamma2=1.5)
    if case == "clipping":
        return _clipping_case()
    if case == "exact-joint-table":  # every slot a _Table
        dist = _rational_chain_dist()
        return _enumerated_dataset(dist), truth_nuisances(dist)
    data = _continuous_c_data() if case == "continuous-c" else sample_dgp(params, 900, 8)
    if case == "study-family-truth":  # plain callables and unfitted linear components
        return data, simdgp_truth_nuisances(params)
    plan = CrossFitPlan(folds=3, seed=4) if case == "cross-fitted" else CrossFitPlan()
    # the settings change which slots share a fit and a memo key: in setting 2, mean_y_ac and mean_y_az
    # share one fit on a, read at the (a, c) levels and at the rows; in settings 1 and 3 the mediator
    # laws read no treatment, and setting 3 fixes p_c; in setting 4 the propensity reads no covariate
    # and the two (z, c) means read c alone
    setting = int(case[-1]) if case.startswith("setting-") else 0
    return data, fit(data, setting_model_specs(setting), plan=plan)


def _bits(results):
    return [np.array([r.theta_hat, r.se_hat, r.clipped]).tobytes() for r in results]


@pytest.mark.parametrize(
    "case",
    ["plain", "cross-fitted", "continuous-c", "clipping", "setting-1", "setting-2", "setting-3", "setting-4", "study-family-truth", "exact-joint-table"],
)
def test_estimate_all_equals_per_tag_estimates_bitwise(case):
    # one row plan per dataset or fold, shared by every tag, must give what each tag's own plan gives,
    # clip counts included: a value clipped once counts for every tag that reads it
    data, eta = _bitwise_case(case)
    for td_reduced in (False, True):
        batch = estimate_all(data, eta, td_reduced=td_reduced)
        single = [estimate(data, eta, tag, td_reduced=td_reduced) for tag in ESTIMATOR_TAGS]
        assert _bits(batch) == _bits(single), (case, td_reduced)
    if case == "clipping":
        # p(a|c) at a = 0 and 1 clips once at the c = 1 level (BD, TD, BD_TD) and once at the live
        # covariate value c = 1 (FD_TD); BD_FD_TD reads both evaluations, FD and NAIVE neither
        assert [r.clipped for r in batch] == [0, 2, 0, 2, 2, 2, 4]


def test_estimate_all_on_two_datasets_back_to_back_matches_each_per_tag_estimate():
    # slot values must not outlive their estimate_all call: the second dataset has the same n and,
    # in the last pair, the very same nuisance objects as the first.  The reference is each tag's own
    # estimate, and its mean and standard error of evaluate_m on all rows, outside estimate_all
    params = SimDgpParams(alpha=1.0, beta=1.5, gamma1=1.5, gamma2=1.5)
    first, second = sample_dgp(params, 900, 8), sample_dgp(params, 900, 9)
    eta = fit(first, setting_model_specs(0))
    pairs = [(first, eta), (second, fit(second, setting_model_specs(0))), (second, eta)]
    batches = [estimate_all(data, nuisances, td_reduced=True) for data, nuisances in pairs]
    for (data, nuisances), batch in zip(pairs, batches):
        assert _bits(batch) == _bits([estimate(data, nuisances, tag, td_reduced=True) for tag in ESTIMATOR_TAGS])
        for res in batch[1:]:
            m = evaluate_m("TD_REDUCED" if res.tag == "TD" else res.tag, data.c, data.a, data.z, data.y, nuisances, PAIR)
            assert (res.theta_hat, res.se_hat) == (float(m.mean()), float(m.std(ddof=1) / np.sqrt(data.n))), res.tag


class _CountingComponent:
    """A slot callable that logs the size of every result and forwards every other attribute."""

    def __init__(self, fn, log):
        self._fn, self._log = fn, log

    def __call__(self, *args):
        out = self._fn(*args)
        self._log.append(np.size(out))
        return out

    def __getattr__(self, name):
        return getattr(self._fn, name)


def _counting(module, name, monkeypatch):
    """Replace module.name with a wrapper that logs each call; return the log."""
    log, original = [], getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args, **kwargs: log.append(args) or original(*args, **kwargs))
    return log


def test_each_distinct_model_is_fitted_once_and_each_row_value_evaluated_once(monkeypatch):
    # setting 0 asks twice for gaussian-density z on a and twice for linear-mean y on (z, c): 7 fits
    # for 9 slots.  Over the 7 tags the rows see the mediator law at (z, a*), (z, a) and (z, A); the
    # outcome means at (A, z), (0, z) and (1, z) on (a, z), and at (z, C) on (z, c): 7 reads of n values.
    # The pooled outcome of FD_TD and BD_FD_TD reads (z, c) at both live covariate levels at once: one
    # read of 2n values
    data = sample_dgp(SimDgpParams(alpha=1.0, beta=1.5, gamma1=1.5, gamma2=1.5), 2000, 5)
    coded = [_counting(module, "level_index", monkeypatch) for module in (fitting, influence)]
    integrals = _counting(influence, "expect_z", monkeypatch)
    eta = fit(data, setting_model_specs(0))
    batch = estimate_all(data, eta, td_reduced=True)
    # fit codes the rows' (a, c) once, for its collapsed designs, p_c and p_a; the row plan codes them once more
    assert [len(log) for log in coded] == [1, 1]
    # each of the 5 mediator models makes its own 3 integrals, the centring of its pooled outcome and
    # the plug-in contrast at a* and at a, even where another model integrates the same values
    assert len(integrals) == 15
    assert [r.clipped for r in batch] == [0] * 7
    assert _bits(batch) == _bits([estimate(data, eta, tag, td_reduced=True) for tag in ESTIMATOR_TAGS])
    log = []
    counted = replace(eta, **{slot: _CountingComponent(getattr(eta, slot), log) for slot in SLOTS})
    estimate_all(data, counted, td_reduced=True)
    assert sum(size == data.n for size in log) == 7
    assert sum(size == 2 * data.n for size in log) == 1
    fitted = _counting(fitting, "_fit_model", monkeypatch)
    eta = fit(data, setting_model_specs(0))
    assert len(fitted) == len({args[1:4] for args in fitted}) == 7
    assert eta.p_z_given_a.coef is eta.p_z_given_ac.coef and eta.mean_y_zc.coef is eta.mean_y_azc.coef
    slots = eta.manifest["slots"]
    assert slots["p_z_given_a"] == slots["p_z_given_ac"] and slots["mean_y_zc"] == slots["mean_y_azc"]
    assert eta.p_z_given_a.arg_names == ("a",) and eta.p_z_given_ac.arg_names == ("a", "c")


def test_fitted_gaussian_laws_integrate_one_element_per_level(monkeypatch):
    # with a continuous covariate every row is its own (a, c) level; each of the 3 integrals of TD and
    # BD_TD reads its integrand at one node per level, the law's mean, not at a grid of nodes per level
    data = _continuous_c_data()
    eta = fit(data, setting_model_specs(0))
    levels = influence.level_index(data.a, data.c).a.size
    integrals = _counting(influence, "expect_z", monkeypatch)
    for tag in ("TD", "BD_TD"):
        integrals.clear()
        evaluate_m(tag, data.c, data.a, data.z, data.y, eta, data.pair)
        assert len(integrals) == 3, tag
        for rule, density, g, *cond in integrals:
            assert np.broadcast_shapes(*(np.shape(x) for x in cond)) == (levels,), tag
            assert np.size(g(rule.grid(density, *cond)[0])) <= levels, tag


@st.composite
def _gaussian_specs(draw):
    """A spec per slot in any of its families, on any of its predictors, with at least one gaussian-density mediator law."""
    laws = iter(draw(st.sampled_from([("gaussian-density",) * 2, ("gaussian-density", "empirical"), ("empirical", "gaussian-density")])))
    specs = []
    for slot, (args, response, kind) in SLOTS.items():
        prob = ["empirical", "logistic"] + ["fixed-value"] * (slot in ("p_c", "p_a"))
        family = next(laws) if kind == "law" else draw(st.sampled_from(prob if kind == "prob" else ["linear-mean", "empirical"]))
        if family == "fixed-value":
            specs.append(ModelSpec(slot, family, fix_value=0.4))
        else:
            specs.append(ModelSpec(slot, family, predictors=tuple(v for v in args if v != response and draw(st.booleans()))))
    return specs


def _m_or_error(data, eta, tag):
    """m of `tag` at every row, each fold's rows under that fold's nuisances, or the error raised: its type and its message with the rule's repr left out."""
    folds = eta.folds if isinstance(eta, FoldedNuisances) else [(slice(None), eta)]
    try:
        m = np.empty(data.n)
        for idx, fold in folds:
            m[idx] = evaluate_m(tag, data.c[idx], data.a[idx], data.z[idx], data.y[idx], fold, data.pair)
        return m
    except AceboundsError as exc:
        return type(exc), str(exc).replace(repr(folds[0][1].z_integrator), "the rule")


@given(_gaussian_specs(), st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from([0, 3]))
def test_one_node_integrates_every_fitted_gaussian_law_as_64_do(specs, seed, folds):
    # every integrand under a fitted Gaussian law is affine in z, so fit's one node at the law's mean
    # gives what 64 nodes give, up to rounding; an empirical law or outcome is refused alike by both,
    # with the same type and message (bar the rule's own repr)
    data = sample_dgp(SimDgpParams(alpha=1.0, beta=1.5, gamma1=1.5, gamma2=1.5), 150, seed)
    plan = CrossFitPlan(folds=folds, seed=seed)
    try:
        one = fit(data, specs, plan=plan)
    except AceboundsError as exc:
        with pytest.raises(type(exc)) as info:
            fit(data, specs, plan=plan, z_rule=GaussHermiteZRule(64))
        assert str(info.value) == str(exc)
        return
    many = fit(data, specs, plan=plan, z_rule=GaussHermiteZRule(64))
    for tag in MODEL_TAGS + ("TD_REDUCED",):
        got, want = _m_or_error(data, one, tag), _m_or_error(data, many, tag)
        if isinstance(want, tuple):
            assert got == want, tag
        else:  # relative to the outcome scale: m's terms can cancel to 0, where 64 weights leave a rounding residue
            assert np.max(np.abs(got - want)) <= 1e-12 * max(np.max(np.abs(want)), np.max(np.abs(data.y))), tag


def test_estimates_read_the_rows_as_they_are_when_estimated():
    data = sample_dgp(SimDgpParams(alpha=1.0, beta=1.5, gamma1=1.5, gamma2=1.5), 900, 8)
    eta = fit(data, setting_model_specs(0))
    data.c[:5] = 1.0 - data.c[:5]  # the columns change in place after the fit
    changed = Dataset(data.c.copy(), data.a.copy(), data.z.copy(), data.y.copy(), data.pair)
    assert _bits(estimate_all(data, eta)) == _bits(estimate_all(changed, eta))


# Estimator symmetries, over random study-family draws, plain and 3-fold cross-fitted.  Both reorder a
# floating-point sum only: swapping the arms turns each row's m, e.g. BD's a - b + c - d, into
# b - a + d - c, and permuting the rows reorders the sums of the mean and standard deviation.  So
# each holds within SYMMETRY_TOL times |theta_hat| + sqrt(n) se_hat, the scale of the m values; the
# largest ratio seen over 150 draws was 2.6e-16.
SYMMETRY_TOL = 1e-13

_draws = st.tuples(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=60, max_value=400),
    st.floats(min_value=-2.0, max_value=2.0),
    st.sampled_from([0, 3]),
)


def _fitted(data, seed, folds):
    return fit(data, setting_model_specs(0), plan=CrossFitPlan(folds=folds, seed=seed))


def _draw(seed, n, beta, folds):
    data = sample_dgp(SimDgpParams(alpha=1.0, beta=beta, gamma1=1.5, gamma2=1.5), n, seed)
    return data, _fitted(data, seed, folds)


def _assert_same_up_to_order(got, want, n, factor=1.0):
    """Each got estimate is `factor` times its want estimate, and its se |factor| times, within the m scale."""
    for x, y in zip(got, want):
        scale = abs(factor) * (abs(y.theta_hat) + math.sqrt(n) * y.se_hat)
        assert abs(x.theta_hat - factor * y.theta_hat) <= SYMMETRY_TOL * scale, x.tag
        assert abs(x.se_hat - abs(factor) * y.se_hat) <= SYMMETRY_TOL * scale, x.tag


@given(_draws)
def test_swapping_the_arms_negates_every_estimate(draw):
    data, eta = _draw(*draw)
    swapped = Dataset(data.c, data.a, data.z, data.y, TreatmentPair(data.pair.a_ref, data.pair.a_star))
    for td_reduced in (False, True):
        got, want = estimate_all(swapped, eta, td_reduced=td_reduced), estimate_all(data, eta, td_reduced=td_reduced)
        _assert_same_up_to_order(got, want, data.n, factor=-1.0)


@given(
    _draws,
    st.floats(min_value=-5.0, max_value=5.0),
    st.floats(min_value=0.2, max_value=5.0),
    st.sampled_from([-1.0, 1.0]),
)
def test_an_affine_map_of_the_outcome_maps_every_estimate(draw, b0, b1, sign):
    # y -> b0 + b1 y refits every outcome mean to b0 + b1 times it and leaves the probabilities and
    # the mediator law alone, so each m value becomes b1 times its own; the largest ratio seen over
    # 150 draws was 7.8e-16
    data, eta = _draw(*draw)
    b1 *= sign
    mapped = Dataset(data.c, data.a, data.z, b0 + b1 * data.y, data.pair)
    refit = _fitted(mapped, draw[0], draw[3])
    for td_reduced in (False, True):
        got, want = estimate_all(mapped, refit, td_reduced=td_reduced), estimate_all(data, eta, td_reduced=td_reduced)
        _assert_same_up_to_order(got, want, data.n, factor=b1)


@given(_draws)
def test_permuting_the_rows_keeps_every_estimate(draw):
    data, eta = _draw(*draw)
    perm = np.random.default_rng(draw[0]).permutation(data.n)
    shuffled = Dataset(data.c[perm], data.a[perm], data.z[perm], data.y[perm], data.pair)
    moved = eta
    if isinstance(eta, FoldedNuisances):  # each fold's rows keep their nuisances at their new positions
        position = np.argsort(perm)
        moved = FoldedNuisances([(np.sort(position[idx]), fold_eta) for idx, fold_eta in eta.folds], eta.manifest)
    for td_reduced in (False, True):
        got, want = estimate_all(shuffled, moved, td_reduced=td_reduced), estimate_all(data, eta, td_reduced=td_reduced)
        _assert_same_up_to_order(got, want, data.n)


@pytest.mark.parametrize("case", ["cross-fitted", "continuous-c", "cross-fitted-continuous-c"])
def test_estimate_all_matches_one_row_at_a_time_evaluation(case):
    # a single row is its own level, so evaluating one row at a time needs no shared level index; on
    # a cross-fitted fold with continuous C the held-out covariates lie outside the fold's support.
    # The marginal-weight tags cost O(n) per row with continuous C, hence the small sample there.
    params = SimDgpParams(alpha=1.0, beta=1.5, gamma1=1.5, gamma2=1.5)
    data = _continuous_c_data(60) if "continuous-c" in case else sample_dgp(params, 300, 8)
    plan = CrossFitPlan(folds=3, seed=4) if "cross-fitted" in case else CrossFitPlan()
    eta = fit(data, setting_model_specs(0), plan=plan)
    folds = eta.folds if "cross-fitted" in case else [(np.arange(data.n), eta)]
    for tag, td_reduced in [(t, False) for t in ESTIMATOR_TAGS if t != "NAIVE"] + [("TD", True)]:
        m = np.empty(data.n)
        for idx, fold_eta in folds:
            for i in np.asarray(idx):
                r = slice(i, i + 1)
                eval_tag = "TD_REDUCED" if td_reduced else tag
                m[i] = evaluate_m(eval_tag, data.c[r], data.a[r], data.z[r], data.y[r], fold_eta, PAIR)[0]
        (res,) = estimate_all(data, eta, (tag,), td_reduced=td_reduced)
        assert res.theta_hat == pytest.approx(m.mean(), rel=0, abs=1e-12), (case, tag, td_reduced)
        assert res.se_hat == pytest.approx(m.std(ddof=1) / np.sqrt(data.n), rel=0, abs=1e-12), (case, tag, td_reduced)


def test_clip_counts_are_per_level_not_per_row():
    # c = 1 always comes with a = 1, so the empirical p(a|c=1) is 1 and p(a=0|c=1) is 0: BD reads
    # both at the one (a, c) level with c = 1 and clips each once, however many rows that level has
    rng = np.random.default_rng(3)
    n = 300
    c = (rng.random(n) < 0.4).astype(float)
    a = np.where(c == 1.0, 1.0, (rng.random(n) < 0.5).astype(float))
    y = a + c + rng.standard_normal(n)
    specs = [
        ModelSpec("p_a_given_c", "empirical", predictors=("c",)),
        ModelSpec("mean_y_ac", "linear-mean", predictors=("a", "c")),
    ]
    for copies in (1, 3):
        data = Dataset(*(np.tile(v, copies) for v in (c, a, np.zeros(n), y)), PAIR)
        assert estimate(data, fit(data, specs), "BD").clipped == 2


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
