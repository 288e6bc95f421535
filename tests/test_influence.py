import gc
import weakref
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import acebounds.influence as influence
from acebounds.bounds import SimDgpParams, bound
from acebounds.compare import fd_vs_bd_verdict, td_minus_bd_gap, td_vs_bd_verdict
from acebounds.dist import DiscreteJoint, TreatmentPair, ace_backdoor, ace_frontdoor, ace_twodoor, chain_joint, fsum
from acebounds.errors import AceboundsError, DomainError, MissingNuisance, PositivityViolation
from acebounds.influence import (
    MODEL_TAGS,
    NuisanceSet,
    brute_force_mean,
    brute_force_variance,
    evaluate_m,
    level_index,
    truth_nuisances,
)
from acebounds.estimators import ESTIMATOR_TAGS, estimate_all
from acebounds.fitting import CrossFitPlan, Dataset, FoldedNuisances, ModelSpec, fit
from acebounds.quadrature import FiniteZRule
from acebounds.simlab import sample_dgp, setting_model_specs, simdgp_truth_nuisances

from conftest import BINARY, PAIR, random_chain_dist, random_confounded_mediator_dist

ALL_TAGS = MODEL_TAGS + ("TD_REDUCED",)


def _dist(seed=3):
    return random_chain_dist(np.random.default_rng(seed))


def _three_level_dist():
    from acebounds.dist import chain_joint

    pa = {0.0: 0.5, 1.0: 0.3, 2.0: 0.2}
    pz1 = {0.0: 0.3, 1.0: 0.6, 2.0: 0.45}
    py1 = {(0.0, 0.0): 0.2, (0.0, 1.0): 0.5, (1.0, 0.0): 0.7, (1.0, 1.0): 0.4}
    return chain_joint(
        [0.0, 1.0],
        [0.0, 1.0, 2.0],
        [0.0, 1.0],
        [0.0, 1.0],
        lambda c: 0.4 if c == 1 else 0.6,
        lambda a, c: pa[a],
        lambda z, a: pz1[a] if z == 1 else 1.0 - pz1[a],
        lambda y, z, c: py1[(z, c)] if y == 1 else 1.0 - py1[(z, c)],
    )


def test_bd_off_pair_rows_reduce_to_regression_contrast():
    # the observed treatment lies outside the compared pair: both indicators
    # vanish and only the regression contrast remains
    dist = _three_level_dist()
    eta = truth_nuisances(dist)
    pair = TreatmentPair(1.0, 0.0)
    contrast = float(eta.mean_y_ac(1.0, 1.0) - eta.mean_y_ac(0.0, 1.0))
    assert evaluate_m("BD", [1.0], [2.0], [1.0], [1.0], eta, pair)[0] == pytest.approx(contrast, abs=1e-12)
    assert brute_force_mean(dist, pair, "BD") == pytest.approx(ace_backdoor(dist, pair), abs=1e-10)


def test_bd_vanishing_outcome_gives_zero():
    eta = NuisanceSet(
        a_support=(0.0, 1.0),
        p_a_given_c=lambda a, c: 0.5 + 0.0 * np.asarray(c, dtype=float),
        mean_y_ac=lambda a, c: 0.0 * np.asarray(c, dtype=float),
    )
    assert evaluate_m("BD", [0.0], [1.0], [0.0], [0.0], eta, TreatmentPair(1.0, 0.0))[0] == 0.0


def test_fd_mediator_shift_factor_vanishes_when_z_independent():
    # if the mediator law ignores treatment, the residual term drops out
    dist = _dist()
    eta = truth_nuisances(dist)
    flat = NuisanceSet(
        a_support=eta.a_support,
        c_support=eta.c_support,
        p_a=eta.p_a,
        p_z_given_a=lambda z, a: 0.5 + 0.0 * np.asarray(z, dtype=float) + 0.0 * np.asarray(a, dtype=float),
        mean_y_az=eta.mean_y_az,
        z_integrator=eta.z_integrator,
    )
    pair = TreatmentPair(1.0, 0.0)
    got = evaluate_m("FD", [0.0], [1.0], [1.0], [7.0], flat, pair)[0]
    pooled = sum(float(flat.mean_y_az(ab, 1.0)) * float(flat.p_a(ab)) for ab in (0.0, 1.0))
    # centering terms equal the pooled outcome at z (flat mediator law), and the
    # final shift-weighted term is exactly zero
    ey = {}
    for level in (1.0, 0.0):
        ey[level] = sum(
            0.5 * sum(float(flat.mean_y_az(ab, z0)) * float(flat.p_a(ab)) for ab in (0.0, 1.0))
            for z0 in (0.0, 1.0)
        )
    expected = (pooled - ey[1.0]) / float(flat.p_a(1.0))
    assert got == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("tag,ace", [("BD", ace_backdoor), ("FD", ace_frontdoor), ("TD", ace_twodoor)])
def test_enumeration_mean_recovers_ace(tag, ace):
    dist = _dist(11)
    assert brute_force_mean(dist, PAIR, tag) == pytest.approx(ace(dist, PAIR), abs=1e-10)


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_mean_zero_for_every_influence_function(seed):
    dist = random_chain_dist(np.random.default_rng(seed))
    theta = ace_twodoor(dist, PAIR)
    for tag in ALL_TAGS:
        assert brute_force_mean(dist, PAIR, tag) - theta == pytest.approx(0.0, abs=1e-10)


def test_reduced_td_matches_general_td_variance_on_chain_family():
    dist = _dist(23)
    general = brute_force_variance(dist, PAIR, "TD")
    reduced = brute_force_variance(dist, PAIR, "TD_REDUCED")
    assert reduced == pytest.approx(general, abs=1e-10)


def test_pairwise_variances_not_larger():
    dist = _dist(17)
    var = {tag: brute_force_variance(dist, PAIR, tag) for tag in MODEL_TAGS}
    assert var["BD_TD"] <= min(var["BD"], var["TD"]) + 1e-12
    assert var["FD_TD"] <= var["FD"] + 1e-12
    assert var["BD_FD_TD"] <= min(var.values()) + 1e-12


def test_locality_row_permutation():
    dist = _dist(29)
    eta = truth_nuisances(dist)
    rng = np.random.default_rng(0)
    cells = np.array([cell for cell in dist.cells()])
    c, a, z, y = cells[:, 0], cells[:, 1], cells[:, 2], cells[:, 3]
    perm = rng.permutation(c.size)
    for tag in ALL_TAGS:
        base = evaluate_m(tag, c, a, z, y, eta, PAIR)
        shuffled = evaluate_m(tag, c[perm], a[perm], z[perm], y[perm], eta, PAIR)
        assert np.array_equal(shuffled, base[perm])


def test_missing_component_raises():
    dist = _dist(31)
    eta = truth_nuisances(dist)
    eta.mean_y_azc = None
    with pytest.raises(MissingNuisance, match="mean_y_azc"):
        evaluate_m("TD", np.array([0.0]), np.array([1.0]), np.array([0.0]), np.array([0.0]), eta, PAIR)


# the slots each model reads, written out from the paper's estimating functions
REQUIRED_SLOTS = {
    "BD": ("p_a_given_c", "mean_y_ac"),
    "FD": ("p_a", "p_z_given_a", "mean_y_az", "z_integrator"),
    "TD": ("p_a_given_c", "p_z_given_ac", "mean_y_azc", "z_integrator"),
    "TD_REDUCED": ("p_a_given_c", "p_z_given_a", "mean_y_zc", "z_integrator"),
    "BD_TD": ("p_a_given_c", "p_z_given_ac", "mean_y_zc", "z_integrator"),
    "FD_TD": ("p_c", "p_a_given_c", "p_z_given_a", "mean_y_azc", "z_integrator"),
    "BD_FD_TD": ("p_c", "p_a_given_c", "p_z_given_a", "mean_y_zc", "z_integrator"),
}


def _chain_cells(seed):
    dist = _dist(seed)
    return np.array(list(dist.cells()))[:, :4].T, truth_nuisances(dist)


@pytest.mark.parametrize("tag,slot", [(tag, slot) for tag, slots in REQUIRED_SLOTS.items() for slot in slots])
def test_every_required_slot_is_checked(tag, slot):
    rows, eta = _chain_cells(53)
    setattr(eta, slot, None)
    with pytest.raises(MissingNuisance, match=f"'{slot}'"):
        evaluate_m(tag, *rows, eta, PAIR)


@pytest.mark.parametrize("tag", sorted(REQUIRED_SLOTS))
def test_required_slots_suffice(tag):
    rows, eta = _chain_cells(53)
    bare = NuisanceSet(
        a_support=eta.a_support,
        c_support=eta.c_support,
        **{slot: getattr(eta, slot) for slot in REQUIRED_SLOTS[tag]},
    )
    np.testing.assert_array_equal(evaluate_m(tag, *rows, bare, PAIR), evaluate_m(tag, *rows, eta, PAIR))


def test_positivity_guard_in_evaluators():
    eta = NuisanceSet(
        a_support=(0.0, 1.0),
        p_a_given_c=lambda a, c: 0.0 * np.asarray(c, dtype=float),
        mean_y_ac=lambda a, c: 0.0 * np.asarray(c, dtype=float),
    )
    with pytest.raises(PositivityViolation):
        evaluate_m("BD", [0.0], [1.0], [0.0], [0.0], eta, TreatmentPair(1.0, 0.0))


def test_truth_nuisances_components_match_tables():
    dist = _dist(41)
    eta = truth_nuisances(dist)
    assert float(eta.p_c(dist.c_support[1])) == pytest.approx(
        float(dist.table(("c",))[1]), abs=1e-15
    )
    # binary supports: each value is its own index; tables are indexed in (c, a, z, y) order
    cond = dist.table(("c", "a", "z"))[0, 1] / dist.table(("c", "a"))[0, 1]  # p(z | a=1, c=0)
    assert float(eta.p_z_given_ac(dist.z_support[1], 1.0, 0.0)) == pytest.approx(float(cond[1]), abs=1e-15)
    mean = dist.table(("c", "a", "z", "y"))[1, 1, 0] @ dist.y_support / dist.table(("c", "a", "z"))[1, 1, 0]
    assert float(eta.mean_y_azc(1.0, 0.0, 1.0)) == pytest.approx(mean, abs=1e-15)


def test_finite_rule_expectation_matches_direct_sum():
    dist = _dist(43)
    eta = truth_nuisances(dist)
    rule = FiniteZRule(dist.z_support)
    from acebounds.quadrature import expect_z

    got = expect_z(rule, eta.p_z_given_a, lambda z: z**2, 1.0)
    table = dist.table(("a", "z"))[1] / dist.table(("a",))[1]  # p(z | a=1)
    want = float(np.sum(table * dist.z_support**2))
    assert float(got) == pytest.approx(want, abs=1e-13)


STUDY_PARAMS = SimDgpParams(alpha=1.0, beta=1.5, gamma1=0.5, gamma2=1.5)


def _per_row(tag, c, a, z, y, eta, pair):
    rows = (slice(i, i + 1) for i in range(c.size))
    return np.array([evaluate_m(tag, c[r], a[r], z[r], y[r], eta, pair)[0] for r in rows])


def _continuous_c_rows():
    # every row carries its own covariate value, so every row is its own level
    rng = np.random.default_rng(5)
    n = 40
    c = rng.standard_normal(n)
    a = (rng.random(n) < 0.5).astype(float)
    z = 1.5 * a + rng.standard_normal(n)
    y = 0.5 * z + 1.5 * c + rng.standard_normal(n)
    return (c, a, z, y), simdgp_truth_nuisances(STUDY_PARAMS)


def _fitted_rows(setting):
    # settings 1 and 3 drop the treatment from the mediator law: level-free integrals
    data = sample_dgp(STUDY_PARAMS, 120, 11 + setting)
    return (data.c, data.a, data.z, data.y), fit(data, setting_model_specs(setting))


def _chain_rows():
    dist = _dist(47)
    cells = np.array(list(dist.cells()))
    return tuple(cells[:, :4].T), truth_nuisances(dist)


@pytest.mark.parametrize(
    "make_input",
    [_continuous_c_rows, lambda: _fitted_rows(1), lambda: _fitted_rows(3), _chain_rows],
    ids=["continuous-c", "setting-1", "setting-3", "chain-joint"],
)
def test_per_level_evaluation_matches_per_row(make_input):
    (c, a, z, y), eta = make_input()
    for tag in ALL_TAGS:
        batch = evaluate_m(tag, c, a, z, y, eta, PAIR)
        np.testing.assert_allclose(batch, _per_row(tag, c, a, z, y, eta, PAIR), rtol=0, atol=1e-12, err_msg=tag)


def test_grid_size_does_not_grow_with_rows(monkeypatch):
    # integration runs once per (a, c) level, so node-grid sizes are independent of n
    real = influence.expect_z
    elements = [0]

    def counting(rule, density, g, *cond):
        def counted(nodes):
            vals = g(nodes)
            elements[0] += np.size(vals)
            return vals

        return real(rule, density, counted, *cond)

    monkeypatch.setattr(influence, "expect_z", counting)
    totals = {}
    for n in (1000, 5000):
        data = sample_dgp(STUDY_PARAMS, n, 3)
        eta = fit(data, setting_model_specs(0))
        for tag in ALL_TAGS:
            elements[0] = 0
            evaluate_m(tag, data.c, data.a, data.z, data.y, eta, data.pair)
            totals[tag, n] = elements[0]
    for tag in ALL_TAGS:
        assert totals[tag, 1000] == totals[tag, 5000], tag
        assert (totals[tag, 1000] > 0) == (tag != "BD"), tag


class _CountingLaw:
    """A Gaussian mediator law that counts its evaluations; quadrature reads location_scale only."""

    def __init__(self, law):
        self.law, self.calls = law, 0

    def __call__(self, *args):
        self.calls += 1
        return self.law(*args)

    def location_scale(self, *cond):
        return self.law.location_scale(*cond)


@pytest.mark.parametrize("tag", sorted(influence._MEDIATOR_MODELS))
def test_mediator_law_is_evaluated_once_per_treatment_arm(tag):
    # the arms a* and a (the mix tags' support {0, 1} is the same two arms), plus the observed rows for "own"
    law_slot, _, mass, _ = influence._MEDIATOR_MODELS[tag]
    data = sample_dgp(STUDY_PARAMS, 400, 5)
    eta = fit(data, setting_model_specs(0))
    want = evaluate_m(tag, data.c, data.a, data.z, data.y, eta, data.pair)
    law = _CountingLaw(getattr(eta, law_slot))
    got = evaluate_m(tag, data.c, data.a, data.z, data.y, replace(eta, **{law_slot: law}), data.pair)
    assert law.calls == (2 if mass == "mix" else 3)
    assert got.tobytes() == want.tobytes()


def test_truth_tables_on_unsorted_supports_pass_undefined_cells_through():
    # c = 2 carries no mass, so p(a|c=2) is undefined: NaN, not an error
    rng = np.random.default_rng(8)
    pmf = rng.random((3, 2, 3, 2))
    pmf[0] = 0.0
    pmf /= pmf.sum()
    dist = DiscreteJoint([2.0, 0.0, 1.0], [1.0, 0.0], [0.5, -1.0, 3.0], [1.0, -2.0], pmf)
    eta = truth_nuisances(dist)
    assert np.all(np.isnan(eta.p_a_given_c(np.array([0.0, 1.0]), 2.0)))
    with np.errstate(invalid="ignore"):  # 0/0 at c = 2
        p_z_given_ac = dist.table(("c", "a", "z")) / dist.table(("c", "a"))[..., None]
    for c in (0.0, 1.0):
        for z in (0.5, -1.0, 3.0):
            want = p_z_given_ac[dist.index_of("c", c), dist.index_of("a", 1.0), dist.index_of("z", z)]
            assert float(eta.p_z_given_ac(z, 1.0, c)) == pytest.approx(want, abs=1e-15)
    with pytest.raises(DomainError):
        eta.p_z_given_ac(0.0, 1.0, 0.0)


def test_finite_rule_refuses_an_oversized_grid_before_evaluating_the_density():
    calls = []

    def density(z, *cond):
        calls.append(1)
        return 1.0

    rule = FiniteZRule(np.arange(2048.0))
    rule.grid(density, np.arange(2048.0))  # 2^22 elements: at the limit, allowed
    assert calls == [1]
    with pytest.raises(DomainError, match="finite mediator grid of 2049 levels x 2048 nodes"):
        rule.grid(density, np.arange(2049.0))
    assert calls == [1]


def test_empirical_mediator_on_continuous_z_and_c_hits_the_grid_cap():
    # the reduced two-door pooled outcome E(y|z,c) depends on the row's c, so every row is its own
    # (a, c) level: n levels times n distinct z nodes, about 4.4M elements at n=2100
    rng = np.random.default_rng(6)
    n = 2100
    c = rng.standard_normal(n)
    a = (rng.random(n) < 0.5).astype(float)
    z = a + rng.standard_normal(n)
    y = z + c + rng.standard_normal(n)
    specs = [
        ModelSpec("p_a_given_c", "logistic", predictors=("c",)),
        ModelSpec("p_z_given_a", "empirical", predictors=("a",)),
        ModelSpec("mean_y_zc", "linear-mean", predictors=("z", "c")),
    ]
    eta = fit(Dataset(c, a, z, y, PAIR), specs)
    with pytest.raises(DomainError, match="finite mediator grid"):
        evaluate_m("TD_REDUCED", c, a, z, y, eta, PAIR)


def test_fd_integrates_per_treatment_level_on_a_continuous_covariate():
    # FD reads p(z|a), E(y|a,z) and p(a), none of which takes c: it integrates over the 2 treatment
    # levels (2 x n grid elements) where (a, c) levels would hit the grid cap (n x n)
    rng = np.random.default_rng(6)
    n = 2100
    c = rng.standard_normal(n)
    a = (rng.random(n) < 0.5).astype(float)
    z = a + rng.standard_normal(n)
    y = z + c + rng.standard_normal(n)
    specs = [
        ModelSpec("p_a", "empirical"),
        ModelSpec("p_z_given_a", "empirical", predictors=("a",)),
        ModelSpec("mean_y_az", "linear-mean", predictors=("a", "z")),
    ]
    eta = fit(Dataset(c, a, z, y, PAIR), specs)
    batch = evaluate_m("FD", c, a, z, y, eta, PAIR)
    rows = np.arange(0, n, 7)
    single = _per_row("FD", c[rows], a[rows], z[rows], y[rows], eta, PAIR)
    np.testing.assert_allclose(batch[rows], single, rtol=0, atol=1e-12)


def _continuous_c_fit(n):
    rng = np.random.default_rng(6)
    c = rng.standard_normal(n)
    a = (rng.random(n) < 0.5).astype(float)
    z = a + rng.standard_normal(n)
    y = z + c + rng.standard_normal(n)
    return (c, a, z, y), fit(Dataset(c, a, z, y, PAIR), setting_model_specs(0))


class _CountingOutcome:
    """An outcome regression that counts the elements it returns."""

    def __init__(self, fn):
        self.fn, self.elements = fn, 0

    def __call__(self, *args):
        out = self.fn(*args)
        self.elements += np.size(out)
        return out


@pytest.mark.parametrize("tag", ["FD_TD", "BD_FD_TD"])
def test_marginal_weight_tags_centre_the_pooled_outcome_per_treatment_level(tag):
    # the pooled outcome already sums over every live covariate level, so its expectation depends on a
    # row through a alone. At the rows it costs arms x n covariate levels x n rows, and every other read
    # O(n); centred per (a, c) level it would cost as much again (n levels x 1 node x n covariate levels)
    n = 300
    cols, eta = _continuous_c_fit(n)
    outcome = influence._MEDIATOR_MODELS[tag][1]
    counted = _CountingOutcome(getattr(eta, outcome))
    got = evaluate_m(tag, *cols, replace(eta, **{outcome: counted}), PAIR)
    arms = 2 if "a" in influence.SLOTS[outcome][0] else 1
    assert counted.elements < arms * n * n + 10 * n
    assert got.tobytes() == evaluate_m(tag, *cols, eta, PAIR).tobytes()


@pytest.mark.parametrize("tag", ["FD_TD", "BD_FD_TD"])
def test_marginal_weight_tags_refuse_an_oversized_pooled_outcome(tag):
    # the pooled outcome at the rows sums over every live covariate level: 2100 x 2100 elements exceed 2^22
    cols, eta = _continuous_c_fit(2100)
    with pytest.raises(DomainError, match="pooled outcome over 2100 covariate levels x 2100 rows"):
        evaluate_m(tag, *cols, eta, PAIR)


class _CountingSlot:
    """A nuisance component that counts its calls."""

    def __init__(self, fn):
        self.fn, self.calls = fn, 0

    def __call__(self, *args):
        self.calls += 1
        return self.fn(*args)


@pytest.mark.parametrize("tag", ["FD_TD", "BD_FD_TD"])
def test_oversized_pooled_outcome_is_refused_before_any_per_level_call(tag):
    # one vector p_c call finds the 2100 live covariate levels, and the refusal comes next: no scalar
    # call per covariate level (p_c) or per level and arm (the p_a_given_c of the marginal weights)
    cols, eta = _continuous_c_fit(2100)
    counted = {slot: _CountingSlot(getattr(eta, slot)) for slot in influence.SLOTS if getattr(eta, slot) is not None}
    with pytest.raises(DomainError, match="pooled outcome over 2100 covariate levels"):
        evaluate_m(tag, *cols, replace(eta, **counted), PAIR)
    assert {slot: fn.calls for slot, fn in counted.items() if fn.calls} == {"p_c": 1}


def _same_index(x, y):
    return all(np.array_equal(getattr(x, f), getattr(y, f)) for f in ("a", "c", "inv"))


def test_level_index_is_the_same_on_every_coding_path():
    a = np.array([1.0, 0.0, 1.0, 1.0, 0.0, 1.0])
    c = np.array([0.0, 2.0, 0.0, 1.0, 2.0, 0.0])
    want = level_index(a, c, (0.0, 1.0), (2.0, 1.0, 0.0))  # supports need not be sorted
    assert want.a.tolist() == [0.0, 1.0, 1.0]
    assert want.c.tolist() == [2.0, 0.0, 1.0]
    assert want.inv.tolist() == [1, 0, 1, 2, 0, 1]
    assert _same_index(level_index(a, c), want)  # no supports: each column's own values
    assert _same_index(level_index(a, c, (0.0, 1.0), (0.0, 1.0)), want)  # c = 2 outside its support
    assert _same_index(level_index(a, c, (0.0, 1.0), np.arange(-50.0, 50.0)), want)  # a wide support
    assert _same_index(level_index(a, c, np.arange(-50.0, 50.0), np.arange(-50.0, 50.0)), want)  # sparse codes
    assert _same_index(level_index(a, c, (0.0, 1.0), (0.0, 1.0 + 1e-12, 2.0)), want)  # exact match only


# -- the oracle state a joint keeps --------------------------------------------


def _copy(dist):
    return DiscreteJoint(*dist.supports(), dist.pmf)


def test_oracle_state_is_built_once_per_joint(monkeypatch):
    calls = {"truth_nuisances": 0, "cells": 0, "level_index": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(influence, "truth_nuisances", counted("truth_nuisances", influence.truth_nuisances))
    monkeypatch.setattr(influence, "level_index", counted("level_index", influence.level_index))
    monkeypatch.setattr(DiscreteJoint, "cells", counted("cells", DiscreteJoint.cells))
    dist = _dist(31)
    for tag in MODEL_TAGS:
        brute_force_variance(dist, PAIR, tag)
    brute_force_mean(dist, PAIR, "TD")
    assert calls == {"truth_nuisances": 1, "cells": 0, "level_index": 1}  # the cells are read off the joint's grid


def test_oracle_state_gives_the_values_of_fresh_joints(chain_dists):
    rng = np.random.default_rng(47)
    dists = chain_dists + [random_confounded_mediator_dist(rng) for _ in range(10)]
    pairs = (TreatmentPair(1.0, 0.0), TreatmentPair(0.0, 1.0))
    for dist in dists:
        brute_force_mean(dist, pairs[0], "BD")
        state = dist._oracle
        for pair in pairs:
            for tag in ALL_TAGS:
                assert brute_force_variance(dist, pair, tag) == brute_force_variance(_copy(dist), pair, tag)
                assert brute_force_mean(dist, pair, tag) == brute_force_mean(_copy(dist), pair, tag)
        assert dist._oracle is state  # one state served every call on this joint


def test_a_dropped_joint_frees_its_oracle_state_at_once():
    # the state holds no reference cycle, so the plan goes with the joint, not at a later collection
    dist = _wide_joint(11)
    for pair in PAIRS:
        for tag in ALL_TAGS:
            brute_force_variance(dist, pair, tag)
    plan = weakref.ref(dist._oracle.plan)
    gc.disable()
    try:
        del dist
        assert plan() is None
    finally:
        gc.enable()


def test_explicit_nuisances_neither_build_nor_read_the_oracle_state():
    dist = _dist(37)
    truth = truth_nuisances(dist)
    shifted = replace(truth, mean_y_ac=lambda a, c: truth.mean_y_ac(a, c) + 0.25 * np.asarray(a, dtype=float))
    for eta in (truth, shifted):
        brute_force_variance(dist, PAIR, "BD", eta)
        brute_force_mean(dist, PAIR, "BD", eta)
    assert getattr(dist, "_oracle", None) is None
    exact = brute_force_variance(dist, PAIR, "BD")
    state = dist._oracle
    kept = len(state.plan._memo)
    assert brute_force_variance(dist, PAIR, "BD", shifted) == brute_force_variance(_copy(dist), PAIR, "BD", shifted) != exact
    assert brute_force_mean(dist, PAIR, "BD", truth) == brute_force_mean(_copy(dist), PAIR, "BD", truth)
    assert dist._oracle is state and len(state.plan._memo) == kept


def test_positivity_failure_repeats_on_the_kept_state(monkeypatch):
    pmf = np.full((2, 2, 2, 2), 1.0 / 12.0)
    pmf[0, 1] = 0.0  # treatment level 1 never occurs at c = 0
    dist = DiscreteJoint(BINARY, BINARY, BINARY, BINARY, pmf)
    built = []
    monkeypatch.setattr(influence, "truth_nuisances", lambda d: built.append(d) or truth_nuisances(d))
    calls = [partial(brute_force_variance, dist, PAIR, tag) for tag in ALL_TAGS] + [partial(brute_force_mean, dist, PAIR, "BD")]
    for call in calls:
        errors = []
        for _ in range(3):
            with pytest.raises(PositivityViolation) as info:
                call()
            errors.append(str(info.value))
        assert errors[0] == errors[1] == errors[2] and "has entries below 1e-12" in errors[0]
    assert built == [dist]


# -- tables read by code on a row plan -------------------------------------------


def _wide_joint(seed):
    """A chain joint positive on all 4 x 3 x 20 x 20 = 4800 cells, the shape of the exact-bounds benchmark."""
    rng = np.random.default_rng(seed)
    pc, pa = rng.dirichlet(np.full(4, 2.0)), rng.dirichlet(np.full(3, 2.0), size=4)  # [c], [c, a]
    pz, py = rng.dirichlet(np.full(20, 2.0), size=3), rng.dirichlet(np.full(20, 2.0), size=(20, 4))  # [a, z], [z, c, y]
    y_sup = np.linspace(-2.0, 2.0, 20)
    return chain_joint(
        np.arange(4.0),
        np.arange(3.0),
        np.arange(20.0),
        y_sup,
        lambda c: pc[int(c)],
        lambda a, c: pa[int(c), int(a)],
        lambda z, a: pz[int(a), int(z)],
        lambda y, z, c: py[int(z), int(c), np.searchsorted(y_sup, y)],
    )


def test_oracle_codes_each_cell_column_once(monkeypatch):
    lookup, sizes = influence._lookup, []
    monkeypatch.setattr(influence, "_lookup", lambda support, x: sizes.append(np.size(x)) or lookup(support, x))
    dist = _wide_joint(5)
    for tag in MODEL_TAGS:
        brute_force_variance(dist, PAIR, tag)
    # the 240 (c, a, z) cells, each at two outcome values, are 480 rows: the level index codes their a and c
    # columns, and the tables their a, c and z columns, once each (5 x 480).  Each other plan column and scalar
    # is coded once per support: the 20 mediator nodes; the 12 (a, c) levels' c, and their a and c on the node
    # axis (3 x 12); the 3 treatment values of a sum per arm; the 4 covariate values, the live ones, and the
    # live ones on a leading axis (3 x 4); and the 3 scalar arms, the pair's and the third of the mixed mediator mass
    assert sorted(sizes) == [1] * 3 + [3] + [4] * 3 + [12] * 3 + [20] + [480] * 5


def test_the_kept_plan_gives_the_values_of_explicit_truth_nuisances():
    # the plan the joint keeps is shared by every model and pair; an explicit eta builds a fresh one per call
    for seed in (5, 6):
        dist = _wide_joint(seed)
        for pair in PAIRS:
            for tag in ALL_TAGS:
                explicit = truth_nuisances(dist)
                assert brute_force_variance(dist, pair, tag).hex() == brute_force_variance(dist, pair, tag, explicit).hex(), (seed, pair, tag)
                assert brute_force_mean(dist, pair, tag).hex() == brute_force_mean(dist, pair, tag, explicit).hex(), (seed, pair, tag)


def _hidden(eta):
    """`eta` with every slot behind a plain forwarding lambda, so a row plan calls it instead of reading its table by code."""
    if isinstance(eta, FoldedNuisances):
        return FoldedNuisances([(idx, _hidden(fold)) for idx, fold in eta.folds], eta.manifest)
    slots = {slot: getattr(eta, slot) for slot in influence.SLOTS if getattr(eta, slot) is not None}
    return replace(eta, **{slot: (lambda fn: lambda *args: fn(*args))(fn) for slot, fn in slots.items()})


def _outcome(fn):
    """The bytes of fn()'s value, or the error it raised."""
    try:
        return np.asarray(fn(), dtype=float).tobytes()
    except AceboundsError as exc:
        return repr(exc)


PAIRS = (TreatmentPair(1.0, 0.0), TreatmentPair(0.0, 1.0))


def _joint(supports, pmf):
    return DiscreteJoint(*supports, pmf / pmf.sum())


def _ordered_sum_joints():
    """Joints whose sums over three arms and over live covariate levels are not two commuting terms."""
    rng = np.random.default_rng(61)
    three = (np.arange(3.0),) * 3
    null_c = rng.random((3, 3, 3, 2))
    null_c[1] = 0.0  # p(C = 1) = 0: not a live level
    zeros = rng.random((2, 3, 4, 3))
    zeros[(rng.random((2, 3, 4)) < 0.3) & (np.arange(4) > 0)] = 0.0  # (c, a, z) cells of zero mass; z = 0 keeps p(a|c) > 0
    return [
        _wide_joint(7),
        _joint(three + ((0.0, 1.0),), null_c),
        _joint((np.arange(2.0), np.arange(3.0), np.arange(4.0), np.arange(3.0)), zeros),
        _joint(([2.0, 0.0, 1.0], [1.0, 0.0, 2.0], [0.5, -1.0, 3.0], [1.0, -2.0]), rng.random((3, 3, 3, 2))),  # unsorted supports
    ]


def test_tables_read_by_code_match_tables_called(chain_dists):
    rng = np.random.default_rng(53)
    for dist in chain_dists + [random_confounded_mediator_dist(rng) for _ in range(10)] + _ordered_sum_joints():
        c, a, z, y, _ = _positive_cells(dist)
        eta = truth_nuisances(dist)
        for pair in PAIRS:
            for tag in ALL_TAGS:
                coded = _outcome(lambda: evaluate_m(tag, c, a, z, y, eta, pair))
                assert coded == _outcome(lambda: evaluate_m(tag, c, a, z, y, _hidden(eta), pair)), (tag, pair)


def _discrete_rows(seed, n):
    """Rows on c, a in {0, 1, 2} and z in {0, 1, 2, 3}, where a = 2 never occurs at c = 0."""
    rng = np.random.default_rng(seed)
    c = rng.integers(0, 3, n).astype(float)
    a = np.where(c == 0.0, rng.integers(0, 2, n), rng.integers(0, 3, n)).astype(float)
    z = np.minimum(rng.poisson(0.8 + 0.3 * a + 0.2 * c), 3).astype(float)
    return c, a, z, np.round(0.4 * z + 0.3 * c + rng.normal(0.0, 1.0, n), 1)


def _estimates(data, eta, tags, reduced):
    """(theta_hat, se_hat, clipped) of each tag, or the error raised."""
    try:
        return [(r.theta_hat, r.se_hat, r.clipped) for r in estimate_all(data, eta, tags, td_reduced=reduced)]
    except AceboundsError as exc:
        return repr(exc)


def _discrete_specs():
    """Empirical probabilities and mediator laws, and linear outcome means, each on every conditioning argument."""
    return [
        ModelSpec(slot, "linear-mean" if kind == "mean" else "empirical", predictors=tuple(v for v in args if v != response))
        for slot, (args, response, kind) in influence.SLOTS.items()
    ]


def test_fitted_tables_read_by_code_match_tables_called():
    # empirical probabilities and mediator laws, with p(a = 2 | c = 0) = 0 clipped and the mediator law
    # undefined at (a, c) = (2, 0); linear outcome means, which are defined at every (a, z, c)
    specs = _discrete_specs()
    clipped = 0
    for seed in range(4):
        c, a, z, y = _discrete_rows(seed, 240)
        for pair in PAIRS:
            data = Dataset(c, a, z, y, pair)
            for folds in (0, 3):
                eta = fit(data, specs, CrossFitPlan(folds=folds, seed=seed))
                for tags, reduced in [(ESTIMATOR_TAGS, False)] + [((tag,), reduced) for tag in ESTIMATOR_TAGS for reduced in (False, True)]:
                    got = _estimates(data, eta, tags, reduced)
                    assert got == _estimates(data, _hidden(eta), tags, reduced), (seed, pair, folds, tags, reduced)
                    clipped += 0 if isinstance(got, str) else sum(r[2] for r in got)
            eta = fit(data, specs)
            for tag in ALL_TAGS:
                assert _outcome(lambda: evaluate_m(tag, c, a, z, y, eta, pair)) == _outcome(lambda: evaluate_m(tag, c, a, z, y, _hidden(eta), pair))
    assert clipped > 0


def test_table_errors_are_the_same_read_by_code():
    dist = _dist(59)
    cells = dist.cells()
    c, a, z, y = cells[:, :4].T
    truth = truth_nuisances(dist)
    # every slot empirical, fitted on binary rows that never show (c, a, z) = (1, 1, 1)
    seen = np.array([cell for cell in np.ndindex(2, 2, 2) if cell != (1, 1, 1)], dtype=float).T
    data = Dataset(*np.repeat(seen, 3, axis=1), np.arange(21) % 4 * 0.5, PAIR)
    specs = [ModelSpec(slot, "empirical", predictors=tuple(v for v in args if v != response)) for slot, (args, response, _) in influence.SLOTS.items()]
    fitted = fit(data, specs)
    cases = [
        (truth, (c, a, np.where(z == 1.0, 0.5, z), y), "outside its support"),
        (truth, (np.where(c == 1.0, 2.0, c), a, z, y), "outside its support"),
        (fitted, (c, a, z, y), "never observed"),
    ]
    for eta, cols, message in cases:
        coded = [_outcome(lambda: evaluate_m(tag, *cols, eta, PAIR)) for tag in ALL_TAGS]
        assert coded == [_outcome(lambda: evaluate_m(tag, *cols, _hidden(eta), PAIR)) for tag in ALL_TAGS]
        assert any(isinstance(got, str) and message in got for got in coded), message


# -- the enumeration the oracles rest on -------------------------------------------


def _perturbed(eta):
    """`eta` with every outcome mean shifted and every law and probability mixed with a flat one, each behind a callable."""
    nz, na = len(eta.z_integrator.support), len(eta.a_support)

    def f(v):
        return np.asarray(v, dtype=float)

    return replace(
        eta,
        mean_y_ac=lambda a, c: eta.mean_y_ac(a, c) + 0.25 * f(a) - 0.1 * f(c),
        mean_y_az=lambda a, z: eta.mean_y_az(a, z) + 0.3 * f(z) * f(a),
        mean_y_zc=lambda z, c: eta.mean_y_zc(z, c) - 0.2 * f(z) + 0.15 * f(c),
        mean_y_azc=lambda a, z, c: eta.mean_y_azc(a, z, c) + 0.1 * f(a) + 0.2 * f(z) * f(c),
        p_a=lambda a: 0.8 * eta.p_a(a) + 0.2 / na,
        p_a_given_c=lambda a, c: 0.8 * eta.p_a_given_c(a, c) + 0.2 / na,
        p_z_given_a=lambda z, a: 0.7 * eta.p_z_given_a(z, a) + 0.3 / nz,
        p_z_given_ac=lambda z, a, c: 0.7 * eta.p_z_given_ac(z, a, c) + 0.3 / nz,
    )


def _zero_mass_outcome_joint():
    """2 covariate, 2 treatment, 3 mediator and 3 outcome levels; y = 2 has no mass at z = 0, nor y = 0 at z = 2."""
    py = {0: (0.6, 0.4, 0.0), 1: (0.2, 0.5, 0.3), 2: (0.0, 0.45, 0.55)}
    return chain_joint(
        range(2),
        range(2),
        range(3),
        range(3),
        lambda c: 0.4 + 0.2 * c,
        lambda a, c: 0.3 + 0.4 * c if a else 0.7 - 0.4 * c,
        lambda z, a: (0.5 - 0.2 * a, 0.3, 0.2 + 0.2 * a)[int(z)],
        lambda y, z, c: py[int(z)][int(y)],
    )


def _null_level_joint():
    """The chain joint with p(C=1) = 0 that CI runs through ``acebounds oracle``."""
    return chain_joint(
        range(3),
        range(3),
        range(3),
        range(2),
        lambda c: (0.3, 0.0, 0.7)[int(c)],
        lambda a, c: (a + 1 + c) / (6 + 3 * c),
        lambda z, a: (1 + (z + 1) * (a + 2) % 5) / sum(1 + (k + 1) * (a + 2) % 5 for k in range(3)),
        lambda y, z, c: 0.2 + 0.2 * z + 0.1 * c if y else 0.8 - 0.2 * z - 0.1 * c,
    )


def _positive_cells(dist):
    cells = dist.cells()
    return cells[cells[:, 4] > 0.0].T


def _enumerated_mean(dist, pair, tag, eta):
    """E[m] over every (c, a, z, y) cell of positive mass, evaluated on a fresh plan and summed by fsum."""
    c, a, z, y, p = _positive_cells(dist)
    return fsum(evaluate_m(tag, c, a, z, y, eta, pair) * p)


def _enumerated_variance(dist, pair, tag, eta):
    """E[(m - theta)^2] over every (c, a, z, y) cell of positive mass, theta first, as the oracle takes it."""
    theta = ace_twodoor(dist, pair)
    c, a, z, y, p = _positive_cells(dist)
    return fsum((evaluate_m(tag, c, a, z, y, eta, pair) - theta) ** 2 * p)


def _value_or_error(fn):
    try:
        return fn()
    except AceboundsError as exc:
        return type(exc), str(exc)


def _reference_joints():
    rng = np.random.default_rng(555)
    chain_rng = np.random.default_rng(556)
    positivity = np.full((2, 2, 2, 2), 1.0 / 12.0)
    positivity[0, 1] = 0.0  # treatment level 1 never occurs at c = 0
    return (
        [_wide_joint(seed) for seed in (101, 102, 103)]
        + [random_chain_dist(chain_rng) for _ in range(100)]
        + [random_confounded_mediator_dist(rng) for _ in range(100)]
        + [_null_level_joint(), _zero_mass_outcome_joint(), DiscreteJoint(BINARY, BINARY, BINARY, BINARY, positivity)]
        + _ordered_sum_joints()  # a wide joint, a null covariate level, zero-mass (c, a, z) cells, unsorted supports
    )


def test_oracles_match_an_enumeration_of_every_outcome_cell():
    joints = _reference_joints()
    errors = refused = 0
    for k, dist in enumerate(joints):
        truth = truth_nuisances(dist)
        etas = [None] + ([_perturbed(truth)] if k % 10 == 0 else [])  # None: the kept plan under the truth
        for eta, pair, tag in ((eta, pair, tag) for eta in etas for pair in PAIRS for tag in ALL_TAGS):
            case = (k, eta is None, pair, tag)
            want = _value_or_error(lambda: _enumerated_variance(dist, pair, tag, truth if eta is None else eta))
            got = _value_or_error(lambda: brute_force_variance(dist, pair, tag, eta))
            errors += isinstance(want, tuple)
            assert got == want if isinstance(want, tuple) else np.isclose(got, want, rtol=1e-12, atol=0.0), case
            want = _value_or_error(lambda: _enumerated_mean(dist, pair, tag, truth if eta is None else eta))
            got = _value_or_error(lambda: brute_force_mean(dist, pair, tag, eta))
            refused += want == (PositivityViolation, f"m of {tag} is not finite at every row")  # zero-mass (c, a, z) cells
            assert got == want if isinstance(want, tuple) else np.isclose(got, want, rtol=0.0, atol=1e-13), case
    assert len(joints) >= 200 and errors > 0 and refused == 12


def _affine_case(kind, seed):
    """Rows (c, a, z) and nuisances of one kind: truth or perturbed on the (c, a, z) cells of a joint, or fitted on rows."""
    rng = np.random.default_rng(seed)
    if kind in ("truth", "perturbed"):
        dist = (random_chain_dist if seed % 2 else random_confounded_mediator_dist)(rng)
        c, a, z, _, _ = _positive_cells(dist)
        eta = truth_nuisances(dist)
        return (c, a, z), eta if kind == "truth" else _perturbed(eta)
    if kind == "fitted-study":
        data = sample_dgp(STUDY_PARAMS, 150, seed)
        return (data.c, data.a, data.z), fit(data, setting_model_specs(seed % 5))
    c, a, z, y = _discrete_rows(seed, 240)
    return (c, a, z), fit(Dataset(c, a, z, y, PAIRS[seed % 2]), _discrete_specs())


@given(
    st.sampled_from(["truth", "perturbed", "fitted-study", "fitted-discrete"]),
    st.integers(min_value=0, max_value=2**16),
    st.floats(min_value=-50.0, max_value=50.0),
)
def test_m_is_affine_in_the_outcome(kind, seed, shift):
    # the oracles take E[(m - theta)^2 | c, a, z] from m at E(Y|c,a,z) and at one more (module docstring)
    (c, a, z), eta = _affine_case(kind, seed)
    y = shift + np.random.default_rng(seed).standard_normal(c.size)
    for pair in PAIRS:
        for tag in ALL_TAGS:
            m = [_value_or_error(lambda: evaluate_m(tag, c, a, z, y + k, eta, pair)) for k in range(3)]
            if isinstance(m[0], tuple):  # a refusal does not depend on y
                assert m[0] == m[1] == m[2], (tag, pair)
                continue
            scale = max(np.max(np.abs(v)) for v in m)
            assert np.max(np.abs(m[2] - 2.0 * m[1] + m[0])) <= 1e-12 * scale, (tag, pair)


def _zero_mass_joint(levels, outcome_free, seed):
    """A joint on `levels` values per variable with (c, a, z) cells of zero mass; z = 0 keeps p(a|c) > 0.

    When `outcome_free`, p(y|c, a, z) reads no treatment, so the comparisons, which require that, get past their check.
    """
    rng = np.random.default_rng(seed)
    p_caz = rng.random(levels[:3])
    p_caz[(rng.random(p_caz.shape) < rng.uniform(0.1, 0.6)) & (np.arange(levels[2]) > 0)] = 0.0
    p_y = rng.dirichlet(np.ones(levels[3]), size=(levels[0], 1 if outcome_free else levels[1], levels[2]))
    pmf = p_caz[..., None] * p_y
    return DiscreteJoint(*(np.arange(k, dtype=float) for k in levels), pmf / pmf.sum())


def _finite(value):
    """Every number in a result: an array, an estimate list, a bound report or a verdict."""
    if isinstance(value, list):
        return [x for r in value for x in (r.theta_hat, r.se_hat)]
    if hasattr(value, "cell_values"):
        return [*value.cell_values.values(), *value.extras.get("reciprocal_gaps", {}).values()]
    return getattr(value, "value", value)


@given(
    st.tuples(*(st.integers(2, 3),) * 4),
    st.booleans(),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from(PAIRS),
)
def test_no_entry_point_passes_a_non_finite_value_on_zero_mass_cells(levels, outcome_free, seed, pair):
    # each public entry point, on the joint and on empirical fits of a draw from it, answers finite numbers or raises
    dist = _zero_mass_joint(levels, outcome_free, seed)
    c, a, z, y, p = _positive_cells(dist)
    truth = truth_nuisances(dist)
    calls = [lambda: ace_twodoor(dist, pair), lambda: td_minus_bd_gap(dist, pair), lambda: td_vs_bd_verdict(dist, pair)]
    calls += [lambda: fd_vs_bd_verdict(dist, pair, (0.1, 0.2, 0.3))] + [lambda m=m: bound(dist, pair, m) for m in MODEL_TAGS]
    for tag in ALL_TAGS:
        calls += [lambda f=f, tag=tag: f(dist, pair, tag) for f in (brute_force_mean, brute_force_variance)]
        calls += [lambda tag=tag: evaluate_m(tag, c, a, z, y, truth, pair)]
    rows = np.random.default_rng(seed).choice(p.size, size=300, p=p / p.sum())
    draw = partial(Dataset, c[rows], a[rows], z[rows], y[rows], pair)
    specs = [ModelSpec(slot, "empirical", predictors=tuple(v for v in args if v != response)) for slot, (args, response, _) in influence.SLOTS.items()]
    for folds in (0, 3):
        calls += [lambda folds=folds, reduced=reduced: estimate_all(draw(), fit(draw(), specs, CrossFitPlan(folds, seed)), td_reduced=reduced) for reduced in (False, True)]
    calls += [lambda tag=tag: evaluate_m(tag, c[rows], a[rows], z[rows], y[rows], fit(draw(), specs), pair) for tag in ALL_TAGS]
    answered = 0
    for k, call in enumerate(calls):
        try:
            value = call()
        except AceboundsError:
            continue
        assert np.isfinite(np.asarray(_finite(value), dtype=float)).all(), k
        answered += 1
    assert answered > 0
