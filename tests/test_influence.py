from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import acebounds.influence as influence
from acebounds.bounds import SimDgpParams
from acebounds.dist import DiscreteJoint, TreatmentPair, ace_backdoor, ace_frontdoor, ace_twodoor
from acebounds.errors import DomainError, MissingNuisance, PositivityViolation
from acebounds.influence import (
    MODEL_TAGS,
    NuisanceSet,
    Observation,
    brute_force_mean,
    brute_force_variance,
    evaluate_m,
    level_index,
    m_bd,
    m_fd,
    truth_nuisances,
)
from acebounds.fitting import Dataset, ModelSpec, fit
from acebounds.quadrature import FiniteZRule
from acebounds.simlab import sample_dgp, setting_model_specs, simdgp_truth_nuisances

from conftest import PAIR, random_chain_dist

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
    x = Observation(c=1.0, a=2.0, z=1.0, y=1.0)
    contrast = float(eta.mean_y_ac(1.0, 1.0) - eta.mean_y_ac(0.0, 1.0))
    assert m_bd(x, eta, pair) == pytest.approx(contrast, abs=1e-12)
    assert brute_force_mean(dist, pair, "BD") == pytest.approx(ace_backdoor(dist, pair), abs=1e-10)


def test_bd_vanishing_outcome_gives_zero():
    eta = NuisanceSet(
        a_support=(0.0, 1.0),
        p_a_given_c=lambda a, c: 0.5 + 0.0 * np.asarray(c, dtype=float),
        mean_y_ac=lambda a, c: 0.0 * np.asarray(c, dtype=float),
    )
    x = Observation(c=0.0, a=1.0, z=0.0, y=0.0)
    assert m_bd(x, eta, TreatmentPair(1.0, 0.0)) == 0.0


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
    x = Observation(c=0.0, a=1.0, z=1.0, y=7.0)
    got = m_fd(x, flat, pair)
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
        m_bd(Observation(0.0, 1.0, 0.0, 0.0), eta, TreatmentPair(1.0, 0.0))


def test_truth_nuisances_components_match_tables():
    dist = _dist(41)
    eta = truth_nuisances(dist)
    assert float(eta.p_c(dist.c_support[1])) == pytest.approx(
        float(dist.table(("c",))[1]), abs=1e-15
    )
    cond = dist.conditional_table(("z",), {"a": 1.0, "c": 0.0})
    assert float(eta.p_z_given_ac(dist.z_support[1], 1.0, 0.0)) == pytest.approx(float(cond[1]), abs=1e-15)
    mean, _ = dist.cond_mean_var({"a": 1.0, "z": 0.0, "c": 1.0})
    assert float(eta.mean_y_azc(1.0, 0.0, 1.0)) == pytest.approx(mean, abs=1e-15)


def test_finite_rule_expectation_matches_direct_sum():
    dist = _dist(43)
    eta = truth_nuisances(dist)
    rule = FiniteZRule(dist.z_support)
    from acebounds.quadrature import expect_z

    got = expect_z(rule, eta.p_z_given_a, lambda z: z**2, 1.0)
    table = dist.conditional_table(("z",), {"a": 1.0})
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
    for c in (0.0, 1.0):
        for z in (0.5, -1.0, 3.0):
            want = dist.conditional_table(("z",), {"a": 1.0, "c": c})[dist.index_of("z", z)]
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
    # row through a alone; per (a, c) level it would cost n levels x 64 nodes x n covariate levels
    n = 300
    cols, eta = _continuous_c_fit(n)
    outcome = influence._MEDIATOR_MODELS[tag][1]
    counted = _CountingOutcome(getattr(eta, outcome))
    got = evaluate_m(tag, *cols, replace(eta, **{outcome: counted}), PAIR)
    assert counted.elements < 8 * n * n
    assert got.tobytes() == evaluate_m(tag, *cols, eta, PAIR).tobytes()


@pytest.mark.parametrize("tag", ["FD_TD", "BD_FD_TD"])
def test_marginal_weight_tags_refuse_an_oversized_pooled_outcome(tag):
    # the pooled outcome at the rows sums over every live covariate level: 2100 x 2100 elements exceed 2^22
    cols, eta = _continuous_c_fit(2100)
    with pytest.raises(DomainError, match="pooled outcome over 2100 covariate levels x 2100 rows"):
        evaluate_m(tag, *cols, eta, PAIR)


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


def test_evaluate_m_checks_a_given_level_index():
    (c, a, z, y), eta = _fitted_rows(0)
    levels = level_index(a, c, eta.a_support, eta.c_support)
    for tag in ALL_TAGS:
        got = evaluate_m(tag, c, a, z, y, eta, PAIR, levels=levels)
        assert np.array_equal(got, evaluate_m(tag, c, a, z, y, eta, PAIR)), tag
        with pytest.raises(DomainError, match="level index"):
            evaluate_m(tag, c[1:], a[1:], z[1:], y[1:], eta, PAIR, levels=levels)


def test_evaluate_m_rejects_a_level_index_of_other_rows_of_the_same_length():
    (c, a, z, y), eta = _fitted_rows(0)
    half = c.size // 2
    head, tail, back = slice(None, half), slice(half, 2 * half), slice(None, None, -1)
    other_fold = level_index(a[tail], c[tail], eta.a_support, eta.c_support)
    same_rows = level_index(a, c, eta.a_support, eta.c_support)
    assert not np.array_equal(np.stack([a[head], c[head]]), np.stack([a[tail], c[tail]]))
    assert not np.array_equal(np.stack([a, c]), np.stack([a[back], c[back]]))
    for tag in ALL_TAGS:
        with pytest.raises(DomainError, match="level index"):
            evaluate_m(tag, c[head], a[head], z[head], y[head], eta, PAIR, levels=other_fold)
        with pytest.raises(DomainError, match="level index"):
            evaluate_m(tag, c[back], a[back], z[back], y[back], eta, PAIR, levels=same_rows)
