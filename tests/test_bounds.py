import json
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from acebounds.bounds import (
    MODELS,
    BoundReport,
    SimDgpParams,
    bound,
    simdgp_bound,
    simdgp_theta,
)
from acebounds.compare import td_minus_bd_gap
from acebounds.dist import DiscreteJoint, TreatmentPair, ace_backdoor, ace_frontdoor, ace_twodoor
from acebounds.errors import DomainError, PositivityViolation
from acebounds.influence import brute_force_variance
from acebounds.special import expit

from conftest import BINARY, PAIR, random_chain_dist, random_confounded_mediator_dist


def test_constant_outcome_all_bounds_zero(pair):
    pmf = np.zeros((2, 2, 2, 2))
    pmf[:, :, :, 0] = 1.0 / 8.0
    dist = DiscreteJoint(BINARY, BINARY, BINARY, BINARY, pmf)
    for model in MODELS:
        assert bound(dist, pair, model).value == pytest.approx(0.0, abs=1e-12)


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_bounds_match_enumeration_oracle(seed):
    dist = random_chain_dist(np.random.default_rng(seed))
    for model in MODELS:
        exact = bound(dist, PAIR, model).value
        enum = brute_force_variance(dist, PAIR, model)
        assert exact == pytest.approx(enum, abs=1e-9)


@pytest.mark.parametrize("pair", [PAIR, TreatmentPair(0.0, 1.0)], ids=["1-0", "0-1"])
def test_stratified_bounds_match_oracle_when_the_mediator_reads_c(pair):
    # p(z|a,c) depends on c: the strata of TD and BD_TD, and BD's outcome on (a, c), meet a mediator law per stratum
    rng = np.random.default_rng(2024)
    for _ in range(25):
        dist = random_confounded_mediator_dist(rng)
        for model in ("BD", "TD", "BD_TD"):
            assert bound(dist, pair, model).value == pytest.approx(brute_force_variance(dist, pair, model), abs=1e-9), model


def _binary_treatment_joint(rng):
    pc = rng.dirichlet(np.ones(3))
    pa1 = rng.uniform(0.25, 0.75, size=3)  # p(A=1 | c), by covariate level
    pz = rng.dirichlet(np.ones(3) * 3, size=2)  # p(z | a), rows by treatment
    py = rng.dirichlet(np.ones(3) * 2, size=(3, 3))  # p(y | z, c)
    return pc, lambda a, c: pa1[int(c)] if a == 1 else 1 - pa1[int(c)], [0.0, 1.0], pz, py, PAIR


def _three_arm_joint_with_dead_covariate(rng):
    # covariate level 1 has no mass, so its cached conditionals are undefined;
    # the compared arms are 2 and 0, neither of them the first two indices
    pc = rng.dirichlet(np.ones(3)) * [1.0, 0.0, 1.0]
    pa = rng.dirichlet(np.ones(3) * 4, size=3)  # p(a | c), rows by covariate level
    pz = rng.dirichlet(np.ones(3) * 3, size=3)  # p(z | a), rows by treatment
    py = rng.dirichlet(np.ones(3) * 2, size=(3, 3))  # p(y | z, c)
    return pc / pc.sum(), lambda a, c: pa[int(c), int(a)], [0.0, 1.0, 2.0], pz, py, TreatmentPair(2.0, 0.0)


@pytest.mark.parametrize(
    "draw", [_binary_treatment_joint, _three_arm_joint_with_dead_covariate], ids=["binary-a", "three-a-dead-c"]
)
def test_bounds_match_oracle_on_wider_supports(draw):
    # three covariate levels, three mediator levels, three outcome values:
    # nothing in the engines may assume binary supports
    pc, p_a_given_c, a_sup, pz, py, pair = draw(np.random.default_rng(1234))
    c_sup, z_sup = [0.0, 1.0, 2.0], [-1.0, 0.0, 1.0]
    y_sup = [-1.0, 0.5, 2.0]
    from acebounds.dist import factorized_joint

    dist = factorized_joint(
        c_sup,
        a_sup,
        z_sup,
        y_sup,
        lambda c: pc[int(c)],
        p_a_given_c,
        lambda z, a, c: pz[int(a), z_sup.index(z)],
        lambda y, z, c: py[z_sup.index(z), int(c), y_sup.index(y)],
    )
    for model in MODELS:
        exact = bound(dist, pair, model).value
        enum = brute_force_variance(dist, pair, model)
        assert exact == pytest.approx(enum, abs=1e-9), model


def test_td_equals_bd_plus_gap_on_compatible_dists():
    rng = np.random.default_rng(99)
    for _ in range(6):
        dist = random_confounded_mediator_dist(rng)
        gap = td_minus_bd_gap(dist, PAIR)
        assert bound(dist, PAIR, "TD").value - bound(dist, PAIR, "BD").value == pytest.approx(gap, abs=1e-9)


def test_bound_orderings(chain_dists):
    for dist in chain_dists:
        v = {model: bound(dist, PAIR, model).value for model in MODELS}
        assert v["BD_TD"] <= min(v["BD"], v["TD"]) + 1e-12
        assert v["FD_TD"] <= v["FD"] + 1e-12
        assert v["BD_FD_TD"] <= min(v.values()) + 1e-12


def test_positivity_violation_in_bounds(pair):
    pmf = np.zeros((2, 2, 2, 2))
    pmf[:, :, 1] = 1.0 / 8.0  # mediator never 0
    dist = DiscreteJoint(BINARY, BINARY, BINARY, BINARY, pmf)
    with pytest.raises(PositivityViolation):
        bound(dist, pair, "TD")


# one propensity or mediator mass within a few ulps of the positivity threshold 1e-12, or subnormal
NEAR_ZERO = st.one_of(st.integers(-4, 4).map(lambda k: 1e-12 * (1.0 + k * 2.0**-52)), st.floats(1e-320, 1e-300))


@given(
    levels=st.tuples(*(st.integers(2, 3),) * 4),
    chain=st.booleans(),
    propensity=st.booleans(),
    tiny=NEAR_ZERO,
    seed=st.integers(0, 2**32 - 1),
)
@example(levels=(2, 3, 2, 2), chain=False, propensity=False, tiny=1e-12 * (1.0 + 2.0**-51), seed=84941)  # FD negative
def test_near_positivity_gives_a_finite_value_or_a_typed_refusal(levels, chain, propensity, tiny, seed):
    rng = np.random.default_rng(seed)
    nc, na, nz, ny = levels
    p_c = rng.dirichlet(np.ones(nc))
    p_a = rng.dirichlet(np.ones(na), size=nc)  # [c, a]
    p_z = rng.dirichlet(np.ones(nz), size=(1 if chain else nc, na))  # [c, a, z]: a chain's mediator law is covariate-free
    p_y = rng.dirichlet(np.ones(ny), size=(nc, nz))  # [c, z, y]
    row = p_a[rng.integers(nc)] if propensity else p_z[rng.integers(p_z.shape[0]), rng.integers(na)]
    k = rng.integers(row.size)
    row[np.arange(row.size) != k] *= (1.0 - tiny) / (row.sum() - row[k])
    row[k] = tiny
    pmf = p_c[:, None, None, None] * p_a[:, :, None, None] * p_z[..., None] * p_y[:, None]
    dist = DiscreteJoint(*(np.arange(n, dtype=float) for n in levels), pmf / pmf.sum())
    calls = {f.__name__: lambda f=f: f(dist, PAIR) for f in (ace_backdoor, ace_frontdoor, ace_twodoor, td_minus_bd_gap)}
    calls.update({m: lambda m=m: bound(dist, PAIR, m).value for m in MODELS})
    calls.update({f"oracle {m}": lambda m=m: brute_force_variance(dist, PAIR, m) for m in MODELS})
    for name, call in calls.items():
        try:
            assert math.isfinite(call()), name
        except PositivityViolation:
            pass
        except DomainError as exc:
            # a mediator law that depends on the covariate breaks the front-door restriction, and the
            # front-door formulas, centred on the two-door theta, can then go negative
            assert not chain and name in ("FD", "FD_TD", "BD_FD_TD") and "is negative" in str(exc), name


def test_simdgp_family_refuses_what_has_no_finite_bound(pair):
    # expit(800) is exactly 1.0, so p(A=0|C=1) = 0
    with pytest.raises(PositivityViolation, match=r"p\(a\|c\) has entries below 1e-12"):
        SimDgpParams(alpha=800.0, beta=1.0, gamma1=1.0, gamma2=1.0)
    huge = SimDgpParams(alpha=1.0, beta=30.0, gamma1=1.0, gamma2=1.0)  # exp(900) overflows
    for model in ("FD", "TD"):
        with pytest.raises(DomainError, match="too large"):
            simdgp_bound(huge, pair, model)
    for value in (math.inf, math.nan):
        with pytest.raises(DomainError, match="not finite"):
            BoundReport("BD", value, "closed-form", pair)


def test_bound_report_serialization(chain_dists, pair):
    report = bound(chain_dists[0], pair, "BD")
    payload = json.loads(json.dumps(report.to_dict()))
    assert payload["model"] == "BD"
    assert payload["method"] == "exact-sum"
    assert payload["a_star"] == 1.0 and payload["a_ref"] == 0.0
    assert payload["value"] >= 0


REFERENCE = {
    (0.5, 0.5, 0.5): {"BD": 5.68, "FD": 1.36, "TD": 1.42, "BD_TD": 1.38, "FD_TD": 1.34, "BD_FD_TD": 1.30},
    (1.5, 0.5, 1.5): {"BD": 5.68, "FD": 14.05, "TD": 9.62, "BD_TD": 2.78, "FD_TD": 9.54, "BD_FD_TD": 2.70},
    (1.5, 1.5, 0.5): {"BD": 14.77, "FD": 18.50, "TD": 18.71, "BD_TD": 11.86, "FD_TD": 18.00, "BD_FD_TD": 11.15},
}


@pytest.mark.parametrize("combo", sorted(REFERENCE))
def test_simdgp_reference_values(combo, pair):
    beta, g1, g2 = combo
    params = SimDgpParams(alpha=1.0, beta=beta, gamma1=g1, gamma2=g2)
    refs = REFERENCE[combo]
    assert simdgp_bound(params, pair, "BD").value == pytest.approx(refs["BD"], abs=0.01)
    assert simdgp_bound(params, pair, "FD").value == pytest.approx(refs["FD"], abs=0.01)
    assert simdgp_bound(params, pair, "TD").value == pytest.approx(refs["TD"], abs=0.01)
    for model in ("BD_TD", "FD_TD", "BD_FD_TD"):
        assert simdgp_bound(params, pair, model).value == pytest.approx(refs[model], abs=0.02)


def test_simdgp_bd_without_mediator_effect(pair):
    # gamma1 = 0 leaves only the unit outcome variance over the propensity weights
    alpha = 1.3
    params = SimDgpParams(alpha=alpha, beta=0.7, gamma1=0.0, gamma2=0.9)
    e = float(expit(alpha))
    assert simdgp_bound(params, pair, "BD").value == pytest.approx(2.0 + 0.5 / e + 0.5 / (1 - e), abs=1e-12)


def test_simdgp_fd_collapses_without_outcome_effects(pair):
    params = SimDgpParams(alpha=1.0, beta=0.8, gamma1=0.0, gamma2=0.0)
    assert simdgp_bound(params, pair, "FD").value == pytest.approx(math.expm1(0.8**2), abs=1e-12)


def test_simdgp_td_bd_crossing_near_one_point_three():
    # the TD and BD bounds cross where exp((beta/sigma_z)^2) - 1 = S = sum_c p(c) [1/p(A=1|c) + 1/p(A=0|c)]
    params = SimDgpParams(alpha=1.0, beta=1.0, gamma1=1.0, gamma2=1.0)
    pa1 = params.p_a1_given_c()
    crossing = params.sigma_z * math.sqrt(math.log1p(float(np.dot(params.p_c_vec(), 1.0 / pa1 + 1.0 / (1.0 - pa1)))))
    assert crossing == pytest.approx(1.3, abs=0.01)
    below = SimDgpParams(alpha=1.0, beta=crossing - 0.05, gamma1=1.0, gamma2=1.0)
    above = SimDgpParams(alpha=1.0, beta=crossing + 0.05, gamma1=1.0, gamma2=1.0)
    assert simdgp_bound(below, PAIR, "TD").value < simdgp_bound(below, PAIR, "BD").value
    assert simdgp_bound(above, PAIR, "TD").value > simdgp_bound(above, PAIR, "BD").value


def test_combo_quadrature_stable_under_node_doubling(pair):
    # beta = 5.5 separates the mediator laws by 5.5 sd: the mixture term stays bounded there
    for params in (
        SimDgpParams(alpha=1.0, beta=1.5, gamma1=1.5, gamma2=0.5),
        SimDgpParams(alpha=1.0, beta=5.5, gamma1=1.0, gamma2=1.0),
    ):
        for model in ("BD_TD", "FD_TD", "BD_FD_TD"):
            v64 = simdgp_bound(params, pair, model, n_nodes=64).value
            v128 = simdgp_bound(params, pair, model, n_nodes=128).value
            assert abs(v64 - v128) < 1e-4


def test_gauss_hermite_rule_is_built_once_per_node_count(monkeypatch):
    from acebounds import quadrature

    built, hermgauss = [], np.polynomial.hermite.hermgauss
    monkeypatch.setattr(np.polynomial.hermite, "hermgauss", lambda n: built.append(n) or hermgauss(n))
    quadrature._gauss_hermite.cache_clear()
    first, second = quadrature.GaussHermiteZRule(64), quadrature.GaussHermiteZRule(64)
    assert built == [64]
    assert first._x is second._x and first._w is second._w
    for arr in (first._x, first._w):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0
    cached = quadrature._gauss_hermite.cache_info().currsize
    for _ in range(2):  # a refusal is raised each time and never cached
        with pytest.raises(DomainError, match="256-node limit"):
            quadrature.GaussHermiteZRule(quadrature._MAX_GH_NODES + 1)
    assert quadrature._gauss_hermite.cache_info().currsize == cached and built == [64]


def test_combo_rejects_low_order(pair):
    params = SimDgpParams(alpha=1.0, beta=0.5, gamma1=0.5, gamma2=0.5)
    with pytest.raises(DomainError):
        simdgp_bound(params, pair, "BD_TD", n_nodes=32)


def test_combo_flags_unstable_quadrature(pair):
    # p(A=0|C=1) = expit(-10) with a 5.5 sd mediator separation: the mixture ratio steps
    # from about -1/p(A=0|C=1) to 1 between nodes, and the node-doubling check must
    # refuse to return a value
    from acebounds.errors import QuadratureNonConvergence

    params = SimDgpParams(alpha=10.0, beta=5.5, gamma1=1.0, gamma2=1.0)
    with pytest.raises(QuadratureNonConvergence):
        simdgp_bound(params, pair, "BD_TD")


def test_triple_bound_smallest_across_parameters(pair):
    rng = np.random.default_rng(7)
    draws = []
    for _ in range(10):
        params = SimDgpParams(
            alpha=rng.uniform(-2, 2),
            beta=rng.uniform(-1.8, 1.8),
            gamma1=rng.uniform(-2, 2),
            gamma2=rng.uniform(-2, 2),
        )
        draws.append(params)
    for _ in range(20):
        # 3 < |beta/sigma_z| <= 5: the mediator laws barely overlap
        sigma_z = rng.uniform(0.5, 2.0)
        draws.append(
            SimDgpParams(
                alpha=rng.uniform(-2, 2),
                beta=rng.choice([-1, 1]) * rng.uniform(3.0, 5.0) * sigma_z,
                gamma1=rng.uniform(-2, 2),
                gamma2=rng.uniform(-2, 2),
                sigma_z=sigma_z,
                sigma_y=rng.uniform(0.5, 2.0),
                p_c=rng.uniform(0.1, 0.9),
            )
        )
    for params in draws:
        vals = {m: simdgp_bound(params, pair, m).value for m in MODELS}
        assert vals["BD_FD_TD"] <= min(vals.values()) + 1e-6
        assert vals["BD_TD"] <= min(vals["BD"], vals["TD"]) + 1e-6
        assert vals["FD_TD"] <= vals["FD"] + 1e-6


def test_simdgp_theta_identity(pair):
    params = SimDgpParams(alpha=1.0, beta=1.5, gamma1=0.5, gamma2=0.7)
    assert simdgp_theta(params, pair) == pytest.approx(0.75, abs=1e-15)
    flipped = TreatmentPair(0.0, 1.0)
    assert simdgp_theta(params, flipped) == pytest.approx(-0.75, abs=1e-15)


def test_simdgp_rejects_nonbinary_pair():
    params = SimDgpParams(alpha=1.0, beta=0.5, gamma1=0.5, gamma2=0.5)
    with pytest.raises(DomainError):
        simdgp_bound(params, TreatmentPair(2.0, 0.0), "BD")


def _continuous_eif_variance(params, tag, nodes=160, trim=5.0):
    """E[(m - theta)^2] on the Gaussian-mediator family with exact nuisances.

    m is linear in y, so the inner Gaussian outcome integral is analytic; the
    mediator integral uses Gauss-Hermite nodes with negligible-weight tails
    trimmed (they would otherwise trip the positivity guard on own-arm
    densities around 1e-12).
    """
    from acebounds.influence import evaluate_m
    from acebounds.simlab import simdgp_truth_nuisances

    eta = simdgp_truth_nuisances(params)
    theta = simdgp_theta(params, PAIR)
    x, w = np.polynomial.hermite.hermgauss(nodes)
    w = w / math.sqrt(math.pi)
    keep = np.abs(x) <= trim
    x, w = x[keep], w[keep]
    total = 0.0
    for c in (0.0, 1.0):
        w_c = params.p_c if c == 1 else 1 - params.p_c
        for a in (0.0, 1.0):
            prop = float(expit(params.alpha * c))
            p_ca = w_c * (prop if a == 1 else 1 - prop)
            z = params.beta * a + math.sqrt(2.0) * params.sigma_z * x
            mu = params.gamma1 * z + params.gamma2 * c
            cv, av = np.full_like(z, c), np.full_like(z, a)
            at_mean = evaluate_m(tag, cv, av, z, mu, eta, PAIR)
            shifted = evaluate_m(tag, cv, av, z, mu + 1.0, eta, PAIR)
            square = (shifted - at_mean) ** 2 * params.sigma_y**2 + (at_mean - theta) ** 2
            total += p_ca * float(square @ w)
    return total


@pytest.mark.parametrize(
    "params",
    [
        SimDgpParams(alpha=1.0, beta=0.5, gamma1=0.5, gamma2=0.5),
        SimDgpParams(alpha=1.0, beta=1.5, gamma1=1.5, gamma2=1.5),
        SimDgpParams(alpha=-0.7, beta=1.1, gamma1=0.8, gamma2=1.3, sigma_z=1.3, sigma_y=0.8, p_c=0.3),
    ],
)
def test_continuous_family_variance_oracle(params, pair):
    # dual route on the continuous family: closed forms / quadrature combos
    # against direct integration of the squared estimating functions
    for model in MODELS:
        closed = simdgp_bound(params, pair, model).value
        oracle = _continuous_eif_variance(params, model)
        assert abs(closed - oracle) <= 1e-4 * (1.0 + closed), model
