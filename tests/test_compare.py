import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from acebounds.bounds import bound
from acebounds.cli import main
from acebounds.compare import (
    BINARY_EXAMPLE_BAND,
    RATIO_INTERVAL_CORE,
    binary_family_scan,
    default_scan_grid,
    density_ratio_interval,
    fd_vs_bd_verdict,
    td_minus_bd_gap,
    td_vs_bd_verdict,
)
from acebounds.dist import DiscreteJoint, chain_joint, factorized_joint
from acebounds.errors import AssumptionViolation, DomainError, PositivityViolation
from acebounds.special import expit

from conftest import BINARY, PAIR, binary_logit_dist, random_confounded_mediator_dist

probs = st.floats(min_value=0.01, max_value=0.99)


# -- density-ratio interval ---------------------------------------------------


def test_interval_at_half_is_three_minus_two_root_two():
    low, high = density_ratio_interval(0.5)
    assert low == pytest.approx(3 - 2 * math.sqrt(2), abs=1e-12)
    assert high == pytest.approx(3 + 2 * math.sqrt(2), abs=1e-12)


@given(probs)
def test_interval_endpoints_multiply_to_one(p_star):
    low, high = density_ratio_interval(p_star)
    assert low * high == pytest.approx(1.0, abs=1e-12)


@given(probs)
def test_interval_contains_core(p_star):
    low, high = density_ratio_interval(p_star)
    assert low < 1.0 < high
    assert low <= RATIO_INTERVAL_CORE[0] + 1e-12
    assert high >= RATIO_INTERVAL_CORE[1] - 1e-12


@given(probs)
def test_interval_symmetric_in_p(p_star):
    assert density_ratio_interval(p_star) == pytest.approx(density_ratio_interval(1.0 - p_star))


def test_interval_widens_towards_degenerate_propensities():
    low_mid, high_mid = density_ratio_interval(0.5)
    low_ext, high_ext = density_ratio_interval(0.01)
    assert low_ext < low_mid and high_ext > high_mid


def test_interval_domain_error():
    for bad in (0.0, 1.0, -0.2, 1.3):
        with pytest.raises(DomainError):
            density_ratio_interval(bad)


# -- exact TD-vs-BD gap --------------------------------------------------------


def test_gap_matches_bound_difference():
    rng = np.random.default_rng(2718)
    for _ in range(10):
        dist = random_confounded_mediator_dist(rng)
        gap = td_minus_bd_gap(dist, PAIR)
        assert gap == pytest.approx(bound(dist, PAIR, "TD").value - bound(dist, PAIR, "BD").value, abs=1e-9)


def test_gap_negative_when_mediator_ignores_treatment():
    # p(z|a,c) free of a makes each cell term strictly negative
    dist = factorized_joint(
        BINARY,
        BINARY,
        BINARY,
        BINARY,
        lambda c: 0.5,
        lambda a, c: (0.3 + 0.4 * c) if a == 1 else 0.7 - 0.4 * c,
        lambda z, a, c: (0.35 + 0.3 * c) if z == 1 else 0.65 - 0.3 * c,
        lambda y, z, c: (0.25 + 0.3 * z + 0.2 * c) if y == 1 else 0.75 - 0.3 * z - 0.2 * c,
    )
    verdict = td_vs_bd_verdict(dist, PAIR)
    assert verdict.holds_everywhere
    assert verdict.ordering == "<="
    assert td_minus_bd_gap(dist, PAIR) < 0


def test_gap_requires_treatment_free_outcome_law():
    pmf = np.zeros((2, 2, 2, 2))
    # outcome law depends on treatment: p(y=1|a=1,..) = .9 vs .1 otherwise
    for ic in range(2):
        for ia in range(2):
            for iz in range(2):
                p_y1 = 0.9 if ia == 1 else 0.1
                pmf[ic, ia, iz, 1] = 0.125 * p_y1
                pmf[ic, ia, iz, 0] = 0.125 * (1 - p_y1)
    dist = DiscreteJoint(BINARY, BINARY, BINARY, BINARY, pmf)
    with pytest.raises(AssumptionViolation):
        td_minus_bd_gap(dist, PAIR)


def test_verdict_sign_agreement_when_conclusive():
    rng = np.random.default_rng(31415)
    conclusive = 0
    for _ in range(40):
        dist = random_confounded_mediator_dist(rng)
        verdict = td_vs_bd_verdict(dist, PAIR)
        gap = td_minus_bd_gap(dist, PAIR)
        if verdict.ordering == "<=":
            conclusive += 1
            assert gap <= 1e-12
        elif verdict.ordering == ">":
            conclusive += 1
            assert gap > 0
    assert conclusive > 0  # the family does produce conclusive cases


def test_verdict_mixed_signs_inconclusive():
    # strong mediator shift at c=0 (term > 0), no shift at c=1 (term < 0)
    dist = factorized_joint(
        BINARY,
        BINARY,
        BINARY,
        BINARY,
        lambda c: 0.5,
        lambda a, c: 0.5,
        lambda z, a, c: ((0.95 if a == 1 else 0.05) if c == 0 else 0.5) if z == 1 else ((0.05 if a == 1 else 0.95) if c == 0 else 0.5),
        lambda y, z, c: (0.3 + 0.4 * z) if y == 1 else 0.7 - 0.4 * z,
    )
    verdict = td_vs_bd_verdict(dist, PAIR)
    assert verdict.ordering == "inconclusive"
    assert not verdict.holds_everywhere and not verdict.holds_nowhere


def test_comparisons_refuse_when_no_cell_qualifies():
    # Z = A: p(z|a,c) is zero at one treatment level in every (z, c) cell, so
    # the TD bound is undefined and no verdict or gap may come back vacuous
    dist = factorized_joint(
        BINARY,
        BINARY,
        BINARY,
        BINARY,
        lambda c: 0.5,
        lambda a, c: 0.5,
        lambda z, a, c: float(z == a),
        lambda y, z, c: (0.2 + 0.3 * z + 0.1 * c) if y == 1 else 0.8 - 0.3 * z - 0.1 * c,
    )
    with pytest.raises(PositivityViolation):
        bound(dist, PAIR, "TD")
    with pytest.raises(PositivityViolation):
        td_minus_bd_gap(dist, PAIR)
    with pytest.raises(PositivityViolation):
        td_vs_bd_verdict(dist, PAIR)
    with pytest.raises(PositivityViolation):
        fd_vs_bd_verdict(dist, PAIR, (0.2, 0.3, 0.1))


@pytest.mark.parametrize("empty_c", [0, 1])
def test_comparisons_refuse_a_live_stratum_without_a_treatment_level(empty_c):
    # p(A=1 | C=empty_c) = 0 on a covariate level of mass 1/2: both bounds are
    # undefined there, so the gap and the verdicts raise as bound does, instead
    # of dropping the stratum (or, for the reciprocal gaps, returning -inf)
    dist = factorized_joint(
        BINARY,
        BINARY,
        BINARY,
        BINARY,
        lambda c: 0.5,
        lambda a, c: (0.0 if c == empty_c else 0.6) if a == 1 else (1.0 if c == empty_c else 0.4),
        lambda z, a, c: (0.3 + 0.4 * a) if z == 1 else 0.7 - 0.4 * a,
        lambda y, z, c: (0.2 + 0.3 * z + 0.1 * c) if y == 1 else 0.8 - 0.3 * z - 0.1 * c,
    )
    message = "p(a|c) has entries below 1e-12"
    with pytest.raises(PositivityViolation, match=re.escape(message)):
        bound(dist, PAIR, "TD")
    with pytest.raises(PositivityViolation, match=re.escape(message)):
        td_minus_bd_gap(dist, PAIR)
    with pytest.raises(PositivityViolation, match=re.escape(message)):
        td_vs_bd_verdict(dist, PAIR)
    with pytest.raises(PositivityViolation, match=re.escape(message)):
        fd_vs_bd_verdict(dist, PAIR, (0.2, 0.3, 0.1))


def test_cells_with_a_zero_mediator_mass_do_not_qualify():
    # p(Z=1 | A=1, C=0) = 0 with every propensity positive: the (z=1, c=0)
    # cell drops out of the comparison, the others stay
    dist = factorized_joint(
        BINARY,
        BINARY,
        BINARY,
        BINARY,
        lambda c: 0.5,
        lambda a, c: 0.4 if a == 1 else 0.6,
        lambda z, a, c: (0.0 if (a, c) == (1, 0) else 0.3 + 0.4 * a) * (z == 1)
        + (1.0 if (a, c) == (1, 0) else 0.7 - 0.4 * a) * (z == 0),
        lambda y, z, c: (0.2 + 0.3 * z + 0.1 * c) if y == 1 else 0.8 - 0.3 * z - 0.1 * c,
    )
    verdict = td_vs_bd_verdict(dist, PAIR)
    assert sorted(verdict.cell_values) == [(0.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
    assert all(math.isfinite(v) for v in verdict.cell_values.values())
    assert math.isfinite(td_minus_bd_gap(dist, PAIR))


def test_fd_vs_bd_rejects_a_wrong_coefficient_count():
    with pytest.raises(DomainError, match="got 2 values"):
        fd_vs_bd_verdict(_linear_outcome_dist((0.4, 0.6)), PAIR, (0.2, 0.25))


# -- FD-vs-BD sufficient conditions --------------------------------------------


def _linear_outcome_dist(pa1_by_c, g0=0.2, g1=0.25, g2=0.25):
    return factorized_joint(
        BINARY,
        BINARY,
        BINARY,
        BINARY,
        lambda c: 0.5,
        lambda a, c: pa1_by_c[int(c)] if a == 1 else 1 - pa1_by_c[int(c)],
        lambda z, a, c: (0.3 + 0.4 * a) if z == 1 else 0.7 - 0.4 * a,
        lambda y, z, c: (g0 + g1 * z + g2 * c) if y == 1 else 1 - (g0 + g1 * z + g2 * c),
    )


def test_fd_vs_bd_single_covariate_level_fails():
    # one covariate level: the harmonic-mean inequality is an equality
    pmf = np.zeros((1, 2, 2, 2))
    for ia, pa in enumerate((0.6, 0.4)):
        for iz, pz in enumerate(((0.7, 0.3), (0.4, 0.6))[ia]):
            for iy in range(2):
                p_y1 = 0.2 + 0.5 * iz
                pmf[0, ia, iz, iy] = pa * pz * (p_y1 if iy == 1 else 1 - p_y1)
    dist = DiscreteJoint([0.0], BINARY, BINARY, BINARY, pmf)
    verdict = fd_vs_bd_verdict(dist, PAIR, (0.2, 0.5, 0.0))
    assert not verdict.extras["reciprocal_holds"]
    gaps = verdict.extras["reciprocal_gaps"]
    assert gaps["a_star"] == pytest.approx(0.0, abs=1e-12)
    assert gaps["a_ref"] == pytest.approx(0.0, abs=1e-12)


def test_fd_vs_bd_binary_covariate_never_holds():
    # (0.19, 0.19): p(a|c) is c-free, so the gaps are exactly 0 and round to a few 1e-16
    for pa in ((0.3, 0.7), (0.5, 0.5), (0.8, 0.35), (0.19, 0.19)):
        verdict = fd_vs_bd_verdict(_linear_outcome_dist(pa), PAIR, (0.2, 0.25, 0.25))
        assert not verdict.extras["reciprocal_holds"]
        assert verdict.ordering == "inconclusive"


def test_fd_vs_bd_unconfounded_chain_is_inconclusive():
    # p(a|c) is c-free and every cell condition holds: only the reciprocal gaps,
    # 0 up to round-off, stand between this joint and a conclusive ">"
    pc1, pa1, pz1 = 0.17063752752244826, 0.4128016878024163, (0.010969306793131333, 0.9628533536816506)
    dist = chain_joint(
        BINARY,
        BINARY,
        BINARY,
        BINARY,
        lambda c: pc1 if c == 1 else 1 - pc1,
        lambda a, c: pa1 if a == 1 else 1 - pa1,
        lambda z, a: pz1[int(a)] if z == 1 else 1 - pz1[int(a)],
        lambda y, z, c: 0.5,
    )
    verdict = fd_vs_bd_verdict(dist, PAIR, (0.5, 0.0, 0.0))
    assert verdict.extras["cells_positive"]
    assert not verdict.extras["reciprocal_holds"]
    assert verdict.ordering == "inconclusive"


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_reciprocal_gap_never_positive(seed):
    # harmonic-mean inequality: 1/p(a) <= sum_c p(c)/p(a|c) on any distribution
    rng = np.random.default_rng(seed)
    dist = random_confounded_mediator_dist(rng)
    t = dist._cache()
    for ia in range(2):
        lhs = 1.0 / t["pa"][ia]
        rhs = float(np.sum(t["pc"] / t["p_a_given_c"][:, ia]))
        assert lhs <= rhs + 1e-12


def test_fd_vs_bd_rejects_nonlinear_outcome():
    dist = binary_logit_dist(0.3, 1.0, 1.0, 1.0, 1.0)  # logistic outcome law
    with pytest.raises(AssumptionViolation):
        fd_vs_bd_verdict(dist, PAIR, (0.0, 1.0, 1.0))


def test_fd_vs_bd_violation_message_prints_plain_floats():
    dist = binary_logit_dist(0.3, 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(AssumptionViolation) as info:
        fd_vs_bd_verdict(dist, PAIR, (0.0, 1.0, 1.0))
    message = str(info.value)
    assert "np.float64" not in message
    assert message == "E(Y|z=0.0, c=0.0) = 0.5 is not the stated linear function (0.0)"


# -- the all-binary example family scan ----------------------------------------


def test_example_band_endpoints():
    low, high = BINARY_EXAMPLE_BAND
    assert low == pytest.approx(0.0858, abs=5e-5)
    assert high == pytest.approx(0.9142, abs=5e-5)


def test_scan_matches_exact_gap_on_sampled_points():
    grid = {
        "beta0": np.array([0.1, 0.9]),
        "alpha": np.array([-2.0, 0.0, 3.0]),
        "beta": np.array([-1.0, 0.4, 2.2]),
        "gamma1": np.array([-1.0, 2.0]),
        "gamma2": np.array([0.5]),
    }
    rows = binary_family_scan(grid)
    assert rows.shape[0] == 2 * 3 * 3 * 2
    for row in rows:
        dist = binary_logit_dist(row["beta0"], row["alpha"], row["beta"], row["gamma1"], row["gamma2"])
        assert row["diff"] == pytest.approx(td_minus_bd_gap(dist, PAIR), abs=1e-10)
        member = BINARY_EXAMPLE_BAND[0] <= float(expit(row["beta"])) <= BINARY_EXAMPLE_BAND[1]
        assert bool(row["interval_member"]) == member


def test_scan_band_implies_nonpositive_gap_small_grid():
    grid = {
        "beta0": np.array([0.1, 0.6]),
        "alpha": np.arange(-4.0, 4.5, 2.0),
        "beta": np.arange(-4.0, 4.2, 0.4),
        "gamma1": np.arange(-4.0, 4.5, 2.0),
        "gamma2": np.arange(-4.0, 4.5, 2.0),
    }
    rows = binary_family_scan(grid)
    inside = rows[rows["interval_member"]]
    assert inside.shape[0] > 0
    assert np.all(inside["diff"] <= 1e-10)


def test_scan_spot_values_via_bounds():
    # three fixed grid points checked against the exact bound difference
    for point in ((0.3, 1.0, 1.0, 1.0, 1.0), (0.1, -2.0, 3.0, 2.0, -1.0), (0.9, 0.0, -3.0, -2.0, 4.0)):
        dist = binary_logit_dist(*point)
        gap = td_minus_bd_gap(dist, PAIR)
        assert gap == pytest.approx(bound(dist, PAIR, "TD").value - bound(dist, PAIR, "BD").value, abs=1e-10)


def test_scan_csv_layout(capsys):
    grid = ["--set", "beta0=0.1", "--set", "alpha=1", "--set", "beta=0,1", "--set", "gamma1=1", "--set", "gamma2=1"]
    assert main(["compare", "--scan", *grid]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "beta0,alpha,beta,gamma1,gamma2,diff,interval_member"
    assert len(lines) == 3


def test_scan_csv_golden_bytes(capsys):
    grid = ["--set", "beta0=0.1", "--set", "alpha=1", "--set", "beta=0,4", "--set", "gamma1=1", "--set", "gamma2=-1"]
    assert main(["compare", "--scan", *grid]) == 0
    assert capsys.readouterr().out == (
        "beta0,alpha,beta,gamma1,gamma2,diff,interval_member\n"
        "0.1,1,0,1,-1,-1.02056,1\n"
        "0.1,1,4,1,-1,0.839492,0\n"
    )


def test_default_grid_shape():
    grid = default_scan_grid()
    assert grid["beta0"].size == 4
    assert grid["alpha"].size == 9
    assert grid["beta"].size == 41
    assert grid["gamma1"].size == 9 and grid["gamma2"].size == 9
