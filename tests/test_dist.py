import io
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from acebounds.dist import (
    DiscreteJoint,
    TreatmentPair,
    ace_backdoor,
    ace_frontdoor,
    ace_twodoor,
    cond_mean_var,
    conditional,
    marginal,
    read_dist_csv,
    write_dist_csv,
    write_text,
)
from acebounds.errors import DomainError, PositivityViolation, ZeroConditioningEvent
from acebounds.special import expit

from conftest import BINARY, binary_logit_dist, random_chain_dist, uniform_joint

probs = st.floats(min_value=0.15, max_value=0.85)


def test_treatment_pair_rejects_equal_levels():
    with pytest.raises(DomainError):
        TreatmentPair(1.0, 1.0)


def test_pmf_must_sum_to_one():
    pmf = np.full((2, 2, 2, 2), 1.0 / 16.0)
    pmf[0, 0, 0, 0] += 1e-6
    with pytest.raises(DomainError):
        DiscreteJoint(BINARY, BINARY, BINARY, BINARY, pmf)


def test_pmf_must_be_nonnegative():
    pmf = np.full((2, 2, 2, 2), 1.0 / 16.0)
    pmf[0, 0, 0, 0] = -1.0 / 16.0
    pmf[1, 1, 1, 1] = 3.0 / 16.0
    with pytest.raises(DomainError):
        DiscreteJoint(BINARY, BINARY, BINARY, BINARY, pmf)


def test_marginal_uniform_treatment(uniform_dist):
    table = marginal(uniform_dist, ("a",))
    assert table == pytest.approx([0.5, 0.5], abs=1e-15)


def test_marginal_full_set_is_identity(uniform_dist):
    table = marginal(uniform_dist, ("c", "a", "z", "y"))
    assert np.array_equal(table, uniform_dist.pmf)


def test_marginal_example_family_alpha_zero():
    # with a flat treatment logit, hand summation over c gives p(A=1) = 1/2
    dist = binary_logit_dist(0.3, 0.0, 1.0, 1.0, 1.0)
    assert marginal(dist, ("a",))[1] == pytest.approx(0.5, abs=1e-12)


@given(probs, probs, probs, probs)
def test_marginal_sums_to_one(pc1, pa1, pz1, py1):
    pmf = np.zeros((2, 2, 2, 2))
    for ic, pc in enumerate((1 - pc1, pc1)):
        for ia, pa in enumerate((1 - pa1, pa1)):
            for iz, pz in enumerate((1 - pz1, pz1)):
                for iy, py in enumerate((1 - py1, py1)):
                    pmf[ic, ia, iz, iy] = pc * pa * pz * py
    dist = DiscreteJoint(BINARY, BINARY, BINARY, BINARY, pmf / pmf.sum())
    for vars_ in (("a",), ("c", "z"), ("y",), ("a", "z", "y")):
        assert math.fsum(marginal(dist, vars_).ravel().tolist()) == pytest.approx(1.0, abs=1e-12)


def test_conditional_independent_treatment(uniform_dist):
    assert conditional(uniform_dist, ("a",), {"c": 1.0}) == pytest.approx(
        marginal(uniform_dist, ("a",)), abs=1e-15
    )


def test_conditional_example_family_propensity():
    # A | C=1 is Bernoulli(expit(alpha)) in the all-binary example family
    alpha = 0.7
    dist = binary_logit_dist(0.2, alpha, 0.9, 0.5, -0.3)
    table = conditional(dist, ("a",), {"c": 1.0})
    assert table[1] == pytest.approx(float(expit(alpha)), abs=1e-12)


def test_conditional_zero_event_raises():
    pmf = np.zeros((2, 2, 2, 2))
    pmf[0] = 1.0 / 8.0  # all mass on c=0
    dist = DiscreteJoint(BINARY, BINARY, BINARY, BINARY, pmf)
    with pytest.raises(ZeroConditioningEvent):
        conditional(dist, ("a",), {"c": 1.0})


def test_conditional_times_margin_reconstructs_joint():
    rng = np.random.default_rng(5)
    dist = random_chain_dist(rng)
    pa = marginal(dist, ("c", "a"))
    rebuilt = np.zeros_like(dist.pmf)
    for ic, c in enumerate(dist.c_support):
        for ia, a in enumerate(dist.a_support):
            block = conditional(dist, ("z", "y"), {"c": c, "a": a})
            rebuilt[ic, ia] = block * pa[ic, ia]
    assert np.max(np.abs(rebuilt - dist.pmf)) < 1e-12


def test_cond_mean_var_deterministic_outcome():
    pmf = np.zeros((2, 2, 2, 2))
    pmf[:, :, :, 1] = 1.0 / 8.0  # y == 1 always
    dist = DiscreteJoint(BINARY, BINARY, BINARY, BINARY, pmf)
    mean, var = cond_mean_var(dist, {"z": 0.0, "c": 0.0})
    assert mean == pytest.approx(1.0, abs=1e-15)
    assert var == pytest.approx(0.0, abs=1e-15)


@given(probs)
def test_cond_mean_var_bernoulli_identity(q):
    dist = binary_logit_dist(0.0, 0.0, 0.0, math.log(q / (1 - q)), 0.0)
    # outcome given (z=1, c) is Bernoulli(q) by construction
    mean, var = cond_mean_var(dist, {"z": 1.0, "c": 0.0})
    assert mean == pytest.approx(q, abs=1e-12)
    assert var == pytest.approx(q * (1 - q), abs=1e-12)


def test_cond_mean_var_flat_logit_quarter_variance():
    dist = binary_logit_dist(0.4, 1.0, 1.0, 0.0, 0.0)
    for z in (0.0, 1.0):
        for c in (0.0, 1.0):
            _, var = cond_mean_var(dist, {"z": z, "c": c})
            assert var == pytest.approx(0.25, abs=1e-12)


def test_ace_null_effect(uniform_dist, pair):
    assert ace_backdoor(uniform_dist, pair) == pytest.approx(0.0, abs=1e-12)
    assert ace_frontdoor(uniform_dist, pair) == pytest.approx(0.0, abs=1e-12)
    assert ace_twodoor(uniform_dist, pair) == pytest.approx(0.0, abs=1e-12)


def test_ace_randomized_treatment_matches_conditional_means(pair):
    dist = binary_logit_dist(0.3, 0.0, 1.2, 0.8, -0.4)  # alpha=0: randomized
    ey = {}
    for a in (0.0, 1.0):
        table = conditional(dist, ("y",), {"a": a})
        ey[a] = float(table @ dist.y_support)
    assert ace_backdoor(dist, pair) == pytest.approx(ey[1.0] - ey[0.0], abs=1e-12)


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_ace_three_routes_agree_on_chain_family(seed):
    rng = np.random.default_rng(seed)
    dist = random_chain_dist(rng)
    pair = TreatmentPair(1.0, 0.0)
    bd = ace_backdoor(dist, pair)
    fd = ace_frontdoor(dist, pair)
    td = ace_twodoor(dist, pair)
    assert abs(bd - fd) < 1e-10
    assert abs(bd - td) < 1e-10


@given(st.integers(min_value=0, max_value=2**32 - 1), st.permutations([0, 1]), st.permutations([0, 1]))
def test_ace_invariant_to_support_permutation(seed, perm_a, perm_z):
    rng = np.random.default_rng(seed)
    dist = random_chain_dist(rng)
    pair = TreatmentPair(1.0, 0.0)
    pmf = dist.pmf[:, perm_a][:, :, perm_z]
    permuted = DiscreteJoint(
        dist.c_support,
        dist.a_support[perm_a],
        dist.z_support[perm_z],
        dist.y_support,
        pmf,
    )
    for fn in (ace_backdoor, ace_frontdoor, ace_twodoor):
        assert fn(permuted, pair) == pytest.approx(fn(dist, pair), abs=1e-12)


def test_ace_positivity_violation(pair):
    pmf = np.zeros((2, 2, 2, 2))
    pmf[:, 1] = 1.0 / 8.0  # nobody untreated
    dist = DiscreteJoint(BINARY, BINARY, BINARY, BINARY, pmf)
    with pytest.raises(PositivityViolation):
        ace_backdoor(dist, pair)
    with pytest.raises(PositivityViolation):
        ace_twodoor(dist, pair)


def test_dist_csv_round_trip():
    rng = np.random.default_rng(11)
    dist = random_chain_dist(rng)
    buf = io.StringIO()
    write_dist_csv(dist, buf)
    buf.seek(0)
    back = read_dist_csv(buf)
    assert np.max(np.abs(back.pmf - dist.pmf)) < 1e-15


def test_dist_csv_reports_bad_line_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("c,a,z,y,p\n0,0,0,0,0.5\n0,0,0,oops,0.5\n")
    with pytest.raises(DomainError, match=":3"):
        read_dist_csv(path)


def test_dist_csv_rejects_duplicate_cells(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text("c,a,z,y,p\n0,0,0,0,0.5\n0,0,0,0,0.5\n")
    with pytest.raises(DomainError, match="duplicate"):
        read_dist_csv(path)


def test_uniform_helper_consistency(uniform_dist):
    assert uniform_joint().pmf == pytest.approx(uniform_dist.pmf)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_dist_csv_rejects_non_finite(bad):
    text = f"c,a,z,y,p\n0,0,0,0,0.5\n0,1,{bad},0,0.5\n"
    with pytest.raises(DomainError, match=r"<stream>:3: .*non-finite"):
        read_dist_csv(io.StringIO(text))


def test_joint_rejects_nan_pmf_entry():
    # fsum gives nan, and abs(nan - 1.0) > 1e-12 is False, so the mass check alone lets it through
    pmf = np.array([0.5, 0.5, 0.0, np.nan]).reshape(1, 1, 2, 2)
    with pytest.raises(DomainError, match="finite"):
        DiscreteJoint([0.0], [0.0], [0.0, 1.0], [0.0, 1.0], pmf)


@pytest.mark.parametrize("var", ["c", "a", "z", "y"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_joint_rejects_non_finite_support(var, bad):
    supports = {name: [0.0] for name in "cazy"}
    supports[var] = [bad]
    with pytest.raises(DomainError, match=f"support of {var}.*finite"):
        DiscreteJoint(supports["c"], supports["a"], supports["z"], supports["y"], np.ones((1, 1, 1, 1)))


def test_write_text_replaces_a_path_whole(tmp_path):
    path, ref = tmp_path / "dist.csv", tmp_path / "ref.csv"
    path.write_text("old\n")
    ref.write_text("")
    with pytest.raises(TypeError):
        write_text(None, path)
    assert path.read_bytes() == b"old\n"
    buf = io.StringIO()
    write_dist_csv(uniform_joint(), buf)
    write_dist_csv(uniform_joint(), path)
    assert path.read_bytes() == buf.getvalue().encode()
    assert path.stat().st_mode == ref.stat().st_mode
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dist.csv", "ref.csv"]


def test_cells_enumerate_the_table_in_loop_order():
    rng = np.random.default_rng(12)
    pmf = rng.random((2, 3, 2, 3))
    dist = DiscreteJoint([1.0, 0.0], [2.0, 0.0, 1.0], [0.5, -0.5], [3.0, 1.0, 2.0], pmf / pmf.sum())
    loop = [
        (c, a, z, y, dist.pmf[ic, ia, iz, iy])
        for ic, c in enumerate(dist.c_support)
        for ia, a in enumerate(dist.a_support)
        for iz, z in enumerate(dist.z_support)
        for iy, y in enumerate(dist.y_support)
    ]
    assert np.array_equal(dist.cells(), np.array(loop))
