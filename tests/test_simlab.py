import numpy as np
import pytest

from acebounds.bounds import SimDgpParams
from acebounds.errors import AceboundsError, DomainError
from acebounds.simlab import (
    McConfig,
    McRow,
    McSummary,
    run_mc,
    sample_dgp,
    setting_model_specs,
)
from acebounds.special import expit

PARAMS = SimDgpParams(alpha=1.0, beta=1.5, gamma1=0.5, gamma2=0.5)


def test_sample_dgp_flat_logit_balance():
    flat = SimDgpParams(alpha=0.0, beta=1.5, gamma1=0.5, gamma2=0.5)
    data = sample_dgp(flat, 40_000, 3)
    assert data.a.mean() == pytest.approx(0.5, abs=4 / np.sqrt(40_000))


def test_sample_dgp_treated_share():
    data = sample_dgp(PARAMS, 80_000, 5)
    want = 0.5 * float(expit(1.0)) + 0.25
    assert data.a.mean() == pytest.approx(want, abs=4 / np.sqrt(80_000))
    assert want == pytest.approx(0.6155, abs=5e-4)


def test_sample_dgp_mediator_mean_among_treated():
    data = sample_dgp(PARAMS, 50_000, 7)
    treated = data.z[data.a == 1.0]
    assert treated.mean() == pytest.approx(1.5, abs=4 / np.sqrt(treated.size))


def test_sample_dgp_deterministic():
    one = sample_dgp(PARAMS, 100, 11)
    two = sample_dgp(PARAMS, 100, 11)
    assert np.array_equal(one.y, two.y)


def test_setting_specs_misspecification_map():
    by_slot = {s.component: s for s in setting_model_specs(2)}
    assert by_slot["p_a"].family == "fixed-value" and by_slot["p_a"].fix_value == 0.25
    assert by_slot["p_c"].fix_value == 0.25
    assert by_slot["p_a_given_c"].omit == ("c",)
    assert by_slot["mean_y_az"].omit == ("z",)
    assert by_slot["p_z_given_a"].omit == ()
    by_slot = {s.component: s for s in setting_model_specs(4)}
    assert by_slot["p_a_given_c"].omit == ("c",)
    assert by_slot["mean_y_zc"].omit == ("z",)
    assert by_slot["p_z_given_a"].omit == ()


def test_run_mc_deterministic_and_thread_invariant():
    config = dict(params=PARAMS, sizes=(200,), replicates=6, setting=1, seed=42)
    base = run_mc(McConfig(threads=1, **config))
    again = run_mc(McConfig(threads=1, **config))
    threaded = run_mc(McConfig(threads=3, **config))
    assert base.to_csv() == again.to_csv()
    assert base.to_csv() == threaded.to_csv()
    for a, b in zip(base.rows, threaded.rows):
        assert a == b  # bitwise-equal floats, not just formatted output


def test_run_mc_metric_identity():
    summary = run_mc(McConfig(params=PARAMS, sizes=(300,), replicates=12, setting=0, seed=9))
    for row in summary.rows:
        k = summary.config.replicates
        reconstructed = row.bias**2 + row.emp_se**2 * (k - 1) / k
        assert row.mse == pytest.approx(reconstructed, abs=1e-12)
        assert row.scaled_var == pytest.approx(row.n * row.emp_se**2, abs=1e-12)
        assert row.scaled_var_se == pytest.approx(
            np.sqrt(2.0 * row.n**2 * row.emp_se**4 / k), abs=1e-12
        )


def test_run_mc_failure_policy(monkeypatch):
    import acebounds.simlab as simlab

    original = simlab._one_replicate

    def flaky(config, specs, z_rule, size_index, rep_index, n):
        if rep_index == 0:
            raise AceboundsError("boom")
        return original(config, specs, z_rule, size_index, rep_index, n)

    monkeypatch.setattr(simlab, "_one_replicate", flaky)
    config = McConfig(params=PARAMS, sizes=(200,), replicates=10, setting=0, seed=1)
    with pytest.raises(AceboundsError, match="1/10 replicates failed"):
        run_mc(config)

    big = McConfig(params=PARAMS, sizes=(200,), replicates=120, setting=0, seed=1)
    summary = run_mc(big)
    assert summary.failed[200] == 1  # 1/120 < 1%: excluded, run succeeds


def test_mc_config_validation():
    with pytest.raises(DomainError):
        McConfig(params=PARAMS, replicates=1)
    with pytest.raises(DomainError):
        McConfig(params=PARAMS, sizes=(5,))
    with pytest.raises(DomainError):
        McConfig(params=PARAMS, setting=9)
    with pytest.raises(DomainError):
        McConfig(params=PARAMS, tags=("XX",))


def test_theta_tracks_parameters():
    summary = run_mc(McConfig(params=PARAMS, sizes=(200,), replicates=4, seed=2, tags=("NAIVE",)))
    assert summary.theta == pytest.approx(PARAMS.gamma1 * PARAMS.beta, abs=1e-15)


def test_csv_layout():
    summary = run_mc(McConfig(params=PARAMS, sizes=(200,), replicates=4, seed=3, tags=("NAIVE", "BD")))
    lines = summary.to_csv().strip().split("\n")
    assert lines[0] == "setting,n,tag,bias,bias_se,emp_se,scaled_var,scaled_var_se,mse,mse_se"
    assert len(lines) == 3
    assert lines[1].startswith("0,200,NAIVE,")


def test_mc_summary_csv_golden_bytes():
    row = McRow(0, 50, "BD", 0.1234567, np.float64(1e-7), 2.0, 123456789.0, 0.5, -0.25, 1.0 / 3.0)
    summary = McSummary(rows=[row], theta=0.0, config=None, failed={})
    assert summary.to_csv() == (
        "setting,n,tag,bias,bias_se,emp_se,scaled_var,scaled_var_se,mse,mse_se\n"
        "0,50,BD,0.123457,1e-07,2,1.23457e+08,0.5,-0.25,0.333333\n"
    )


def test_scaled_variance_stabilizes_across_large_sizes():
    # correct models: n * s^2 at two large sizes agree within 5 combined MC SEs
    config = McConfig(
        params=PARAMS,
        sizes=(5000, 20000),
        replicates=60,
        setting=0,
        seed=17,
        threads=4,
        tags=("BD", "FD", "TD", "BD_TD", "FD_TD", "BD_FD_TD"),
    )
    summary = run_mc(config)
    for tag in config.tags:
        small, large = summary.row(5000, tag), summary.row(20000, tag)
        spread = 5.0 * np.hypot(small.scaled_var_se, large.scaled_var_se)
        assert abs(small.scaled_var - large.scaled_var) < spread, tag
