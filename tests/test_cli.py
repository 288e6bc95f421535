import csv
import json

import numpy as np
import pytest

from acebounds.cli import main
from acebounds.dist import DiscreteJoint, ace_backdoor, chain_joint, write_dist_csv
from acebounds.fitting import Dataset, write_data_csv

from conftest import BINARY, PAIR, random_chain_dist

DGP = "alpha=1,beta=0.5,gamma1=0.5,gamma2=0.5"


def run_cli(*argv):
    return main(list(argv))


def _write_chain_dist(tmp_path, seed=11):
    dist = random_chain_dist(np.random.default_rng(seed))
    path = tmp_path / "dist.csv"
    write_dist_csv(dist, path)
    return dist, path


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_bounds_dgp_reference_values(tmp_path, capsys):
    out = tmp_path / "bounds.csv"
    assert run_cli("bounds", "--dgp", DGP, "--out", str(out)) == 0
    rows = _read_csv(out)
    values = {row[0]: float(row[1]) for row in rows[1:]}
    refs = {"BD": 5.68, "FD": 1.36, "TD": 1.42, "BD_TD": 1.38, "FD_TD": 1.34, "BD_FD_TD": 1.30}
    for model, ref in refs.items():
        assert values[model] == pytest.approx(ref, abs=0.01)


def test_bounds_constant_outcome_zero(tmp_path):
    pmf = np.zeros((2, 2, 2, 2))
    pmf[:, :, :, 0] = 1.0 / 8.0
    path = tmp_path / "flat.csv"
    write_dist_csv(DiscreteJoint(BINARY, BINARY, BINARY, BINARY, pmf), path)
    out = tmp_path / "zero.csv"
    assert run_cli("bounds", "--dist", str(path), "--out", str(out)) == 0
    for row in _read_csv(out)[1:]:
        assert float(row[1]) == pytest.approx(0.0, abs=1e-9)


def test_bounds_dist_file_matches_library(tmp_path):
    from acebounds.bounds import bound

    dist, path = _write_chain_dist(tmp_path)
    out = tmp_path / "b.json"
    assert run_cli("bounds", "--dist", str(path), "--format", "json", "--out", str(out)) == 0
    payload = json.loads(out.read_text())
    by_model = {entry["model"]: entry for entry in payload}
    for model, entry in by_model.items():
        assert entry["value"] == pytest.approx(bound(dist, PAIR, model).value, abs=1e-9)
        assert entry["method"] == "exact-sum"


def test_estimate_naive_on_toy_file(tmp_path):
    data = Dataset(
        np.zeros(4),
        np.array([1.0, 1.0, 0.0, 0.0]),
        np.zeros(4),
        np.array([2.5, 1.5, 1.0, 1.0]),
        PAIR,
    )
    data_path = tmp_path / "obs.csv"
    write_data_csv(data, data_path)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("preset = empirical\ntags = NAIVE\n")
    out = tmp_path / "est.csv"
    assert run_cli("estimate", "--data", str(data_path), "--config", str(cfg), "--out", str(out)) == 0
    rows = _read_csv(out)
    assert rows[0] == ["tag", "theta_hat", "se_hat", "n", "clipped"]
    assert rows[1][0] == "NAIVE"
    assert float(rows[1][1]) == pytest.approx(1.0, abs=1e-12)


def test_estimate_bd_on_enumerated_file_matches_functional(tmp_path):
    from acebounds.dist import chain_joint

    dist = chain_joint(
        BINARY,
        BINARY,
        BINARY,
        BINARY,
        lambda c: 0.4 if c == 1 else 0.6,
        lambda a, c: (0.25 + 0.5 * c) if a == 1 else 1.0 - (0.25 + 0.5 * c),
        lambda z, a: (0.3 + 0.4 * a) if z == 1 else 1.0 - (0.3 + 0.4 * a),
        lambda y, z, c: (0.2 + 0.25 * z + 0.25 * c) if y == 1 else 1.0 - (0.2 + 0.25 * z + 0.25 * c),
    )
    counts = np.rint(dist.pmf * 16000).astype(int)
    rows = []
    for (c, a, z, y, _), k in zip(dist.cells(), counts.ravel()):
        rows.extend([[c, a, z, y]] * k)
    arr = np.array(rows)
    data_path = tmp_path / "enum.csv"
    write_data_csv(Dataset(arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3], PAIR), data_path)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("preset = empirical\ntags = BD\n")
    out = tmp_path / "est.json"
    assert run_cli("estimate", "--data", str(data_path), "--config", str(cfg), "--format", "json", "--out", str(out)) == 0
    payload = json.loads(out.read_text())
    assert payload[0]["theta_hat"] == pytest.approx(ace_backdoor(dist, PAIR), abs=1e-10)


def test_estimate_repeat_runs_identical(tmp_path):
    rng = np.random.default_rng(4)
    n = 400
    c = (rng.random(n) < 0.5).astype(float)
    a = (rng.random(n) < 0.4 + 0.3 * c).astype(float)
    z = 1.2 * a + rng.standard_normal(n)
    y = 0.7 * z + 0.5 * c + rng.standard_normal(n)
    data_path = tmp_path / "obs.csv"
    write_data_csv(Dataset(c, a, z, y, PAIR), data_path)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("preset = sim-setting-0\ntags = BD,FD,TD\ntd_form = reduced\n")
    out1, out2 = tmp_path / "one.csv", tmp_path / "two.csv"
    assert run_cli("estimate", "--data", str(data_path), "--config", str(cfg), "--out", str(out1)) == 0
    assert run_cli("estimate", "--data", str(data_path), "--config", str(cfg), "--out", str(out2)) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_estimate_with_cross_fitting(tmp_path):
    rng = np.random.default_rng(6)
    n = 600
    c = (rng.random(n) < 0.5).astype(float)
    a = (rng.random(n) < 0.35 + 0.3 * c).astype(float)
    z = 1.1 * a + rng.standard_normal(n)
    y = 0.8 * z + 0.4 * c + rng.standard_normal(n)
    data_path = tmp_path / "obs.csv"
    write_data_csv(Dataset(c, a, z, y, PAIR), data_path)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("preset = sim-setting-0\ntags = BD\ncrossfit_folds = 3\nseed = 2\n")
    out = tmp_path / "est.json"
    assert run_cli("estimate", "--data", str(data_path), "--config", str(cfg), "--format", "json", "--out", str(out)) == 0
    payload = json.loads(out.read_text())
    assert abs(payload[0]["theta_hat"] - 0.88) < 4 * payload[0]["se_hat"] + 0.05


def test_simulate_thread_count_invariance(tmp_path):
    cfg = tmp_path / "sim.txt"
    cfg.write_text(
        "alpha=1\nbeta=0.5\ngamma1=0.5\ngamma2=0.5\nsizes=200\nreplicates=6\nsetting=0\nseed=13\n"
    )
    out1, out4 = tmp_path / "t1.csv", tmp_path / "t4.csv"
    assert run_cli("simulate", "--config", str(cfg), "--threads", "1", "--out", str(out1)) == 0
    assert run_cli("simulate", "--config", str(cfg), "--threads", "4", "--out", str(out4)) == 0
    assert out1.read_bytes() == out4.read_bytes()


def test_simulate_config_overrides(tmp_path):
    cfg = tmp_path / "sim.txt"
    cfg.write_text("alpha=1\nbeta=0.5\ngamma1=0.5\ngamma2=0.5\nsizes=200\nreplicates=4\nseed=3\n")
    out = tmp_path / "sim.csv"
    assert run_cli("simulate", "--config", str(cfg), "--set", "tags=NAIVE", "--out", str(out)) == 0
    rows = _read_csv(out)
    assert len(rows) == 2 and rows[1][2] == "NAIVE"


def test_compare_interval(capsys):
    assert run_cli("compare", "--interval", "0.5") == 0
    captured = capsys.readouterr().out.strip().split("\n")
    assert captured[0] == "p_star,low,high"
    low, high = (float(v) for v in captured[1].split(",")[1:])
    assert low == pytest.approx(0.171573, abs=1e-6)
    assert high == pytest.approx(5.82843, abs=1e-5)


def test_compare_interval_writes_both_formats_through_the_one_writer(tmp_path):
    # csv and json carry the same three values; the json is indented with sorted keys like every report
    out_csv, out_json = tmp_path / "interval.csv", tmp_path / "interval.json"
    assert run_cli("compare", "--interval", "0.25", "--out", str(out_csv)) == 0
    assert run_cli("compare", "--interval", "0.25", "--format", "json", "--out", str(out_json)) == 0
    rows = _read_csv(out_csv)
    record = json.loads(out_json.read_text())
    assert rows[0] == ["p_star", "low", "high"] and len(rows) == 2
    assert out_json.read_text() == json.dumps(record, indent=2, sort_keys=True)
    assert record["p_star"] == 0.25 and [f"{record[k]:.6g}" for k in rows[0]] == rows[1]
    assert 0.0 < record["low"] < 1.0 < record["high"]


def test_compare_scan_reduced_grid(tmp_path):
    out = tmp_path / "scan.csv"
    code = run_cli(
        "compare",
        "--scan",
        "--set",
        "beta0=0.1",
        "--set",
        "alpha=-2,0,2",
        "--set",
        "gamma1=-1,1",
        "--set",
        "gamma2=-1,1",
        "--out",
        str(out),
    )
    assert code == 0
    rows = _read_csv(out)
    assert rows[0] == ["beta0", "alpha", "beta", "gamma1", "gamma2", "diff", "interval_member"]
    assert len(rows) == 1 + 1 * 3 * 41 * 2 * 2
    inside = [r for r in rows[1:] if r[6] == "1"]
    assert inside and all(float(r[5]) <= 1e-10 for r in inside)


def test_compare_scan_json_records(tmp_path):
    grid = ["--set", "beta0=0.1", "--set", "alpha=0,2", "--set", "beta=0,4", "--set", "gamma1=1", "--set", "gamma2=-1"]
    out_csv, out_json = tmp_path / "scan.csv", tmp_path / "scan.json"
    assert run_cli("compare", "--scan", *grid, "--out", str(out_csv)) == 0
    assert run_cli("compare", "--scan", *grid, "--format", "json", "--out", str(out_json)) == 0
    records = json.loads(out_json.read_text())
    rows = _read_csv(out_csv)
    assert len(records) == len(rows) - 1 == 2 * 2
    for record, row in zip(records, rows[1:]):
        assert sorted(record) == sorted(rows[0])
        assert record["interval_member"] is (row[6] == "1")
        assert [f"{record[k]:.6g}" for k in rows[0][:6]] == row[:6]


def test_compare_dist_verdict(tmp_path):
    _, path = _write_chain_dist(tmp_path, seed=21)
    out = tmp_path / "verdict.json"
    assert run_cli("compare", "--dist", str(path), "--out", str(out)) == 0
    payload = json.loads(out.read_text())
    assert "td_minus_bd" in payload and payload["ordering"] in ("<=", ">", "inconclusive")


def test_oracle_clean_dist_passes(tmp_path):
    _, path = _write_chain_dist(tmp_path, seed=33)
    out = tmp_path / "oracle.csv"
    assert run_cli("oracle", "--dist", str(path), "--out", str(out)) == 0
    for row in _read_csv(out)[1:]:
        assert float(row[3]) < 1e-9


def test_oracle_perturbed_dist_fails(tmp_path):
    dist = random_chain_dist(np.random.default_rng(55))
    pmf = dist.pmf.copy()
    pmf[0, 0, 0, 0] += 0.01
    pmf[1, 1, 1, 1] -= 0.01
    broken = DiscreteJoint(BINARY, BINARY, BINARY, BINARY, pmf)
    path = tmp_path / "broken.csv"
    write_dist_csv(broken, path)
    out = tmp_path / "oracle.csv"
    assert run_cli("oracle", "--dist", str(path), "--out", str(out)) == 1
    diffs = [float(row[3]) for row in _read_csv(out)[1:]]
    assert max(diffs) > 1e-9


def test_cli_reports_file_errors(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("c,a,z,y,p\n0,0,0,0,nope\n")
    assert run_cli("bounds", "--dist", str(bad)) == 2
    assert ":2" in capsys.readouterr().err


def test_atomic_write_leaves_no_temp_files(tmp_path):
    out = tmp_path / "bounds.csv"
    assert run_cli("bounds", "--dgp", DGP, "--out", str(out)) == 0
    leftovers = [p for p in tmp_path.iterdir() if p.name != "bounds.csv"]
    assert leftovers == []


def test_cli_tables_golden_bytes(capsys):
    assert run_cli("bounds", "--dgp", DGP, "--set", "models=BD,TD") == 0
    assert capsys.readouterr().out == (
        "model,value,method,a_star,a_ref\nBD,5.67885,closed-form,1,0\nTD,1.4198,closed-form,1,0\n"
    )
    assert run_cli("compare", "--interval", "0.5") == 0
    assert capsys.readouterr().out == "p_star,low,high\n0.5,0.171573,5.82843\n"


# json carries full precision.  The bounds, oracle and estimate inputs keep every value
# exact or a few correctly rounded operations away from exact, and the simulation reads
# only the difference in means, so no value goes through a BLAS or LAPACK kernel.
GOLDEN_BOUNDS_JSON = """[
  {
    "a_ref": 0.0,
    "a_star": 1.0,
    "method": "closed-form",
    "model": "BD",
    "value": 5.0
  },
  {
    "a_ref": 0.0,
    "a_star": 1.0,
    "method": "closed-form",
    "model": "TD",
    "value": 1.2840254166877414
  }
]
"""

GOLDEN_ORACLE_JSON = "[\n" + ",\n".join(
    f'  {{\n    "abs_diff": 0.0,\n    "enumeration": {v},\n    "formula": {v},\n    "model": "{m}"\n  }}'
    for m, v in (("BD", "1.0"), ("FD", "0.0"), ("TD", "0.0"), ("BD_TD", "0.0"), ("FD_TD", "0.0"), ("BD_FD_TD", "0.0"))
) + "\n]\n"

GOLDEN_ESTIMATE_JSON = """[
  {
    "clipped": 0,
    "manifest": {
      "estimator": "difference-in-means"
    },
    "n": 8,
    "se_hat": 1.0307764064044151,
    "tag": "NAIVE",
    "theta_hat": 0.75
  },
  {
    "clipped": 0,
    "manifest": {
      "estimator": "BD",
      "slots": {
        "mean_y_ac": {
          "family": "empirical",
          "omitted": [],
          "predictors": [
            "a",
            "c"
          ]
        },
        "p_a_given_c": {
          "family": "empirical",
          "omitted": [],
          "predictors": [
            "c"
          ]
        }
      }
    },
    "n": 8,
    "se_hat": 0.9496239857363094,
    "tag": "BD",
    "theta_hat": 0.75
  }
]
"""

GOLDEN_SIMULATE_JSON = """{
  "failed": {
    "10": 0
  },
  "rows": [
    {
      "bias": 0.5682918373490267,
      "bias_se": 0.20041562986877537,
      "emp_se": 0.2834305018719685,
      "mse": 0.36312203709323054,
      "mse_se": 0.2277891330631776,
      "n": 10,
      "scaled_var": 0.8033284939139594,
      "scaled_var_se": 0.8033284939139594,
      "setting": 0,
      "tag": "NAIVE"
    }
  ],
  "theta": 0.25
}
"""


def test_cli_json_golden_bytes(tmp_path, capsys):
    dist = tmp_path / "uniform.csv"
    write_dist_csv(DiscreteJoint(BINARY, BINARY, BINARY, BINARY, np.full((2, 2, 2, 2), 1.0 / 16.0)), dist)
    c, a, z = np.array(np.meshgrid(BINARY, BINARY, BINARY, indexing="ij")).reshape(3, -1)
    data = tmp_path / "obs.csv"
    write_data_csv(Dataset(c, a, z, np.array([0.0, 1.0, 2.0, 4.0, 1.0, 3.0, 0.0, 2.0]), PAIR), data)
    dgp = "alpha=0,beta=0.5,gamma1=0.5,gamma2=0.5"

    assert run_cli("bounds", "--dgp", dgp, "--set", "models=BD,TD", "--format", "json") == 0
    assert capsys.readouterr().out == GOLDEN_BOUNDS_JSON
    assert run_cli("oracle", "--dist", str(dist), "--format", "json") == 0
    assert capsys.readouterr().out == GOLDEN_ORACLE_JSON
    code = run_cli(
        "estimate", "--data", str(data), "--format", "json", "--set", "tags=NAIVE,BD",
        "--set", "nuisance.p_a_given_c=empirical predictors=c", "--set", "nuisance.mean_y_ac=empirical predictors=a+c",
    )
    assert code == 0
    assert capsys.readouterr().out == GOLDEN_ESTIMATE_JSON
    settings = [f"--set={kv}" for kv in (dgp + ",sizes=10,replicates=2,tags=NAIVE,seed=3").split(",")]
    assert run_cli("simulate", *settings, "--format", "json") == 0
    assert capsys.readouterr().out == GOLDEN_SIMULATE_JSON
    assert run_cli("compare", "--interval", "0.5", "--format", "json") == 0
    assert capsys.readouterr().out == '{\n  "high": 5.82842712474619,\n  "low": 0.1715728752538097,\n  "p_star": 0.5\n}\n'


@pytest.mark.parametrize("command", [["bounds", "--dgp", DGP], ["compare", "--interval", "0.5"], ["oracle", "--dist", "d.csv"]])
@pytest.mark.parametrize("flag", [["--seed", "9"], ["--threads", "8"]])
def test_seed_and_threads_only_where_read(command, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(*command, *flag)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_estimate_rejects_a_predictor_its_slot_cannot_read(tmp_path, capsys):
    rng = np.random.default_rng(4)
    c = (rng.random(100) < 0.5).astype(float)
    a = (rng.random(100) < 0.5).astype(float)
    data_path = tmp_path / "obs.csv"
    write_data_csv(Dataset(c, a, a + rng.standard_normal(100), rng.standard_normal(100), PAIR), data_path)
    code = run_cli(
        "estimate", "--data", str(data_path), "--set", "preset=sim-setting-0", "--set", "nuisance.p_a_given_c=logistic predictors=z"
    )
    assert code == 2
    assert "'z' is not a conditioning argument of p_a_given_c" in capsys.readouterr().err


@pytest.mark.parametrize(
    "dgp",
    [
        "alpha=1,beta=30,gamma1=1,gamma2=1",  # exp((beta/sigma_z)^2) overflows
        "alpha=800,beta=1,gamma1=1,gamma2=1",  # expit(800) is exactly 1, so p(A=0|C=1) = 0
    ],
)
def test_bounds_dgp_out_of_range_is_a_typed_error(dgp, capsys):
    assert run_cli("bounds", "--dgp", dgp) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err


def test_bounds_dgp_far_apart_mediator_laws(tmp_path):
    # beta = 26: the mediator densities underflow at each other's nodes, yet every bound is finite
    out = tmp_path / "bounds.csv"
    assert run_cli("bounds", "--dgp", "alpha=1,beta=26,gamma1=1,gamma2=1", "--out", str(out)) == 0
    v = {row[0]: float(row[1]) for row in _read_csv(out)[1:]}
    assert sorted(v) == sorted(["BD", "FD", "TD", "BD_TD", "FD_TD", "BD_FD_TD"])
    assert all(np.isfinite(list(v.values())))
    assert v["BD_TD"] <= min(v["BD"], v["TD"])
    assert v["BD_FD_TD"] <= min(v.values())


def test_compare_refuses_a_live_stratum_without_a_treatment_level(tmp_path, capsys):
    # p(C=1) = 1/2 and p(A=1|C=1) = 0: the propensity check that bound makes
    dist = chain_joint(
        BINARY,
        BINARY,
        BINARY,
        BINARY,
        lambda c: 0.5,
        lambda a, c: (0.0 if c == 1 else 0.5) if a == 1 else (1.0 if c == 1 else 0.5),
        lambda z, a: (0.3 + 0.4 * a) if z == 1 else 0.7 - 0.4 * a,
        lambda y, z, c: 0.5,
    )
    path = tmp_path / "dist.csv"
    write_dist_csv(dist, path)
    for argv in (["bounds", "--dist", str(path)], ["compare", "--dist", str(path), "--set", "coef=0.5,0,0"]):
        assert run_cli(*argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: p(a|c) has entries below 1e-12\n"


SIM = [f"--set={kv}" for kv in (DGP + ",sizes=20,replicates=2").split(",")]


@pytest.mark.parametrize(
    "argv, key",
    [
        (["simulate", *SIM, "--set", "threads=abc"], "threads"),
        (["bounds", "--dgp", DGP, "--set", "gh_nodes=abc"], "gh_nodes"),
        (["simulate", *SIM, "--set", "sizes=20,x"], "sizes"),
        (["simulate", *SIM, "--set", "sizes="], "sizes"),
        (["simulate", *SIM, "--set", "setting=1.5"], "setting"),
        (["bounds", "--dgp", "alpha=1,beta=x,gamma1=1,gamma2=1"], "beta"),
        (["bounds", "--dgp", "alpha=1,beta=nan,gamma1=1,gamma2=1"], "beta"),
        (["bounds", "--dgp", DGP, "--set", "a_star=one"], "a_star"),
        (["compare", "--scan", "--set", "alpha=0,q"], "alpha"),
        (["compare", "--scan", "--set", "beta="], "beta"),
        (["estimate", "--data", "obs.csv", "--set", "preset=sim-setting-x"], "preset"),
        (["estimate", "--data", "obs.csv", "--set", "nuisance.p_c=fixed-value fix=half"], "nuisance.p_c fix"),
        (["bounds", "--dgp", DGP, "--set", "gh_nodes=400"], "gh_nodes"),  # numpy's Gauss-Hermite weights overflow
        (["bounds", "--dgp", DGP, "--set", "gh_nodes=200"], "gh_nodes"),  # doubled to 400 nodes
        (["simulate", *SIM, "--threads", "0"], "threads"),
        (["simulate", *SIM, "--set", "sizes=20,20"], "sizes"),
        # a repeated grid or setting value would run the same point twice
        (["bounds", "--set", "alpha=1", "--set", "beta=0.5,0.5", "--set", "gamma1=1", "--set", "gamma2=1"], "beta"),
        (["bounds", "--set", "alpha=1", "--set", "beta=0.5,1.5", "--set", "gamma1=1", "--set", "gamma2=1,1.0"], "gamma2"),
        (["simulate", *SIM, "--set", "setting=1,1"], "setting"),
        (["simulate", *SIM, "--set", "gamma1=0.5,2,0.5"], "gamma1"),
        (["compare", "--scan", "--set", "alpha=0,0"], "alpha"),
        # a name list must be non-empty, distinct after upper-casing, and known
        (["bounds", "--dgp", DGP, "--set", "models="], "models"),
        (["bounds", "--dgp", DGP, "--set", "models=BD,bd"], "models"),
        (["bounds", "--dgp", DGP, "--set", "models=BD,XX"], "models"),
        (["simulate", *SIM, "--set", "tags="], "tags"),
        (["simulate", *SIM, "--set", "tags=BD,BD"], "tags"),
        (["simulate", *SIM, "--set", "tags=XX"], "tags"),
        (["estimate", "--data", "obs.csv", "--set", "preset=empirical", "--set", "tags=NAIVE,naive"], "tags"),
        (["estimate", "--data", "obs.csv", "--set", "preset=empirical", "--set", "td_form=reducd"], "td_form"),
        (["bounds", "--dgp", DGP, "--set", "models"], "models"),  # --set without '='
        (["bounds", "--dgp", "alpha=1,beta=0.5"], "gamma1"),
        (["simulate", "--set", "alpha=1", "--set", "beta=0.5"], "gamma2"),
        (["estimate", "--data", "obs.csv", "--set", "nuisance.p_c="], "p_c"),
        (["estimate", "--data", "obs.csv", "--set", "nuisance.p_c=empirical c"], "p_c"),
        (["estimate", "--data", "obs.csv", "--set", "nuisance.p_c=empirical degree=2"], "degree"),
        (["estimate", "--data", "obs.csv", "--set", "preset=bogus"], "preset"),
        (["estimate", "--data", "obs.csv"], "preset"),  # no nuisance specs at all
        (["estimate", "--set", "preset=empirical"], "data"),
        (["compare"], "--interval"),
        (["estimate", "--data", "obs.csv", "--set", "tags=BD", "--set", "nuisance.mean_y_ac=linear-mean predictors=a+a"], "predictors of mean_y_ac"),
    ],
)
def test_bad_config_value_names_its_key(argv, key, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    rng = np.random.default_rng(4)
    write_data_csv(Dataset(*(rng.random((4, 50)) < 0.5).astype(float), PAIR), "obs.csv")
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err and "Traceback" not in err


def test_config_file_skips_comments_and_blank_lines_and_names_a_bad_line(tmp_path, capsys):
    cfg = tmp_path / "bounds.cfg"
    cfg.write_text("# the Gaussian family\n\nalpha = 1   # confounding\nbeta=0.5\ngamma1=0.5\ngamma2=0.5\nmodels = BD\n")
    assert run_cli("bounds", "--config", str(cfg)) == 0
    assert capsys.readouterr().out == "model,value,method,a_star,a_ref\nBD,5.67885,closed-form,1,0\n"
    cfg.write_text("alpha = 1\nbeta 0.5\n")
    assert run_cli("bounds", "--config", str(cfg)) == 2
    assert capsys.readouterr().err == f"error: {cfg}:2: expected key=value, got 'beta 0.5'\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["simulate", *SIM, "--set", "size=200", "--set", "tags=NAIVE"], "simulate reads no config key 'size'"),
        (["bounds", "--dgp", DGP, "--set", "model=BD"], "bounds reads no config key 'model'"),
        (["compare", "--interval", "0.5", "--set", "tols=2"], "compare --interval reads no config key 'tols'"),
        (["bounds", "--dgp", DGP + ",gama=2"], "bounds reads no config key 'gama'"),  # --dgp items join the config
        (["simulate", *SIM, "--set", "a_star=1"], "simulate reads no config key 'a_star'"),  # the study pair is fixed
        (["estimate", "--data", "obs.csv", "--set", "nuisance.p_q=empirical"], "estimate reads no config key 'nuisance.p_q'"),
        (["oracle", "--dist", "d.csv", "--set", "tol=1", "--set", "models=BD"], "oracle reads no config key 'models', 'tol'"),
        (["simulate", "--config", "sim.cfg"], "simulate reads no config key 'replicate'"),
        # bounds and compare read the keys of the mode their flags (or bounds' dist key) pick
        (["bounds", "--dist", "d.csv", "--set", "alpha=7", "--set", "gh_nodes=0", "--set", "models=BD"], "bounds --dist reads no config key 'alpha', 'gh_nodes'"),
        (["bounds", "--dist", "d.csv", "--dgp", DGP], "bounds --dist reads no config key 'alpha', 'beta', 'gamma1', 'gamma2'"),
        (["bounds", "--set", "dist=d.csv", "--set", "gh_nodes=64"], "bounds --dist reads no config key 'gh_nodes'"),
        (["compare", "--interval", "0.5", "--set", "beta=9"], "compare --interval reads no config key 'beta'"),
        (["compare", "--scan", "--set", "beta=0,1", "--set", "coef=1"], "compare --scan reads no config key 'coef'"),
        (["compare", "--dist", "d.csv", "--set", "beta=1"], "compare --dist reads no config key 'beta'"),
        (["compare", "--interval", "0.5", "--scan", "--set", "beta=0,1"], "compare takes one of --interval, --scan or --dist, got --interval and --scan"),
        (["compare", "--scan", "--dist", "d.csv"], "compare takes one of --interval, --scan or --dist, got --scan and --dist"),
        # fit integrates a Gaussian law with one node, so estimate and simulate read no gh_nodes, valid or not
        (["estimate", "--data", "obs.csv", "--set", "preset=empirical", "--set", "tags=BD", "--set", "gh_nodes=0"], "estimate reads no config key 'gh_nodes'"),
        (["estimate", "--data", "obs.csv", "--set", "preset=sim-setting-0", "--set", "gh_nodes=64"], "estimate reads no config key 'gh_nodes'"),
        (["simulate", *SIM, "--set", "gh_nodes=0"], "simulate reads no config key 'gh_nodes'"),
        (["simulate", *SIM, "--set", "gh_nodes=64"], "simulate reads no config key 'gh_nodes'"),
    ],
)
def test_a_key_the_subcommand_never_reads_is_refused_before_any_work(argv, message, tmp_path, monkeypatch, capsys):
    import acebounds.cli as cli

    monkeypatch.chdir(tmp_path)
    (tmp_path / "sim.cfg").write_text("alpha = 1\nbeta = 0.5\ngamma1 = 0.5\ngamma2 = 0.5\nreplicate = 2\n")
    for name in ("run_mc", "simdgp_bound", "read_dist_csv", "read_data_csv"):
        monkeypatch.setattr(cli, name, lambda *args, **kwargs: pytest.fail("work started before the key check"))
    for name in ("density_ratio_interval", "binary_family_scan"):
        monkeypatch.setattr(cli.cmp_mod, name, lambda *args, **kwargs: pytest.fail("work started before the key check"))
    assert run_cli(*argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("nodes, message", [("0", "needs at least one node (gh_nodes), got 0"), ("400", "of 400 nodes (gh_nodes) exceeds the 256-node limit")])
@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", "--dgp", DGP, "--set", "models=BD,TD"],  # closed forms only
    ],
    ids=["bounds"],
)
def test_gh_nodes_is_checked_wherever_it_is_read(argv, nodes, message, capsys):
    assert run_cli(*argv, "--set", f"gh_nodes={nodes}") == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: a Gauss-Hermite rule {message}\n")


def test_compare_dist_writes_json_only(tmp_path, capsys):
    _, path = _write_chain_dist(tmp_path)
    assert run_cli("compare", "--dist", str(path), "--format", "csv") == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: compare --dist writes json only; drop --format csv or give --format json\n")
    assert run_cli("compare", "--dist", str(path), "--format", "json") == 0
    as_json = capsys.readouterr().out
    assert run_cli("compare", "--dist", str(path)) == 0
    assert capsys.readouterr().out == as_json and json.loads(as_json)["ordering"] in ("<=", ">", "inconclusive")


def test_spec_omit_removes_a_predictor(tmp_path, capsys):
    # README's own example line: the outcome regression on (z, c) loses z before fitting
    rng = np.random.default_rng(8)
    c = (rng.random(300) < 0.5).astype(float)
    a = (rng.random(300) < 0.4 + 0.2 * c).astype(float)
    z = a + rng.standard_normal(300)
    data_path = tmp_path / "obs.csv"
    write_data_csv(Dataset(c, a, z, z + c + rng.standard_normal(300), PAIR), data_path)
    spec = "nuisance.mean_y_zc=linear-mean predictors=z+c omit=z"
    argv = ["estimate", "--data", str(data_path), "--set", "preset=sim-setting-0", "--set", "tags=BD_TD", "--format", "json"]
    assert run_cli(*argv, "--set", spec) == 0
    slot = json.loads(capsys.readouterr().out)[0]["manifest"]["slots"]["mean_y_zc"]
    assert slot["family"] == "linear-mean" and slot["predictors"] == ["c"] and slot["omitted"] == ["z"]


def test_compare_dist_with_outcome_coef_adds_the_fd_verdict(tmp_path, capsys):
    # E(Y|z,c) is exactly 0.1 + 0.5z + 0.2c on this joint
    dist = chain_joint(
        BINARY,
        BINARY,
        BINARY,
        BINARY,
        lambda c: 0.6 - 0.2 * c,
        lambda a, c: 0.7 - 0.4 * c if a else 0.3 + 0.4 * c,
        lambda z, a: 0.2 + 0.5 * a if z else 0.8 - 0.5 * a,
        lambda y, z, c: 0.1 + 0.5 * z + 0.2 * c if y else 0.9 - 0.5 * z - 0.2 * c,
    )
    path = tmp_path / "chain.csv"
    write_dist_csv(dist, path)
    assert run_cli("compare", "--dist", str(path), "--set", "coef=0.1,0.5,0.2") == 0
    fd = json.loads(capsys.readouterr().out)["fd_vs_bd"]
    assert fd["ordering"] == "inconclusive"
    assert sorted(fd["reciprocal_gaps"]) == ["a_ref", "a_star"]
    assert all(gap <= 1e-12 for gap in fd["reciprocal_gaps"].values())  # Jensen
    assert run_cli("compare", "--dist", str(path), "--set", "coef=0.1,0.5,0.3") == 2
    assert "is not the stated linear function" in capsys.readouterr().err


def test_simulate_paper_scale_sets_sizes_and_replicates(monkeypatch, capsys):
    import acebounds.cli as cli
    from acebounds.simlab import McSummary

    seen = []

    def record(config):
        seen.append(config)
        return McSummary(rows=[], theta=0.25, config=config, failed={})

    monkeypatch.setattr(cli, "run_mc", record)
    assert run_cli("simulate", *SIM, "--paper-scale") == 0
    assert [(c.sizes, c.replicates) for c in seen] == [((50000,), 1000)]
    assert capsys.readouterr().out == "setting,n,tag,bias,bias_se,emp_se,scaled_var,scaled_var_se,mse,mse_se\n"


def test_compare_scan_exits_1_on_an_in_band_violation(monkeypatch, capsys):
    import acebounds.cli as cli

    scan = cli.cmp_mod.binary_family_scan

    def violated(grid):
        rows = scan(grid)
        rows["diff"] = 1e-6
        return rows

    monkeypatch.setattr(cli.cmp_mod, "binary_family_scan", violated)
    assert run_cli("compare", "--scan", "--set", "beta0=0.1", "--set", "alpha=0", "--set", "gamma1=1", "--set", "gamma2=1") == 1
    captured = capsys.readouterr()
    inside = sum(line.endswith(",1") for line in captured.out.splitlines())
    assert inside > 0
    assert captured.err.endswith(f"max in-band gap 1.000e-06\n{inside} grid points violate the ratio-band ordering\n")


def test_oracle_tolerance_is_not_a_config_key(tmp_path, monkeypatch, capsys):
    import acebounds.cli as cli

    _, path = _write_chain_dist(tmp_path, seed=33)
    enumerate_ = cli.brute_force_variance
    monkeypatch.setattr(cli, "brute_force_variance", lambda dist, pair, model: enumerate_(dist, pair, model) + 2e-9)
    assert run_cli("oracle", "--dist", str(path)) == 1
    assert capsys.readouterr().err.startswith("oracle discrepancy 2.0")
    assert run_cli("oracle", "--dist", str(path), "--set", "tol=1") == 2
    assert capsys.readouterr().err == "error: oracle reads no config key 'tol'\n"


def test_dgp_list_points_to_set_and_the_config_file(capsys):
    assert run_cli("bounds", "--dgp", "alpha=1,beta=0.5,1.5,gamma1=1,gamma2=1") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: --dgp entry '1.5' is not key=value: --dgp takes one value per key; "
        "give a list with --set key=v1,v2 or in the config file\n"
    )


GRID = ["--set", "alpha=1", "--set", "beta=0.5,1.5", "--set", "gamma1=0.5,1.5", "--set", "gamma2=0.5,1.5"]


def test_bounds_grid_runs_every_point(capsys):
    from acebounds.bounds import SimDgpParams, simdgp_bound

    assert run_cli("bounds", *GRID, "--format", "json") == 0
    records = json.loads(capsys.readouterr().out)
    assert len(records) == 8 * 6
    points = [(r["beta"], r["gamma1"], r["gamma2"]) for r in records[::6]]
    assert points == [(b, g1, g2) for b in (0.5, 1.5) for g1 in (0.5, 1.5) for g2 in (0.5, 1.5)]
    for r in records:
        assert "alpha" not in r
        params = SimDgpParams(alpha=1.0, beta=r["beta"], gamma1=r["gamma1"], gamma2=r["gamma2"])
        assert r["value"] == simdgp_bound(params, PAIR, r["model"]).value
    assert run_cli("bounds", *GRID) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "beta,gamma1,gamma2,model,value,method,a_star,a_ref"
    assert len(lines) == 1 + 48 and lines[1].startswith("0.5,0.5,0.5,BD,")


def test_a_key_with_one_value_adds_no_column(capsys):
    assert run_cli("bounds", "--set", "alpha=1", "--set", "beta=0.5,1.5", "--set", "gamma1=1", "--set", "gamma2=1") == 0
    assert capsys.readouterr().out.splitlines()[0] == "beta,model,value,method,a_star,a_ref"
    assert run_cli("simulate", *SIM, "--set", "tags=NAIVE", "--set", "setting=1,2") == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "setting,n,tag,bias,bias_se,emp_se,scaled_var,scaled_var_se,mse,mse_se"
    assert [line.split(",")[0] for line in lines[1:]] == ["1", "2"]


@pytest.mark.parametrize("threads", ["1", "2"])
def test_simulate_grid_joins_one_point_runs(threads, capsys):
    base = ["--set=alpha=1", "--set=gamma1=1.5", "--set=gamma2=1.5", "--set=sizes=60,80", "--set=replicates=3", "--threads", threads]
    one_point = {}
    for beta in ("0.5", "1.5"):
        for setting in ("1", "2"):
            for fmt in ("csv", "json"):
                assert run_cli("simulate", *base, f"--set=beta={beta}", f"--set=setting={setting}", "--format", fmt) == 0
                one_point[beta, setting, fmt] = capsys.readouterr().out
    assert run_cli("simulate", *base, "--set=beta=0.5,1.5", "--set=setting=1,2") == 0
    header, *_ = one_point["0.5", "1", "csv"].splitlines(keepends=True)
    expected = "beta," + header + "".join(
        f"{beta},{line}" for (beta, _, fmt), text in one_point.items() if fmt == "csv" for line in text.splitlines(keepends=True)[1:]
    )
    assert capsys.readouterr().out == expected
    assert run_cli("simulate", *base, "--set=beta=0.5,1.5", "--set=setting=1,2", "--format", "json") == 0
    payloads = json.loads(capsys.readouterr().out)
    expected = [
        {"beta": float(beta), "setting": int(setting), **json.loads(text)}
        for (beta, setting, fmt), text in one_point.items()
        if fmt == "json"
    ]
    assert payloads == expected
