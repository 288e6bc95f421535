import csv
import json

import numpy as np
import pytest

from acebounds.cli import main
from acebounds.dist import DiscreteJoint, ace_backdoor, write_dist_csv
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
