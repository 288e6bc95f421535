"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they
complete; the two Monte Carlo criteria take a few minutes each.
"""

import math
import time

import numpy as np

from acebounds.bounds import (
    MODELS,
    SimDgpParams,
    simdgp_bound,
)
from acebounds.cli import main as cli_main
from acebounds.compare import (
    BINARY_EXAMPLE_BAND,
    RATIO_INTERVAL_CORE,
    binary_family_scan,
    density_ratio_interval,
    td_minus_bd_gap,
)
from acebounds.influence import brute_force_variance
from acebounds.simlab import McConfig, run_mc

from conftest import PAIR, random_chain_dist

THREADS = 4

# Reference bound table for the eight (beta, gamma1, gamma2) combinations,
# alpha = 1: columns BD, FD, TD, BD_TD, FD_TD, BD_FD_TD.
BOUND_TABLE = {
    (0.5, 0.5, 0.5): (5.68, 1.36, 1.42, 1.38, 1.34, 1.30),
    (0.5, 0.5, 1.5): (5.68, 1.49, 1.42, 1.38, 1.34, 1.30),
    (0.5, 1.5, 0.5): (14.77, 9.81, 10.51, 10.46, 9.79, 9.75),
    (0.5, 1.5, 1.5): (14.77, 9.94, 10.51, 10.46, 9.79, 9.75),
    (1.5, 0.5, 0.5): (5.68, 10.04, 9.62, 2.78, 9.54, 2.70),
    (1.5, 0.5, 1.5): (5.68, 14.05, 9.62, 2.78, 9.54, 2.70),
    (1.5, 1.5, 0.5): (14.77, 18.50, 18.71, 11.86, 18.00, 11.15),
    (1.5, 1.5, 1.5): (14.77, 22.50, 18.71, 11.86, 18.00, 11.15),
}
# stabilized large-sample bias of the naive estimator, by gamma2
NAIVE_BIAS = {0.5: 0.122, 1.5: 0.366}

SEMIPARAMETRIC = ("BD", "FD", "TD", "BD_TD", "FD_TD", "BD_FD_TD")


def _report(criterion: str, failures: list, started: float):
    status = "PASS" if not failures else "FAIL"
    print(f"\nACCEPTANCE {criterion}: {status} ({time.time() - started:.1f}s)")
    for line in failures:
        print(f"  - {line}")
    assert not failures, f"criterion {criterion} failed: {failures}"


def test_criterion_1_bound_table_reproduction():
    started = time.time()
    failures = []
    for (beta, g1, g2), refs in BOUND_TABLE.items():
        params = SimDgpParams(alpha=1.0, beta=beta, gamma1=g1, gamma2=g2)
        for model, ref in zip(SEMIPARAMETRIC, refs):
            report = simdgp_bound(params, PAIR, model)
            tol = 0.01 if report.method == "closed-form" else 0.02
            if abs(report.value - ref) > tol:
                failures.append(
                    f"beta={beta} g1={g1} g2={g2} {model}: {report.value:.4f} vs {ref} (tol {tol})"
                )
    elapsed = time.time() - started
    if elapsed > 1.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds 1s")
    _report("1 (bound table, all eight combos)", failures, started)


def test_criterion_2_oracle_equivalence():
    started = time.time()
    failures = []
    rng = np.random.default_rng(8021)
    from acebounds.bounds import bound

    for i in range(24):
        dist = random_chain_dist(rng)
        for model in MODELS:
            formula = bound(dist, PAIR, model).value
            enum = brute_force_variance(dist, PAIR, model)
            if abs(formula - enum) > 1e-9:
                failures.append(f"dist {i} {model}: |{formula} - {enum}| > 1e-9")
        gap = td_minus_bd_gap(dist, PAIR)
        direct = bound(dist, PAIR, "TD").value - bound(dist, PAIR, "BD").value
        if abs(gap - direct) > 1e-9:
            failures.append(f"dist {i} gap: |{gap} - {direct}| > 1e-9")
    elapsed = time.time() - started
    if elapsed > 5.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds 5s")
    _report("2 (oracle equivalence, 24 random joints)", failures, started)


def test_criterion_3_efficiency_study_scaled():
    started = time.time()
    failures = []
    for (beta, g1, g2), refs in BOUND_TABLE.items():
        params = SimDgpParams(alpha=1.0, beta=beta, gamma1=g1, gamma2=g2)
        config = McConfig(
            params=params, sizes=(5000,), replicates=200, setting=0, seed=123, threads=THREADS
        )
        summary = run_mc(config)
        for model, ref in zip(SEMIPARAMETRIC, refs):
            row = summary.row(5000, model)
            spread = 3.0 * row.scaled_var_se
            if abs(row.scaled_var - ref) > spread:
                failures.append(
                    f"beta={beta} g1={g1} g2={g2} {model}: n*s^2 {row.scaled_var:.3f} "
                    f"vs bound {ref} (3 MC SE = {spread:.3f})"
                )
        naive = summary.row(5000, "NAIVE")
        if abs(naive.bias - NAIVE_BIAS[g2]) > 0.02:
            failures.append(
                f"beta={beta} g1={g1} g2={g2} NAIVE bias {naive.bias:.4f} vs {NAIVE_BIAS[g2]}"
            )
    _report("3 (efficiency study, n=5000, K=200, eight combos)", failures, started)


def test_criterion_4_robustness_study_scaled():
    started = time.time()
    failures = []
    params = SimDgpParams(alpha=1.0, beta=1.5, gamma1=1.5, gamma2=1.5)

    def band(lo, hi):
        return lambda b: lo <= b <= hi

    small = band(-0.01, 0.01)
    checks = {
        1: {tag: small for tag in SEMIPARAMETRIC},
        2: {
            "BD": band(0.35, 0.38),
            "FD": small,
            "TD": small,
            "FD_TD": small,
            "BD_TD": band(-0.06, -0.035),
            "BD_FD_TD": band(-0.06, -0.035),
        },
        3: {
            "FD": small,
            "TD": small,
            "FD_TD": band(-0.10, -0.08),
            "BD_FD_TD": band(-0.10, -0.08),
        },
        4: {
            "BD": small,
            "TD": small,
            "BD_TD": band(-0.06, -0.035),
            "BD_FD_TD": band(-0.06, -0.035),
        },
    }
    for setting, by_tag in checks.items():
        config = McConfig(
            params=params,
            sizes=(20000,),
            replicates=200,
            setting=setting,
            seed=0,
            threads=THREADS,
        )
        summary = run_mc(config)
        for tag, ok in by_tag.items():
            row = summary.row(20000, tag)
            if not ok(row.bias):
                failures.append(f"setting {setting} {tag}: bias {row.bias:.4f} outside its band")
    _report("4 (robustness study, n=20000, K=200, settings 1-4)", failures, started)


def test_criterion_5_interval_and_grid_scan():
    started = time.time()
    failures = []
    for p_star in np.arange(0.01, 0.995, 0.01):
        low, high = density_ratio_interval(float(p_star))
        if not (low <= RATIO_INTERVAL_CORE[0] + 1e-12 and high >= RATIO_INTERVAL_CORE[1] - 1e-12):
            failures.append(f"p*={p_star:.2f}: interval does not contain the core")
        if abs(low * high - 1.0) > 1e-12:
            failures.append(f"p*={p_star:.2f}: endpoint product {low * high!r} != 1")
    rows = binary_family_scan()  # the full stated grid
    if rows.shape[0] != 4 * 9 * 41 * 9 * 9:
        failures.append(f"grid has {rows.shape[0]} points, expected {4 * 9 * 41 * 9 * 9}")
    inside = rows[rows["interval_member"]]
    violations = int(np.sum(inside["diff"] > 1e-10))
    if violations:
        failures.append(f"{violations} in-band grid points with positive TD-BD gap")
    low_band, high_band = BINARY_EXAMPLE_BAND
    if abs(low_band - (3 - 2 * math.sqrt(2)) / 2) > 1e-12 or abs(high_band - (2 * math.sqrt(2) - 1) / 2) > 1e-12:
        failures.append("band endpoints drifted from their closed forms")
    elapsed = time.time() - started
    if elapsed > 30.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds 30s")
    _report("5 (ratio interval + full example-family scan)", failures, started)


def test_criterion_6_simulate_determinism(tmp_path):
    started = time.time()
    failures = []
    cfg = tmp_path / "sim.txt"
    cfg.write_text(
        "alpha=1\nbeta=1.5\ngamma1=1.5\ngamma2=1.5\nsizes=500\nreplicates=10\nsetting=2\nseed=77\n"
    )
    outputs = []
    for threads in (1, 2, 5):
        out = tmp_path / f"mc-{threads}.csv"
        code = cli_main(
            ["simulate", "--config", str(cfg), "--threads", str(threads), "--out", str(out)]
        )
        if code != 0:
            failures.append(f"simulate exited {code} with {threads} threads")
        outputs.append(out.read_bytes())
    if len({o for o in outputs}) != 1:
        failures.append("CSV output differs across thread counts")
    _report("6 (bitwise deterministic simulate across thread counts)", failures, started)
