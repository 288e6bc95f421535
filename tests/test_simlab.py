import functools
import hashlib
import multiprocessing
import multiprocessing.connection
import os
import pickle
import platform
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import acebounds.cli as cli
import acebounds.simlab as simlab
from acebounds.bounds import SimDgpParams
from acebounds.errors import AceboundsError, DomainError
from acebounds.estimators import ESTIMATOR_TAGS
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


# sha256 of the bytes of (c, a, z, y) from sample_dgp(n=5000, seed=11, beta=gamma1=gamma2=1.5), taken
# when p(A=1|c) was still evaluated at every row rather than at the two covariate levels
SAMPLE_SHA256 = {
    0.0: "a1c51878ec9cd31ed2b73cf36a26d17916bc3c4a9cfd6ff3b6a49bfad64f44bc",
    1.0: "441f0ee89572711e4adf9309a8d69e118cf0fd252b4b8826bb1879bb1c33e852",
    -2.3: "cb6c372b46d6ac9adb78994b12df30d78165ff3c75f7cc3b4e629950298a330f",
    7.1: "ab91a2e57668f550ff29db3689d2754d4565b2f7eed2c4e4558f26cda6cbeb18",
    25.0: "039acab6b7954812c27e8e1fa9807985283c250174f05d1df84cce546219264f",
}


@pytest.mark.parametrize("alpha", SAMPLE_SHA256)
def test_sample_dgp_columns_are_pinned(alpha):
    data = sample_dgp(SimDgpParams(alpha=alpha, beta=1.5, gamma1=1.5, gamma2=1.5), 5000, 11)
    assert hashlib.sha256(np.concatenate([data.c, data.a, data.z, data.y]).tobytes()).hexdigest() == SAMPLE_SHA256[alpha]


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
    assert base.rows == again.rows == threaded.rows  # equal floats, not just formatted output


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
    original = simlab._one_replicate

    def flaky(config, specs, size_index, rep_index, n):
        if rep_index == 0:
            raise AceboundsError("boom")
        return original(config, specs, size_index, rep_index, n)

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
    with pytest.raises(DomainError, match="sizes"):
        McConfig(params=PARAMS, sizes=())
    with pytest.raises(DomainError, match="sizes"):  # failed counts and McSummary.row are keyed by n
        McConfig(params=PARAMS, sizes=(20, 50, 20))
    with pytest.raises(DomainError):
        McConfig(params=PARAMS, setting=9)
    with pytest.raises(DomainError):
        McConfig(params=PARAMS, tags=("XX",))
    for threads in (0, -2):
        with pytest.raises(DomainError, match="threads"):
            McConfig(params=PARAMS, threads=threads)
    config = McConfig(params=PARAMS, sizes=(np.int64(50),), replicates=np.int32(2), seed=np.uint64(3))  # numpy integers
    assert (config.sizes, config.replicates, config.seed) == ((50,), 2, 3) and type(config.seed) is int


def test_mc_config_refuses_empty_tags():
    with pytest.raises(DomainError, match="tags must name at least one estimator tag"):
        McConfig(params=PARAMS, tags=())


def test_theta_tracks_parameters():
    summary = run_mc(McConfig(params=PARAMS, sizes=(200,), replicates=4, seed=2, tags=("NAIVE",)))
    assert summary.theta == pytest.approx(PARAMS.gamma1 * PARAMS.beta, abs=1e-15)


SIMULATE = ["simulate", "--set", "alpha=1", "--set", "beta=1.5", "--set", "gamma1=0.5", "--set", "gamma2=0.5"]


def test_csv_layout(capsys):
    assert cli.main([*SIMULATE, "--set", "sizes=200", "--set", "replicates=4", "--seed", "3", "--set", "tags=NAIVE,BD"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "setting,n,tag,bias,bias_se,emp_se,scaled_var,scaled_var_se,mse,mse_se"
    assert len(lines) == 3
    assert lines[1].startswith("0,200,NAIVE,")


def test_mc_summary_csv_golden_bytes(monkeypatch, capsys):
    row = McRow(0, 50, "BD", 0.1234567, np.float64(1e-7), 2.0, 123456789.0, 0.5, -0.25, 1.0 / 3.0)
    monkeypatch.setattr(cli, "run_mc", lambda config: McSummary(rows=[row], theta=0.0, config=config, failed={}))
    assert cli.main(SIMULATE) == 0
    assert capsys.readouterr().out == (
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


SRC = Path(simlab.__file__).resolve().parents[1]
TWO_WORKERS = pytest.mark.skipif(simlab._pool_size(2, 2) < 2, reason="a worker pool needs two usable cores")
SCRIPT = """
from acebounds.bounds import SimDgpParams
from acebounds.simlab import McConfig, run_mc

def main():
    params = SimDgpParams(alpha=1.0, beta=1.5, gamma1=0.5, gamma2=0.5)
    print(*(r.tag for r in run_mc(McConfig(params=params, sizes=(200,), replicates=4, seed=3, threads=2)).rows))
"""


def _run_script(path, text, **kwargs):
    path.write_text(text)
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.Popen(
        [sys.executable, str(path)], stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env, **kwargs
    )


def test_pool_size_is_bounded_by_replicates_and_cores():
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert simlab._pool_size(10**6, 200) == min(200, cores)
    assert simlab._pool_size(10**6, 2) == min(2, cores)
    assert simlab._pool_size(1, 200) == 1


def _fake_mallopt(calls, accepts_mmap):
    def mallopt(param, value):
        calls.append((param, value))
        return int(accepts_mmap or param != -3)  # glibc's mallopt returns 1 on success, 0 on error
    return mallopt


@pytest.mark.parametrize("accepts_mmap", [True, False], ids=["accepted", "mmap-rejected"])
def test_worker_set_up_pins_blas_and_fixes_both_malloc_thresholds(monkeypatch, accepts_mmap):
    calls, threads = [], []
    monkeypatch.setattr(simlab, "_mallopt", lambda: _fake_mallopt(calls, accepts_mmap))
    monkeypatch.setattr(simlab, "_blas_threads", lambda: (None, threads.append))
    simlab._set_up_worker()
    assert threads == [1]
    # M_MMAP_THRESHOLD (-3) at 32 MiB, then M_TRIM_THRESHOLD (-1) at 64 MiB: either alone turns off
    # glibc's dynamic thresholds and leaves more page faults than neither, so a rejected mmap
    # threshold (above HEAP_MAX_SIZE/2 on 32-bit builds) leaves the trim threshold alone too
    assert calls == [(-3, 32 << 20), (-1, 64 << 20)] if accepts_mmap else calls == [(-3, 32 << 20)]


def _no_c_library(name):
    raise OSError("no C library")


@pytest.mark.parametrize("cdll", [_no_c_library, lambda name: object()], ids=["no-libc", "no-mallopt"])
def test_worker_set_up_skips_a_c_library_without_mallopt(monkeypatch, cdll):
    threads = []
    monkeypatch.setattr(simlab.ctypes, "CDLL", cdll)
    monkeypatch.setattr(simlab, "_mallopt", functools.cache(simlab._mallopt.__wrapped__))  # a fresh lookup
    monkeypatch.setattr(simlab, "_blas_threads", lambda: (None, threads.append))
    simlab._set_up_worker()
    assert simlab._mallopt() is None and threads == [1]


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="looks for glibc's mallopt")
def test_mallopt_is_found_in_the_c_library():
    assert simlab._mallopt() is not None


@TWO_WORKERS
def test_run_mc_above_the_default_mmap_threshold_is_worker_count_invariant():
    # at n = 20000 every row-length temporary (160 kB) lies above glibc's default 128 KiB mmap
    # threshold, so the workers' heaps, set up differently from this process's, serve them
    config = dict(params=PARAMS, sizes=(20000,), replicates=4, setting=0, seed=8)
    serial, pooled = run_mc(McConfig(threads=1, **config)), run_mc(McConfig(threads=2, **config))
    assert serial.rows == pooled.rows


@TWO_WORKERS
def test_each_worker_gets_one_chunk_and_uneven_chunks_keep_the_summary(monkeypatch):
    # 5 replicates on 2 workers: chunks of 3 and 2, one pool task per worker and size
    chunks = []

    class Recorder:
        def __init__(self, executor):
            self.executor = executor

        def map(self, fn, items, chunksize=1):
            chunks.append(chunksize)
            return self.executor.map(fn, items, chunksize=chunksize)

    config = dict(params=PARAMS, sizes=(200, 300), replicates=5, setting=2, seed=13)
    serial = run_mc(McConfig(threads=1, **config))
    pooled_executor = simlab._executor
    monkeypatch.setattr(simlab, "_executor", lambda workers: Recorder(pooled_executor(workers)))
    pooled = run_mc(McConfig(threads=2, **config))
    assert chunks == [3, 3]
    assert serial.rows == pooled.rows and serial.failed == pooled.failed


@TWO_WORKERS
def test_killed_worker_is_reported_and_the_next_run_starts_a_fresh_pool():
    config = McConfig(params=PARAMS, sizes=(200,), replicates=20, setting=0, seed=5, threads=2)
    want = run_mc(config).rows
    broken = simlab._pool[1]
    victim = multiprocessing.active_children()[0]
    os.kill(victim.pid, signal.SIGKILL)
    # wait for the death without reaping: the pool's own thread reaps its workers
    assert multiprocessing.connection.wait([victim.sentinel], timeout=30)
    with pytest.raises(AceboundsError, match="worker process died"):
        run_mc(config)
    assert simlab._pool is None
    assert run_mc(config).rows == want
    assert simlab._pool[1] is not broken


@TWO_WORKERS
def test_unguarded_script_names_the_main_guard(tmp_path):
    proc = _run_script(tmp_path / "unguarded.py", SCRIPT + "\nmain()\n")
    out, err = proc.communicate(timeout=120)
    assert proc.returncode != 0, out
    assert "AceboundsError" in err
    assert 'if __name__ == "__main__":' in err


def _process_group(pgid):
    """Pids whose process group is pgid, zombies included (from /proc/<pid>/stat)."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:  # exited meanwhile
            continue
        # after the parenthesised command name: state, ppid, pgrp, ...
        if int(stat[stat.rindex(")") + 2 :].split()[2]) == pgid:
            members.append(int(entry))
    return members


@TWO_WORKERS
@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads process groups from /proc")
def test_no_process_outlives_a_script_that_ran_the_pool(tmp_path):
    guarded = SCRIPT + '\nif __name__ == "__main__":\n    main()\n'
    proc = _run_script(tmp_path / "guarded.py", guarded, start_new_session=True)
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    assert out.split() == list(ESTIMATOR_TAGS)
    assert _process_group(proc.pid) == []


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


@pytest.mark.parametrize("cls", [AceboundsError, *_subclasses(AceboundsError)], ids=lambda c: c.__name__)
def test_package_errors_survive_pickling(cls):
    # a worker returns a failed replicate's error to the parent by pickling it
    back = pickle.loads(pickle.dumps(cls("replicate 3: boom")))
    assert type(back) is cls and str(back) == "replicate 3: boom"
