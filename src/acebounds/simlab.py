"""Seeded Monte Carlo studies on the Gaussian-mediator family.

Child seeds are spawned from the master seed by (size index, replicate index),
so a single replicate can be reproduced in isolation and results do not depend
on scheduling.  With ``threads > 1`` replicates run in worker processes of one
persistent ``spawn`` pool, started on first use and reused while the worker
count stays the same.  Each worker gets one chunk of consecutive replicates per
size (``ceil(replicates / workers)`` of them), so a size costs one pool round
trip per worker, not one per replicate; the summary is reduced from the
index-ordered vector of estimates.  numpy's bundled OpenBLAS is pinned to one
thread in the workers and, for the length of the call, in a serial run, so
output is bitwise identical for any worker count.

The worker set-up (``_set_up_worker``) also keeps each worker's heap warm.  A
replicate at n=50000 allocates and frees row-length temporaries of 400 kB,
above glibc's initial 128 KiB mmap threshold; glibc raises that threshold as
such blocks are freed, but then trims the heap top back to the kernel, so
most temporaries still arrive as fresh zeroed pages (about 2500 minor page
faults and 4-7 ms of system time per replicate).  Where the C library has
``mallopt``, the set-up fixes M_MMAP_THRESHOLD at 32 MiB and M_TRIM_THRESHOLD
at 64 MiB: freed blocks stay in the heap, and a replicate takes no page
faults and no system time.  Both are set because setting either one turns
off glibc's dynamic threshold, so either alone leaves more faults than
neither; where glibc rejects the mmap threshold, the trim threshold is
left alone too.  The serial path runs in the caller's process, where a mallopt
setting cannot be undone, so it is left alone.

The misspecification settings are one table, ``_SETTINGS``: per setting, the
slots whose correct model (``_CORRECT_SPECS``) drops predictors before fitting,
or whose probability (p_c, p_a) is fixed at a value instead.  Setting 0 changes
nothing, and ``MISSPECIFICATION_SETTINGS`` lists the table's keys.  Every
setting keeps gaussian-density mediator laws, integrated in each replicate's
``fit`` with ``gh_nodes`` Gauss-Hermite nodes: 1 as ``fit`` picks (the integrands
are affine in z) unless overridden (the benchmark pins 64); ``McConfig`` checks it.

Workers start from a fresh interpreter that imports the caller's main module,
so a script that calls :func:`run_mc` with ``threads > 1`` must make that call
under ``if __name__ == "__main__":``.
"""

from __future__ import annotations

import atexit
import ctypes
import glob
import os
from concurrent.futures import BrokenExecutor
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from functools import cache, partial

import numpy as np

from .bounds import SimDgpParams, simdgp_theta
from .dist import TreatmentPair
from .errors import AceboundsError, DomainError
from .estimators import ESTIMATOR_TAGS, estimate_all
from .fitting import Dataset, GaussianConditional, ModelSpec, _count, _LinearMean, _Logistic, fit
from .influence import NuisanceSet, _Table
from .quadrature import GaussHermiteZRule
from .special import expit

__all__ = [
    "McConfig",
    "McRow",
    "McSummary",
    "sample_dgp",
    "simdgp_truth_nuisances",
    "setting_model_specs",
    "run_mc",
    "MISSPECIFICATION_SETTINGS",
]

# the correctly specified model of every slot
_CORRECT_SPECS = (
    ModelSpec("p_c", "empirical"),
    ModelSpec("p_a", "empirical"),
    ModelSpec("p_a_given_c", "logistic", predictors=("c",)),
    ModelSpec("p_z_given_a", "gaussian-density", predictors=("a",)),
    ModelSpec("p_z_given_ac", "gaussian-density", predictors=("a",)),
    ModelSpec("mean_y_ac", "linear-mean", predictors=("a", "c")),
    ModelSpec("mean_y_az", "linear-mean", predictors=("a", "z")),
    ModelSpec("mean_y_zc", "linear-mean", predictors=("z", "c")),
    ModelSpec("mean_y_azc", "linear-mean", predictors=("z", "c")),
)

# setting -> {slot: the predictors it drops, or the value p_c / p_a is fixed at}
_SETTINGS = {
    0: {},  # every model correct
    1: {"p_z_given_a": ("a",), "p_z_given_ac": ("a",)},  # the mediator law drops the treatment
    2: {  # everything but the mediator law is wrong
        "p_c": 0.25, "p_a": 0.25, "p_a_given_c": ("c",), "mean_y_ac": ("c",),
        "mean_y_az": ("z",), "mean_y_zc": ("z",), "mean_y_azc": ("z",),
    },
    3: {"p_c": 0.25, "p_z_given_a": ("a",), "p_z_given_ac": ("a",)},  # p(C=1) fixed, the law drops a
    4: {"p_a_given_c": ("c",), "mean_y_zc": ("z",), "mean_y_azc": ("z",)},  # propensity and (z, c) means wrong
}
MISSPECIFICATION_SETTINGS = tuple(_SETTINGS)


@dataclass(frozen=True)
class McConfig:
    params: SimDgpParams
    sizes: tuple = (5000,)
    replicates: int = 200
    tags: tuple = ESTIMATOR_TAGS
    setting: int = 0
    seed: int = 0
    threads: int = 1
    gh_nodes: int = 1

    def __post_init__(self):
        try:
            sizes = tuple(self.sizes)
        except TypeError:  # a scalar where a sequence belongs
            raise DomainError(f"sizes must be a sequence of sample sizes, got {self.sizes!r}") from None
        object.__setattr__(self, "sizes", tuple(_count("sizes", n) for n in sizes))
        for name in ("replicates", "setting", "seed", "threads", "gh_nodes"):
            object.__setattr__(self, name, _count(name, getattr(self, name)))
        if self.replicates < 2:
            raise DomainError("need at least two replicates")
        if not self.sizes:
            raise DomainError("sizes must name at least one sample size")
        if any(n < 10 for n in self.sizes):
            raise DomainError("sample sizes below 10 are not supported")
        if len(set(self.sizes)) < len(self.sizes):
            raise DomainError(f"sizes repeat a sample size: {list(self.sizes)}")  # failed counts are keyed by n
        setting_model_specs(self.setting)  # raises DomainError for an unknown setting
        if self.threads < 1:
            raise DomainError("threads (replicates in flight) must be at least 1")
        if not self.tags:
            raise DomainError("tags must name at least one estimator tag")
        unknown = set(self.tags) - set(ESTIMATOR_TAGS)
        if unknown:
            raise DomainError(f"unknown estimator tags {sorted(unknown)}")
        object.__setattr__(self, "tags", tuple(self.tags))
        if repeated := sorted({t for i, t in enumerate(self.tags) if t in self.tags[:i]}):
            raise DomainError(f"tags repeat an estimator tag: {repeated}")  # summary rows are keyed by (n, tag)
        GaussHermiteZRule(self.gh_nodes)  # raises DomainError for a node count the rule refuses, before any replicate runs


@dataclass(frozen=True)
class McRow:
    setting: int
    n: int
    tag: str
    bias: float
    bias_se: float
    emp_se: float
    scaled_var: float
    scaled_var_se: float
    mse: float
    mse_se: float


@dataclass
class McSummary:
    rows: list
    theta: float
    config: McConfig
    failed: dict  # n -> number of failed replicates

    CSV_HEADER = tuple(f.name for f in fields(McRow))

    def row(self, n: int, tag: str) -> McRow:
        for r in self.rows:
            if r.n == n and r.tag == tag:
                return r
        raise KeyError((n, tag))


def sample_dgp(params: SimDgpParams, n: int, seed) -> Dataset:
    """Draw n rows of (c, a, z, y); `seed` may be an int or a SeedSequence."""
    rng = np.random.default_rng(seed)
    c_is_1 = rng.random(n) < params.p_c
    c = c_is_1.astype(float)
    p_a = expit(params.alpha * np.array([0.0, 1.0]))  # p(A=1|c) at the two covariate levels
    a = (rng.random(n) < p_a[c_is_1.view(np.uint8)]).astype(float)  # gathered by c's 0/1 byte
    z = params.beta * a + params.sigma_z * rng.standard_normal(n)
    y = params.gamma1 * z + params.gamma2 * c + params.sigma_y * rng.standard_normal(n)
    return Dataset(c, a, z, y, TreatmentPair(1.0, 0.0))


def simdgp_truth_nuisances(params: SimDgpParams):
    """Every nuisance slot filled with the exact laws of the study family."""
    p1 = params.p_a_marginal(1)
    law = GaussianConditional(("a", "c"), ("a",), [0.0, params.beta], params.sigma_z)
    g1, g2, al = params.gamma1, params.gamma2, params.alpha
    # p(C=1 | A=a) by Bayes on the binary covariate
    ec_a1 = float(expit(al)) * params.p_c / p1
    ec_a0 = (1.0 - float(expit(al))) * params.p_c / (1.0 - p1)

    def mean_y_az(a, z):
        cond_c = np.where(np.asarray(a) == 1.0, ec_a1, ec_a0)
        return g1 * np.asarray(z, dtype=float) + g2 * cond_c

    return NuisanceSet(
        a_support=(0.0, 1.0),
        c_support=(0.0, 1.0),
        p_c=_Table([1.0 - params.p_c, params.p_c], ((0.0, 1.0),), what="p(c)"),
        p_a=_Table([1.0 - p1, p1], ((0.0, 1.0),), what="p(a)"),
        p_a_given_c=_Logistic(("c",), ("c",), [0.0, al], 1.0, 0.0),
        p_z_given_a=law,
        p_z_given_ac=law,
        mean_y_ac=_LinearMean(("a", "c"), ("a", "c"), [0.0, g1 * params.beta, g2]),
        mean_y_az=mean_y_az,
        mean_y_zc=_LinearMean(("z", "c"), ("z", "c"), [0.0, g1, g2]),
        mean_y_azc=_LinearMean(("a", "z", "c"), ("z", "c"), [0.0, g1, g2]),
        z_integrator=GaussHermiteZRule(),
        manifest={"source": "study-family truth"},
    )


def setting_model_specs(setting: int) -> list:
    """ModelSpec list for a misspecification setting of ``_SETTINGS`` (0 = everything correct)."""
    if setting not in _SETTINGS:
        raise DomainError(f"setting must be one of {MISSPECIFICATION_SETTINGS}")
    specs = []
    for spec in _CORRECT_SPECS:
        change = _SETTINGS[setting].get(spec.component)
        if isinstance(change, float):
            spec = ModelSpec(spec.component, "fixed-value", fix_value=change)
        elif change:
            spec = replace(spec, omit=change)
        specs.append(spec)
    return specs


def _one_replicate(config: McConfig, specs, size_index: int, rep_index: int, n: int):
    seed = np.random.SeedSequence(entropy=config.seed, spawn_key=(size_index, rep_index))
    data = sample_dgp(config.params, n, seed)
    eta = fit(data, specs, z_rule=GaussHermiteZRule(config.gh_nodes))
    return {r.tag: r.theta_hat for r in estimate_all(data, eta, config.tags, td_reduced=True)}


def _work(config: McConfig, specs, size_index: int, n: int, k: int):
    """Replicate k: its estimates by tag, or the package error it raised."""
    try:
        return _one_replicate(config, specs, size_index, k, n)
    except AceboundsError as exc:
        return exc


@cache
def _blas_threads():
    """(get, set) of the thread count of numpy's bundled OpenBLAS, or None without one."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas64_-*.so")):
        try:
            lib = ctypes.CDLL(path)
            get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        return get, put
    return None


@cache
def _mallopt():
    """mallopt(param, value) of the C library the interpreter runs on, or None without one."""
    try:
        fn = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):  # no C library to load by name None, or no mallopt in it
        return None
    fn.argtypes, fn.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    return fn


# glibc's mallopt parameters (malloc.h) and the worker values; see the module docstring
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_TRIM_THRESHOLD, _MMAP_THRESHOLD = 64 << 20, 32 << 20


def _set_up_worker():
    """Worker initializer: one BLAS thread, as in the serial path, and a heap that keeps its pages.

    Both malloc thresholds are fixed where the C library has ``mallopt``; the
    trim threshold only once the mmap threshold is accepted (mallopt returns
    1), as the trim threshold alone faults more than neither and glibc
    rejects an mmap threshold above HEAP_MAX_SIZE/2 (16 MiB on 32-bit
    builds).  The serial path runs in the caller's process, where they cannot
    be undone, so it leaves them alone.
    """
    if (blas := _blas_threads()) is not None:
        blas[1](1)
    if (mallopt := _mallopt()) is not None and mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD) == 1:
        mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


@contextmanager
def _one_blas_thread():
    """Pin BLAS to one thread for the block, then restore the previous count."""
    blas = _blas_threads()
    if blas is None:
        yield
        return
    get, put = blas
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


def _pool_size(threads: int, replicates: int) -> int:
    """Worker processes for a run: no more than the replicates or the usable cores."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return min(threads, replicates, cores)


_pool = None  # (worker count, executor) of the pool this process started


def _executor(workers: int):
    """The persistent pool of `workers` processes, started on first use."""
    global _pool
    if _pool is None or _pool[0] != workers:
        # imported here, so that importing simlab loads no multiprocessing machinery
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import get_context

        _drop_pool()
        atexit.unregister(_teardown)
        atexit.register(_teardown, os.getpid())
        executor = ProcessPoolExecutor(workers, mp_context=get_context("spawn"), initializer=_set_up_worker)
        _pool = (workers, executor)
    return _pool[1]


def _drop_pool():
    """Shut down this process's pool, if any; the next pooled run starts a fresh one."""
    global _pool
    if _pool is not None:
        _pool, (_, executor) = None, _pool
        executor.shutdown(wait=True, cancel_futures=True)


def _teardown(owner: int):
    """At exit of the pool's owner: stop the workers, then stop and reap the resource tracker.

    Left alone, the tracker outlives the interpreter for about a second and
    then stays an unreaped zombie.  ``_stop`` is private API; a test checks
    that no process outlives a script that ran the pool.
    """
    if os.getpid() != owner:
        return
    from multiprocessing import resource_tracker

    _drop_pool()
    tracker = resource_tracker._resource_tracker
    if tracker._pid is not None:  # started here, not inherited from a parent process
        tracker._stop()


def _replicates(config: McConfig, specs, size_index: int, n: int, workers: int) -> list:
    """Every replicate's estimates (or error) at one size, in replicate order."""
    work = partial(_work, config, specs, size_index, n)
    if workers == 1:
        with _one_blas_thread():
            return [work(k) for k in range(config.replicates)]
    try:
        return list(_executor(workers).map(work, range(config.replicates), chunksize=-(-config.replicates // workers)))
    except BrokenExecutor as exc:  # the pool's BrokenProcessPool
        _drop_pool()
        raise AceboundsError(
            f"a run_mc worker process died ({exc}); workers import the caller's main module, "
            'so a script must call run_mc with threads > 1 under `if __name__ == "__main__":`'
        ) from exc


def run_mc(config: McConfig) -> McSummary:
    """Run the study: per size, `replicates` seeded draws, fit, estimate, aggregate.

    Replicates that raise package errors are counted and excluded when they
    are fewer than 1% of the replicate count; otherwise the run fails.
    """
    specs = setting_model_specs(config.setting)
    pair = TreatmentPair(1.0, 0.0)
    theta = simdgp_theta(config.params, pair)
    workers = _pool_size(config.threads, config.replicates)
    rows = []
    failed = {}
    for size_index, n in enumerate(config.sizes):
        results = _replicates(config, specs, size_index, n, workers)
        errors = [r for r in results if isinstance(r, Exception)]
        failed[n] = len(errors)
        if errors and len(errors) >= 0.01 * config.replicates:
            raise AceboundsError(
                f"{len(errors)}/{config.replicates} replicates failed at n={n}; first: {errors[0]}"
            )
        kept = [r for r in results if not isinstance(r, Exception)]
        count = len(kept)
        for tag in config.tags:
            thetas = np.array([r[tag] for r in kept])
            err = thetas - theta
            s = float(thetas.std(ddof=1))
            bias = float(err.mean())
            scaled = n * s * s
            rows.append(
                McRow(
                    setting=config.setting,
                    n=n,
                    tag=tag,
                    bias=bias,
                    bias_se=s / np.sqrt(count),
                    emp_se=s,
                    scaled_var=scaled,
                    scaled_var_se=float(np.sqrt(2.0 * scaled**2 / count)),
                    mse=float(np.mean(err**2)),
                    mse_se=float(np.std(err**2, ddof=1) / np.sqrt(count)),
                )
            )
    return McSummary(rows=rows, theta=theta, config=config, failed=failed)
