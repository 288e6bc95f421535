"""The three benchmark workloads: inputs, one operation, correctness gates, traced replay.

Every workload is closed-loop: the next operation starts only after the
previous one finished.  Inputs are drawn from a ``SeedSequence`` that the
runner derives from ``--seed``; the library receives nothing else.

Each workload class provides

* ``make_input(seq)`` -- the operation's inputs, drawn from ``seq``;
* ``run(inp)`` -- the timed operation, through the public API only;
* ``check(inp, out)`` -- correctness gates, a list of failure messages;
* ``ops(inp)`` -- how many operations one ``run`` call counts for;
* ``traced(inp, tracer, op_base)`` -- runs the operation(s) untraced, then
  replays them with spans on the same inputs (operation ids from ``op_base``);
  returns (failure messages, untraced seconds, traced seconds) so the runner
  can report the tracing overhead;
* ``final_check()`` -- run-wide gates, checked once after the last operation;
* ``working_set()`` -- computed (not measured) sizes of the inputs.
"""

from __future__ import annotations

import math
import os
import time
from contextlib import nullcontext

import numpy as np

from acebounds import (
    DiscreteJoint,
    SimDgpParams,
    TreatmentPair,
    ace_backdoor,
    ace_frontdoor,
    ace_twodoor,
    bound,
    brute_force_variance,
    chain_joint,
    simdgp_theta,
)
from acebounds.bounds import MODELS
from acebounds.compare import td_minus_bd_gap, td_vs_bd_verdict
from acebounds.estimators import ESTIMATOR_TAGS, estimate, estimate_all
from acebounds.fitting import Dataset, ModelSpec, fit
from acebounds.quadrature import GaussHermiteZRule
from acebounds.simlab import McConfig, run_mc, sample_dgp, setting_model_specs

from tracing import instrumented, traced_nuisances

PAIR = TreatmentPair(1.0, 0.0)
TOL = 1e-9


def _spans(tracer):
    """The tracer's span factory, or one that records nothing."""
    return tracer.span if tracer is not None else (lambda name: nullcontext())


def _same(x, y):
    """Bitwise equality of two result dicts of floats (NaN equals NaN)."""
    if x.keys() != y.keys():
        return False
    for key in x:
        a, b = x[key], y[key]
        if isinstance(a, float):
            if np.float64(a).tobytes() != np.float64(b).tobytes():
                return False
        elif a != b:
            return False
    return True


def _fit_each_slot(data, specs, tracer, **kwargs):
    """fit(data, [spec]) alone per slot, one span each (not part of the operation)."""
    for spec in specs:
        with tracer.span("fitting.fit." + spec.component):
            fit(data, [spec], **kwargs)


class McPaper:
    """Paper-scale Monte Carlo: replicates of the Gaussian-mediator study at n=50000.

    One timed call is ``run_mc`` with REPS replicates; an operation is one
    replicate, so throughput is replicates per second of run_mc wall time.
    """

    name = "mc-paper"
    N = 50000
    REPS = 4
    GH_NODES = 64
    SETTING = 0
    # setting 0 is correctly specified for every model; NAIVE is confounded
    UNBIASED = MODELS

    def __init__(self):
        self.threads = min(2, len(os.sched_getaffinity(0)))
        self.params = SimDgpParams(alpha=1.0, beta=1.5, gamma1=1.5, gamma2=1.5)
        self.theta = simdgp_theta(self.params, PAIR)
        self.specs = setting_model_specs(self.SETTING)
        # per tag: (replicates, sum of errors, sum of squared deviations)
        self._pool = {tag: [0, 0.0, 0.0] for tag in self.UNBIASED}
        # traced run: wall seconds of run_mc with `threads` threads and with 1
        self.pool_seconds = [0.0, 0.0]

    def make_input(self, seq):
        return int(seq.generate_state(1, dtype=np.uint64)[0])

    def config(self, seed, threads):
        return McConfig(
            params=self.params,
            sizes=(self.N,),
            replicates=self.REPS,
            setting=self.SETTING,
            seed=seed,
            threads=threads,
            gh_nodes=self.GH_NODES,
        )

    def ops(self, inp):
        return self.REPS

    def run(self, seed):
        return run_mc(self.config(seed, self.threads))

    def check(self, seed, summary):
        bad = []
        if summary.failed.get(self.N, 0):
            bad.append(f"seed {seed}: {summary.failed[self.N]} failed replicates")
        for row in summary.rows:
            values = (row.bias, row.bias_se, row.emp_se, row.scaled_var, row.scaled_var_se, row.mse, row.mse_se)
            if not all(math.isfinite(v) for v in values):
                bad.append(f"seed {seed}: non-finite summary row for {row.tag}")
        if not bad:
            self._add_to_pool(summary)
        return bad

    def _add_to_pool(self, summary):
        """Merge one call's per-tag bias and spread into the run-wide totals."""
        for tag in self.UNBIASED:
            row = summary.row(self.N, tag)
            k = self.REPS
            count, total, ss = self._pool[tag]
            mean_old = total / count if count else 0.0
            new_total = total + row.bias * k
            mean_new = new_total / (count + k)
            # parallel-variance merge: within-call part plus between-call part
            ss += (k - 1) * row.emp_se**2 + count * (mean_old - mean_new) ** 2 + k * (row.bias - mean_new) ** 2
            self._pool[tag] = [count + k, new_total, ss]

    def final_check(self):
        """Run-wide gate: |bias| <= 4 bias_se per unbiased tag over every replicate run."""
        bad = []
        for tag, (count, total, ss) in self._pool.items():
            if count < 2:
                continue
            bias = total / count
            bias_se = math.sqrt(ss / (count - 1) / count)
            if abs(bias) > 4.0 * bias_se:
                bad.append(f"{tag}: |bias| {abs(bias):.3g} > 4 * bias_se {bias_se:.3g} over {count} replicates")
        return bad

    def _replicate(self, seed, k, tracer=None):
        """One replicate through the public calls, as run_mc performs it."""
        span = _spans(tracer)
        seq = np.random.SeedSequence(entropy=seed, spawn_key=(0, k))
        with span("simlab.sample_dgp"):
            data = sample_dgp(self.params, self.N, seq)
        with span("fitting.fit"):
            eta = fit(data, self.specs, z_rule=GaussHermiteZRule(self.GH_NODES))
        if tracer is not None:
            eta = traced_nuisances(eta, tracer)
        out = {}
        for tag in ESTIMATOR_TAGS:
            with span("estimators.estimate." + tag):
                out[tag] = estimate(data, eta, tag, td_reduced=True).theta_hat
        return data, out

    def traced(self, seed, tracer, op_base):
        bad = []
        start = time.perf_counter()
        pooled = run_mc(self.config(seed, self.threads))
        pooled_s = time.perf_counter() - start
        start = time.perf_counter()
        serial = run_mc(self.config(seed, 1))
        serial_s = time.perf_counter() - start
        self.pool_seconds[0] += pooled_s
        self.pool_seconds[1] += serial_s
        if pooled.rows != serial.rows:
            bad.append(f"seed {seed}: run_mc summary differs between {self.threads} threads and 1")
        bad += self.check(seed, serial)

        untraced_s = traced_s = 0.0
        plain = []
        for k in range(self.REPS):
            start = time.perf_counter()
            plain.append(self._replicate(seed, k)[1])
            untraced_s += time.perf_counter() - start
        with instrumented(tracer):
            for k in range(self.REPS):
                tracer.op = op_base + k
                start = time.perf_counter()
                with tracer.span("op"):
                    data, out = self._replicate(seed, k, tracer)
                traced_s += time.perf_counter() - start
                if not _same(out, plain[k]):
                    bad.append(f"seed {seed} replicate {k}: traced estimates differ from untraced")
                _fit_each_slot(data, self.specs, tracer, z_rule=GaussHermiteZRule(self.GH_NODES))
        tracer.op = None
        # the replay must be the computation run_mc times
        for tag in ESTIMATOR_TAGS:
            bias = float((np.array([r[tag] for r in plain]) - self.theta).mean())
            if abs(bias - serial.row(self.N, tag).bias) > TOL:
                bad.append(f"seed {seed}: replayed {tag} bias {bias!r} != run_mc bias")
        return bad, untraced_s, traced_s

    def working_set(self):
        grid = self.N * self.GH_NODES * 8
        return (
            f"computed: one n x nodes float64 grid = {self.N} x {self.GH_NODES} x 8 B = "
            f"{grid / 1e6:.1f} MB; dataset = 4 x {self.N} x 8 B = {4 * self.N * 8 / 1e6:.1f} MB; "
            f"{self.threads} replicate(s) in flight"
        )


def _empirical_specs():
    """The `empirical` preset: every slot from frequencies / group means of its arguments."""
    conditioning = {
        "p_c": (),
        "p_a": (),
        "p_a_given_c": ("c",),
        "p_z_given_a": ("a",),
        "p_z_given_ac": ("a", "c"),
        "mean_y_ac": ("a", "c"),
        "mean_y_az": ("a", "z"),
        "mean_y_zc": ("z", "c"),
        "mean_y_azc": ("a", "z", "c"),
    }
    return [ModelSpec(slot, "empirical", predictors=preds) for slot, preds in conditioning.items()]


class EstimateDiscrete:
    """Empirical-nuisance estimation on a fresh all-discrete dataset per operation."""

    name = "estimate-discrete"
    N = 1000
    C_LEVELS = 3
    Z_LEVELS = 8
    Y_VALUES = np.array([-1.0, 0.5, 2.0, 3.5])

    def __init__(self):
        self.specs = _empirical_specs()

    def make_input(self, seq):
        rng = np.random.default_rng(seq)
        nc, nz, ny = self.C_LEVELS, self.Z_LEVELS, self.Y_VALUES.size
        # mixing with the uniform law keeps every (a, z, c) cell likely enough
        # to be observed; the draw is repeated until all of them are
        pc = 0.5 * rng.dirichlet(np.full(nc, 4.0)) + 0.5 / nc
        pa1 = rng.uniform(0.35, 0.65, size=nc)
        pz = 0.3 * rng.dirichlet(np.full(nz, 2.0), size=(2, nc)) + 0.7 / nz  # [a, c, z]
        py = 0.5 * rng.dirichlet(np.full(ny, 2.0), size=(2, nz, nc)) + 0.5 / ny  # [a, z, c, y]
        while True:
            c = rng.choice(nc, size=self.N, p=pc)
            a = (rng.random(self.N) < pa1[c]).astype(int)
            u = rng.random(self.N)[:, None]
            z = (u > np.cumsum(pz[a, c], axis=1)).sum(axis=1).clip(max=nz - 1)
            u = rng.random(self.N)[:, None]
            y = (u > np.cumsum(py[a, z, c], axis=1)).sum(axis=1).clip(max=ny - 1)
            seen = np.zeros((2, nz, nc), dtype=bool)
            seen[a, z, c] = True
            if seen.all():
                break
        return Dataset(c.astype(float), a.astype(float), z.astype(float), self.Y_VALUES[y], PAIR)

    def ops(self, inp):
        return 1

    def run(self, data):
        eta = fit(data, self.specs)
        return {r.tag: r.theta_hat for r in estimate_all(data, eta)}

    def check(self, data, out):
        bad = [f"{tag}: theta_hat {v!r} is not finite" for tag, v in out.items() if not math.isfinite(v)]
        joint = self.empirical_joint(data)
        for tag, functional in (("BD", ace_backdoor), ("FD", ace_frontdoor), ("TD", ace_twodoor)):
            exact = functional(joint, PAIR)
            if not abs(out[tag] - exact) <= TOL:
                bad.append(f"{tag}: theta_hat {out[tag]!r} vs empirical-joint functional {exact!r}")
        return bad

    @staticmethod
    def empirical_joint(data):
        supports = [np.unique(col) for col in (data.c, data.a, data.z, data.y)]
        index = tuple(np.searchsorted(s, col) for s, col in zip(supports, (data.c, data.a, data.z, data.y)))
        pmf = np.zeros(tuple(s.size for s in supports))
        np.add.at(pmf, index, 1.0)
        return DiscreteJoint(*supports, pmf / data.n)

    def final_check(self):
        return []

    def traced(self, data, tracer, op_base):
        start = time.perf_counter()
        plain = self.run(data)
        untraced_s = time.perf_counter() - start
        bad = self.check(data, plain)
        tracer.op = op_base
        with instrumented(tracer):
            start = time.perf_counter()
            with tracer.span("op"):
                with tracer.span("fitting.fit"):
                    eta = fit(data, self.specs)
                eta = traced_nuisances(eta, tracer)
                out = {}
                for tag in ESTIMATOR_TAGS:
                    with tracer.span("estimators.estimate." + tag):
                        out[tag] = estimate(data, eta, tag).theta_hat
            traced_s = time.perf_counter() - start
            _fit_each_slot(data, self.specs, tracer)
        tracer.op = None
        if not _same(out, plain):
            bad.append("traced estimates differ from untraced")
        return bad, untraced_s, traced_s

    def working_set(self):
        nz = self.Z_LEVELS
        return (
            f"computed: n x |Z| grid = {self.N} x {nz} = {self.N * nz} elements "
            f"({self.N * nz * 8 / 1e3:.0f} kB float64), each looked up one at a time in a dict; "
            f"2 x {nz} x {self.C_LEVELS} = {2 * nz * self.C_LEVELS} (a, z, c) cells"
        )


class ExactBounds:
    """Six exact bounds, their enumeration oracles and the TD-vs-BD comparison on a fresh joint."""

    name = "exact-bounds"
    C_LEVELS, A_LEVELS, Z_LEVELS, Y_LEVELS = 4, 3, 20, 20

    def make_input(self, seq):
        """A fresh random chain joint, positive everywhere, its lazy tables empty."""
        rng = np.random.default_rng(seq)
        nc, na, nz, ny = self.C_LEVELS, self.A_LEVELS, self.Z_LEVELS, self.Y_LEVELS
        pc = 0.5 * rng.dirichlet(np.full(nc, 2.0)) + 0.5 / nc
        pa = 0.5 * rng.dirichlet(np.full(na, 2.0), size=nc) + 0.5 / na  # [c, a]
        pz = 0.5 * rng.dirichlet(np.full(nz, 2.0), size=na) + 0.5 / nz  # [a, z]
        py = 0.5 * rng.dirichlet(np.full(ny, 2.0), size=(nz, nc)) + 0.5 / ny  # [z, c, y]
        y_sup = np.linspace(-2.0, 2.0, ny)
        iy = {v: i for i, v in enumerate(y_sup)}
        return chain_joint(
            np.arange(nc, dtype=float),
            np.arange(na, dtype=float),
            np.arange(nz, dtype=float),
            y_sup,
            lambda c: pc[int(c)],
            lambda a, c: pa[int(c), int(a)],
            lambda z, a: pz[int(a), int(z)],
            lambda y, z, c: py[int(z), int(c), iy[y]],
        )

    def ops(self, inp):
        return 1

    def run(self, dist, tracer=None):
        span = _spans(tracer)
        out = {}
        with span("dist.first_query"):
            out["theta"] = ace_twodoor(dist, PAIR)
        for model in MODELS:
            with span("bounds.bound." + model):
                out["formula." + model] = bound(dist, PAIR, model).value
        for model in MODELS:
            with span("influence.brute_force_variance." + model):
                out["enumeration." + model] = brute_force_variance(dist, PAIR, model)
        with span("compare.td_minus_bd_gap"):
            out["gap"] = td_minus_bd_gap(dist, PAIR)
        with span("compare.td_vs_bd_verdict"):
            out["ordering"] = td_vs_bd_verdict(dist, PAIR).ordering
        return out

    def check(self, dist, out):
        bad = []
        for model in MODELS:
            diff = abs(out["formula." + model] - out["enumeration." + model])
            if not diff <= TOL:
                bad.append(f"{model}: |formula - enumeration| = {diff:.3g}")
        direct = out["formula.TD"] - out["formula.BD"]
        if not abs(out["gap"] - direct) <= TOL:
            bad.append(f"td_minus_bd_gap {out['gap']!r} != bound_td - bound_bd {direct!r}")
        return bad

    def final_check(self):
        return []

    def traced(self, dist, tracer, op_base):
        # a second object over the same table, so the traced replay also starts
        # with empty lazy tables
        fresh = DiscreteJoint(*dist.supports(), dist.pmf)
        start = time.perf_counter()
        plain = self.run(dist)
        untraced_s = time.perf_counter() - start
        bad = self.check(dist, plain)
        tracer.op = op_base
        with instrumented(tracer):
            start = time.perf_counter()
            with tracer.span("op"):
                out = self.run(fresh, tracer)
            traced_s = time.perf_counter() - start
        tracer.op = None
        if not _same(out, plain):
            bad.append("traced results differ from untraced")
        return bad, untraced_s, traced_s

    def working_set(self):
        cells = self.C_LEVELS * self.A_LEVELS * self.Z_LEVELS * self.Y_LEVELS
        return (
            f"computed: {cells} joint cells ({cells * 8 / 1e3:.1f} kB pmf); "
            f"enumeration evaluates m on {cells} cells x {self.Z_LEVELS} mediator values "
            f"= {cells * self.Z_LEVELS} grid elements per integral"
        )


WORKLOADS = {w.name: w for w in (McPaper, EstimateDiscrete, ExactBounds)}
