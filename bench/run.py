"""Run one benchmark workload against the acebounds sources of this checkout.

    python3 bench/run.py --workload mc-paper --seed 1 --seconds 55 --trace 0

With ``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1``
it replays the workload's operations with spans at each layer boundary and
prints the per-layer metrics instead.  Human-readable lines come first; the
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See bench/README.md.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from tracing import SLOTS, Tracer  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
TRACE_DIR = BENCH_DIR / "out"

# BENCHMARK.json times mc-paper and exact-bounds; estimate-discrete is kept
# for manual runs and the self-test (see README.md)
WORKLOAD_NAMES = ("mc-paper", "estimate-discrete", "exact-bounds")
SETUP_REPEATS = 3
# a tail percentile is reported only when at least this many samples lie beyond it
TAIL_SAMPLES = 10

MODELS = ("BD", "FD", "TD", "BD_TD", "FD_TD", "BD_FD_TD")
TAGS = ("NAIVE",) + MODELS

END_TO_END = {
    "setup_s": "s",
    "throughput_ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "quadrature.expect_z.calls": "count/op",
    "quadrature.expect_z.ms": "ms/op",
    "quadrature.expect_z.grid_elements": "count/op",
    "quadrature.expect_z.share": "fraction",
    "fitting.fit.ms": "ms/op",
    **{f"fitting.fit.{slot}.ms": "ms/op" for slot in SLOTS},
    "fitting.component.calls": "count/op",
    "fitting.component.elements": "count/op",
    "fitting.component.ms": "ms/op",
    **{f"estimators.estimate.{tag}.ms": "ms/op" for tag in TAGS},
    "influence.self_ms": "ms/op",
    **{f"influence.brute_force_variance.{m}.ms": "ms/op" for m in MODELS},
    "influence.truth_nuisances.ms": "ms/op",
    "simlab.sample_dgp.ms": "ms/op",
    "simlab.pool_speedup": "ratio",
    "simlab.pool_speedup.base_ops_per_s": "1/s",
    **{f"bounds.bound.{m}.ms": "ms/op" for m in MODELS},
    "dist.first_query.ms": "ms/op",
    "compare.td_minus_bd_gap.ms": "ms/op",
    "compare.td_vs_bd_verdict.ms": "ms/op",
    "trace.overhead_frac": "fraction",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    return args


def import_library():
    """Import acebounds from this checkout's src/, never from an installed copy."""
    if not (SRC / "acebounds" / "__init__.py").is_file():
        raise SystemExit(f"error: no acebounds sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import acebounds

    if Path(acebounds.__file__).resolve().parent != SRC / "acebounds":
        raise SystemExit(f"error: imported acebounds from {acebounds.__file__}, not {SRC}")


def seed_seq(seed, phase, index):
    return np.random.SeedSequence([seed, phase, index])


def percentile(values, q):
    """Nearest-rank percentile (q in (0, 100])."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def machine_line():
    return (
        f"machine: nproc {len(os.sched_getaffinity(0))}, {platform.machine()}, "
        f"Python {platform.python_version()}, numpy {np.__version__}"
    )


class Outcome:
    """Attempted and failed operation counts plus the failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def record(self, ops, problems):
        self.attempted += ops
        if problems:
            self.failed += ops
            self.messages += problems


def run_op(wl, inp, outcome):
    """One timed operation; returns (seconds, output or None if it raised)."""
    from acebounds import AceboundsError

    start = time.perf_counter()
    try:
        out = wl.run(inp)
    except AceboundsError as exc:
        elapsed = time.perf_counter() - start
        outcome.record(wl.ops(inp), [f"{type(exc).__name__}: {exc}"])
        return elapsed, None
    elapsed = time.perf_counter() - start
    outcome.record(wl.ops(inp), wl.check(inp, out))
    return elapsed, out


def untraced(args, wl, import_s):
    setup_outcome = Outcome()
    setups = []
    for i in range(SETUP_REPEATS):
        start = time.perf_counter()
        inp = wl.make_input(seed_seq(args.seed, 0, i))
        run_op(wl, inp, setup_outcome)
        setups.append(time.perf_counter() - start)
    setup_s = import_s + statistics.median(setups)

    outcome = Outcome()
    op_seconds = []
    ops_done = 0
    deadline = time.perf_counter() + args.seconds
    index = 0
    while index == 0 or time.perf_counter() < deadline:
        inp = wl.make_input(seed_seq(args.seed, 1, index))
        elapsed, out = run_op(wl, inp, outcome)
        op_seconds.append(elapsed)
        if out is not None:
            ops_done += wl.ops(inp)
        index += 1
    outcome.messages += setup_outcome.messages + wl.final_check()

    timed = sum(op_seconds)
    samples = len(op_seconds)
    metrics = {
        "setup_s": setup_s,
        "throughput_ops_per_s": ops_done / timed,
        "latency_p50_ms": statistics.median(op_seconds) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    lines = [
        f"setup: import {import_s:.3f} s + median of {SETUP_REPEATS} (input generation + warm-up operation) "
        f"{statistics.median(setups):.3f} s",
        f"timed: {samples} calls, {outcome.attempted} operations, {timed:.3f} s of operation wall time",
    ]
    for name, unit in END_TO_END.items():
        extra = f" (n={samples})" if name == "latency_p50_ms" else ""
        lines.append(f"{name} = {metrics[name]!r} {unit}{extra}")
    lines.append(f"failed_frac = {outcome.failed / outcome.attempted!r} ({outcome.failed}/{outcome.attempted})")
    if samples * (1 - 0.9) >= TAIL_SAMPLES:
        lines.append(f"latency_p90_ms = {percentile(op_seconds, 90) * 1e3!r} ms (n={samples})")
    else:
        lines.append(
            f"latency_p90_ms not reported: {samples} samples leave fewer than {TAIL_SAMPLES} beyond p90"
        )
    correct = not outcome.messages
    return correct, outcome, {k: (metrics[k], END_TO_END[k]) for k in END_TO_END}, lines


def traced(args, wl):
    from acebounds import AceboundsError

    # one untraced warm-up so lazy set-up does not land in the first spans
    warm_up = Outcome()
    run_op(wl, wl.make_input(seed_seq(args.seed, 0, 0)), warm_up)
    tracer = Tracer()
    outcome = Outcome()
    untraced_s = traced_s = 0.0
    deadline = time.perf_counter() + args.seconds
    index = 0
    while index == 0 or time.perf_counter() < deadline:
        inp = wl.make_input(seed_seq(args.seed, 1, index))
        try:
            problems, plain_s, span_s = wl.traced(inp, tracer, outcome.attempted)
        except AceboundsError as exc:
            problems, plain_s, span_s = [f"{type(exc).__name__}: {exc}"], 0.0, 0.0
        outcome.record(wl.ops(inp), problems)
        untraced_s += plain_s
        traced_s += span_s
        index += 1
    outcome.messages += warm_up.messages + wl.final_check()

    ops = outcome.attempted
    totals = tracer.totals()

    def total(name):
        return totals.get(name, (0, 0.0, 0.0))

    def ms(name, column=1):
        return total(name)[column] * 1e3 / ops

    def summed(prefix, column):
        return sum(v[column] for k, v in totals.items() if k.startswith(prefix))

    metrics = {
        "quadrature.expect_z.calls": total("quadrature.expect_z")[0] / ops,
        "quadrature.expect_z.ms": ms("quadrature.expect_z"),
        "quadrature.expect_z.grid_elements": tracer.counts["quadrature.expect_z.grid_elements"] / ops,
        "quadrature.expect_z.share": total("quadrature.expect_z")[1] / total("op")[1],
        "fitting.fit.ms": ms("fitting.fit"),
        "fitting.component.calls": summed("fitting.component.", 0) / ops,
        "fitting.component.elements": tracer.counts["fitting.component.elements"] / ops,
        "fitting.component.ms": summed("fitting.component.", 1) * 1e3 / ops,
        "influence.self_ms": ms("influence.evaluate_m", column=2),
        "influence.truth_nuisances.ms": ms("influence.truth_nuisances"),
        "simlab.sample_dgp.ms": ms("simlab.sample_dgp"),
        "dist.first_query.ms": ms("dist.first_query"),
        "compare.td_minus_bd_gap.ms": ms("compare.td_minus_bd_gap"),
        "compare.td_vs_bd_verdict.ms": ms("compare.td_vs_bd_verdict"),
        "trace.overhead_frac": traced_s / untraced_s - 1.0,
    }
    for slot in SLOTS:
        metrics[f"fitting.fit.{slot}.ms"] = ms(f"fitting.fit.{slot}")
    for tag in TAGS:
        metrics[f"estimators.estimate.{tag}.ms"] = ms(f"estimators.estimate.{tag}")
    for model in MODELS:
        metrics[f"influence.brute_force_variance.{model}.ms"] = ms(f"influence.brute_force_variance.{model}")
        metrics[f"bounds.bound.{model}.ms"] = ms(f"bounds.bound.{model}")
    pooled_s, serial_s = getattr(wl, "pool_seconds", (0.0, 0.0))
    metrics["simlab.pool_speedup"] = serial_s / pooled_s if pooled_s else 0.0
    metrics["simlab.pool_speedup.base_ops_per_s"] = ops / serial_s if serial_s else 0.0

    TRACE_DIR.mkdir(exist_ok=True)
    trace_path = TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
    tracer.write_jsonl(trace_path)
    lines = [f"traced: {ops} operations, {len(tracer.spans)} spans written to {trace_path.relative_to(ROOT)}"]
    for name, unit in PER_LAYER.items():
        lines.append(f"{name} = {metrics[name]!r} {unit}")
    lines.append(
        f"tracing overhead: traced replay {traced_s:.3f} s vs untraced {untraced_s:.3f} s "
        f"on the same inputs ({100 * metrics['trace.overhead_frac']:+.1f}%)"
    )
    if pooled_s:
        lines.append(
            f"pool speedup: run_mc with {wl.threads} threads {pooled_s:.3f} s vs 1 thread {serial_s:.3f} s "
            f"(base {metrics['simlab.pool_speedup.base_ops_per_s']:.3f} replicates/s on 1 thread)"
        )
    correct = not outcome.messages
    return correct, outcome, {k: (metrics[k], PER_LAYER[k]) for k in PER_LAYER}, lines


def main(argv=None):
    args = parse_args(argv)
    import_library()
    from workloads import WORKLOADS

    import_s = time.perf_counter() - STARTED
    wl = WORKLOADS[args.workload]()
    if args.trace:
        correct, outcome, metrics, lines = traced(args, wl)
    else:
        correct, outcome, metrics, lines = untraced(args, wl, import_s)

    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    for line in [machine_line(), f"working set ({wl.working_set()})"] + lines:
        print(line)
    for message in outcome.messages[:20]:
        print(f"CHECK FAILED: {message}")
    result = {
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
