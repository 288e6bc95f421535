"""Span recording for the traced benchmark run.

Spans are recorded from the benchmark's own files only: around the public
calls the benchmark makes, plus wrappers that the benchmark installs for the
duration of a traced operation:

* ``acebounds.influence.expect_z`` (span ``quadrature.expect_z``; the grid
  elements the integrand computes are counted),
* ``acebounds.estimators.evaluate_m`` and ``acebounds.influence.evaluate_m``
  (span ``influence.evaluate_m``),
* ``acebounds.influence.truth_nuisances`` (span ``influence.truth_nuisances``),
* the slot callables of a fitted ``NuisanceSet`` (spans
  ``fitting.component.<slot>``; output elements are counted).

Nothing in ``src/`` is edited; the patches are undone when the traced
operation ends.  A missing patch target is skipped, so its metrics read 0.
"""

from __future__ import annotations

import dataclasses
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np


class Tracer:
    """In-memory span store: name, start, end, parent span and operation id."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self.op = None

    @contextmanager
    def span(self, name):
        rec = {
            "id": len(self.spans),
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "op": self.op,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def count(self, name, amount):
        self.counts[name] += int(amount)

    def totals(self):
        """Per span name: (number of spans, total duration, total self time), seconds.

        Self time is a span's duration minus the time its direct children cover;
        children never overlap because the traced replay runs on one thread.
        """
        child_time = defaultdict(float)
        for rec in self.spans:
            if rec["parent"] is not None:
                child_time[rec["parent"]] += rec["end"] - rec["start"]
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for rec in self.spans:
            dur = rec["end"] - rec["start"]
            agg = out[rec["name"]]
            agg[0] += 1
            agg[1] += dur
            agg[2] += dur - child_time[rec["id"]]
        return {name: tuple(v) for name, v in out.items()}

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


class TracedComponent:
    """A fitted nuisance callable that records a span per call.

    Every other attribute (``location_scale`` included) is forwarded to the
    wrapped object, so integration rules see the same interface.
    """

    def __init__(self, fn, tracer, slot):
        self._fn = fn
        self._tracer = tracer
        self._name = "fitting.component." + slot

    def __call__(self, *args):
        with self._tracer.span(self._name):
            out = self._fn(*args)
        self._tracer.count("fitting.component.elements", np.size(out))
        return out

    def __getattr__(self, name):
        return getattr(self._fn, name)


SLOTS = (
    "p_c",
    "p_a",
    "p_a_given_c",
    "p_z_given_a",
    "p_z_given_ac",
    "mean_y_ac",
    "mean_y_az",
    "mean_y_zc",
    "mean_y_azc",
)


def traced_nuisances(eta, tracer):
    """Copy of a NuisanceSet whose present slot callables record spans."""
    wrapped = {
        slot: TracedComponent(getattr(eta, slot), tracer, slot)
        for slot in SLOTS
        if getattr(eta, slot, None) is not None
    }
    return dataclasses.replace(eta, **wrapped)


def _spanned(fn, tracer, name):
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)

    return wrapper


def _counted_expect_z(fn, tracer):
    def expect_z(rule, density, g, *cond):
        def integrand(nodes):
            vals = g(nodes)
            tracer.count("quadrature.expect_z.grid_elements", np.size(vals))
            return vals

        with tracer.span("quadrature.expect_z"):
            return fn(rule, density, integrand, *cond)

    return expect_z


@contextmanager
def instrumented(tracer):
    """Install the layer wrappers for the duration of the block."""
    import acebounds.estimators as estimators
    import acebounds.influence as influence

    patches = [
        (influence, "expect_z", lambda f: _counted_expect_z(f, tracer)),
        (influence, "evaluate_m", lambda f: _spanned(f, tracer, "influence.evaluate_m")),
        (estimators, "evaluate_m", lambda f: _spanned(f, tracer, "influence.evaluate_m")),
        (influence, "truth_nuisances", lambda f: _spanned(f, tracer, "influence.truth_nuisances")),
    ]
    saved = []
    try:
        for module, attr, make in patches:
            original = getattr(module, attr, None)
            if original is None:
                continue
            saved.append((module, attr, original))
            setattr(module, attr, make(original))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
