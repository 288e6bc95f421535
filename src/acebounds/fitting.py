"""Nuisance fitting: empirical frequencies, least-squares means, IRLS logistic fits,
Gaussian conditional densities, deliberate misspecification and cross-fitting.

A :class:`ModelSpec` names a NuisanceSet slot, a model family and the
predictors to use; misspecification directives remove predictors *before*
fitting (the coefficient is absent, not zero) or pin a probability to a fixed
value.  Every applied directive is recorded in the returned manifest.

Fitted probability components are clipped to [1e-6, 1 - 1e-6] before use and
clipping events are counted; conditional densities are left unclipped (the
influence evaluators enforce their own positivity threshold on denominators).
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .dist import TreatmentPair, write_text
from .errors import (
    DegenerateModel,
    DomainError,
    MaxIterExceeded,
    RankDeficient,
    SeparationDetected,
)
from .influence import NuisanceSet
from .quadrature import FiniteZRule, GaussHermiteZRule
from .special import expit

__all__ = [
    "CLIP_EPS",
    "Dataset",
    "ModelSpec",
    "CrossFitPlan",
    "FoldedNuisances",
    "fit",
    "logistic_fit",
    "gaussian_density_fit",
    "linear_mean_fit",
    "GaussianConditional",
    "read_data_csv",
    "write_data_csv",
]

CLIP_EPS = 1e-6
VARIANCE_FLOOR = 1e-8

# slot -> (call-argument names in canonical order, response variable, kind)
SLOTS = {
    "p_c": (("c",), "c", "prob"),
    "p_a": (("a",), "a", "prob"),
    "p_a_given_c": (("a", "c"), "a", "prob"),
    "p_z_given_a": (("z", "a"), "z", "law"),
    "p_z_given_ac": (("z", "a", "c"), "z", "law"),
    "mean_y_ac": (("a", "c"), "y", "mean"),
    "mean_y_az": (("a", "z"), "y", "mean"),
    "mean_y_zc": (("z", "c"), "y", "mean"),
    "mean_y_azc": (("a", "z", "c"), "y", "mean"),
}

_FAMILIES = {
    "prob": ("empirical", "logistic", "fixed-value"),
    "law": ("gaussian-density", "empirical"),
    "mean": ("linear-mean", "empirical"),
}


@dataclass
class Dataset:
    """Observed rows (c, a, z, y) plus the treatment pair under comparison."""

    c: np.ndarray
    a: np.ndarray
    z: np.ndarray
    y: np.ndarray
    pair: TreatmentPair

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        self.a = np.asarray(self.a, dtype=float)
        self.z = np.asarray(self.z, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        n = self.c.size
        if not (self.a.size == self.z.size == self.y.size == n):
            raise DomainError("c, a, z, y must have equal length")
        for name in ("c", "a", "z", "y"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise DomainError(f"non-finite value in column {name!r}")
        if n < 2:
            raise DomainError("a dataset needs at least two rows")
        for level in (self.pair.a_star, self.pair.a_ref):
            if not np.any(self.a == level):
                raise DomainError(f"treatment level {level!r} absent from the data")

    @property
    def n(self) -> int:
        return self.c.size

    def column(self, name: str) -> np.ndarray:
        return getattr(self, name)

    def subset(self, idx) -> "Dataset":
        return Dataset(self.c[idx], self.a[idx], self.z[idx], self.y[idx], self.pair)


@dataclass(frozen=True)
class ModelSpec:
    """How to populate one NuisanceSet slot.

    `omit` drops predictors before fitting; `fix_value` pins p_c / p_a to a
    constant instead of fitting anything.
    """

    component: str
    family: str
    predictors: tuple = ()
    omit: tuple = ()
    fix_value: Optional[float] = None

    def __post_init__(self):
        if self.component not in SLOTS:
            raise DomainError(f"unknown nuisance slot {self.component!r}")
        kind = SLOTS[self.component][2]
        if self.family not in _FAMILIES[kind]:
            raise DomainError(
                f"family {self.family!r} not available for slot {self.component!r}"
            )
        allowed = set("caz")
        for p in tuple(self.predictors) + tuple(self.omit):
            if p not in allowed:
                raise DomainError(f"predictor {p!r} outside {{c, a, z}}")
        if self.fix_value is not None and self.component not in ("p_c", "p_a"):
            raise DomainError("fix_value directives apply only to p_c and p_a")
        if self.family == "fixed-value" and self.fix_value is None:
            raise DomainError("fixed-value family needs fix_value")
        object.__setattr__(self, "predictors", tuple(self.predictors))
        object.__setattr__(self, "omit", tuple(self.omit))

    def effective_predictors(self) -> tuple:
        return tuple(p for p in self.predictors if p not in self.omit)


@dataclass(frozen=True)
class CrossFitPlan:
    """K-fold cross-fitting; folds=0 disables."""

    folds: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.folds == 1 or self.folds < 0:
            raise DomainError("folds must be 0 (disabled) or >= 2")


@dataclass
class FoldedNuisances:
    """Per-fold NuisanceSets; fold k's set was fitted without fold k's rows."""

    folds: list  # of (eval_indices, NuisanceSet)
    manifest: dict = field(default_factory=dict)


# -- low-level fitters -------------------------------------------------------


def _design(columns: Sequence[np.ndarray], n: int) -> np.ndarray:
    return np.column_stack([np.ones(n)] + [np.asarray(col, dtype=float) for col in columns])


def linear_mean_fit(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """OLS coefficients for y on X (X includes the intercept column)."""
    coef, _, rank, _ = np.linalg.lstsq(X, y, rcond=None)
    if rank < X.shape[1]:
        raise RankDeficient(f"design has rank {rank} < {X.shape[1]} columns")
    return coef


def logistic_fit(X: np.ndarray, y: np.ndarray, max_iter: int = 100, tol: float = 1e-8) -> np.ndarray:
    """Bernoulli MLE by iteratively reweighted least squares (Newton steps).

    Converged when the score norm drops below `tol`; perfectly separated data
    raise SeparationDetected instead of drifting off to infinity.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if set(np.unique(y)) - {0.0, 1.0}:
        raise DomainError("logistic responses must be coded 0/1")
    if np.all(y == y[0]):
        raise SeparationDetected("response is constant; the Bernoulli MLE does not exist")
    beta = np.zeros(X.shape[1])
    for _ in range(max_iter):
        lin = X @ beta
        prob = expit(lin)
        score = X.T @ (y - prob)
        if np.linalg.norm(score) < tol:
            return beta
        if np.max(np.abs(lin)) > 30.0 and np.all((2.0 * y - 1.0) * lin > 0):
            raise SeparationDetected("classes are perfectly separated")
        weight = prob * (1.0 - prob)
        hessian = X.T @ (X * weight[:, None])
        try:
            step = np.linalg.solve(hessian, score)
        except np.linalg.LinAlgError:
            raise RankDeficient("singular weighted design in IRLS") from None
        beta = beta + step
    raise MaxIterExceeded(f"IRLS did not converge in {max_iter} iterations")


def _linear_predictor(coef, predictors, arg_names, args):
    """coef[0] + sum_j coef[j] * x_j, each predictor x_j picked from `args` by its name."""
    named = dict(zip(arg_names, args))
    out = coef[0]
    for j, p in enumerate(predictors, start=1):
        out = out + coef[j] * np.asarray(named[p], dtype=float)
    return out


class GaussianConditional:
    """Gaussian law for a response given predictors: mean linear in them, constant sd."""

    def __init__(self, arg_names: tuple, predictors: tuple, coef: np.ndarray, sd: float):
        self.arg_names = arg_names  # conditioning args in canonical call order
        self.predictors = predictors
        self.coef = np.asarray(coef, dtype=float)
        self.sd = float(sd)

    def location_scale(self, *cond):
        return _linear_predictor(self.coef, self.predictors, self.arg_names, cond), self.sd

    def __call__(self, value, *cond):
        mu, sd = self.location_scale(*cond)
        value = np.asarray(value, dtype=float)
        return np.exp(-0.5 * ((value - mu) / sd) ** 2) / (sd * np.sqrt(2.0 * np.pi))


def gaussian_density_fit(data: Dataset, response: str, predictors: Sequence[str], arg_names: tuple = None) -> GaussianConditional:
    """Least-squares conditional mean plus residual-mean-square variance."""
    predictors = tuple(predictors)
    n = data.n
    if n <= len(predictors) + 1:
        raise DomainError("need n > #predictors + 1 for a residual variance")
    X = _design([data.column(p) for p in predictors], n)
    yv = data.column(response)
    coef = linear_mean_fit(X, yv)
    resid = yv - X @ coef
    variance = float(resid @ resid) / (n - X.shape[1])
    if variance < VARIANCE_FLOOR:
        raise DegenerateModel(f"residual variance {variance!r} below the {VARIANCE_FLOOR} floor")
    if arg_names is None:
        arg_names = tuple(predictors)
    return GaussianConditional(arg_names, predictors, coef, np.sqrt(variance))


def _spread(out, args):
    """Broadcast `out` to the common shape of all call arguments (as a view)."""
    shape = np.broadcast_shapes(np.shape(out), *(np.shape(v) for v in args))
    return np.broadcast_to(np.asarray(out, dtype=float), shape)


class _LinearMean:
    def __init__(self, arg_names, predictors, coef):
        self.arg_names = arg_names
        self.predictors = predictors
        self.coef = np.asarray(coef, dtype=float)

    def __call__(self, *args):
        return _spread(_linear_predictor(self.coef, self.predictors, self.arg_names, args), args)


class _Logistic:
    """p(response = level | predictors) from a logistic fit on a binary response."""

    def __init__(self, arg_names, predictors, coef, hi_level, lo_level):
        self.arg_names = arg_names
        self.predictors = predictors
        self.coef = np.asarray(coef, dtype=float)
        self.hi_level = hi_level
        self.lo_level = lo_level

    def __call__(self, value, *cond):
        p_hi = expit(_linear_predictor(self.coef, self.predictors, self.arg_names[1:], cond))
        value = np.asarray(value, dtype=float)
        out = np.where(value == self.hi_level, p_hi, np.where(value == self.lo_level, 1.0 - p_hi, np.nan))
        if np.any(np.isnan(out)):
            raise DomainError("probability requested at a level absent from the fit")
        return _spread(out, (value,) + cond)


class _EmpiricalTable:
    """Conditional frequency / group-mean table keyed by observed value combinations."""

    def __init__(self, table: dict, kind: str):
        self.table = table  # (vals...) -> value
        self.kind = kind

    def __call__(self, *args):
        arrs = [np.asarray(x, dtype=float) for x in args]
        shape = np.broadcast_shapes(*(a.shape for a in arrs))
        arrs = [np.broadcast_to(a, shape) for a in arrs]
        flat = np.empty(int(np.prod(shape)) if shape else 1)
        keys = np.stack([a.ravel() for a in arrs], axis=-1) if shape else np.array([[float(a) for a in arrs]])
        for i, key in enumerate(map(tuple, keys)):
            try:
                flat[i] = self.table[key]
            except KeyError:
                raise DomainError(f"combination {key} never observed; cannot evaluate {self.kind}") from None
        return flat.reshape(shape) if shape else float(flat[0])


def _empirical_prob(data: Dataset, response: str, given: tuple) -> _EmpiricalTable:
    cols = [data.column(v) for v in given]
    resp = data.column(response)
    table = {}
    group_keys = np.stack(cols, axis=-1) if cols else np.zeros((data.n, 0))
    uniq_groups = np.unique(group_keys, axis=0) if cols else np.zeros((1, 0))
    for g in uniq_groups:
        mask = np.all(group_keys == g, axis=1) if cols else np.ones(data.n, dtype=bool)
        denom = int(mask.sum())
        for val in np.unique(resp[mask]):
            table[(float(val),) + tuple(map(float, g))] = float(np.sum(resp[mask] == val)) / denom
        for val in np.unique(resp):  # levels unseen in this group have frequency zero
            key = (float(val),) + tuple(map(float, g))
            table.setdefault(key, 0.0)
    return _EmpiricalTable(table, f"empirical p({response}|{','.join(given) or '-'})")


def _empirical_mean(data: Dataset, given: tuple) -> _EmpiricalTable:
    cols = [data.column(v) for v in given]
    resp = data.y
    group_keys = np.stack(cols, axis=-1)
    table = {}
    for g in np.unique(group_keys, axis=0):
        mask = np.all(group_keys == g, axis=1)
        table[tuple(map(float, g))] = float(resp[mask].mean())
    return _EmpiricalTable(table, f"empirical E(y|{','.join(given)})")


class _Clipped:
    """Clip probability outputs into [eps, 1-eps]; count how often it bites."""

    def __init__(self, fn, counter: dict, slot: str, eps: float = CLIP_EPS):
        self.fn = fn
        self.counter = counter
        self.slot = slot
        self.eps = eps

    def __call__(self, *args):
        p = np.asarray(self.fn(*args), dtype=float)
        hits = int(np.count_nonzero(p < self.eps) + np.count_nonzero(p > 1.0 - self.eps))
        if hits:
            self.counter[self.slot] = self.counter.get(self.slot, 0) + hits
            self.counter["total"] = self.counter.get("total", 0) + hits
        return np.clip(p, self.eps, 1.0 - self.eps)


class _FixedProb:
    """p(response = level) pinned to a constant over a binary support."""

    def __init__(self, hi_level, lo_level, value):
        self.hi_level = hi_level
        self.lo_level = lo_level
        self.value = float(value)

    def __call__(self, value, *cond):
        value = np.asarray(value, dtype=float)
        out = np.where(value == self.hi_level, self.value, np.where(value == self.lo_level, 1.0 - self.value, np.nan))
        if np.any(np.isnan(out)):
            raise DomainError("fixed-value probability requested at an unknown level")
        return out


# -- spec-driven fitting ------------------------------------------------------


def _binary_levels(values: np.ndarray, what: str):
    levels = np.unique(values)
    if levels.size != 2:
        raise DomainError(f"{what} must be binary for this family; levels {levels.tolist()}")
    return float(levels[1]), float(levels[0])  # (hi, lo)


def _fit_slot(data: Dataset, spec: ModelSpec, counter: dict):
    args, response, kind = SLOTS[spec.component]
    preds = spec.effective_predictors()
    applied = {
        "family": spec.family,
        "predictors": list(preds),
        "omitted": list(spec.omit),
    }
    if spec.family == "fixed-value":
        hi, lo = _binary_levels(data.column(response), response)
        fn = _Clipped(_FixedProb(hi, lo, spec.fix_value), counter, spec.component)
        applied["fixed_value"] = spec.fix_value
        return fn, applied
    if spec.family == "empirical":
        if kind in ("prob", "law"):
            # only the fitted predictors condition the table; other call args are ignored
            used = tuple(v for v in args[1:] if v in preds)
            raw = _empirical_prob(data, response, used)
            fn = _ArgSelector(raw, args, (args[0],) + used)
            if kind == "prob":
                fn = _Clipped(fn, counter, spec.component)
            return fn, applied
        used = tuple(v for v in args if v in preds)
        raw = _empirical_mean(data, used)
        return _ArgSelector(raw, args, used), applied
    if spec.family == "linear-mean":
        X = _design([data.column(p) for p in preds], data.n)
        coef = linear_mean_fit(X, data.y)
        applied["coef"] = [float(v) for v in coef]
        return _LinearMean(args, preds, coef), applied
    if spec.family == "logistic":
        hi, lo = _binary_levels(data.column(response), response)
        X = _design([data.column(p) for p in preds], data.n)
        coef = logistic_fit(X, (data.column(response) == hi).astype(float))
        applied["coef"] = [float(v) for v in coef]
        fn = _Clipped(_Logistic(args, preds, coef, hi, lo), counter, spec.component)
        return fn, applied
    if spec.family == "gaussian-density":
        fn = gaussian_density_fit(data, response, preds, arg_names=args[1:])
        applied["coef"] = [float(v) for v in fn.coef]
        applied["sd"] = fn.sd
        return fn, applied
    raise DomainError(f"unhandled family {spec.family!r}")


class _ArgSelector:
    """Adapt a k-argument table to the slot's full canonical signature."""

    def __init__(self, fn, slot_args: tuple, used_args: tuple):
        self.fn = fn
        self.keep = [slot_args.index(u) for u in used_args]
        self.slot_args = slot_args

    def __call__(self, *args):
        out = self.fn(*(args[i] for i in self.keep))
        return _spread(out, args)


def _fit_single(data: Dataset, specs: Sequence[ModelSpec], z_rule=None, gh_nodes: int = 64) -> NuisanceSet:
    counter: dict = {}
    manifest = {"n": data.n, "slots": {}, "clip_events": counter}
    slots = {}
    families = {}
    for spec in specs:
        if spec.component in slots:
            raise DomainError(f"duplicate ModelSpec for slot {spec.component!r}")
        fn, applied = _fit_slot(data, spec, counter)
        slots[spec.component] = fn
        families[spec.component] = spec.family
        manifest["slots"][spec.component] = applied
    if z_rule is None:
        law_families = {families.get(s) for s in ("p_z_given_a", "p_z_given_ac") if s in families}
        if "gaussian-density" in law_families:
            z_rule = GaussHermiteZRule(gh_nodes)
        else:
            z_rule = FiniteZRule(np.unique(data.z))
    return NuisanceSet(
        a_support=tuple(np.unique(data.a).tolist()),
        c_support=tuple(np.unique(data.c).tolist()),
        z_integrator=z_rule,
        manifest=manifest,
        **slots,
    )


def fit(data: Dataset, specs: Sequence[ModelSpec], plan: CrossFitPlan = CrossFitPlan(), z_rule=None, gh_nodes: int = 64):
    """Fit every requested slot; with a cross-fit plan, one NuisanceSet per fold.

    Returns a NuisanceSet, or a FoldedNuisances whose fold k components were
    fitted with fold k's rows held out.
    """
    if plan.folds == 0:
        return _fit_single(data, specs, z_rule=z_rule, gh_nodes=gh_nodes)
    if plan.folds > data.n:
        raise DomainError("more folds than rows")
    rng = np.random.default_rng(plan.seed)
    order = rng.permutation(data.n)
    chunks = np.array_split(order, plan.folds)
    folds = []
    for k, eval_idx in enumerate(chunks):
        train_mask = np.ones(data.n, dtype=bool)
        train_mask[eval_idx] = False
        eta = _fit_single(data.subset(train_mask), specs, z_rule=z_rule, gh_nodes=gh_nodes)
        eta.manifest["fold"] = k
        eta.manifest["train_rows"] = np.nonzero(train_mask)[0].tolist()
        folds.append((np.sort(eval_idx), eta))
    manifest = {
        "folds": plan.folds,
        "seed": plan.seed,
        "slots": folds[0][1].manifest["slots"],
    }
    return FoldedNuisances(folds=folds, manifest=manifest)


# -- dataset text format ------------------------------------------------------


def read_data_csv(source, pair: TreatmentPair) -> Dataset:
    """Parse observation CSV with header `c,a,z,y`."""
    if hasattr(source, "read"):
        fh = source
        return _parse_data(fh, getattr(source, "name", "<stream>"), pair)
    with open(source, "r", encoding="utf-8", newline="") as fh:
        return _parse_data(fh, str(source), pair)


def _parse_data(fh, name: str, pair: TreatmentPair) -> Dataset:
    reader = csv.reader(fh)
    try:
        header = next(reader)
    except StopIteration:
        raise DomainError(f"{name}: empty data file") from None
    if [h.strip().lower() for h in header] != ["c", "a", "z", "y"]:
        raise DomainError(f"{name}:1: expected header 'c,a,z,y', got {','.join(header)!r}")
    rows = []
    for lineno, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 4:
            raise DomainError(f"{name}:{lineno}: expected 4 fields, got {len(row)}")
        try:
            values = [float(x) for x in row]
        except ValueError as exc:
            raise DomainError(f"{name}:{lineno}: {exc}") from None
        for column, v in zip(("c", "a", "z", "y"), values):
            if not math.isfinite(v):
                raise DomainError(f"{name}:{lineno}: non-finite value in column {column!r}")
        rows.append(values)
    if not rows:
        raise DomainError(f"{name}: no observations")
    arr = np.asarray(rows, dtype=float)
    return Dataset(arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3], pair)


def write_data_csv(data: Dataset, target) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["c", "a", "z", "y"])
    for row in zip(data.c, data.a, data.z, data.y):
        writer.writerow([repr(float(v)) for v in row])
    write_text(buf.getvalue(), target)
