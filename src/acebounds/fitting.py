"""Nuisance fitting: empirical frequencies, least-squares means, IRLS logistic fits,
Gaussian conditional densities, deliberate misspecification and cross-fitting.

A :class:`ModelSpec` names a NuisanceSet slot, a model family and the
predictors to use; misspecification directives remove predictors *before*
fitting (the coefficient is absent, not zero) or pin a probability to a fixed
value.  Every applied directive is recorded in the returned manifest.

Fitted probability components are clipped to [1e-6, 1 - 1e-6] before use and
every clipped value they return is counted; conditional densities are left
unclipped (the influence evaluators enforce their own positivity threshold on
denominators).  The evaluators call the probability slots once per distinct
(a, c) level or support value, never once per row, so a count is a number of
clipped levels per call, not of rows.

Logistic, linear-mean and Gaussian-density fits whose predictors are all a or
c are collapsed: they run on the distinct (a, c) cells of the data, each with
its row count and its response sum (the successes, for the logistic), coded
on the same supports the fitted NuisanceSet carries.  One IRLS loop
(`_irls`) and one least-squares solve (`_least_squares`) serve both designs;
the row-wise design passes counts of 1.  A Gaussian law's residual variance
still sums over all n rows.

Logistic, linear-mean and Gaussian-density components share one base class,
``_Linear``: it holds ``arg_names``, ``predictors`` and ``coef`` and computes
the linear predictor.  ``arg_names`` are the arguments the component
conditions on, in call order: the slot's call arguments (``influence.SLOTS``,
importable from here too) minus its response, which a probability or a law
takes first.  The Gaussian density is ``special.norm_pdf``.

Empirical and fixed-value slots are ``influence._Table`` lookups.  Their
``reads`` are the slot arguments that are fitted predictors (plus the response
of a probability), and their ``observed`` mask holds the groups seen in the
data: a response level unseen within an observed group has frequency 0, while
an unseen group or a value outside the support raises.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .dist import VAR_NAMES, TreatmentPair, csv_text, exact_cell, read_csv_table, write_text
from .errors import (
    DegenerateModel,
    DomainError,
    MaxIterExceeded,
    RankDeficient,
    SeparationDetected,
)
from .influence import SLOTS, NuisanceSet, _Table, level_index
from .quadrature import FiniteZRule, GaussHermiteZRule
from .special import expit, norm_pdf

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
_MAX_TABLE_CELLS = 1 << 24  # an empirical table over several continuous columns grows as n^k

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

    Predictors and `omit` entries must be conditioning arguments of the slot
    (its call arguments minus the response).  `omit` drops predictors before
    fitting; `fix_value` pins p_c / p_a to a constant instead of fitting
    anything, and is given with the fixed-value family only.
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
        args, response, _ = SLOTS[self.component]
        allowed = tuple(v for v in args if v != response)
        for p in tuple(self.predictors) + tuple(self.omit):
            if p not in allowed:
                raise DomainError(f"predictor {p!r} is not a conditioning argument of {self.component} {allowed}")
        if self.fix_value is not None and self.component not in ("p_c", "p_a"):
            raise DomainError("fix_value directives apply only to p_c and p_a")
        if (self.family == "fixed-value") != (self.fix_value is not None):
            raise DomainError("fix_value goes with the fixed-value family, and only with it")
        if self.fix_value is not None and not 0.0 <= self.fix_value <= 1.0:
            raise DomainError(f"fix_value {self.fix_value!r} is not a probability")
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


def _least_squares(X: np.ndarray, sums: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Least-squares coefficients over grouped rows.

    Row g of X stands for counts[g] data rows whose responses sum to sums[g].
    Minimises sum_g counts[g] (sums[g] / counts[g] - X[g] b)^2, which differs
    from the row-wise residual sum of squares by a constant.  The rank cutoff
    is the one lstsq applies to the ungrouped rows; with counts of 1 this is
    lstsq on the rows itself.  The scaling is skipped there: copying an n-row
    design for the row-wise outcome fits cost about 11% of Monte Carlo
    throughput on a 2-core x86 box.
    """
    rcond = np.finfo(float).eps * max(float(counts.sum()), X.shape[1])
    if np.any(counts != 1):
        root = np.sqrt(counts)
        X, sums = X * root[:, None], sums / root
    coef, _, rank, _ = np.linalg.lstsq(X, sums, rcond=rcond)
    if rank < X.shape[1]:
        raise RankDeficient(f"design has rank {rank} < {X.shape[1]} columns")
    return coef


def _irls(X: np.ndarray, successes: np.ndarray, trials: np.ndarray, max_iter: int = 100, tol: float = 1e-8) -> np.ndarray:
    """Bernoulli MLE by iteratively reweighted least squares over grouped rows.

    Row g of X has successes[g] of trials[g].  A pure group (all successes or
    none) whose linear predictor has the matching sign is separated; mixed
    groups never are.
    """
    if np.all(successes == 0) or np.all(successes == trials):
        raise SeparationDetected("response is constant; the Bernoulli MLE does not exist")
    pure = (successes == 0) | (successes == trials)
    beta = np.zeros(X.shape[1])
    for _ in range(max_iter):
        lin = X @ beta
        prob = expit(lin)
        score = X.T @ (successes - trials * prob)
        if np.linalg.norm(score) < tol:
            return beta
        if np.max(np.abs(lin)) > 30.0 and np.all(pure & ((2.0 * successes - trials) * lin > 0)):
            raise SeparationDetected("classes are perfectly separated")
        weight = trials * prob * (1.0 - prob)
        hessian = X.T @ (X * weight[:, None])
        try:
            step = np.linalg.solve(hessian, score)
        except np.linalg.LinAlgError:
            raise RankDeficient("singular weighted design in IRLS") from None
        beta = beta + step
    raise MaxIterExceeded(f"IRLS did not converge in {max_iter} iterations")


def linear_mean_fit(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """OLS coefficients for y on X (X includes the intercept column)."""
    return _least_squares(X, y, np.ones(len(y)))


def logistic_fit(X: np.ndarray, y: np.ndarray, max_iter: int = 100, tol: float = 1e-8) -> np.ndarray:
    """Bernoulli MLE by iteratively reweighted least squares (Newton steps).

    Converged when the score norm drops below `tol`; perfectly separated data
    raise SeparationDetected instead of drifting off to infinity.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if set(np.unique(y)) - {0.0, 1.0}:
        raise DomainError("logistic responses must be coded 0/1")
    return _irls(X, y, np.ones(y.size), max_iter, tol)


def _fit_design(data: Dataset, preds: tuple, values: np.ndarray, cells=None):
    """(X, response sums, counts, group of each row or None) for a fit of `values` on `preds`.

    `cells` returns the data's (a, c) LevelIndex and its row counts.  When it
    is given and every predictor is a or c, the groups are the distinct (a, c)
    cells: the collapsed design.  Otherwise every row is its own group.
    """
    if cells is not None and set(preds) <= {"a", "c"}:
        index, counts = cells()
        X = _design([getattr(index, p) for p in preds], counts.size)
        return X, np.bincount(index.inv, weights=values, minlength=counts.size), counts, index.inv
    return _design([data.column(p) for p in preds], data.n), values, np.ones(data.n), None


class _Linear:
    """A component linear in named predictors, read from the conditioning arguments of its call.

    `arg_names` names the conditioning arguments in call order (a response
    argument, which comes first, is not among them).
    """

    def __init__(self, arg_names: tuple, predictors: tuple, coef):
        self.arg_names = tuple(arg_names)
        self.predictors = tuple(predictors)
        self.coef = np.asarray(coef, dtype=float)

    def linear(self, cond):
        """coef[0] + sum_j coef[j] * x_j, each predictor x_j picked from `cond` by its name."""
        named = dict(zip(self.arg_names, cond))
        out = self.coef[0]
        for j, p in enumerate(self.predictors, start=1):
            out = out + self.coef[j] * np.asarray(named[p], dtype=float)
        return out


class GaussianConditional(_Linear):
    """Gaussian law for a response given predictors: mean linear in them, constant sd."""

    def __init__(self, arg_names: tuple, predictors: tuple, coef, sd: float):
        super().__init__(arg_names, predictors, coef)
        self.sd = float(sd)

    def location_scale(self, *cond):
        return self.linear(cond), self.sd

    def __call__(self, value, *cond):
        return norm_pdf(value, self.linear(cond), self.sd)


def gaussian_density_fit(data: Dataset, response: str, predictors: Sequence[str], arg_names: tuple = None) -> GaussianConditional:
    """Least-squares conditional mean plus residual-mean-square variance."""
    return _gaussian_law(data, response, tuple(predictors), arg_names)


def _gaussian_law(data: Dataset, response: str, predictors: tuple, arg_names: tuple = None, cells=None):
    n = data.n
    if n <= len(predictors) + 1:
        raise DomainError("need n > #predictors + 1 for a residual variance")
    yv = data.column(response)
    X, sums, counts, groups = _fit_design(data, predictors, yv, cells)
    coef = _least_squares(X, sums, counts)
    fitted = X @ coef
    resid = yv - (fitted if groups is None else fitted[groups])  # over all n rows either way
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


class _LinearMean(_Linear):
    def __call__(self, *args):
        return _spread(self.linear(args), args)


class _Logistic(_Linear):
    """p(response = level | predictors) from a logistic fit on a binary response."""

    def __init__(self, arg_names, predictors, coef, hi_level, lo_level):
        super().__init__(arg_names, predictors, coef)
        self.hi_level = hi_level
        self.lo_level = lo_level

    def __call__(self, value, *cond):
        p_hi = expit(self.linear(cond))
        value = np.asarray(value, dtype=float)
        out = np.where(value == self.hi_level, p_hi, np.where(value == self.lo_level, 1.0 - p_hi, np.nan))
        if np.any(np.isnan(out)):
            raise DomainError("probability requested at a level absent from the fit")
        return _spread(out, (value,) + cond)


def _empirical_table(data: Dataset, args: tuple, given: tuple, response: Optional[str] = None) -> _Table:
    """Frequencies of `response` within the observed groups of `given`; without a response, means of y.

    Each column is coded with np.unique and the cells are counted with
    np.bincount.  A response level unseen within an observed group has
    frequency 0; a group never observed has no value.
    """
    axes = ((response,) if response else ()) + given
    supports, codes = zip(*(np.unique(data.column(v), return_inverse=True) for v in axes)) if axes else ((), ())
    shape = tuple(s.size for s in supports)
    if (size := math.prod(shape)) > _MAX_TABLE_CELLS:
        raise DomainError(f"an empirical table over {axes} would hold {size} cells (limit {_MAX_TABLE_CELLS})")
    cell = np.ravel_multi_index(codes, shape) if axes else np.zeros(data.n, dtype=np.intp)
    count = np.bincount(cell, minlength=size).reshape(shape)
    if response:
        total, sums, what = count.sum(axis=0), count, f"empirical p({response}|{','.join(given) or '-'})"
    else:
        total, what = count, f"empirical E(y|{','.join(given) or '-'})"
        sums = np.bincount(cell, weights=data.y, minlength=size).reshape(shape)
    values = np.divide(sums, total, out=np.zeros(shape), where=total > 0)
    return _Table(values, supports, tuple(args.index(v) for v in axes), total > 0, what)


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


# -- spec-driven fitting ------------------------------------------------------


def _binary_levels(values: np.ndarray, what: str):
    levels = np.unique(values)
    if levels.size != 2:
        raise DomainError(f"{what} must be binary for this family; levels {levels.tolist()}")
    return float(levels[1]), float(levels[0])  # (hi, lo)


def _fit_slot(data: Dataset, spec: ModelSpec, counter: dict, supports: dict, cells):
    """One slot's component and manifest entry; `supports` and `cells` are shared by every slot of a fit."""
    args, response, kind = SLOTS[spec.component]
    given = tuple(v for v in args if v != response)  # what the components condition on
    preds = spec.effective_predictors()
    applied = {
        "family": spec.family,
        "predictors": list(preds),
        "omitted": list(spec.omit),
    }
    if spec.family == "fixed-value":
        hi, lo = _binary_levels(supports[response], response)
        fixed = _Table([1.0 - spec.fix_value, spec.fix_value], ((lo, hi),), what=f"fixed-value p({response})")
        fn = _Clipped(fixed, counter, spec.component)
        applied["fixed_value"] = spec.fix_value
        return fn, applied
    if spec.family == "empirical":
        # only the fitted predictors condition the table; other call args are ignored
        fn = _empirical_table(data, args, tuple(v for v in given if v in preds), None if kind == "mean" else response)
        return (_Clipped(fn, counter, spec.component) if kind == "prob" else fn), applied
    if spec.family == "linear-mean":
        coef = _least_squares(*_fit_design(data, preds, data.y, cells)[:3])
        applied["coef"] = [float(v) for v in coef]
        return _LinearMean(given, preds, coef), applied
    if spec.family == "logistic":
        hi, lo = _binary_levels(supports[response], response)
        coef = _irls(*_fit_design(data, preds, (data.column(response) == hi).astype(float), cells)[:3])
        applied["coef"] = [float(v) for v in coef]
        fn = _Clipped(_Logistic(given, preds, coef, hi, lo), counter, spec.component)
        return fn, applied
    if spec.family == "gaussian-density":
        fn = _gaussian_law(data, response, preds, given, cells)
        applied["coef"] = [float(v) for v in fn.coef]
        applied["sd"] = fn.sd
        return fn, applied
    raise DomainError(f"unhandled family {spec.family!r}")


def _fit_single(data: Dataset, specs: Sequence[ModelSpec], z_rule=None, gh_nodes: int = 64) -> NuisanceSet:
    counter: dict = {}
    manifest = {"n": data.n, "slots": {}, "clip_events": counter}
    slots = {}
    families = {}
    supports = {"a": np.unique(data.a), "c": np.unique(data.c)}

    @functools.cache
    def cells():
        index = level_index(data.a, data.c, supports["a"], supports["c"])
        return index, np.bincount(index.inv, minlength=index.a.size)

    for spec in specs:
        if spec.component in slots:
            raise DomainError(f"duplicate ModelSpec for slot {spec.component!r}")
        fn, applied = _fit_slot(data, spec, counter, supports, cells)
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
        a_support=tuple(supports["a"].tolist()),
        c_support=tuple(supports["c"].tolist()),
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
    _, _, table = read_csv_table(source, VAR_NAMES, "data", "observations")
    return Dataset(*table.T, pair)


def write_data_csv(data: Dataset, target) -> None:
    """Write observation CSV with header `c,a,z,y`, each value in its shortest exact form."""
    rows = np.column_stack([data.c, data.a, data.z, data.y]).tolist()
    write_text(csv_text(VAR_NAMES, rows, exact_cell), target)
