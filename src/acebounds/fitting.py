"""Nuisance fitting: empirical frequencies, least-squares means, IRLS logistic fits,
Gaussian conditional densities, deliberate misspecification and cross-fitting.

A :class:`ModelSpec` names a NuisanceSet slot, a model family and the
predictors to use; misspecification directives remove predictors *before*
fitting (the coefficient is absent, not zero) or pin a probability to a fixed
value.  Every applied directive is recorded in the returned manifest.

Fitted probability components are clipped to [1e-6, 1 - 1e-6] before use and
every clipped value they return is counted; conditional densities are left
unclipped (the influence evaluators pass every denominator through the one
positivity guard, ``dist._require_positive``).  The evaluators call each
probability slot once per distinct argument set of a dataset or fold, at its
(a, c) levels or support values, never per row or per tag, so the counter
holds clipped levels per distinct evaluation, not rows.

Each distinct (family, response, effective predictors) is fitted once per
dataset or fold (``_fit_model``), and every slot asking for it gets its own
component on the shared parameters, with its own call signature, clip-counter
name and manifest entry.  A fit returns parameters only (a Gaussian law its
coef and sd); ``_fit_slot`` builds each component on its slot's arguments.

The data's (a, c) cells are coded once per dataset or fold, as an
``influence.LevelIndex`` on the supports the fitted NuisanceSet carries,
with each cell's row count.  Logistic, linear-mean and Gaussian-density fits
whose predictors are all a or c are collapsed onto these cells, each with
its row count and its response sum (the successes, for the logistic).  One
IRLS loop (`_irls`) and one least-squares solve (`_least_squares`, from
column cross-products, never a copy of the design) serve both designs; the
row-wise design passes no counts.  A Gaussian law's
residual variance still sums over all n rows.  Empirical tables over a and c
alone (p_c, p_a, and empirical p_a_given_c or mean_y_ac) count the same
cells instead of sorting n rows; a mean still sums y in row order.  The
row plan of ``influence`` codes the rows it evaluates on itself.

Logistic, linear-mean and Gaussian-density components share one base class,
``_Linear``: it holds ``arg_names``, ``predictors`` and ``coef`` and computes
the linear predictor.  ``arg_names`` are the arguments the component
conditions on, in call order: the slot's call arguments (``influence.SLOTS``,
importable from here too) minus its response, which a probability or a law
takes first.  The Gaussian density is ``special.norm_pdf``.  Its
``_plan_key`` (class, predictors, parameters) lets the row plan of
``influence`` evaluate two slots on one model once.  Unless given a
``z_rule``, ``fit`` sums over the data's z values or, under a gaussian-density
mediator law, reads one Gauss-Hermite node, the law's mean: every integrand
there is affine in z (linear-mean outcomes, summed over treatment weights),
so that is exact.

Empirical and fixed-value slots are ``influence._Table`` lookups, and every
component broadcasts its result to its call arguments through the same
``influence._spread``.  Their
``reads`` are the slot arguments that are fitted predictors (plus the response
of a probability), and their ``observed`` mask holds the groups seen in the
data: a response level unseen within an observed group has frequency 0, while
an unseen group or a value outside the support raises.  A row plan reads
a bare table at its own codes and calls a clipped one.
"""

from __future__ import annotations

import functools
import math
import operator
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
from .influence import SLOTS, NuisanceSet, _spread, _Table, level_index
from .quadrature import FiniteZRule, GaussHermiteZRule
from .special import expit, norm_pdf

__all__ = [
    "CLIP_EPS",
    "Dataset",
    "ModelSpec",
    "CrossFitPlan",
    "FoldedNuisances",
    "fit",
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
        for field in ("predictors", "omit"):
            names = tuple(getattr(self, field))
            for i, p in enumerate(names):
                if p not in allowed:
                    raise DomainError(f"predictor {p!r} is not a conditioning argument of {self.component} {allowed}")
                if p in names[:i]:
                    raise DomainError(f"{field} of {self.component} name {p!r} twice")
            object.__setattr__(self, field, names)
        if self.fix_value is not None and self.component not in ("p_c", "p_a"):
            raise DomainError("fix_value directives apply only to p_c and p_a")
        if (self.family == "fixed-value") != (self.fix_value is not None):
            raise DomainError("fix_value goes with the fixed-value family, and only with it")
        if self.fix_value is not None and not 0.0 <= self.fix_value <= 1.0:
            raise DomainError(f"fix_value {self.fix_value!r} is not a probability")

    def effective_predictors(self) -> tuple:
        return tuple(p for p in self.predictors if p not in self.omit)


def _count(name: str, value) -> int:
    """`value` as a non-negative int, numpy integers included (numpy refuses a negative seed with a bare ValueError)."""
    try:
        count = operator.index(value)
    except TypeError:
        count = -1
    if count < 0:
        raise DomainError(f"{name} must be a non-negative integer, got {value!r}")
    return count


@dataclass(frozen=True)
class CrossFitPlan:
    """K-fold cross-fitting; folds=0 disables."""

    folds: int = 0
    seed: int = 0

    def __post_init__(self):
        for name in ("folds", "seed"):
            object.__setattr__(self, name, _count(name, getattr(self, name)))
        if self.folds == 1:
            raise DomainError("folds must be 0 (disabled) or >= 2")


@dataclass
class FoldedNuisances:
    """Per-fold NuisanceSets; fold k's set was fitted without fold k's rows."""

    folds: list  # of (eval_indices, NuisanceSet)
    manifest: dict = field(default_factory=dict)


# -- low-level fitters -------------------------------------------------------


def _design(columns: Sequence[np.ndarray], n: int) -> list:
    """The columns of a design over n groups: the intercept (ones) first, then `columns`."""
    return [np.ones(n)] + [np.asarray(col, dtype=float) for col in columns]


_RANK_CUTOFF = 1e-8  # see _least_squares: no column within about 1.4e-4 rad of the span of the others


def _least_squares(X: list, sums: np.ndarray, counts: Optional[np.ndarray] = None) -> np.ndarray:
    """Least-squares coefficients of a design with an intercept, over grouped rows.

    X is the list of the design's columns, each with one entry per group, its
    intercept column of ones first.  Row g stands for counts[g] data rows
    whose responses sum to sums[g]; without counts, each row stands for
    itself.  Minimises sum_g counts[g] (sums[g] / counts[g] - X[g] b)^2,
    which differs from the row-wise residual sum of squares by a constant.

    The solve works on the p x p cross-product matrix, formed from p(p+1)/2
    column dot products with each group weighted by its count; no copy of
    the design is made.  The predictor columns are centred on their weighted
    means first, so an offset in a predictor does not square the condition
    number.

    Rank rule: the cross-product matrix of the centred columns, intercept
    included, is equilibrated by its diagonal (a zero column stays zero).
    The design has full rank when every eigenvalue of that matrix exceeds
    ``_RANK_CUTOFF`` = 1e-8, that is when no centred column lies within about
    1.4e-4 rad of the span of the others; otherwise RankDeficient gives the
    number of eigenvalues above the cutoff as the rank.  A constant predictor
    centres to zero or to a multiple of the intercept, so it, like two equal
    predictors, leaves rank p - 1.  The cutoff also bounds the condition
    number of the equilibrated system that is solved by p / 1e-8.

    Refinement: after the solve, the residual sums of the fit are formed over
    the groups, and one correction, solved from their dot products with the
    centred columns, is added to the coefficients.
    """
    ones, *preds = X
    total = float(sums.size if counts is None else counts.sum())
    means = np.array([(ones if counts is None else counts) @ x for x in preds]) / total
    centred = [ones] + [x - m for x, m in zip(preds, means)]
    weighted = centred if counts is None else [counts * x for x in centred]
    p = len(centred)
    gram = np.empty((p, p))
    for j in range(p):
        for k in range(j, p):
            gram[j, k] = gram[k, j] = weighted[j] @ centred[k]
    diag = np.diag(gram)
    scale = np.divide(1.0, np.sqrt(diag), out=np.zeros(p), where=diag > 0)
    eig, vec = np.linalg.eigh(scale[:, None] * gram * scale)
    rank = int(np.count_nonzero(eig > _RANK_CUTOFF))
    if rank < p:
        raise RankDeficient(f"design has rank {rank} < {p} columns")

    def solve(resp):
        """Coefficients on the centred columns for the normal equations with right-hand side X~' resp."""
        rhs = scale * np.array([x @ resp for x in centred])
        return scale * (vec @ ((rhs @ vec) / eig))

    coef = solve(sums)
    fitted = np.full(sums.shape, coef[0])
    for b, x in zip(coef[1:], centred[1:]):
        fitted += b * x
    coef += solve(sums - (fitted if counts is None else counts * fitted))
    coef[0] -= means @ coef[1:]
    return coef


def _irls(X: np.ndarray, successes: np.ndarray, trials: np.ndarray) -> np.ndarray:
    """Bernoulli MLE by iteratively reweighted least squares over grouped rows.

    Row g of X has successes[g] of trials[g]; the score's norm must fall below
    1e-8 within 100 Newton steps.  A pure group (all successes or none) whose
    linear predictor has the matching sign is separated; mixed groups never are.
    """
    if np.all(successes == 0) or np.all(successes == trials):
        raise SeparationDetected("response is constant; the Bernoulli MLE does not exist")
    pure = (successes == 0) | (successes == trials)
    beta = np.zeros(X.shape[1])
    for _ in range(100):
        lin = X @ beta
        prob = expit(lin)
        score = X.T @ (successes - trials * prob)
        if np.linalg.norm(score) < 1e-8:
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
    raise MaxIterExceeded("IRLS did not converge in 100 iterations")


def _fit_design(data: Dataset, preds: tuple, values: np.ndarray, cells=None):
    """(design columns, response sums, counts, group of each row) for a fit of `values` on `preds`.

    `cells` returns the data's (a, c) LevelIndex and its row counts.  When it
    is given and every predictor is a or c, the groups are the distinct (a, c)
    cells: the collapsed design.  Otherwise every row is its own group, and
    the counts and groups are None.
    """
    if cells is not None and set(preds) <= {"a", "c"}:
        index, counts = cells()
        X = _design([getattr(index, p) for p in preds], counts.size)
        return X, np.bincount(index.inv, weights=values, minlength=counts.size), counts, index.inv
    return _design([data.column(p) for p in preds], data.n), values, None, None


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

    def _plan_key(self):
        """Class, predictors and parameters: equal keys give equal values at equal inputs, whatever the call signature."""
        params = tuple(v for k, v in vars(self).items() if k not in ("arg_names", "predictors", "coef"))
        return type(self), self.predictors, self.coef.tobytes(), params


class GaussianConditional(_Linear):
    """Gaussian law for a response given predictors: mean linear in them, constant sd."""

    def __init__(self, arg_names: tuple, predictors: tuple, coef, sd: float):
        super().__init__(arg_names, predictors, coef)
        self.sd = float(sd)

    def location_scale(self, *cond):
        return self.linear(cond), self.sd

    def __call__(self, value, *cond):
        return norm_pdf(value, self.linear(cond), self.sd)


def _gaussian_law(data: Dataset, response: str, predictors: tuple, cells=None):
    """(coef, sd) of a Gaussian law: the least-squares conditional mean and the residual root mean square."""
    n = data.n
    if n <= len(predictors) + 1:
        raise DomainError("need n > #predictors + 1 for a residual variance")
    yv = data.column(response)
    X, sums, counts, groups = _fit_design(data, predictors, yv, cells)
    coef = _least_squares(X, sums, counts)
    fitted = sum(b * x for b, x in zip(coef, X))
    resid = yv - (fitted if groups is None else fitted[groups])  # over all n rows either way
    variance = float(resid @ resid) / (n - len(X))
    if variance < VARIANCE_FLOOR:
        raise DegenerateModel(f"residual variance {variance!r} below the {VARIANCE_FLOOR} floor")
    return coef, math.sqrt(variance)


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


def _empirical_table(data: Dataset, given: tuple, response: Optional[str] = None, cells=None):
    """(values, supports, axes, observed, what) of the frequencies of `response` within the observed groups of `given`; without a response, of the means of y.

    Each column is coded with np.unique and the cells are counted with
    np.bincount.  When `cells` is given and every axis is a or c, the codes
    are those of the data's (a, c) levels and the counts are their row
    counts, so no column of n rows is sorted.  A response level unseen within
    an observed group has frequency 0; a group never observed has no value.
    """
    axes = ((response,) if response else ()) + given
    if cells is not None and set(axes) <= {"a", "c"}:
        index, weights = cells()
        columns, rows = [getattr(index, v) for v in axes], index.inv
    else:
        columns, weights, rows = [data.column(v) for v in axes], None, None
    supports, codes = zip(*(np.unique(col, return_inverse=True) for col in columns)) if axes else ((), ())
    shape = tuple(s.size for s in supports)
    if (size := math.prod(shape)) > _MAX_TABLE_CELLS:
        raise DomainError(f"an empirical table over {axes} would hold {size} cells (limit {_MAX_TABLE_CELLS})")
    cell = np.ravel_multi_index(codes, shape) if axes else np.zeros(data.n if rows is None else weights.size, dtype=np.intp)
    count = np.bincount(cell, weights, minlength=size).reshape(shape)
    if response:
        total, sums, what = count.sum(axis=0), count, f"empirical p({response}|{','.join(given) or '-'})"
    else:
        total, what = count, f"empirical E(y|{','.join(given) or '-'})"
        sums = np.bincount(cell if rows is None else cell[rows], weights=data.y, minlength=size).reshape(shape)
    values = np.divide(sums, total, out=np.zeros(shape), where=total > 0)
    return values, supports, axes, total > 0, what


class _Clipped:
    """Clip probability outputs into [CLIP_EPS, 1 - CLIP_EPS]; count how often it bites."""

    def __init__(self, fn, counter: dict, slot: str):
        self.fn = fn
        self.counter = counter
        self.slot = slot

    def __call__(self, *args):
        p = np.asarray(self.fn(*args), dtype=float)
        hits = int(np.count_nonzero(p < CLIP_EPS) + np.count_nonzero(p > 1.0 - CLIP_EPS))
        if hits:
            self.counter[self.slot] = self.counter.get(self.slot, 0) + hits
            self.counter["total"] = self.counter.get("total", 0) + hits
        return np.clip(p, CLIP_EPS, 1.0 - CLIP_EPS)


# -- spec-driven fitting ------------------------------------------------------


def _binary_levels(values: np.ndarray, what: str):
    levels = np.unique(values)
    if levels.size != 2:
        raise DomainError(f"{what} must be binary for this family; levels {levels.tolist()}")
    return float(levels[1]), float(levels[0])  # (hi, lo)


def _fit_model(data: Dataset, family: str, response: str, preds: tuple, supports: dict, cells):
    """The fitted parameters of one model, shared by every slot that asks for the same (family, response, predictors)."""
    if family == "empirical":
        return _empirical_table(data, preds, None if response == "y" else response, cells)
    if family == "linear-mean":
        return (_least_squares(*_fit_design(data, preds, data.y, cells)[:3]),)
    if family == "logistic":
        hi, lo = _binary_levels(supports[response], response)
        # a probability slot's predictors are a or c, so its design is always the collapsed one, with counts
        X, successes, trials, _ = _fit_design(data, preds, (data.column(response) == hi).astype(float), cells)
        return _irls(np.column_stack(X), successes, trials), hi, lo
    return _gaussian_law(data, response, preds, cells)


def _fit_slot(spec: ModelSpec, fitted, counter: dict, supports: dict):
    """One slot's component and manifest entry, built on the parameters `fitted` returns for its model."""
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
        # only the fitted predictors condition the table, in call order; other call args are ignored
        values, supports_of, axes, observed, what = fitted(spec.family, response, tuple(v for v in given if v in preds))
        fn = _Table(values, supports_of, tuple(args.index(v) for v in axes), observed, what)
        return (_Clipped(fn, counter, spec.component) if kind == "prob" else fn), applied
    params = fitted(spec.family, response, preds)
    applied["coef"] = [float(v) for v in params[0]]
    if spec.family == "linear-mean":
        return _LinearMean(given, preds, *params), applied
    if spec.family == "logistic":
        return _Clipped(_Logistic(given, preds, *params), counter, spec.component), applied
    applied["sd"] = params[1]
    return GaussianConditional(given, preds, *params), applied


def _fit_single(data: Dataset, specs: Sequence[ModelSpec], z_rule) -> NuisanceSet:
    counter: dict = {}
    manifest = {"n": data.n, "slots": {}, "clip_events": counter}
    slots = {}
    supports = {"a": np.unique(data.a), "c": np.unique(data.c)}

    @functools.cache
    def cells():
        index = level_index(data.a, data.c, supports["a"], supports["c"])
        return index, np.bincount(index.inv, minlength=index.a.size)

    @functools.cache
    def fitted(family, response, preds):
        return _fit_model(data, family, response, preds, supports, cells)

    for spec in specs:
        if spec.component in slots:
            raise DomainError(f"duplicate ModelSpec for slot {spec.component!r}")
        fn, applied = _fit_slot(spec, fitted, counter, supports)
        slots[spec.component] = fn
        manifest["slots"][spec.component] = applied
    if z_rule is None:  # every integrand under a fitted Gaussian law is affine in z: one node, at its mean, is exact
        gaussian = any(spec.family == "gaussian-density" for spec in specs)  # a mediator law's family only (_FAMILIES)
        z_rule = GaussHermiteZRule(1) if gaussian else FiniteZRule(np.unique(data.z))
    return NuisanceSet(
        a_support=tuple(supports["a"].tolist()),
        c_support=tuple(supports["c"].tolist()),
        z_integrator=z_rule,
        manifest=manifest,
        **slots,
    )


def fit(data: Dataset, specs: Sequence[ModelSpec], plan: CrossFitPlan = CrossFitPlan(), z_rule=None):
    """Fit every requested slot; with a cross-fit plan, one NuisanceSet per fold.

    Returns a NuisanceSet, or a FoldedNuisances whose fold k components were
    fitted with fold k's rows held out.
    """
    if plan.folds == 0:
        return _fit_single(data, specs, z_rule)
    if plan.folds > data.n:
        raise DomainError("more folds than rows")
    rng = np.random.default_rng(plan.seed)
    order = rng.permutation(data.n)
    chunks = np.array_split(order, plan.folds)
    folds = []
    for k, eval_idx in enumerate(chunks):
        train_mask = np.ones(data.n, dtype=bool)
        train_mask[eval_idx] = False
        eta = _fit_single(data.subset(train_mask), specs, z_rule)
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
