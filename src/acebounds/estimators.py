"""Plug-in ACE estimators: theta_hat = mean of m(X_i, eta) over the sample.

One estimator per influence function plus the naive difference in means.
`se_hat` is the sample standard deviation of the m values divided by sqrt(n)
(for NAIVE, the usual two-sample standard error).  Cross-fitted nuisances are
supported by evaluating each fold's rows with the nuisances fitted off-fold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .fitting import Dataset, FoldedNuisances
from .influence import MODEL_TAGS, _Plan, evaluate_m

__all__ = ["ESTIMATOR_TAGS", "EstimationResult", "estimate", "estimate_all", "naive_difference"]

ESTIMATOR_TAGS = ("NAIVE",) + MODEL_TAGS


@dataclass(frozen=True)
class EstimationResult:
    """One estimate: finite theta_hat, finite non-negative se_hat, and a clip count.

    `clipped` counts the probability values clipped into [CLIP_EPS, 1 -
    CLIP_EPS] over the distinct slot evaluations this estimate read (per fold,
    when cross-fitted), whichever tag of an ``estimate_all`` call made them.
    p(a|c) is evaluated once per distinct (a, c) level or live covariate value
    and arm, p(c) and p(a) at support values, so a clip counts once per level
    and evaluation, never once per row, and the same whether the tag is
    estimated alone or with others.
    """

    tag: str
    theta_hat: float
    se_hat: float
    n: int
    clipped: int
    manifest: dict

    def __post_init__(self):
        if not math.isfinite(self.theta_hat):
            raise DomainError(f"{self.tag}: theta_hat {self.theta_hat!r} is not finite")
        if not (math.isfinite(self.se_hat) and self.se_hat >= 0):
            raise DomainError(f"{self.tag}: se_hat {self.se_hat!r} is not a finite non-negative number")

    CSV_HEADER = ("tag", "theta_hat", "se_hat", "n", "clipped")  # the csv columns: every field but the manifest


def naive_difference(data: Dataset):
    """Difference of treated and control outcome means, with its standard error.

    Each arm needs at least two rows for its sample variance.
    """
    arms = []
    for level in (data.pair.a_star, data.pair.a_ref):
        ys = data.y.compress(data.a == level)
        if ys.size < 2:
            raise DomainError(f"treatment level {level!r} has {ys.size} row(s); the difference in means needs 2 per arm")
        arms.append(ys)
    y_star, y_ref = arms
    diff = float(y_star.mean() - y_ref.mean())
    se = float(
        np.sqrt(
            y_star.var(ddof=1) / y_star.size + y_ref.var(ddof=1) / y_ref.size
        )
    )
    return diff, se


def _pieces(data: Dataset, eta):
    """(rows, row plan) per cross-fitting fold, or once for all rows."""
    folds = eta.folds if isinstance(eta, FoldedNuisances) else [(slice(None), eta)]
    return [(idx, _Plan(fold_eta, (data.c[idx], data.a[idx], data.z[idx], data.y[idx]))) for idx, fold_eta in folds]


def estimate(data: Dataset, eta, tag: str, td_reduced: bool = False) -> EstimationResult:
    """One plug-in estimate.

    `td_reduced` switches the TD tag to the reduced two-door estimating
    function (outcome model E(Y|Z,C), mediator law p(Z|A)).
    """
    return estimate_all(data, eta, (tag,), td_reduced=td_reduced)[0]


def estimate_all(data: Dataset, eta, tags=ESTIMATOR_TAGS, td_reduced: bool = False):
    """One estimate per tag, sharing the fitted nuisances and one row plan per dataset or fold."""
    pieces = None
    results = []
    for tag in tags:
        if tag == "NAIVE":
            theta_hat, se = naive_difference(data)
            results.append(EstimationResult("NAIVE", theta_hat, se, data.n, 0, {"estimator": "difference-in-means"}))
            continue
        if tag not in MODEL_TAGS:
            raise DomainError(f"unknown estimator tag {tag!r}; expected one of {ESTIMATOR_TAGS}")
        pieces = _pieces(data, eta) if pieces is None else pieces
        eval_tag = "TD_REDUCED" if (tag == "TD" and td_reduced) else tag
        m = np.empty(data.n)
        for idx, plan in pieces:
            m[idx] = evaluate_m(eval_tag, *plan.cols, plan.eta, data.pair, _plan=plan)
        clipped = sum(plan.clipped() for _, plan in pieces)
        summary = {
            "estimator": eval_tag,
            "slots": eta.manifest.get("slots", {}),
        }
        theta_hat = float(m.mean())
        se_hat = float(m.std(ddof=1) / np.sqrt(data.n))
        results.append(EstimationResult(tag, theta_hat, se_hat, data.n, clipped, summary))
    return results
