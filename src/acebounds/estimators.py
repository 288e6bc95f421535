"""Plug-in ACE estimators: theta_hat = mean of m(X_i, eta) over the sample.

One estimator per influence function plus the naive difference in means.
`se_hat` is the sample standard deviation of the m values divided by sqrt(n)
(for NAIVE, the usual two-sample standard error).  Cross-fitted nuisances are
supported by evaluating each fold's rows with the nuisances fitted off-fold.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .fitting import Dataset, FoldedNuisances
from .influence import MODEL_TAGS, evaluate_m, level_index

__all__ = ["ESTIMATOR_TAGS", "EstimationResult", "estimate", "estimate_all", "naive_difference"]

ESTIMATOR_TAGS = ("NAIVE",) + MODEL_TAGS


@dataclass(frozen=True)
class EstimationResult:
    """One estimate: finite theta_hat, finite non-negative se_hat, and a clip count.

    `clipped` counts the probability values that were clipped into
    [CLIP_EPS, 1 - CLIP_EPS] while this estimate was evaluated.  The
    estimators evaluate p(a|c) once per distinct (a, c) level of the rows (of
    each fold, when cross-fitted) and p(c), p(a) at single support values, so
    a clip counts once per level and evaluation, never once per row.
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

    def to_dict(self):
        return {
            "tag": self.tag,
            "theta_hat": self.theta_hat,
            "se_hat": self.se_hat,
            "n": self.n,
            "clipped": self.clipped,
            "manifest": self.manifest,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    CSV_HEADER = ("tag", "theta_hat", "se_hat", "n", "clipped")  # the csv columns, keys of to_dict


def naive_difference(data: Dataset):
    """Difference of treated and control outcome means, with its standard error.

    Each arm needs at least two rows for its sample variance.
    """
    arms = []
    for level in (data.pair.a_star, data.pair.a_ref):
        ys = data.y[data.a == level]
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


def _clip_total(eta) -> int:
    if isinstance(eta, FoldedNuisances):
        return sum(_clip_total(fold_eta) for _, fold_eta in eta.folds)
    return int(eta.manifest.get("clip_events", {}).get("total", 0))


def _pieces(data: Dataset, eta):
    """(rows, nuisances, columns c, a, z, y, level index) per cross-fitting fold, or once for all rows."""
    folds = eta.folds if isinstance(eta, FoldedNuisances) else [(slice(None), eta)]
    pieces = []
    for idx, fold_eta in folds:
        c, a, z, y = data.c[idx], data.a[idx], data.z[idx], data.y[idx]
        pieces.append((idx, fold_eta, (c, a, z, y), level_index(a, c, fold_eta.a_support, fold_eta.c_support)))
    return pieces


def _m_values(data: Dataset, pieces, tag: str) -> np.ndarray:
    out = np.empty(data.n)
    for idx, eta, cols, levels in pieces:
        out[idx] = evaluate_m(tag, *cols, eta, data.pair, levels=levels)
    return out


def estimate(data: Dataset, eta, tag: str, td_reduced: bool = False) -> EstimationResult:
    """One plug-in estimate.

    `td_reduced` switches the TD tag to the reduced two-door estimating
    function (outcome model E(Y|Z,C), mediator law p(Z|A)).
    """
    return estimate_all(data, eta, (tag,), td_reduced=td_reduced)[0]


def estimate_all(data: Dataset, eta, tags=ESTIMATOR_TAGS, td_reduced: bool = False):
    """One estimate per tag, sharing the fitted nuisances and one level index per dataset or fold."""
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
        before = _clip_total(eta)
        m = _m_values(data, pieces, eval_tag)
        clipped = _clip_total(eta) - before
        summary = {
            "estimator": eval_tag,
            "slots": eta.manifest.get("slots", {}),
        }
        theta_hat = float(m.mean())
        se_hat = float(m.std(ddof=1) / np.sqrt(data.n))
        results.append(EstimationResult(tag, theta_hat, se_hat, data.n, clipped, summary))
    return results
