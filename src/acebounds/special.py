"""Small numerical helpers used throughout the package."""

from __future__ import annotations

import math

import numpy as np

__all__ = ["expit", "logit", "norm_pdf"]

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def expit(x):
    """Numerically stable inverse logit, elementwise."""
    x = np.asarray(x, dtype=float)
    e = np.exp(-np.abs(x))  # exp(-x) where x >= 0, exp(x) elsewhere: never overflows
    out = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    return out if out.ndim else float(out)


def logit(p):
    p = np.asarray(p, dtype=float)
    out = np.log(p) - np.log1p(-p)
    return out if out.ndim else float(out)


def norm_pdf(x, mean=0.0, sd=1.0):
    x = np.asarray(x, dtype=float)
    zscore = (x - mean) / sd
    out = np.exp(-0.5 * zscore * zscore) / (sd * _SQRT_2PI)
    return out if np.ndim(out) else float(out)
