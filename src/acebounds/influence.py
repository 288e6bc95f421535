"""Pointwise evaluation of m(x, eta) = phi(x, eta, theta) + theta for each influence function.

Six estimating functions are provided, one per identification model:

=========  =================================================================
tag        nuisance components used
=========  =================================================================
BD         p(A|C), E(Y|A,C)
FD         p(A), p(Z|A), E(Y|A,Z)
TD         p(A|C), p(Z|A,C), E(Y|A,Z,C)
BD_TD      p(A|C), p(Z|A,C), E(Y|Z,C)
FD_TD      p(C), p(A|C), p(Z|A), E(Y|A,Z,C)
BD_FD_TD   p(C), p(A|C), p(Z|A), E(Y|Z,C)
=========  =================================================================

A reduced two-door form (``TD`` with components p(A|C), p(Z|A), E(Y|Z,C)) is
also provided for data where the outcome does not depend on treatment given
(Z, C) and the mediator law does not depend on C given A.

The public ``m_*`` functions take a single :class:`Observation`.  The ``eval_*``
functions are their vectorized cores: they take aligned 1-d arrays and return
the m value per row, which is what the plug-in estimators average.  Nuisance
components must broadcast like numpy ufuncs over their arguments.

The sums over the mediator depend on a row only through its (a, c).  Each
evaluator therefore finds the distinct (a, c) levels among the rows it is
given, integrates once per level (a levels x nodes grid), and gathers the
per-level results back to the rows through the inverse index.  This holds on
any row subset, such as a cross-fitting fold; with a continuous covariate every
row may be its own level, which costs what per-row integration would.

For FD_TD and BD_FD_TD the marginal treatment probability appearing in the
indicator terms is assembled from p(C) and p(A|C) rather than read from the
p(A) slot; those two estimating functions are the ones whose consistency
trades on exactly that pair of components.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

import numpy as np

from .dist import POSITIVITY_EPS, DiscreteJoint, TreatmentPair, ace_twodoor, fsum
from .errors import DomainError, MissingNuisance, PositivityViolation
from .quadrature import FiniteZRule, expect_z

__all__ = [
    "Observation",
    "NuisanceSet",
    "MODEL_TAGS",
    "m_bd",
    "m_fd",
    "m_td",
    "m_td_reduced",
    "m_bd_td",
    "m_fd_td",
    "m_bd_fd_td",
    "evaluate_m",
    "truth_nuisances",
    "brute_force_mean",
    "brute_force_variance",
]

MODEL_TAGS = ("BD", "FD", "TD", "BD_TD", "FD_TD", "BD_FD_TD")


@dataclass(frozen=True)
class Observation:
    c: float
    a: float
    z: float
    y: float


@dataclass
class NuisanceSet:
    """Bundle of nuisance components; unused slots may stay None.

    Components are plain callables, vectorized over their arguments.  The
    mediator laws double as densities for continuous Z; `z_integrator` decides
    how sums/integrals over the mediator are carried out.
    """

    a_support: Sequence[float]
    c_support: Optional[Sequence[float]] = None
    p_c: Optional[Callable] = None
    p_a: Optional[Callable] = None
    p_a_given_c: Optional[Callable] = None
    p_z_given_a: Optional[Callable] = None
    p_z_given_ac: Optional[Callable] = None
    mean_y_ac: Optional[Callable] = None
    mean_y_az: Optional[Callable] = None
    mean_y_zc: Optional[Callable] = None
    mean_y_azc: Optional[Callable] = None
    z_integrator: Any = None
    manifest: dict = field(default_factory=dict)

    def require(self, *names):
        for name in names:
            if getattr(self, name) is None:
                raise MissingNuisance(f"nuisance component {name!r} is required but absent")
        return self


def _check_pos(values, what: str):
    values = np.asarray(values)
    if not np.all(values > POSITIVITY_EPS):
        raise PositivityViolation(f"{what} fell below {POSITIVITY_EPS}")
    return values


def _rows(*xs):
    arrs = [np.atleast_1d(np.asarray(x, dtype=float)) for x in xs]
    n = max(a.size for a in arrs)
    return [np.broadcast_to(a, (n,)) for a in arrs]


def _col(x):
    return np.asarray(x)[..., None]


def _levels(*cols):
    """Distinct value combinations of aligned row columns.

    Returns one level array per column and the inverse index that maps each
    row to its level, so ``level[inv]`` restores the column.  Each column is
    coded on its own; the combined codes are counted rather than sorted.  For
    the (a, c) pair the code space is at most |A| x n, the order of the
    evaluators' own sums over the treatment support.
    """
    uniqs, codes = zip(*(np.unique(col, return_inverse=True) for col in cols))
    shape = tuple(u.size for u in uniqs)
    code = np.ravel_multi_index(codes, shape)
    seen = np.bincount(code, minlength=math.prod(shape)) > 0
    levels = [u[i] for u, i in zip(uniqs, np.unravel_index(np.flatnonzero(seen), shape))]
    return levels, (np.cumsum(seen) - 1)[code]


def _gather(vals, inv):
    """Per-level values copied back to rows; a level-free scalar is broadcast."""
    vals = np.asarray(vals, dtype=float)
    return vals[inv] if vals.ndim else np.full(inv.shape, float(vals))


# -- the six estimating functions (vectorized) ------------------------------


def eval_bd(c, a, z, y, eta: NuisanceSet, pair: TreatmentPair):
    eta.require("p_a_given_c", "mean_y_ac")
    c, a, z, y = _rows(c, a, z, y)
    ps = _check_pos(eta.p_a_given_c(pair.a_star, c), "p(a*|c)")
    pr = _check_pos(eta.p_a_given_c(pair.a_ref, c), "p(a|c)")
    ms = eta.mean_y_ac(pair.a_star, c)
    mr = eta.mean_y_ac(pair.a_ref, c)
    ind_s = (a == pair.a_star).astype(float)
    ind_r = (a == pair.a_ref).astype(float)
    return ind_s / ps * (y - ms) - ind_r / pr * (y - mr) + ms - mr


def _mixture_over_a(eta, fn):
    """sum over the treatment support of fn(abar) weighted inside fn itself."""
    return sum(fn(abar) for abar in eta.a_support)


def eval_fd(c, a, z, y, eta: NuisanceSet, pair: TreatmentPair):
    eta.require("p_a", "p_z_given_a", "mean_y_az", "z_integrator")
    c, a, z, y = _rows(c, a, z, y)
    rule, pz = eta.z_integrator, eta.p_z_given_a
    (la, _), inv = _levels(a, c)
    pa_s = _check_pos(eta.p_a(pair.a_star), "p(a*)")
    pa_r = _check_pos(eta.p_a(pair.a_ref), "p(a)")
    pz_obs = _check_pos(pz(z, a), "p(z|A) at the observed rows")
    shift = pz(z, pair.a_star) - pz(z, pair.a_ref)

    def pooled(zz):
        return _mixture_over_a(eta, lambda ab: eta.mean_y_az(ab, zz) * eta.p_a(ab))

    ey_star = expect_z(rule, pz, pooled, pair.a_star)
    ey_ref = expect_z(rule, pz, pooled, pair.a_ref)
    pooled_obs = pooled(z)
    ind_s = (a == pair.a_star).astype(float)
    ind_r = (a == pair.a_ref).astype(float)

    def own_arm(zz):
        return eta.mean_y_az(_col(la), zz)

    t1 = (y - eta.mean_y_az(a, z)) * shift / pz_obs
    t2 = ind_s / pa_s * (pooled_obs - ey_star) - ind_r / pa_r * (pooled_obs - ey_ref)
    t3 = _gather(expect_z(rule, pz, own_arm, pair.a_star) - expect_z(rule, pz, own_arm, pair.a_ref), inv)
    return t1 + t2 + t3


def eval_td(c, a, z, y, eta: NuisanceSet, pair: TreatmentPair):
    eta.require("p_a_given_c", "p_z_given_ac", "mean_y_azc", "z_integrator")
    c, a, z, y = _rows(c, a, z, y)
    rule, pzac = eta.z_integrator, eta.p_z_given_ac
    (la, lc), inv = _levels(a, c)
    ps_c = _check_pos(eta.p_a_given_c(pair.a_star, c), "p(a*|c)")
    pr_c = _check_pos(eta.p_a_given_c(pair.a_ref, c), "p(a|c)")
    pz_obs = _check_pos(pzac(z, a, c), "p(z|A,c) at the observed rows")
    shift = pzac(z, pair.a_star, c) - pzac(z, pair.a_ref, c)

    def pooled(zz):
        return _mixture_over_a(eta, lambda ab: eta.mean_y_azc(ab, zz, _col(lc)) * eta.p_a_given_c(ab, _col(lc)))

    pooled_obs = _mixture_over_a(eta, lambda ab: eta.mean_y_azc(ab, z, c) * eta.p_a_given_c(ab, c))
    pooled_bar = _gather(expect_z(rule, pzac, pooled, la, lc), inv)

    def own_arm(zz):
        return eta.mean_y_azc(_col(la), zz, _col(lc))

    ind_s = (a == pair.a_star).astype(float)
    ind_r = (a == pair.a_ref).astype(float)
    t1 = (y - eta.mean_y_azc(a, z, c)) * shift / pz_obs
    t2 = (pooled_obs - pooled_bar) * (ind_s / ps_c - ind_r / pr_c)
    t3 = _gather(expect_z(rule, pzac, own_arm, pair.a_star, lc) - expect_z(rule, pzac, own_arm, pair.a_ref, lc), inv)
    return t1 + t2 + t3


def eval_td_reduced(c, a, z, y, eta: NuisanceSet, pair: TreatmentPair):
    """Two-door estimating function when Y dep. A | (Z,C) and Z dep. C | A both drop."""
    eta.require("p_a_given_c", "p_z_given_a", "mean_y_zc", "z_integrator")
    c, a, z, y = _rows(c, a, z, y)
    rule, pz = eta.z_integrator, eta.p_z_given_a
    (la, lc), inv = _levels(a, c)
    ps_c = _check_pos(eta.p_a_given_c(pair.a_star, c), "p(a*|c)")
    pr_c = _check_pos(eta.p_a_given_c(pair.a_ref, c), "p(a|c)")
    pz_obs = _check_pos(pz(z, a), "p(z|A) at the observed rows")
    shift = pz(z, pair.a_star) - pz(z, pair.a_ref)

    def outcome_zc(zz):
        return eta.mean_y_zc(zz, _col(lc))

    ebar = _gather(expect_z(rule, pz, outcome_zc, la), inv)
    ind_s = (a == pair.a_star).astype(float)
    ind_r = (a == pair.a_ref).astype(float)
    t1 = (y - eta.mean_y_zc(z, c)) * shift / pz_obs
    t2 = (eta.mean_y_zc(z, c) - ebar) * (ind_s / ps_c - ind_r / pr_c)
    t3 = _gather(expect_z(rule, pz, outcome_zc, pair.a_star) - expect_z(rule, pz, outcome_zc, pair.a_ref), inv)
    return t1 + t2 + t3


def eval_bd_td(c, a, z, y, eta: NuisanceSet, pair: TreatmentPair):
    eta.require("p_a_given_c", "p_z_given_ac", "mean_y_zc", "z_integrator")
    c, a, z, y = _rows(c, a, z, y)
    rule, pzac = eta.z_integrator, eta.p_z_given_ac
    (la, lc), inv = _levels(a, c)
    ps_c = _check_pos(eta.p_a_given_c(pair.a_star, c), "p(a*|c)")
    pr_c = _check_pos(eta.p_a_given_c(pair.a_ref, c), "p(a|c)")
    mix = _mixture_over_a(eta, lambda ab: pzac(z, ab, c) * eta.p_a_given_c(ab, c))
    _check_pos(mix, "sum_a p(z|a,c) p(a|c)")
    shift = pzac(z, pair.a_star, c) - pzac(z, pair.a_ref, c)

    def outcome_zc(zz):
        return eta.mean_y_zc(zz, _col(lc))

    ebar = _gather(expect_z(rule, pzac, outcome_zc, la, lc), inv)
    ind_s = (a == pair.a_star).astype(float)
    ind_r = (a == pair.a_ref).astype(float)
    t1 = (y - eta.mean_y_zc(z, c)) * shift / mix
    t2 = (eta.mean_y_zc(z, c) - ebar) * (ind_s / ps_c - ind_r / pr_c)
    t3 = _gather(expect_z(rule, pzac, outcome_zc, pair.a_star, lc) - expect_z(rule, pzac, outcome_zc, pair.a_ref, lc), inv)
    return t1 + t2 + t3


def _marginal_treatment(eta: NuisanceSet, level):
    """p(level) assembled as sum_c p(c) p(level|c)."""
    if eta.c_support is None:
        raise MissingNuisance("c_support is required to assemble the marginal treatment probability")
    return fsum(float(eta.p_c(cv)) * float(eta.p_a_given_c(level, cv)) for cv in eta.c_support)


def eval_fd_td(c, a, z, y, eta: NuisanceSet, pair: TreatmentPair):
    eta.require("p_c", "p_a_given_c", "p_z_given_a", "mean_y_azc", "z_integrator")
    c, a, z, y = _rows(c, a, z, y)
    rule, pz = eta.z_integrator, eta.p_z_given_a
    (la, lc), inv = _levels(a, c)
    pz_obs = _check_pos(pz(z, a), "p(z|A) at the observed rows")
    shift = pz(z, pair.a_star) - pz(z, pair.a_ref)
    marg_s = _check_pos(_marginal_treatment(eta, pair.a_star), "sum_c p(c) p(a*|c)")
    marg_r = _check_pos(_marginal_treatment(eta, pair.a_ref), "sum_c p(c) p(a|c)")

    centered = 0.0
    for cv in eta.c_support:
        pooled_at = _mixture_over_a(eta, lambda ab: eta.mean_y_azc(ab, z, cv) * eta.p_a_given_c(ab, cv))

        def pooled(zz, cv=cv):
            return _mixture_over_a(eta, lambda ab: eta.mean_y_azc(ab, zz, cv) * eta.p_a_given_c(ab, cv))

        pooled_bar = _gather(expect_z(rule, pz, pooled, la), inv)
        centered = centered + float(eta.p_c(cv)) * (pooled_at - pooled_bar)

    def own_arm(zz):
        return eta.mean_y_azc(_col(la), zz, _col(lc))

    ind_s = (a == pair.a_star).astype(float)
    ind_r = (a == pair.a_ref).astype(float)
    t1 = (y - eta.mean_y_azc(a, z, c)) * shift / pz_obs
    t2 = centered * (ind_s / marg_s - ind_r / marg_r)
    t3 = _gather(expect_z(rule, pz, own_arm, pair.a_star) - expect_z(rule, pz, own_arm, pair.a_ref), inv)
    return t1 + t2 + t3


def eval_bd_fd_td(c, a, z, y, eta: NuisanceSet, pair: TreatmentPair):
    eta.require("p_c", "p_a_given_c", "p_z_given_a", "mean_y_zc", "z_integrator")
    c, a, z, y = _rows(c, a, z, y)
    rule, pz = eta.z_integrator, eta.p_z_given_a
    (la, lc), inv = _levels(a, c)
    mix = _mixture_over_a(eta, lambda ab: eta.p_a_given_c(ab, c) * pz(z, ab))
    _check_pos(mix, "sum_a p(a|c) p(z|a)")
    shift = pz(z, pair.a_star) - pz(z, pair.a_ref)
    marg_s = _check_pos(_marginal_treatment(eta, pair.a_star), "sum_c p(c) p(a*|c)")
    marg_r = _check_pos(_marginal_treatment(eta, pair.a_ref), "sum_c p(c) p(a|c)")

    centered = 0.0
    for cv in eta.c_support:
        ebar = _gather(expect_z(rule, pz, lambda zz, cv=cv: eta.mean_y_zc(zz, cv), la), inv)
        centered = centered + float(eta.p_c(cv)) * (eta.mean_y_zc(z, cv) - ebar)

    def outcome_zc(zz):
        return eta.mean_y_zc(zz, _col(lc))

    ind_s = (a == pair.a_star).astype(float)
    ind_r = (a == pair.a_ref).astype(float)
    t1 = (y - eta.mean_y_zc(z, c)) * shift / mix
    t2 = centered * (ind_s / marg_s - ind_r / marg_r)
    t3 = _gather(expect_z(rule, pz, outcome_zc, pair.a_star) - expect_z(rule, pz, outcome_zc, pair.a_ref), inv)
    return t1 + t2 + t3


_EVALUATORS = {
    "BD": eval_bd,
    "FD": eval_fd,
    "TD": eval_td,
    "TD_REDUCED": eval_td_reduced,
    "BD_TD": eval_bd_td,
    "FD_TD": eval_fd_td,
    "BD_FD_TD": eval_bd_fd_td,
}


def evaluate_m(tag: str, c, a, z, y, eta: NuisanceSet, pair: TreatmentPair) -> np.ndarray:
    """Vectorized m values for the requested model tag."""
    try:
        fn = _EVALUATORS[tag]
    except KeyError:
        raise DomainError(f"unknown model tag {tag!r}; expected one of {sorted(_EVALUATORS)}") from None
    return np.asarray(fn(c, a, z, y, eta, pair), dtype=float)


def _pointwise(tag):
    def m(x: Observation, eta: NuisanceSet, pair: TreatmentPair) -> float:
        return float(evaluate_m(tag, x.c, x.a, x.z, x.y, eta, pair)[0])

    m.__name__ = f"m_{tag.lower()}"
    return m


m_bd = _pointwise("BD")
m_fd = _pointwise("FD")
m_td = _pointwise("TD")
m_td_reduced = _pointwise("TD_REDUCED")
m_bd_td = _pointwise("BD_TD")
m_fd_td = _pointwise("FD_TD")
m_bd_fd_td = _pointwise("BD_FD_TD")


# -- ground-truth nuisances from an exact joint -----------------------------


class _Table:
    """Vectorized lookup into a conditional table; args are support values."""

    def __init__(self, table: np.ndarray, supports):
        self.table = np.asarray(table, dtype=float)
        self.supports = [np.asarray(s, dtype=float) for s in supports]

    def _index(self, x, support, pos):
        x = np.asarray(x, dtype=float)
        idx = np.full(x.shape, -1, dtype=int)
        for j, v in enumerate(support):
            idx = np.where(x == v, j, idx)
        if np.any(idx < 0):
            raise DomainError(f"argument {pos} takes values outside the declared support")
        return idx

    def __call__(self, *args):
        if len(args) != len(self.supports):
            raise DomainError(f"expected {len(self.supports)} arguments, got {len(args)}")
        idx = tuple(self._index(x, s, i) for i, (x, s) in enumerate(zip(args, self.supports)))
        return self.table[idx]


def truth_nuisances(dist: DiscreteJoint) -> NuisanceSet:
    """Every nuisance slot filled with the exact values implied by `dist`."""
    t = dist._cache()
    c_sup, a_sup, z_sup = dist.c_support, dist.a_support, dist.z_support
    return NuisanceSet(
        a_support=tuple(a_sup.tolist()),
        c_support=tuple(c_sup.tolist()),
        p_c=_Table(t["pc"], (c_sup,)),
        p_a=_Table(t["pa"], (a_sup,)),
        p_a_given_c=_Table(t["p_a_given_c"].T, (a_sup, c_sup)),
        p_z_given_a=_Table(t["p_z_given_a"].T, (z_sup, a_sup)),
        p_z_given_ac=_Table(np.transpose(t["p_z_given_ac"], (2, 1, 0)), (z_sup, a_sup, c_sup)),
        mean_y_ac=_Table(t["ey_ac"].T, (a_sup, c_sup)),
        mean_y_az=_Table(t["ey_az"], (a_sup, z_sup)),
        mean_y_zc=_Table(t["ey_zc"].T, (z_sup, c_sup)),
        mean_y_azc=_Table(np.transpose(t["ey_azc"], (1, 2, 0)), (a_sup, z_sup, c_sup)),
        z_integrator=FiniteZRule(z_sup),
        manifest={"source": "exact joint"},
    )


# -- brute-force oracles ----------------------------------------------------


def _cell_values(dist: DiscreteJoint, tag: str, pair: TreatmentPair, eta: Optional[NuisanceSet]):
    eta = truth_nuisances(dist) if eta is None else eta
    cells = np.array([cell for cell in dist.cells() if cell[4] > 0.0])
    c, a, z, y, p = cells.T
    m = evaluate_m(tag, c, a, z, y, eta, pair)
    return m, p


def brute_force_mean(dist: DiscreteJoint, pair: TreatmentPair, tag: str, eta: Optional[NuisanceSet] = None) -> float:
    """E[m(X, eta)] by exact enumeration of the joint."""
    m, p = _cell_values(dist, tag, pair, eta)
    return fsum(m * p)


def brute_force_variance(dist: DiscreteJoint, pair: TreatmentPair, tag: str, eta: Optional[NuisanceSet] = None) -> float:
    """E[(m(X, eta) - theta)^2] by exact enumeration, theta from the two-door functional."""
    theta = ace_twodoor(dist, pair)
    m, p = _cell_values(dist, tag, pair, eta)
    return fsum((m - theta) ** 2 * p)
