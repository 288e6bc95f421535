"""Pointwise evaluation of m(x, eta) = phi(x, eta, theta) + theta for each influence function.

One estimating function per identification model, plus a reduced two-door
form (``TD_REDUCED``) for data where the outcome does not depend on treatment
given (Z, C) and the mediator law does not depend on C given A.  BD is
written out in ``eval_bd``.  Every other model goes through the mediator, and
its m has the same three terms:

* the outcome residual times the mediator shift p(z|a*,.) - p(z|a,.), over a
  mediator mass;
* the pooled outcome, centred by its expectation under the mediator law at
  the row's treatment, times 1{A=a*}/w(a*) - 1{A=a}/w(a); the pooled outcome
  is the outcome averaged over the same treatment weights w;
* the plug-in contrast of the row's outcome regression, integrated under the
  mediator law at a* and at a.

One kernel evaluates all six from a table row per tag, which names the slots
it reads:

==========  ============  ==========  ====  ===========
tag         law           outcome     mass  weights
==========  ============  ==========  ====  ===========
BD          --            mean_y_ac   --    p_a_given_c
FD          p_z_given_a   mean_y_az   own   p_a
TD          p_z_given_ac  mean_y_azc  own   p_a_given_c
TD_REDUCED  p_z_given_a   mean_y_zc   own   p_a_given_c
BD_TD       p_z_given_ac  mean_y_zc   mix   p_a_given_c
FD_TD       p_z_given_a   mean_y_azc  own   marginal
BD_FD_TD    p_z_given_a   mean_y_zc   mix   marginal
==========  ============  ==========  ====  ===========

``own`` is the law at the observed treatment and ``mix`` is
sum_a p(z|a,c) p(a|c), which reads p_a_given_c.  ``marginal`` is
sum_c p(c) p(a|c), which reads p_c and p_a_given_c rather than the p_a slot:
FD_TD and BD_FD_TD are the models whose consistency trades on exactly that
pair.  Every mediator model also needs ``z_integrator``.

:func:`evaluate_m` takes aligned 1-d arrays and returns the m value per row,
which is what the plug-in estimators average; the public ``m_*`` functions
take a single :class:`Observation`.  Nuisance components must broadcast like
numpy ufuncs over their arguments.

Everything that depends on a row only through its (a, c) is worked out once
per level.  A :class:`LevelIndex` lists the distinct (a, c) levels of the
rows and maps each row to its level; :func:`level_index` codes each column on
the ``a_support``/``c_support`` the NuisanceSet carries, and falls back to the
column's own distinct values when a row lies outside (a cross-fitting fold
with a continuous covariate).  ``estimators.estimate_all`` builds one index
per dataset or fold and passes it to every tag; :func:`evaluate_m` builds its
own when given none.  The slots of (a, c) alone (p_a_given_c, mean_y_ac, p_a)
are evaluated once per level and gathered back to the rows, and the sums over
the mediator are integrated once per level (levels x nodes grid).  FD reads
no slot that takes c, so it is levelled by the treatment alone: with a
continuous covariate it integrates |A| levels.  The other mediator models
read c, and there every row may be its own level, which costs what per-row
integration would.

Discrete nuisances are one table class, ``_Table``: dense values over sorted
supports, each axis read from the call argument its ``reads`` entry names and
found by binary search plus an exact-match check.  :func:`truth_nuisances`
builds it over every argument, with undefined (NaN) cells passed through;
``fitting`` builds its empirical and fixed-value slots with it, passing an
``observed`` mask so that cells never seen raise :class:`DomainError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
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
    "LevelIndex",
    "level_index",
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


@dataclass(frozen=True)
class LevelIndex:
    """The distinct (a, c) levels of aligned rows, in increasing (a, c) order.

    Level k has treatment ``a[k]`` and covariate ``c[k]``; row i lies in level
    ``inv[i]``, so ``a[inv]`` restores the treatment column.
    """

    a: np.ndarray
    c: np.ndarray
    inv: np.ndarray

    def by_a(self):
        """The distinct treatment values and the treatment level of each row."""
        a, of_level = np.unique(self.a, return_inverse=True)
        return a, of_level[self.inv]


def _codes(col, support):
    """Codes of `col` in the sorted `support`; over the column's own values when one lies outside."""
    if support is not None and len(support):
        support = np.sort(np.asarray(support, dtype=float))
        idx = np.minimum(np.searchsorted(support, col), support.size - 1)
        if np.array_equal(support[idx], col):
            return support, idx
    return np.unique(col, return_inverse=True)


def level_index(a, c, a_support=None, c_support=None) -> LevelIndex:
    """The (a, c) levels of aligned rows, each column coded on its support.

    A column with a value outside its support (a cross-fitting fold with a
    continuous covariate) or without a support is coded over its own distinct
    values instead.  The combined codes are counted while their space is at
    most four times the row count and sorted beyond, so two continuous
    columns cost O(n log n), not O(n^2).
    """
    a, c = _rows(a, c)
    (ua, ca), (uc, cc) = _codes(a, a_support), _codes(c, c_support)
    code, size = ca * uc.size + cc, ua.size * uc.size
    if size <= 4 * code.size:
        seen = np.bincount(code, minlength=size) > 0
        level, inv = np.flatnonzero(seen), (np.cumsum(seen) - 1)[code]
    else:
        level, inv = np.unique(code, return_inverse=True)
    return LevelIndex(ua[level // uc.size], uc[level % uc.size], inv)


def _index_of(eta: NuisanceSet, a, c, levels: Optional[LevelIndex]) -> LevelIndex:
    """The rows' level index: `levels` when given (and built on these rows), else built on eta's supports."""
    if levels is None:
        return level_index(a, c, eta.a_support, eta.c_support)
    if levels.inv.shape != a.shape:
        raise DomainError(f"a level index over {levels.inv.size} rows was given for {a.size} rows")
    if not (np.array_equal(levels.a[levels.inv], a) and np.array_equal(levels.c[levels.inv], c)):
        raise DomainError("the given level index does not restore the rows' (a, c) values")
    return levels


def _gather(vals, inv):
    """Per-level values copied back to rows; a level-free scalar stays a scalar and broadcasts."""
    vals = np.asarray(vals, dtype=float)
    return vals[inv] if vals.ndim else vals


# -- the estimating functions (vectorized) ----------------------------------


def eval_bd(c, a, z, y, eta: NuisanceSet, pair: TreatmentPair, *, levels: Optional[LevelIndex] = None):
    eta.require("p_a_given_c", "mean_y_ac")
    c, a, z, y = _rows(c, a, z, y)
    levels = _index_of(eta, a, c, levels)
    ps = _check_pos(_at_rows(eta, "p_a_given_c", pair.a_star, levels), "p(a*|c)")
    pr = _check_pos(_at_rows(eta, "p_a_given_c", pair.a_ref, levels), "p(a|c)")
    ms = _at_rows(eta, "mean_y_ac", pair.a_star, levels)
    mr = _at_rows(eta, "mean_y_ac", pair.a_ref, levels)
    ind_s = (a == pair.a_star).astype(float)
    ind_r = (a == pair.a_ref).astype(float)
    return ind_s / ps * (y - ms) - ind_r / pr * (y - mr) + ms - mr


# law, outcome, mass, weights: one row per mediator model (see the module docstring)
_MEDIATOR_MODELS = {
    "FD": ("p_z_given_a", "mean_y_az", "own", "p_a"),
    "TD": ("p_z_given_ac", "mean_y_azc", "own", "p_a_given_c"),
    "TD_REDUCED": ("p_z_given_a", "mean_y_zc", "own", "p_a_given_c"),
    "BD_TD": ("p_z_given_ac", "mean_y_zc", "mix", "p_a_given_c"),
    "FD_TD": ("p_z_given_a", "mean_y_azc", "own", "marginal"),
    "BD_FD_TD": ("p_z_given_a", "mean_y_zc", "mix", "marginal"),
}

# the variables each slot takes, in call order
_SIGNATURE = {
    "p_a": "a", "p_a_given_c": "ac", "p_z_given_a": "za", "p_z_given_ac": "zac",
    "mean_y_ac": "ac", "mean_y_az": "az", "mean_y_azc": "azc", "mean_y_zc": "zc"
}
_WEIGHT_LABEL = {"p_a": "p({})", "p_a_given_c": "p({}|c)", "marginal": "sum_c p(c) p({}|c)"}


def _call(eta: NuisanceSet, slot: str, **values):
    """Evaluate a slot at the variables its signature names, e.g. mean_y_azc(a, z, c)."""
    return getattr(eta, slot)(*(values[v] for v in _SIGNATURE[slot]))


def _at_rows(eta: NuisanceSet, slot: str, arm, levels: LevelIndex):
    """A slot of (a, c) alone at (arm, each row's c), evaluated once per (a, c) level."""
    return _gather(_call(eta, slot, a=arm, c=levels.c), levels.inv)


def _live_c(eta: NuisanceSet):
    """(p(c), c) over the covariate levels of positive mass: p(.|c) is undefined elsewhere."""
    if eta.c_support is None:
        raise MissingNuisance("c_support is required to assemble the marginal treatment probability")
    return [(w, cv) for cv in eta.c_support if (w := float(eta.p_c(cv))) > 0]


def _marginal_treatment(eta: NuisanceSet, level):
    """p(level) assembled as sum_c p(c) p(level|c)."""
    return fsum(w * float(eta.p_a_given_c(level, cv)) for w, cv in _live_c(eta))


def _eval_mediator(tag, c, a, z, y, eta: NuisanceSet, pair: TreatmentPair, *, levels: Optional[LevelIndex] = None):
    """m per row for one mediator model: t1 residual, t2 centred pooled outcome, t3 plug-in contrast."""
    law, outcome, mass, weights = _MEDIATOR_MODELS[tag]
    weight_slots = ("p_c", "p_a_given_c") if weights == "marginal" else (weights,)
    mix_slots = ("p_a_given_c",) if mass == "mix" else ()
    eta.require(*weight_slots, *mix_slots, law, outcome, "z_integrator")
    c, a, z, y = _rows(c, a, z, y)
    levels = _index_of(eta, a, c, levels)
    rule, pz = eta.z_integrator, getattr(eta, law)
    law_given_c = "c" in _SIGNATURE[law]
    law_text = "p(z|a,c)" if law_given_c else "p(z|a)"
    slot = "p_a" if weights == "p_a" else "p_a_given_c"
    if law_given_c or "c" in _SIGNATURE[outcome] or weights == "p_a_given_c":
        la, lc, inv = levels.a, levels.c, levels.inv
    else:  # FD: no slot it reads takes c, so its mediator sums depend on a row through a alone
        (la, inv), lc = levels.by_a(), None
    lc_col = None if lc is None else _col(lc)

    def cond(arm):
        return (arm, lc) if law_given_c else (arm,)

    def weight(arm, label):
        w = _marginal_treatment(eta, arm) if weights == "marginal" else _at_rows(eta, weights, arm, levels)
        return _check_pos(w, _WEIGHT_LABEL[weights].format(label))

    def pooled_given_c(zz, cv, p_at):
        """sum_a outcome(a, z, c) p_at(a), where p_at(a) is the weight of a at cv."""
        if "a" not in _SIGNATURE[outcome]:
            return _call(eta, outcome, z=zz, c=cv)
        return sum(_call(eta, outcome, a=ab, z=zz, c=cv) * p_at(ab) for ab in eta.a_support)

    def pooled(zz, cv, p_at):
        """The outcome averaged over the treatment weights of the arm denominators."""
        if weights == "marginal":
            return sum(w * pooled_given_c(zz, v, lambda ab, v=v: eta.p_a_given_c(ab, v)) for w, v in _live_c(eta))
        return pooled_given_c(zz, cv, p_at)

    def pooled_at_levels(zz):
        return pooled(zz, lc_col, lambda ab: _call(eta, slot, a=ab, c=lc_col))

    def p_at_rows(ab):
        return _at_rows(eta, slot, ab, levels)

    def own_arm(zz):
        return _call(eta, outcome, a=_col(la), z=zz, c=lc_col)

    w_s, w_r = weight(pair.a_star, "a*"), weight(pair.a_ref, "a")
    # the law at the rows' (z, c) for each treatment arm read below, evaluated once per arm
    arms = {pair.a_star, pair.a_ref, *(eta.a_support if mass == "mix" else ())}
    law_at = {ab: _call(eta, law, z=z, a=ab, c=c) for ab in arms}
    if mass == "own":
        denom = _check_pos(_call(eta, law, z=z, a=a, c=c), law_text + " at the observed rows")
    else:
        denom = sum(law_at[ab] * _at_rows(eta, "p_a_given_c", ab, levels) for ab in eta.a_support)
        _check_pos(denom, f"sum_a {law_text} p(a|c)")
    shift = law_at[pair.a_star] - law_at[pair.a_ref]
    pooled_bar = _gather(expect_z(rule, pz, pooled_at_levels, *cond(la)), inv)
    t1 = (y - _call(eta, outcome, a=a, z=z, c=c)) * shift / denom
    t2 = (pooled(z, c, p_at_rows) - pooled_bar) * ((a == pair.a_star) / w_s - (a == pair.a_ref) / w_r)
    t3 = _gather(expect_z(rule, pz, own_arm, *cond(pair.a_star)) - expect_z(rule, pz, own_arm, *cond(pair.a_ref)), inv)
    return t1 + t2 + t3


_EVALUATORS = {"BD": eval_bd, **{tag: partial(_eval_mediator, tag) for tag in _MEDIATOR_MODELS}}


def evaluate_m(
    tag: str, c, a, z, y, eta: NuisanceSet, pair: TreatmentPair, *, levels: Optional[LevelIndex] = None
) -> np.ndarray:
    """Vectorized m values for the requested model tag.

    `levels` is the rows' :class:`LevelIndex`; callers evaluating several tags
    on the same rows build it once with :func:`level_index` and pass it here.
    Without it, each call builds its own.
    """
    try:
        fn = _EVALUATORS[tag]
    except KeyError:
        raise DomainError(f"unknown model tag {tag!r}; expected one of {sorted(_EVALUATORS)}") from None
    return np.asarray(fn(c, a, z, y, eta, pair, levels=levels), dtype=float)


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
    """Dense values over sorted supports, looked up by exact match.

    Axis k of ``values`` is indexed by call argument ``reads[k]`` (by default
    every argument, in order); the result broadcasts over all call arguments.
    A value outside an axis's support raises, and so does a cell where the
    optional ``observed`` mask is False.  Other cells, NaN ones included, are
    returned as stored.
    """

    def __init__(self, values, supports, reads=None, observed=None, what="exact table"):
        order = np.ix_(*(np.argsort(s) for s in supports))
        self.supports = [np.sort(np.asarray(s, dtype=float)) for s in supports]
        self.values = np.asarray(values, dtype=float)[order]
        self.observed = None if observed is None else np.broadcast_to(observed, self.values.shape)[order]
        self.reads = tuple(range(len(self.supports))) if reads is None else tuple(reads)
        self.what = what

    def _index(self, x, k):
        support, x = self.supports[k], np.asarray(x, dtype=float)
        idx = np.minimum(np.searchsorted(support, x), support.size - 1)
        if not np.all(support[idx] == x):
            raise DomainError(f"argument {self.reads[k]} of {self.what} takes values outside its support")
        return idx

    def __call__(self, *args):
        idx = tuple(self._index(args[pos], k) for k, pos in enumerate(self.reads))
        if self.observed is not None and not np.all(self.observed[idx]):
            raise DomainError(f"{self.what} requested at a combination never observed")
        out = self.values[idx]
        shape = np.broadcast_shapes(*(np.shape(x) for x in args))
        return out if np.shape(out) == shape else np.broadcast_to(out, shape)


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
    cells = dist.cells()
    c, a, z, y, p = cells[cells[:, 4] > 0.0].T
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
