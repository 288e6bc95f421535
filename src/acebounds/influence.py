"""Evaluation of m(x, eta) = phi(x, eta, theta) + theta for each influence function.

One estimating function per identification model, plus a reduced two-door
form (``TD_REDUCED``) for data where the outcome does not depend on treatment
given (Z, C) and the mediator law does not depend on C given A.  BD is
written out in ``_eval_bd``.  Every other model goes through the mediator, and
its m has the same three terms:

* the outcome residual times the mediator shift p(z|a*,.) - p(z|a,.), over a
  mediator mass;
* the pooled outcome, centred by its expectation under the mediator law at
  the row's treatment, times 1{A=a*}/w(a*) - 1{A=a}/w(a); the pooled outcome
  is the outcome averaged over the same treatment weights w;
* the plug-in contrast of the row's outcome regression, integrated under the
  mediator law at a* and at a.

Every slot is called through ``SLOTS``, the one table of the nine nuisance
slots: for each, the variables it takes in call order, its response, and its
kind (probability, mediator law or outcome mean).  ``fitting`` reads the same
table to check and fit model specs.

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

:func:`evaluate_m` is the one entry point: it takes aligned 1-d arrays (a
single observation is a 1-row array) and returns the m value per row, which
is what the plug-in estimators average.  Nuisance components must broadcast
like numpy ufuncs over their arguments.

Everything that depends on a row only through its (a, c) is worked out once
per level.  A :class:`LevelIndex` lists the distinct (a, c) levels of the
rows and maps each row to its level; :func:`level_index` codes each column on
the NuisanceSet's supports, or on the column's own values when a row lies
outside (a cross-fitting fold with a continuous covariate).  Slots of (a, c)
alone are evaluated per level and gathered to the rows, and mediator sums are
integrated per level (levels x nodes), or per treatment level when they read
no c: every sum of FD, and the centring of the pooled outcome of FD_TD and
BD_FD_TD, whose marginal weights already sum over the live covariate levels.
The pooled outcome of FD_TD and BD_FD_TD is one broadcast of live covariate
levels x rows (or x nodes), summed over the levels in order (numpy's reduce
would pair terms); above ``quadrature._MAX_GRID_ELEMENTS`` it raises
DomainError right after one p_c call, before any per-level work (about
n = 2048 with a continuous covariate).

The row plan (``_Plan``) holds the rows of one dataset or fold with their
nuisances and level index, which it codes itself, and evaluates each (model,
argument set) at them once.  ``estimators.estimate_all`` shares one plan per
dataset or fold across tags, through :func:`evaluate_m`'s private ``_plan``,
and drops it on return.  The enumeration oracles (:func:`brute_force_mean`,
:func:`brute_force_variance`) share one plan per joint, under its truth
nuisances, kept on the joint (``DiscreteJoint._oracle``) for every model and
pair enumerated on it; :func:`evaluate_m` otherwise builds one per call.
Values and table codes are keyed by argument name, each a plan column or a
scalar, never by array identity: "rows", "levels", "support", "live", a
finite rule's "nodes", and level columns on a leading axis against nodes or
rows ("level axis", "arm axis" for a sum per treatment value, "live axis"),
so only Gauss-Hermite nodes are evaluated afresh, never by a table (a table
outcome is refused under such a rule, wherever its nodes fall).  A component with a
``_plan_key`` (``fitting._Linear``, also behind an attribute-forwarding
wrapper) is keyed by its class, predictors and parameters and reads only its
predictors, plus the response of a law or probability, so mean_y_azc(a*, z, c)
on (z, c) is one evaluation with mean_y_zc(z, c); any other callable is keyed
by itself and reads every argument.  Each evaluation keeps its count of
clipped probability values; an estimate's count sums those it read.

The oracles enumerate a joint's (c, a, z) cells of positive mass, not its
(c, a, z, y) cells.  Every estimating function reads y only through its
outcome residual, so m is affine in y at fixed (c, a, z): E[m | c, a, z] is m
at y = E(Y|c,a,z), and E[(m - theta)^2 | c, a, z] is (m - theta)^2 there plus
(dm/dy)^2 Var(Y|c,a,z), the slope being m at y + 1 less m at y.  So each cell
is two rows of the plan whatever the number of outcome levels (``_Oracle``).

The plan caches each evaluation key's value (``_memo``), shared by models and
tags, each call's key (``_keys``) and each plan column's or scalar's codes per
table support (``_codes``); without the last two an ``exact-bounds`` operation
takes about 6% and 24% more CPU.  A level value is gathered to the rows at each
read (``_Plan.at_rows``), and every other term is computed per model: the
integrals (the centring of the pooled outcome and the plug-in contrast),
weight contrast, mediator mass and shift.  Sharing them across tags saved
about 0.1 ms of a 3.5 to 12.5 ms ``estimate_all`` (n=500 to 50000) and 0.8 ms
of a 24 ms replicate, and each needed a key restating what it reads.  The
weight contrast reads a row only through its (a, c), so each model forms it
per level and gathers it to the rows once, bit for bit a row-wise division.

Discrete nuisances are one table class, ``_Table``, a copy of its values on
sorted supports (re-indexed only where a support is not already increasing):
:func:`truth_nuisances` builds it over every argument, passing NaN cells
through; ``fitting`` builds its empirical and fixed-value slots with it, with
an ``observed`` mask.  Its values are read at one code array per axis
(``_Table.at``): a call codes its arguments with ``_lookup``, which also codes
a level index; a plan reads a bare table at its own codes and calls any other
component.  A table that reads every call argument returns its values as
indexed, since its codes carry the arguments' broadcast shape; one whose
``reads`` leave an argument out (a fitted table on fewer predictors) is spread
over all of them (``_spread``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Any, Callable, Optional, Sequence

import numpy as np

from .dist import DiscreteJoint, TreatmentPair, _require_positive, ace_twodoor, fsum
from .errors import DomainError, MissingNuisance, PositivityViolation
from .quadrature import _MAX_GRID_ELEMENTS, FiniteZRule, _node_shape, expect_z

__all__ = ["NuisanceSet", "MODEL_TAGS", "evaluate_m", "truth_nuisances", "brute_force_mean", "brute_force_variance"]

MODEL_TAGS = ("BD", "FD", "TD", "BD_TD", "FD_TD", "BD_FD_TD")

# slot -> (call-argument names in call order, response variable, kind)
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


def _rows(*xs):
    arrs = [np.atleast_1d(np.asarray(x, dtype=float)) for x in xs]
    n = max(a.size for a in arrs)
    return [np.broadcast_to(a, (n,)) for a in arrs]


def _spread(out, args):
    """`out` broadcast to the common shape of itself and all call arguments; a view where it grows."""
    shape = np.broadcast(out, *args).shape
    return out if np.shape(out) == shape else np.broadcast_to(np.asarray(out, dtype=float), shape)


@dataclass(frozen=True)
class LevelIndex:
    """The distinct (a, c) levels of aligned rows, in increasing (a, c) order.

    Level k has treatment ``a[k]`` and covariate ``c[k]``; row i lies in level
    ``inv[i]``, so ``a[inv]`` restores the treatment column.
    """

    a: np.ndarray
    c: np.ndarray
    inv: np.ndarray

    @cached_property
    def by_a(self):
        """The distinct treatment values and the treatment level of each row, worked out once per index."""
        a, of_level = np.unique(self.a, return_inverse=True)
        return a, of_level[self.inv]


def _lookup(support, x):
    """Positions of `x` in the sorted `support` (one comparison for two values, else binary search), or None when a value is not in it."""
    idx = (x >= support[1]).astype(np.intp) if support.size == 2 else np.minimum(np.searchsorted(support, x), support.size - 1)
    return idx if np.array_equal(support[idx], x) else None


def _codes(col, support):
    """Codes of `col` in the sorted `support`; over the column's own values when one lies outside."""
    if support is not None and len(support):
        support = np.sort(np.asarray(support, dtype=float))
        if (idx := _lookup(support, col)) is not None:
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


def _gather(vals, inv):
    """Per-level values copied back to rows; a level-free scalar stays a scalar and broadcasts."""
    vals = np.asarray(vals, dtype=float)
    return vals[inv] if vals.ndim else vals


class _Plan:
    """The row plan of one dataset or fold (see the module docstring)."""

    def __init__(self, eta: NuisanceSet, cols):
        self.eta, self.cols = eta, tuple(cols)
        c, a, z, y = self.rows = _rows(*cols)
        levels = self.levels = level_index(a, c, eta.a_support, eta.c_support)
        self._columns = {("c", "rows"): c, ("a", "rows"): a, ("z", "rows"): z, ("a", "levels"): levels.a, ("c", "levels"): levels.c}
        self._columns["a", "level axis"], self._columns["c", "level axis"] = _node_shape(levels.a), _node_shape(levels.c)
        self._columns["a", "arm axis"] = _node_shape(levels.by_a[0])  # the treatment values of a sum per arm
        self._columns["z", "nodes"] = getattr(eta.z_integrator, "support", None)  # the nodes of every finite grid
        # evaluation key -> (value, values clipped); keys read since `clipped`; (slot, argument items) -> evaluation key,
        # so a repeat read is one lookup; (variable, column name or scalar, support bytes) -> codes on that support
        self._memo, self._read, self._keys, self._codes = {}, set(), {}, {}

    def key(self, slot: str, **args):
        """The memo key of `slot` at `args`, each a plan column name or a scalar: its model, the columns that shape it, the values it reads."""
        fn, (names, response, kind) = getattr(self.eta.require(slot), slot), SLOTS[slot]
        model = getattr(fn, "_plan_key", None)
        ident, reads = (fn, names) if model is None else (model(), (response,) * (kind != "mean") + fn.predictors)
        return ident, frozenset(args[v] for v in names if isinstance(args[v], str)), *((v, args[v]) for v in reads)

    def value(self, slot: str, **args):
        """`slot` at `args`: scalars and plan column names once per key (see :meth:`key`), a repeat call by one lookup; arrays afresh."""
        try:
            key = self._keys.get(call := (slot, *args.items()))
        except TypeError:  # an unhashable argument: the nodes of a Gauss-Hermite grid
            return self._call(slot, args)
        if key is None:
            key = self._keys[call] = self.key(slot, **args)
            if key not in self._memo:
                clips = self.eta.manifest.get("clip_events", {})
                before = clips.get("total", 0)
                self._memo[key] = self._call(slot, args), clips.get("total", 0) - before
        self._read.add(key)
        return self._memo[key][0]

    def _call(self, slot: str, args):
        """`slot` evaluated at `args`: a bare table read at the plan's codes; any wrapper, a clipping one included, called."""
        fn, names = getattr(self.eta.require(slot), slot), SLOTS[slot][0]
        vals = [self._columns[v, args[v]] if isinstance(args[v], str) else args[v] for v in names]
        if isinstance(fn, _Table):
            return fn.at(tuple(self._code(fn, k, names[pos], args[names[pos]]) for k, pos in enumerate(fn.reads)), vals)
        return fn(*vals)

    def _code(self, table, k, name, arg):
        """The codes of argument `name` at `arg`, a plan column's name or a scalar, on axis k of `table`: once per support."""
        if (key := (name, arg if isinstance(arg, str) else float(arg), table.supports[k].tobytes())) not in self._codes:
            self._codes[key] = table._index(self._columns.get((name, key[1]), arg), k)
        return self._codes[key]

    def at_rows(self, slot: str, arm):
        """A slot of (a, c) alone at (arm, each row's c): evaluated once per (a, c) level, gathered to the rows per call."""
        return _gather(self.value(slot, a=arm, c="levels"), self.levels.inv)

    def live_c(self):
        """(p(c), c) arrays over the covariate levels of positive mass: p(.|c) is undefined elsewhere."""
        if self.eta.c_support is None:
            raise MissingNuisance("c_support is required to assemble the marginal treatment probability")
        cv = self._columns["c", "support"] = np.asarray(self.eta.c_support, dtype=float)
        pc = np.asarray(self.value("p_c", c="support"), dtype=float)
        live = self._columns["c", "live"] = cv[pc > 0]
        self._columns["c", "live axis"] = _node_shape(live)
        return pc[pc > 0], live

    def clipped(self) -> int:
        """Clipped probability values over the evaluations read since the last call."""
        read, self._read = self._read, set()
        return sum(self._memo[key][1] for key in read)


# -- the estimating functions (vectorized) ----------------------------------


def _eval_bd(plan: _Plan, pair: TreatmentPair):
    c, a, z, y = plan.rows
    ps = _require_positive(plan.at_rows("p_a_given_c", pair.a_star), "p(a*|c)")
    pr = _require_positive(plan.at_rows("p_a_given_c", pair.a_ref), "p(a|c)")
    ms, mr = plan.at_rows("mean_y_ac", pair.a_star), plan.at_rows("mean_y_ac", pair.a_ref)
    return (a == pair.a_star) / ps * (y - ms) - (a == pair.a_ref) / pr * (y - mr) + ms - mr


# law, outcome, mass, weights: one row per mediator model (see the module docstring)
_MEDIATOR_MODELS = {
    "FD": ("p_z_given_a", "mean_y_az", "own", "p_a"),
    "TD": ("p_z_given_ac", "mean_y_azc", "own", "p_a_given_c"),
    "TD_REDUCED": ("p_z_given_a", "mean_y_zc", "own", "p_a_given_c"),
    "BD_TD": ("p_z_given_ac", "mean_y_zc", "mix", "p_a_given_c"),
    "FD_TD": ("p_z_given_a", "mean_y_azc", "own", "marginal"),
    "BD_FD_TD": ("p_z_given_a", "mean_y_zc", "mix", "marginal"),
}

_WEIGHT_LABEL = {"p_a": "p({})", "p_a_given_c": "p({}|c)", "marginal": "sum_c p(c) p({}|c)"}


def _eval_mediator(tag, plan: _Plan, pair: TreatmentPair):
    """m per row for one mediator model: t1 residual, t2 centred pooled outcome, t3 plug-in contrast."""
    law, outcome, mass, weights = _MEDIATOR_MODELS[tag]
    eta, levels, y = plan.eta, plan.levels, plan.rows[3]
    rule, pz = eta.require("z_integrator", law).z_integrator, getattr(eta, law)
    finite = isinstance(rule, FiniteZRule)  # its nodes are the plan's "nodes" column; a Gauss-Hermite grid's are afresh
    if not finite and isinstance(getattr(eta, outcome), _Table):  # wherever the nodes fall: a table holds its support only
        raise DomainError(f"{tag} cannot integrate the table {outcome}, defined on its z support only, under {rule!r}")
    law_given_c, outcome_given_c = "c" in SLOTS[law][0], "c" in SLOTS[outcome][0]
    outcome_given_a = "a" in SLOTS[outcome][0]
    law_text = "p(z|a,c)" if law_given_c else "p(z|a)"
    slot = "p_a" if weights == "p_a" else "p_a_given_c"
    marginal = weights == "marginal"
    if marginal:
        pc_live, c_live = plan.live_c()
        if c_live.size * y.size > _MAX_GRID_ELEMENTS:
            raise DomainError(f"the pooled outcome over {c_live.size} covariate levels x {y.size} rows exceeds {_MAX_GRID_ELEMENTS} elements")
        p_live = {ab: _spread(plan.value("p_a_given_c", a=ab, c="live"), (c_live,)) for ab in eta.a_support}
        if outcome_given_a:  # the pooled outcome weighs each arm's outcome by p(a|c): undefined at a zero weight
            _require_positive(list(p_live.values()), "p(a|c)")

    def sum_levels(reads_c):
        """(treatment column, its axis column name, covariate axis column name or None, row map) of a mediator sum: per (a, c) level if it reads c, else per a."""
        if reads_c:
            return levels.a, "level axis", "level axis", levels.inv
        la, inv = levels.by_a
        return la, "arm axis", None, inv

    # the pooled outcome reads c through the law, the weights, or an outcome not already summed over c
    ka, ka_axis, kc, kinv = sum_levels(law_given_c or weights == "p_a_given_c" or (outcome_given_c and not marginal))
    _, ta, tc, tinv = sum_levels(law_given_c or outcome_given_c)

    def cond(arm):
        return (arm, levels.c) if law_given_c else (arm,)

    def density(arm):  # the rule's density at `arm`, a scalar or axis column name: a table law on a finite rule by the plan
        return (lambda *_: plan.value(law, z="nodes", a=arm, c="level axis")) if finite and isinstance(pz, _Table) else pz

    def weight(arm, label):
        """The treatment weight of `arm` per (a, c) level, or one value when it does not read c."""
        w = fsum(pc_live * plan.value("p_a_given_c", a=arm, c="live")) if marginal else plan.value(weights, a=arm, c="levels")
        return _require_positive(w, _WEIGHT_LABEL[weights].format(label))

    def pooled(zz, cv, p_at):
        """The outcome averaged over the treatment weights of the arm denominators, at mediator values zz (a column name or grid nodes)."""
        def given_c(cv, p_at):
            """sum_a outcome(a, z, c) p_at(a), where p_at(a) is the weight of a at cv."""
            if not outcome_given_a:
                return plan.value(outcome, z=zz, c=cv)
            return sum(plan.value(outcome, a=ab, z=zz, c=cv) * p_at(ab) for ab in eta.a_support)

        if marginal:  # every live covariate level at once on a leading axis, then summed over it in level order
            shape = (-1,) + (1,) * (1 if isinstance(zz, str) else zz.ndim)
            return sum(pc_live.reshape(shape) * given_c("live axis" if isinstance(zz, str) else c_live.reshape(shape), lambda ab: p_live[ab].reshape(shape)))
        return given_c(cv, p_at)

    def p_at_levels(ab):  # a column over the sum levels, or one value when they are treatment levels only
        return _node_shape(plan.value(slot, a=ab, c="levels"))

    def own_arm(zz):
        return plan.value(outcome, a=ta, z="nodes" if finite else zz, c=tc)

    law_at = partial(plan.value, law, z="rows", c="rows")
    # 1{A=a*}/w(a*) - 1{A=a}/w(a) per (a, c) level, gathered to the rows: each row divides the same 0/1 by the same weight
    contrast = _gather((levels.a == pair.a_star) / weight(pair.a_star, "a*") - (levels.a == pair.a_ref) / weight(pair.a_ref, "a"), levels.inv)
    if mass == "own":
        denom = _require_positive(law_at(a="rows"), law_text + " at the observed rows")
    else:
        mix = sum(law_at(a=ab) * plan.at_rows("p_a_given_c", ab) for ab in eta.a_support)
        denom = _require_positive(mix, f"sum_a {law_text} p(a|c)")
    shift = law_at(a=pair.a_star) - law_at(a=pair.a_ref)
    pooled_bar = _gather(expect_z(rule, density(ka_axis), lambda zz: pooled("nodes" if finite else zz, kc, p_at_levels), *cond(ka)), kinv)
    t1 = (y - plan.value(outcome, a="rows", z="rows", c="rows")) * shift / denom
    t2 = (pooled("rows", "rows", lambda ab: plan.at_rows(slot, ab)) - pooled_bar) * contrast
    t3 = _gather(expect_z(rule, density(pair.a_star), own_arm, *cond(pair.a_star)) - expect_z(rule, density(pair.a_ref), own_arm, *cond(pair.a_ref)), tinv)
    return t1 + t2 + t3


_EVALUATORS = {"BD": _eval_bd, **{tag: partial(_eval_mediator, tag) for tag in _MEDIATOR_MODELS}}


def evaluate_m(tag: str, c, a, z, y, eta: NuisanceSet, pair: TreatmentPair, *, _plan: Optional[_Plan] = None) -> np.ndarray:
    """Vectorized m values of model `tag` at rows (c, a, z, y) under nuisances `eta`.

    Each call builds a row plan (module docstring).  The private ``_plan`` is
    one built over these same rows and nuisances, which ``estimate_all``
    shares across tags and the oracles across the models of a joint.
    """
    try:
        fn = _EVALUATORS[tag]
    except KeyError:
        raise DomainError(f"unknown model tag {tag!r}; expected one of {sorted(_EVALUATORS)}") from None
    m = np.asarray(fn(_Plan(eta, (c, a, z, y)) if _plan is None else _plan, pair), dtype=float)
    if not np.isfinite(m).all():  # e.g. an undefined truth outcome cell integrated at zero mediator mass
        raise PositivityViolation(f"m of {tag} is not finite at every row")
    return m


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
        supports = [np.asarray(s, dtype=float) for s in supports]
        increasing = all((s[:-1] < s[1:]).all() for s in supports)
        order = ... if increasing else np.ix_(*(np.argsort(s) for s in supports))  # re-indexed onto the sorted supports
        self.supports = supports if increasing else [np.sort(s) for s in supports]
        self.values = np.array(np.asarray(values, dtype=float)[order])
        self.observed = None if observed is None else np.array(np.broadcast_to(observed, self.values.shape)[order])
        self.reads = tuple(range(len(self.supports))) if reads is None else tuple(reads)
        self.what = what

    def _index(self, x, k):
        if (idx := _lookup(self.supports[k], np.asarray(x, dtype=float))) is None:
            raise DomainError(f"argument {self.reads[k]} of {self.what} takes values outside its support")
        return idx

    def at(self, idx, args):
        """The values at `idx`, one code array per axis, spread over the call arguments `args` unless every one is read."""
        if self.observed is not None and not self.observed[idx].all():
            raise DomainError(f"{self.what} requested at a combination never observed")
        return self.values[idx] if len(self.reads) == len(args) else _spread(self.values[idx], args)

    def __call__(self, *args):
        return self.at(tuple(self._index(args[pos], k) for k, pos in enumerate(self.reads)), args)


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


class _Oracle:
    """The (c, a, z) cells of positive mass of one joint, each as two rows of one row plan: at y = E(Y|c,a,z) and at y + 1.

    The cell masses ``p``, outcome means and variances ``var`` (module
    docstring) are taken from the pmf here, not from the tables the bound
    formulas read (``DiscreteJoint._cache``), so the two sides of the check
    stay separate code.  The plan is under the joint's truth nuisances, kept
    on the joint (``DiscreteJoint._oracle``), or under an explicit `eta`,
    built per call.  It holds no reference to the joint, so the two form no
    cycle and a dropped joint is freed at once.
    """

    def __init__(self, dist: DiscreteJoint, eta: Optional[NuisanceSet] = None):
        mass, y = dist.pmf.sum(axis=3), dist.y_support
        at = np.nonzero(mass)  # the (c, a, z) cells of positive mass, in C order
        self.p, py = mass[at], dist.pmf[at]  # p(c, a, z) and p(c, a, z, y), one row per cell
        mean = (py * y).sum(axis=1) / self.p
        self.var = ((y - mean[:, None]) ** 2 * py).sum(axis=1) / self.p
        cols = [np.tile(sup[i], 2) for sup, i in zip(dist.supports(), at)]
        self.plan = _Plan(truth_nuisances(dist) if eta is None else eta, (*cols, np.concatenate((mean, mean + 1.0))))


def _cell_values(dist: DiscreteJoint, tag: str, pair: TreatmentPair, eta: Optional[NuisanceSet]):
    """m at y = E(Y|c,a,z) and its slope in y per (c, a, z) cell, and the oracle state: the joint's, or a fresh one under `eta`."""
    if eta is not None:
        state = _Oracle(dist, eta)
    elif (state := getattr(dist, "_oracle", None)) is None:
        state = dist._oracle = _Oracle(dist)
    m, half = evaluate_m(tag, *state.plan.cols, state.plan.eta, pair, _plan=state.plan), state.p.size
    at_mean, slope = m[:half], m[half:] - m[:half]
    if not np.isfinite(slope).all():  # evaluate_m refuses an m that is not finite, but not a slope that overflows
        raise PositivityViolation(f"the slope in y of m of {tag} is not finite at every (c, a, z) cell of positive mass")
    return at_mean, slope, state


def brute_force_mean(dist: DiscreteJoint, pair: TreatmentPair, tag: str, eta: Optional[NuisanceSet] = None) -> float:
    """E[m(X, eta)] by exact enumeration of the joint.

    Without `eta`, m is evaluated under the joint's truth nuisances on the one
    row plan the joint keeps for its oracles, so every model and pair
    enumerated on one joint shares its slot evaluations and table codes.  An
    explicit `eta` is evaluated on a fresh plan and leaves that state alone.
    """
    m, _, state = _cell_values(dist, tag, pair, eta)
    return fsum(m * state.p)


def brute_force_variance(dist: DiscreteJoint, pair: TreatmentPair, tag: str, eta: Optional[NuisanceSet] = None) -> float:
    """E[(m(X, eta) - theta)^2] by exact enumeration, theta from the two-door functional.

    theta is the one the joint keeps per pair, which the bounds read too;
    m is evaluated as in :func:`brute_force_mean`.
    """
    theta = ace_twodoor(dist, pair)
    m, slope, state = _cell_values(dist, tag, pair, eta)
    return fsum(np.concatenate(((m - theta) ** 2 * state.p, slope**2 * state.var * state.p)))
