"""Bound comparison machinery.

* the exact two-door minus back-door variance gap on distributions where the
  outcome law does not depend on treatment given (mediator, covariates);
* per-cell sufficient conditions deciding the sign of that gap;
* the closed-form density-ratio interval for binary treatments;
* the sufficient conditions for the front-door bound to exceed the back-door
  bound under a linear outcome mean;
* a vectorized scan of the all-binary example family over a parameter grid.

Comparison conditions quantify over support cells with p(z | a, c) above the
positivity threshold; zero-probability cells are excluded, and with no such
cell the comparisons raise PositivityViolation, as the TD bound does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .dist import POSITIVITY_EPS, DiscreteJoint, TreatmentPair, _pair_indices, chain_joint, csv_text, fsum, report_cell, write_text
from .errors import AssumptionViolation, DomainError, PositivityViolation
from .special import expit

__all__ = [
    "ComparisonVerdict",
    "td_minus_bd_gap",
    "td_vs_bd_verdict",
    "density_ratio_interval",
    "fd_vs_bd_verdict",
    "binary_example_joint",
    "RATIO_INTERVAL_CORE",
    "BINARY_EXAMPLE_BAND",
    "default_scan_grid",
    "binary_family_scan",
    "scan_to_csv",
]

# interval of mediator-shift ratios contained in every binary-treatment interval
RATIO_INTERVAL_CORE = (3.0 - 2.0 * math.sqrt(2.0), 3.0 + 2.0 * math.sqrt(2.0))
# p(Z=1 | a*) band inside which the all-binary example family has a TD bound
# no larger than the BD bound
BINARY_EXAMPLE_BAND = ((3.0 - 2.0 * math.sqrt(2.0)) / 2.0, (2.0 * math.sqrt(2.0) - 1.0) / 2.0)


@dataclass
class ComparisonVerdict:
    condition: str
    cell_values: dict  # (z, c) -> condition value
    holds_everywhere: bool  # every cell <= 0
    holds_nowhere: bool  # every cell > 0
    ordering: str  # "<=", ">", or "inconclusive"
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.cell_values and self.holds_everywhere and self.holds_nowhere:
            raise DomainError("a nonempty condition cannot hold everywhere and nowhere at once")


def _check_outcome_treatment_free(dist: DiscreteJoint, tol: float = 1e-10):
    """Outcome law must not depend on treatment given (z, c).

    Per (z, c), the spread of p(y|a,z,c) is taken over the treatment rows with
    p(a, z, c) above the positivity threshold; cells with fewer than two such
    rows are not checked.
    """
    p = dist.pmf
    pzac = p.sum(axis=3)
    rows = (pzac > POSITIVITY_EPS)[..., None]  # [c, a, z, 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        py = p / pzac[..., None]
    spread = np.max(py, axis=1, where=rows, initial=-np.inf) - np.min(py, axis=1, where=rows, initial=np.inf)
    worst = float(np.max(spread, where=rows.sum(axis=1) >= 2, initial=0.0))
    if worst > tol:
        raise AssumptionViolation(
            f"p(y|a,z,c) varies with a by up to {worst:.3e}; the outcome law must be treatment-free given (z, c)"
        )


def _cell_brackets(dist: DiscreteJoint, pair: TreatmentPair):
    """Live-c indices, z indices and (shift^2 * harmonic mediator mass) - propensity-weighted shares.

    One entry per (c, z) cell, c-major, whose p(z|a,c) is above the positivity
    threshold at every treatment level; raises if no cell qualifies.
    """
    t = dist._cache()
    i_s, i_r = _pair_indices(dist, pair)
    live = np.flatnonzero(t["pc"] > 0)
    ic, iz = np.nonzero(np.all(t["p_z_given_ac"][live] > POSITIVITY_EPS, axis=1))
    if ic.size == 0:
        raise PositivityViolation(f"no (z, c) cell has p(z|a,c) above {POSITIVITY_EPS} at every treatment level")
    ic = live[ic]
    cond_mass, pac = t["p_z_given_ac"][ic, :, iz], t["p_a_given_c"][ic]  # [cell, a]
    shift = cond_mass[:, i_s] - cond_mass[:, i_r]
    harm = np.sum(pac / cond_mass, axis=1)
    return ic, iz, shift**2 * harm - cond_mass[:, i_s] / pac[:, i_s] - cond_mass[:, i_r] / pac[:, i_r]


def _cell_condition_values(dist: DiscreteJoint, pair: TreatmentPair):
    """The cell brackets keyed by (z, c), and as an array."""
    ic, iz, bracket = _cell_brackets(dist, pair)
    keys = zip(dist.z_support[iz].tolist(), dist.c_support[ic].tolist())
    return dict(zip(keys, bracket.tolist())), bracket


def td_minus_bd_gap(dist: DiscreteJoint, pair: TreatmentPair) -> float:
    """Exact TD-bound minus BD-bound on a distribution satisfying both assumptions."""
    _check_outcome_treatment_free(dist)
    t = dist._cache()
    ic, iz, bracket = _cell_brackets(dist, pair)
    return fsum(t["pc"][ic] * t["vy_zc"][ic, iz] * bracket)


def td_vs_bd_verdict(dist: DiscreteJoint, pair: TreatmentPair) -> ComparisonVerdict:
    """Sign of the TD-vs-BD gap from the per-cell sufficient condition."""
    _check_outcome_treatment_free(dist)
    values, vals = _cell_condition_values(dist, pair)
    everywhere = bool(np.all(vals <= 0))
    nowhere = bool(np.all(vals > 0))
    ordering = "<=" if everywhere else (">" if nowhere else "inconclusive")
    return ComparisonVerdict(
        condition="td_vs_bd_cellwise",
        cell_values=values,
        holds_everywhere=everywhere,
        holds_nowhere=nowhere,
        ordering=ordering,
    )


def density_ratio_interval(p_star: float):
    """Closed interval of mediator density ratios implying TD bound <= BD bound.

    `p_star` is the propensity p(a*|c) of a binary treatment; the interval
    always contains (3 - 2*sqrt(2), 3 + 2*sqrt(2)) and its endpoints multiply
    to one.
    """
    if not 0.0 < p_star < 1.0:
        raise DomainError("p_star must lie strictly inside (0, 1)")
    u = p_star * (1.0 - p_star)
    root = math.sqrt(4.0 * u + 1.0)
    return ((2.0 * u + 1.0 - root) / (2.0 * u), (2.0 * u + 1.0 + root) / (2.0 * u))


def fd_vs_bd_verdict(dist: DiscreteJoint, pair: TreatmentPair, outcome_coef, tol: float = 1e-8) -> ComparisonVerdict:
    """Sufficient conditions for the FD bound to exceed the BD bound.

    `outcome_coef` = (intercept, slope_z, slope_c) of the linear outcome mean
    E(Y|z,c), which is verified against the distribution.  The conditions are
    two harmonic-mean inequalities on the propensities plus the cellwise
    condition of `td_vs_bd_verdict` holding with the opposite sign everywhere.
    Note the harmonic-mean inequalities can never hold strictly (Jensen), so
    the verdict is conclusive only in the degenerate everywhere-false sense.
    """
    g0, g1, g2 = (float(v) for v in outcome_coef)
    t = dist._cache()
    pc = t["pc"]
    live = np.flatnonzero(pc > 0)
    want = g0 + g1 * dist.z_support[None, :] + g2 * dist.c_support[live, None]
    got = t["ey_zc"][live]
    off = np.argwhere((t["pzc"][live] > POSITIVITY_EPS) & (np.abs(want - got) > tol))
    if off.size:
        ic, iz = off[0]
        raise AssumptionViolation(
            f"E(Y|z={dist.z_support[iz]}, c={dist.c_support[live[ic]]}) = {got[ic, iz]!r} is not the "
            f"stated linear function ({want[ic, iz]!r})"
        )
    i_s, i_r = _pair_indices(dist, pair)
    pac, pa = t["p_a_given_c"], t["pa"]
    gaps = {name: 1.0 / pa[ia] - fsum(pc[live] / pac[live, ia]) for name, ia in (("a_star", i_s), ("a_ref", i_r))}
    recip_holds = all(v > 0 for v in gaps.values())
    cellwise, vals = _cell_condition_values(dist, pair)
    cells_positive = bool(np.all(vals > 0))
    conclusive = recip_holds and cells_positive
    return ComparisonVerdict(
        condition="fd_vs_bd_sufficient",
        cell_values=cellwise,
        holds_everywhere=conclusive,
        holds_nowhere=bool(np.all(vals <= 0)) and not recip_holds,
        ordering=">" if conclusive else "inconclusive",
        extras={"reciprocal_gaps": gaps, "reciprocal_holds": recip_holds, "cells_positive": cells_positive},
    )


# -- the all-binary example family ------------------------------------------


def binary_example_joint(beta0: float, alpha: float, beta: float, gamma1: float, gamma2: float) -> DiscreteJoint:
    """All-binary family: C ~ B(expit(beta0)), A|C ~ B(expit(alpha C)),
    Z|A ~ B(expit(beta A)), Y|Z,C ~ B(expit(gamma1 Z + gamma2 C))."""
    pc1 = float(expit(beta0))
    return chain_joint(
        [0.0, 1.0],
        [0.0, 1.0],
        [0.0, 1.0],
        [0.0, 1.0],
        lambda c: pc1 if c == 1 else 1.0 - pc1,
        lambda a, c: float(expit(alpha * c)) if a == 1 else 1.0 - float(expit(alpha * c)),
        lambda z, a: float(expit(beta * a)) if z == 1 else 1.0 - float(expit(beta * a)),
        lambda y, z, c: float(expit(gamma1 * z + gamma2 * c)) if y == 1 else 1.0 - float(expit(gamma1 * z + gamma2 * c)),
    )


def default_scan_grid():
    """The full example-family grid: beta0 in {.1,.3,.6,.9}; alpha, gamma1, gamma2
    in {-4,...,4}; beta in {-4,-3.8,...,4}."""
    coarse = np.arange(-4.0, 4.0 + 1e-9, 1.0)
    fine = np.round(np.arange(-4.0, 4.0 + 1e-9, 0.2), 10)
    return {
        "beta0": np.array([0.1, 0.3, 0.6, 0.9]),
        "alpha": coarse,
        "beta": fine,
        "gamma1": coarse,
        "gamma2": coarse,
    }


def binary_family_scan(grid: Optional[dict] = None) -> np.ndarray:
    """TD-vs-BD gap across the example-family grid.

    Returns a structured array with fields (beta0, alpha, beta, gamma1,
    gamma2, diff, interval_member), one row per grid point, in nested loop
    order (beta0 outermost, gamma2 innermost).  Vectorized: grid points are
    independent, so they are evaluated as one broadcast computation.
    """
    grid = default_scan_grid() if grid is None else grid
    b0 = np.asarray(grid["beta0"], dtype=float)[:, None, None, None, None]
    al = np.asarray(grid["alpha"], dtype=float)[None, :, None, None, None]
    be = np.asarray(grid["beta"], dtype=float)[None, None, :, None, None]
    g1 = np.asarray(grid["gamma1"], dtype=float)[None, None, None, :, None]
    g2 = np.asarray(grid["gamma2"], dtype=float)[None, None, None, None, :]

    pz1 = {0: 0.5, 1: expit(be)}  # p(Z=1 | A=a); expit(0) = 1/2
    pa1 = {0: 0.5 + 0.0 * al, 1: expit(al)}  # p(A=1 | C=c)
    pc1 = expit(b0)
    diff = 0.0
    for cval in (0, 1):
        w_c = pc1 if cval == 1 else 1.0 - pc1
        prop1 = pa1[cval]
        for zval in (0, 1):
            pz_star = pz1[1] if zval == 1 else 1.0 - pz1[1]
            pz_ref = pz1[0] if zval == 1 else 1.0 - pz1[0]
            q = expit(g1 * zval + g2 * cval)
            var_y = q * (1.0 - q)
            shift = pz_star - pz_ref
            harm = prop1 / pz_star + (1.0 - prop1) / pz_ref
            bracket = shift**2 * harm - pz_star / prop1 - pz_ref / (1.0 - prop1)
            diff = diff + w_c * var_y * bracket
    member = (expit(be) >= BINARY_EXAMPLE_BAND[0]) & (expit(be) <= BINARY_EXAMPLE_BAND[1])

    shape = np.broadcast_shapes(diff.shape, member.shape, (b0.size, al.size, be.size, g1.size, g2.size))
    out = np.empty(
        int(np.prod(shape)),
        dtype=[
            ("beta0", float),
            ("alpha", float),
            ("beta", float),
            ("gamma1", float),
            ("gamma2", float),
            ("diff", float),
            ("interval_member", bool),
        ],
    )
    mesh = np.meshgrid(
        grid["beta0"], grid["alpha"], grid["beta"], grid["gamma1"], grid["gamma2"], indexing="ij"
    )
    for name, arr in zip(("beta0", "alpha", "beta", "gamma1", "gamma2"), mesh):
        out[name] = arr.ravel()
    out["diff"] = np.broadcast_to(diff, shape).ravel()
    out["interval_member"] = np.broadcast_to(member, shape).ravel()
    return out


def scan_to_csv(rows: np.ndarray, target) -> None:
    """Flat CSV with columns beta0,alpha,beta,gamma1,gamma2,diff,interval_member."""
    names = rows.dtype.names
    columns = [rows[name].astype(int) if name == "interval_member" else rows[name] for name in names]
    write_text(csv_text(names, zip(*(col.tolist() for col in columns)), report_cell), target)
