"""Exact finite joint distributions over (C, A, Z, Y) and the three adjustment functionals.

The joint is stored as a dense probability table.  All reductions that feed a
1e-12 tolerance budget go through ``math.fsum`` so that large supports do not
eat the error budget.  Conditionals with denominators below ``POSITIVITY_EPS``
raise instead of propagating Inf/NaN: the downstream bound formulas are
undefined there.
"""

from __future__ import annotations

import csv
import io
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PositivityViolation, ZeroConditioningEvent

__all__ = [
    "POSITIVITY_EPS",
    "TreatmentPair",
    "DiscreteJoint",
    "marginal",
    "conditional",
    "cond_mean_var",
    "ace_backdoor",
    "ace_frontdoor",
    "ace_twodoor",
    "chain_joint",
    "factorized_joint",
    "read_dist_csv",
    "write_dist_csv",
]

POSITIVITY_EPS = 1e-12

VAR_NAMES = ("c", "a", "z", "y")
_AXIS = {"c": 0, "a": 1, "z": 2, "y": 3}


def fsum(values) -> float:
    """Compensated sum; accepts any iterable or ndarray."""
    if isinstance(values, np.ndarray):
        values = values.ravel().tolist()
    return math.fsum(values)


@dataclass(frozen=True)
class TreatmentPair:
    """The two treatment levels compared: theta = E Y(a_star) - E Y(a_ref)."""

    a_star: float
    a_ref: float

    def __post_init__(self):
        if self.a_star == self.a_ref:
            raise DomainError("a_star and a_ref must be distinct treatment levels")


class DiscreteJoint:
    """Dense probability table over finite supports of (C, A, Z, Y).

    Immutable after construction; every query is a pure function of the table.
    """

    def __init__(self, c_support, a_support, z_support, y_support, pmf):
        self.c_support = np.asarray(c_support, dtype=float)
        self.a_support = np.asarray(a_support, dtype=float)
        self.z_support = np.asarray(z_support, dtype=float)
        self.y_support = np.asarray(y_support, dtype=float)
        for name, sup in zip(VAR_NAMES, self.supports()):
            if sup.ndim != 1 or sup.size == 0:
                raise DomainError(f"support of {name} must be a non-empty 1-d sequence")
            if not np.all(np.isfinite(sup)):
                raise DomainError(f"support of {name} must hold finite values")
            if np.unique(sup).size != sup.size:
                raise DomainError(f"support of {name} contains duplicate values")
        pmf = np.asarray(pmf, dtype=float)
        shape = tuple(s.size for s in self.supports())
        if pmf.shape != shape:
            raise DomainError(f"pmf shape {pmf.shape} does not match supports {shape}")
        if not np.all(np.isfinite(pmf)):
            raise DomainError("pmf entries must be finite")
        if np.any(pmf < 0):
            raise DomainError("pmf entries must be non-negative")
        total = fsum(pmf)
        if abs(total - 1.0) > 1e-12:
            raise DomainError(f"pmf sums to {total!r}, not 1 within 1e-12")
        self.pmf = pmf
        self.pmf.setflags(write=False)
        for sup in self.supports():
            sup.setflags(write=False)

    # -- basic structure -------------------------------------------------

    def supports(self):
        return (self.c_support, self.a_support, self.z_support, self.y_support)

    def support_of(self, var: str) -> np.ndarray:
        return self.supports()[_AXIS[var]]

    def index_of(self, var: str, value) -> int:
        sup = self.support_of(var)
        hits = np.nonzero(sup == float(value))[0]
        if hits.size == 0:
            raise DomainError(f"value {value!r} not in the support of {var}")
        return int(hits[0])

    def cells(self) -> np.ndarray:
        """(N, 5) array of (c, a, z, y, p) rows over all table cells, y varying fastest."""
        grids = np.meshgrid(*self.supports(), indexing="ij")
        return np.column_stack([g.ravel() for g in grids] + [self.pmf.ravel()])

    # -- raw probabilities ------------------------------------------------

    def prob(self, **assignment) -> float:
        """Probability of a (partial) assignment, e.g. prob(a=1, c=0)."""
        index = [slice(None)] * 4
        for var, value in assignment.items():
            index[_AXIS[var]] = self.index_of(var, value)
        return fsum(np.asarray(self.pmf[tuple(index)]))

    def table(self, variables) -> np.ndarray:
        """Marginal table over `variables`, axes in canonical (c, a, z, y) order."""
        variables = tuple(variables)
        unknown = [v for v in variables if v not in _AXIS]
        if unknown:
            raise DomainError(f"unknown variables {unknown}; expected subset of {VAR_NAMES}")
        drop = tuple(_AXIS[v] for v in VAR_NAMES if v not in variables)
        out = np.add.reduce(self.pmf, axis=drop) if drop else self.pmf.copy()
        return np.asarray(out, dtype=float)

    # -- conditionals -----------------------------------------------------

    def conditional_table(self, target, given: dict) -> np.ndarray:
        """p(target | given) as a table over the target variables."""
        target = tuple(target)
        overlap = set(target) & set(given)
        if overlap:
            raise DomainError(f"target and given overlap on {sorted(overlap)}")
        denom = self.prob(**given)
        if denom < POSITIVITY_EPS:
            raise ZeroConditioningEvent(f"p({given}) = {denom!r} below {POSITIVITY_EPS}")
        index = [slice(None)] * 4
        for var, value in given.items():
            index[_AXIS[var]] = self.index_of(var, value)
        sub = np.asarray(self.pmf[tuple(index)])
        kept = [v for v in VAR_NAMES if v not in given]
        drop = tuple(i for i, v in enumerate(kept) if v not in target)
        if drop:
            sub = np.add.reduce(sub, axis=drop)
        return sub / denom

    def cond_mean_var(self, given: dict):
        """Mean and variance of Y given an assignment of (a subset of) C, A, Z."""
        if "y" in given:
            raise DomainError("cannot condition the outcome moments on y itself")
        py = self.conditional_table(("y",), given)
        mean = fsum(py * self.y_support)
        second = fsum(py * self.y_support**2)
        var = second - mean * mean
        return mean, max(var, 0.0)

    # -- cached conditional tables used by bounds/oracles -----------------

    def _cache(self):
        cache = getattr(self, "_tables", None)
        if cache is not None:
            return cache
        p = self.pmf
        pc = p.sum(axis=(1, 2, 3))
        pa = p.sum(axis=(0, 2, 3))
        pac = p.sum(axis=(2, 3))  # joint over (c, a)
        pzac = p.sum(axis=3)  # joint over (c, a, z)
        pza = p.sum(axis=(0, 3))  # joint over (a, z)
        y = self.y_support
        with np.errstate(divide="ignore", invalid="ignore"):
            p_a_given_c = np.where(pc[:, None] > 0, pac / pc[:, None], np.nan)
            p_z_given_ac = np.where(pac[..., None] > 0, pzac / pac[..., None], np.nan)
            p_z_given_a = np.where(pa[:, None] > 0, pza / pa[:, None], np.nan)
            ysum_azc = np.tensordot(p, y, axes=([3], [0]))  # sum_y y p(c,a,z,y)
            y2sum_azc = np.tensordot(p, y * y, axes=([3], [0]))
            ey_azc = np.where(pzac > 0, ysum_azc / pzac, np.nan)
            vy_azc = np.where(pzac > 0, y2sum_azc / pzac - ey_azc**2, np.nan)
            pzc = pzac.sum(axis=1)
            ey_zc = np.where(pzc > 0, ysum_azc.sum(axis=1) / pzc, np.nan)
            vy_zc = np.where(pzc > 0, y2sum_azc.sum(axis=1) / pzc - ey_zc**2, np.nan)
            pza_j = pzac.sum(axis=0)
            ey_az = np.where(pza_j > 0, ysum_azc.sum(axis=0) / pza_j, np.nan)
            vy_az = np.where(pza_j > 0, y2sum_azc.sum(axis=0) / pza_j - ey_az**2, np.nan)
            ey_ac = np.where(pac > 0, ysum_azc.sum(axis=2) / pac, np.nan)
            vy_ac = np.where(pac > 0, y2sum_azc.sum(axis=2) / pac - ey_ac**2, np.nan)
        cache = {
            "pc": pc,
            "pa": pa,
            "pzc": pzc,
            "p_a_given_c": p_a_given_c,  # [c, a]
            "p_z_given_ac": p_z_given_ac,  # [c, a, z]
            "p_z_given_a": p_z_given_a,  # [a, z]
            "ey_azc": ey_azc,  # [c, a, z]
            "vy_azc": np.clip(vy_azc, 0.0, None),
            "ey_zc": ey_zc,  # [c, z]
            "vy_zc": np.clip(vy_zc, 0.0, None),
            "ey_az": ey_az,  # [a, z]
            "vy_az": np.clip(vy_az, 0.0, None),
            "ey_ac": ey_ac,  # [c, a]
            "vy_ac": np.clip(vy_ac, 0.0, None),
        }
        object.__setattr__(self, "_tables", cache)
        return cache

    def __repr__(self):
        shape = tuple(s.size for s in self.supports())
        return f"DiscreteJoint(shape={shape})"


# -- module-level operations ---------------------------------------------


def marginal(dist: DiscreteJoint, variables) -> np.ndarray:
    """Marginal probability table over `variables` (canonical axis order)."""
    return dist.table(variables)


def conditional(dist: DiscreteJoint, target, given: dict) -> np.ndarray:
    """Conditional probability table p(target | given)."""
    return dist.conditional_table(target, given)


def cond_mean_var(dist: DiscreteJoint, given: dict):
    """(E[Y | given], var[Y | given])."""
    return dist.cond_mean_var(given)


def _pair_indices(dist: DiscreteJoint, pair: TreatmentPair):
    return dist.index_of("a", pair.a_star), dist.index_of("a", pair.a_ref)


def _require_positive(value, what: str):
    if not np.all(np.asarray(value) > POSITIVITY_EPS):
        raise PositivityViolation(f"{what} has entries below {POSITIVITY_EPS}")


def ace_backdoor(dist: DiscreteJoint, pair: TreatmentPair) -> float:
    """sum_c p(c) [E(Y|a*,c) - E(Y|a,c)]."""
    t = dist._cache()
    i_star, i_ref = _pair_indices(dist, pair)
    live = t["pc"] > 0
    _require_positive(t["p_a_given_c"][live][:, [i_star, i_ref]], "p(a|c) at the compared levels")
    terms = t["pc"][live] * (t["ey_ac"][live, i_star] - t["ey_ac"][live, i_ref])
    return fsum(terms)


def ace_frontdoor(dist: DiscreteJoint, pair: TreatmentPair) -> float:
    """sum_z [p(z|a*) - p(z|a)] sum_abar E(Y|abar,z) p(abar)."""
    t = dist._cache()
    i_star, i_ref = _pair_indices(dist, pair)
    _require_positive(t["pa"], "p(a)")
    _require_positive(t["p_z_given_a"], "p(z|a)")
    shift = t["p_z_given_a"][i_star] - t["p_z_given_a"][i_ref]  # [z]
    return fsum(shift * t["ey_az"] * t["pa"][:, None])


def ace_twodoor(dist: DiscreteJoint, pair: TreatmentPair) -> float:
    """sum_{z,c} p(c) [p(z|a*,c) - p(z|a,c)] sum_abar E(Y|abar,z,c) p(abar|c)."""
    t = dist._cache()
    i_star, i_ref = _pair_indices(dist, pair)
    live = t["pc"] > 0
    _require_positive(t["p_a_given_c"][live], "p(a|c)")
    _require_positive(t["p_z_given_ac"][live], "p(z|a,c)")
    pzac = t["p_z_given_ac"][live]
    shift = pzac[:, i_star] - pzac[:, i_ref]  # [c, z]
    return fsum(t["pc"][live, None, None] * shift[:, None] * t["ey_azc"][live] * t["p_a_given_c"][live, :, None])


# -- construction helpers --------------------------------------------------


def factorized_joint(c_support, a_support, z_support, y_support, p_c, p_a_given_c, p_z_given_ac, p_y_given_zc) -> DiscreteJoint:
    """Joint from the factorization p(c) p(a|c) p(z|a,c) p(y|z,c).

    The outcome law is treatment-free given (z, c); the mediator law may
    depend on the covariate.
    """
    c_support = np.asarray(c_support, dtype=float)
    a_support = np.asarray(a_support, dtype=float)
    z_support = np.asarray(z_support, dtype=float)
    y_support = np.asarray(y_support, dtype=float)
    pmf = np.empty((c_support.size, a_support.size, z_support.size, y_support.size))
    for ic, c in enumerate(c_support):
        for ia, a in enumerate(a_support):
            for iz, z in enumerate(z_support):
                for iy, y in enumerate(y_support):
                    pmf[ic, ia, iz, iy] = p_c(c) * p_a_given_c(a, c) * p_z_given_ac(z, a, c) * p_y_given_zc(y, z, c)
    total = fsum(pmf)
    if abs(total - 1.0) > 1e-9:
        raise DomainError(f"factor functions are not normalized (total mass {total!r})")
    pmf /= total
    return DiscreteJoint(c_support, a_support, z_support, y_support, pmf)


def chain_joint(c_support, a_support, z_support, y_support, p_c, p_a_given_c, p_z_given_a, p_y_given_zc) -> DiscreteJoint:
    """Joint from the factorization p(c) p(a|c) p(z|a) p(y|z,c).

    Useful for building test families where the treatment affects the outcome
    only through the mediator, confounding runs through c, and the mediator is
    covariate-free given treatment.
    """
    return factorized_joint(
        c_support,
        a_support,
        z_support,
        y_support,
        p_c,
        p_a_given_c,
        lambda z, a, c: p_z_given_a(z, a),
        p_y_given_zc,
    )


def read_dist_csv(source) -> DiscreteJoint:
    """Parse the `c,a,z,y,p` cell format; `source` is a path or file object."""
    if hasattr(source, "read"):
        return _parse_dist(source, getattr(source, "name", "<stream>"))
    with open(source, "r", encoding="utf-8", newline="") as fh:
        return _parse_dist(fh, str(source))


def _parse_dist(fh, name: str) -> DiscreteJoint:
    reader = csv.reader(fh)
    try:
        header = next(reader)
    except StopIteration:
        raise DomainError(f"{name}: empty distribution file") from None
    if [h.strip().lower() for h in header] != ["c", "a", "z", "y", "p"]:
        raise DomainError(f"{name}:1: expected header 'c,a,z,y,p', got {','.join(header)!r}")
    cells = {}
    for lineno, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 5:
            raise DomainError(f"{name}:{lineno}: expected 5 fields, got {len(row)}")
        try:
            c, a, z, y, p = (float(x) for x in row)
        except ValueError as exc:
            raise DomainError(f"{name}:{lineno}: {exc}") from None
        for column, v in zip(VAR_NAMES + ("p",), (c, a, z, y, p)):
            if not math.isfinite(v):
                raise DomainError(f"{name}:{lineno}: non-finite value in column {column!r}")
        key = (c, a, z, y)
        if key in cells:
            raise DomainError(f"{name}:{lineno}: duplicate cell {key}")
        cells[key] = p
    if not cells:
        raise DomainError(f"{name}: no cells")
    c_sup = sorted({k[0] for k in cells})
    a_sup = sorted({k[1] for k in cells})
    z_sup = sorted({k[2] for k in cells})
    y_sup = sorted({k[3] for k in cells})
    pmf = np.zeros((len(c_sup), len(a_sup), len(z_sup), len(y_sup)))
    idx = {name: {v: i for i, v in enumerate(sup)} for name, sup in zip(VAR_NAMES, (c_sup, a_sup, z_sup, y_sup))}
    for (c, a, z, y), p in cells.items():
        pmf[idx["c"][c], idx["a"][a], idx["z"][z], idx["y"][y]] = p
    return DiscreteJoint(c_sup, a_sup, z_sup, y_sup, pmf)


def write_dist_csv(dist: DiscreteJoint, target) -> None:
    """Write the `c,a,z,y,p` cell format (all cells, including zeros)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["c", "a", "z", "y", "p"])
    for c, a, z, y, p in dist.cells():
        writer.writerow([repr(float(c)), repr(float(a)), repr(float(z)), repr(float(y)), repr(float(p))])
    write_text(buf.getvalue(), target)


def write_text(text: str, target) -> None:
    """Write `text` to a stream, or to a path through a temp file and os.replace.

    A path is never left half-written: readers see the old file or the new one.
    The temp file is created like open(path, "w") would, so the umask applies.
    """
    if hasattr(target, "write"):
        target.write(text)
        return
    tmp = os.path.join(os.path.dirname(os.path.abspath(target)), f".acebounds-{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
