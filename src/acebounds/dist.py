"""Exact finite joint distributions over (C, A, Z, Y) and the three adjustment functionals.

The joint is stored as a dense probability table.  ``DiscreteJoint.table`` is
its one general marginal; the conditional tables and outcome moments that the
bounds and oracles read are built from those marginals once per joint and kept
(``DiscreteJoint._cache``).  All reductions that feed a 1e-12 tolerance budget
go through :func:`fsum` (``math.fsum``'s bits) so that large supports do not
eat it.  A zero or near-zero denominator raises PositivityViolation instead of
propagating Inf/NaN: the downstream bound formulas are undefined there.
``_require_positive`` is the package's one positivity guard:
bounds, comparisons and estimating functions pass every denominator through
it, and it raises PositivityViolation ``{what} has entries below 1e-12``
unless every entry is above ``POSITIVITY_EPS`` (a NaN entry fails too).

Every table the package reads or writes goes through the one CSV codec here:
:func:`read_csv_table` reads, :func:`csv_text` formats with one cell
formatter (``exact_cell``, the shortest round-tripping float, for data and
joints; ``report_cell``, 6 significant digits and booleans as 1 or 0, for
reports) and :func:`write_text` writes to a stream or atomically to a path.
Reader errors are DomainErrors prefixed by ``name:line`` where a line is known:
``empty {what} file``, ``expected header 'c,a,z,y,p', got ...``,
``expected 5 fields, got N``, the float parser's message,
``non-finite value in column 'z'``, ``no {rows}`` and, for joints,
``duplicate cell (c, a, z, y)`` at the repeated row.
"""

from __future__ import annotations

import csv
import io
import math
import os
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PositivityViolation

__all__ = [
    "POSITIVITY_EPS",
    "TreatmentPair",
    "DiscreteJoint",
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
    """The correctly rounded sum of an iterable or ndarray: ``math.fsum``, with an array passed as a flat list."""
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
    The joint keeps, built lazily on first use, what its queries derive from
    the table: the marginal and conditional tables and theta per treatment pair,
    which bounds and oracles alike read (``_cache``; a refusal is not kept), and
    the oracle state (``_oracle``: the (c, a, z) cells of positive mass with
    their outcome means and variances, one row plan over them).
    Keeping them changes no result, only how often it is computed.
    """

    def __init__(self, c_support, a_support, z_support, y_support, pmf):
        # copies, so that freezing them below leaves the caller's arrays writable
        self.c_support, self.a_support, self.z_support, self.y_support = (
            _require_support(sup, f"support of {name}") for name, sup in zip(VAR_NAMES, (c_support, a_support, z_support, y_support))
        )
        pmf = np.array(pmf, dtype=float)
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

    def index_of(self, var: str, value) -> int:
        sup = self.supports()[_AXIS[var]]
        hits = np.nonzero(sup == float(value))[0]
        if hits.size == 0:
            raise DomainError(f"value {value!r} not in the support of {var}")
        return int(hits[0])

    def cells(self) -> np.ndarray:
        """(N, 5) array of (c, a, z, y, p) rows over all table cells, y varying fastest."""
        grids = np.meshgrid(*self.supports(), indexing="ij")
        return np.column_stack([g.ravel() for g in grids] + [self.pmf.ravel()])

    # -- marginals and the conditional tables used by bounds/oracles -------

    def table(self, variables) -> np.ndarray:
        """Marginal table over `variables`, axes in canonical (c, a, z, y) order."""
        variables = tuple(variables)
        unknown = [v for v in variables if v not in _AXIS]
        if unknown:
            raise DomainError(f"unknown variables {unknown}; expected subset of {VAR_NAMES}")
        drop = tuple(_AXIS[v] for v in VAR_NAMES if v not in variables)
        out = np.add.reduce(self.pmf, axis=drop) if drop else self.pmf.copy()
        return np.asarray(out, dtype=float)

    def _cache(self):
        cache = getattr(self, "_tables", None)
        if cache is not None:
            return cache
        p = self.pmf
        pc, pa, pac, pzac, pza = map(self.table, ("c", "a", "ca", "caz", "az"))  # marginal tables
        pzc = pzac.sum(axis=1)  # joint over (c, z)
        y0 = self.y_support.mean()  # moments about a point of the support lose no digits to the offset of y
        y = self.y_support - y0
        ysum, y2sum = (np.tensordot(p, v, axes=([3], [0])) for v in (y, y * y))  # sum_y (y - y0)^k p(c,a,z,y)
        cache = {"pc": pc, "pa": pa, "pzc": pzc}
        with np.errstate(divide="ignore", invalid="ignore"):
            cache["p_a_given_c"] = np.where(pc[:, None] > 0, pac / pc[:, None], np.nan)  # [c, a]
            cache["p_z_given_ac"] = np.where(pac[..., None] > 0, pzac / pac[..., None], np.nan)  # [c, a, z]
            cache["p_z_given_a"] = np.where(pa[:, None] > 0, pza / pa[:, None], np.nan)  # [a, z]
            # E(Y|.) and Var(Y|.) given (a,z,c) [c, a, z], (z,c) [c, z], (a,z) [a, z] and (a,c) [c, a]
            for given, denom, summed in (("azc", pzac, ()), ("zc", pzc, 1), ("az", pzac.sum(axis=0), 0), ("ac", pac, 2)):
                ey = np.where(denom > 0, ysum.sum(axis=summed) / denom, np.nan)
                vy = np.where(denom > 0, y2sum.sum(axis=summed) / denom - ey**2, np.nan)
                cache["ey_" + given], cache["vy_" + given] = ey + y0, np.clip(vy, 0.0, None)
        object.__setattr__(self, "_tables", cache)
        return cache

    def __repr__(self):
        shape = tuple(s.size for s in self.supports())
        return f"DiscreteJoint(shape={shape})"


# -- module-level operations ---------------------------------------------


def _pair_indices(dist: DiscreteJoint, pair: TreatmentPair):
    return dist.index_of("a", pair.a_star), dist.index_of("a", pair.a_ref)


def _require_support(values, what: str) -> np.ndarray:
    """A float copy of `values`, once they are a non-empty 1-d sequence of distinct finite values."""
    values = np.array(values, dtype=float)
    if values.ndim != 1 or values.size == 0:
        raise DomainError(f"{what} must be a non-empty 1-d sequence")
    if not np.isfinite(values).all():
        raise DomainError(f"{what} must hold finite values")
    if np.unique(values).size != values.size:
        raise DomainError(f"{what} contains duplicate values")
    return values


def _require_positive(value, what: str):
    """`value` as an array, once every entry is above POSITIVITY_EPS; NaN fails too.

    The one positivity guard: every denominator in the package passes through it.
    """
    value = np.asarray(value)
    if not (value > POSITIVITY_EPS).all():
        raise PositivityViolation(f"{what} has entries below {POSITIVITY_EPS}")
    return value


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
    """sum_{z,c} p(c) [p(z|a*,c) - p(z|a,c)] sum_abar E(Y|abar,z,c) p(abar|c), kept per pair by the joint."""
    t = dist._cache()
    if ("theta", pair) in t:
        return t["theta", pair]
    i_star, i_ref = _pair_indices(dist, pair)
    live = t["pc"] > 0
    _require_positive(t["p_a_given_c"][live], "p(a|c)")
    _require_positive(t["p_z_given_ac"][live], "p(z|a,c)")
    pzac = t["p_z_given_ac"][live]
    shift = pzac[:, i_star] - pzac[:, i_ref]  # [c, z]
    t["theta", pair] = fsum(t["pc"][live, None, None] * shift[:, None] * t["ey_azc"][live] * t["p_a_given_c"][live, :, None])
    return t["theta", pair]


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
    """Parse the `c,a,z,y,p` cell format; `source` is a path or file object.

    Each of c, a, z, y is coded against its sorted distinct values, and the
    pmf is filled by one scatter over the flat cell codes.  Cells absent from
    the file have mass 0; a cell listed twice is reported at its second line.
    """
    name, lines, table = read_csv_table(source, VAR_NAMES + ("p",), "distribution", "cells")
    supports, codes = zip(*(np.unique(col, return_inverse=True) for col in table[:, :4].T))
    shape = tuple(s.size for s in supports)
    cell = np.ravel_multi_index(codes, shape)
    order = np.argsort(cell, kind="stable")
    repeats = order[1:][cell[order[1:]] == cell[order[:-1]]]
    if repeats.size:
        row = repeats.min()
        raise DomainError(f"{name}:{lines[row]}: duplicate cell {tuple(table[row, :4].tolist())}")
    pmf = np.zeros(math.prod(shape))
    pmf[cell] = table[:, 4]
    return DiscreteJoint(*supports, pmf.reshape(shape))


def write_dist_csv(dist: DiscreteJoint, target) -> None:
    """Write the `c,a,z,y,p` cell format (all cells, including zeros)."""
    write_text(csv_text(VAR_NAMES + ("p",), dist.cells().tolist(), exact_cell), target)


# -- the one CSV codec ------------------------------------------------------------


def read_csv_table(source, columns, what: str, rows_word: str):
    """Read a header line plus rows of finite floats from a path or a stream.

    Returns the source name, the line number of each data row and an (N, k)
    float array, k = len(columns).  Blank lines are skipped; errors are the
    DomainErrors listed in the module docstring.
    """
    columns, is_stream = tuple(columns), hasattr(source, "read")
    name = getattr(source, "name", "<stream>") if is_stream else str(source)
    with nullcontext(source) if is_stream else open(source, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DomainError(f"{name}: empty {what} file") from None
        if [h.strip().lower() for h in header] != list(columns):
            raise DomainError(f"{name}:1: expected header {','.join(columns)!r}, got {','.join(header)!r}")
        lines, rows = [], []
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != len(columns):
                raise DomainError(f"{name}:{lineno}: expected {len(columns)} fields, got {len(row)}")
            try:
                values = [float(x) for x in row]
            except ValueError as exc:
                raise DomainError(f"{name}:{lineno}: {exc}") from None
            for column, v in zip(columns, values):
                if not math.isfinite(v):
                    raise DomainError(f"{name}:{lineno}: non-finite value in column {column!r}")
            lines.append(lineno)
            rows.append(values)
    if not rows:
        raise DomainError(f"{name}: no {rows_word}")
    return name, lines, np.asarray(rows, dtype=float)


def exact_cell(value) -> str:
    """The shortest text that reads back as the same float: data and joints."""
    return repr(float(value))


def report_cell(value) -> str:
    """Floats to 6 significant digits, booleans as 1 or 0, anything else as str: reports and summaries."""
    return format(value, ".6g") if isinstance(value, float) else str(int(value) if isinstance(value, bool) else value)


def csv_text(header, rows, cell) -> str:
    """The header line, then one line per row with every value formatted by `cell`."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([cell(v) for v in row] for row in rows)
    return buf.getvalue()


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
