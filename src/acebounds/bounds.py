"""Semiparametric efficiency bounds.

Two evaluation routes are provided:

* exact summation of each bound formula over a :class:`DiscreteJoint`
  (method ``exact-sum``), and
* the Gaussian-mediator family used by the simulation studies, where the
  BD / FD / TD bounds have closed forms (method ``closed-form``) and the
  pairwise / triple bounds are obtained by Gauss-Hermite integration over the
  mediator combined with exact sums over the binary (a, c) grid (method
  ``quadrature``).

Whenever a formula subtracts theta**2 (or centers on theta), theta is the
two-door functional of the same distribution, so there is a single source of
truth for the target parameter.

The exact sums of FD, TD, FD_TD and BD_FD_TD use one kernel.  Over strata
of weight pi it adds a residual term, the spread of the pooled outcome under
the mediator law at a* and at a over the treatment weights, and a drift term,
then subtracts theta**2.  The models differ only in:

==========  ========  =======  ===================  =======
model       strata s  cells k  mass                 weights
==========  ========  =======  ===================  =======
FD          --        a        p(z|a)               p(a)
TD          live c    a        p(z|a,c)             p(a|c)
FD_TD       --        (c, a)   p(z|a)               p(a)
BD_FD_TD    --        c        sum_a p(a|c) p(z|a)  p(a)
==========  ========  =======  ===================  =======

Strata have weight p(c) and law p(z|a,c); without them the law is p(z|a).  BD
is written out, and BD_TD is TD plus a correction for the outcome on (z, c).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dist import (
    DiscreteJoint,
    TreatmentPair,
    _pair_indices,
    _require_positive,
    ace_twodoor,
    fsum,
)
from .errors import DomainError, QuadratureNonConvergence
from .influence import MODEL_TAGS as MODELS
from .quadrature import _gauss_hermite
from .special import expit, norm_pdf

__all__ = [
    "BoundReport",
    "bound",
    "SimDgpParams",
    "simdgp_bound",
    "simdgp_td_bd_crossing",
    "simdgp_theta",
]

@dataclass(frozen=True)
class BoundReport:
    model: str
    value: float
    method: str  # exact-sum | closed-form | quadrature
    pair: TreatmentPair

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise DomainError(f"bound for {self.model} is not finite: {float(self.value)}")
        if self.value < 0:
            raise DomainError(f"bound for {self.model} is negative: {self.value!r}")

    def to_dict(self):
        return {
            "model": self.model,
            "value": self.value,
            "method": self.method,
            "a_star": self.pair.a_star,
            "a_ref": self.pair.a_ref,
        }


def _finish(model, value, method, pair):
    # tolerate tiny negative round-off on genuinely zero bounds
    if -1e-9 < value < 0.0:
        value = 0.0
    return BoundReport(model=model, value=value, method=method, pair=pair)


# -- exact summation on a DiscreteJoint -------------------------------------


def _bd_value(dist: DiscreteJoint, pair: TreatmentPair) -> float:
    t = dist._cache()
    i_s, i_r = _pair_indices(dist, pair)
    live = t["pc"] > 0
    pc, pac, ey, vy = t["pc"][live], t["p_a_given_c"][live], t["ey_ac"][live], t["vy_ac"][live]
    _require_positive(pac[:, [i_s, i_r]], "p(a|c)")
    theta = ace_twodoor(dist, pair)
    ipw = pc * (vy[:, i_s] / pac[:, i_s] + vy[:, i_r] / pac[:, i_r])
    gap = pc * (ey[:, i_s] - ey[:, i_r] - theta) ** 2
    return fsum(ipw) + fsum(gap)


def _by_cell(x):
    """[c, a, z] -> [(c, a), z], the (c, a) cells in c-major order."""
    return x.reshape(-1, x.shape[-1])


# model -> (weights text, law text, mass text, cells): the weights and the law are checked before
# theta, the mass after it, and a None text is not checked.  cells(t, c) gives pi, law[a,z], w[a],
# omega[k], mean[k,z], var[k,z] and mass[k,z] over the live covariate levels c, with a leading
# stratum axis for TD (module docstring).
_MEDIATOR_MODELS = {
    "FD": (
        "p(a)", "p(z|a)", None,
        lambda t, c: (1.0, t["p_z_given_a"], t["pa"], t["pa"], t["ey_az"], t["vy_az"], t["p_z_given_a"]),
    ),
    "TD": (
        "p(a|c)", "p(z|a,c)", None,
        lambda t, c: tuple(
            t[k][c] for k in ("pc", "p_z_given_ac", "p_a_given_c", "p_a_given_c", "ey_azc", "vy_azc", "p_z_given_ac")
        ),
    ),
    "FD_TD": (
        "p(a)", "p(z|a)", None,
        lambda t, c: (
            1.0, t["p_z_given_a"], t["pa"], (t["pc"][c, None] * t["p_a_given_c"][c]).ravel(),
            _by_cell(t["ey_azc"][c]), _by_cell(t["vy_azc"][c]), np.tile(t["p_z_given_a"], (c.size, 1)),
        ),
    ),
    "BD_FD_TD": (
        "p(a)", None, "sum_a p(a|c) p(z|a)",
        lambda t, c: (
            1.0, t["p_z_given_a"], t["pa"], t["pc"][c], t["ey_zc"][c], t["vy_zc"][c], t["p_a_given_c"][c] @ t["p_z_given_a"]
        ),
    ),
}


def _exact_sum(dist: DiscreteJoint, pair: TreatmentPair, model: str) -> float:
    """Residual + pooled-outcome IPW spread + drift - theta^2 of a mediator model.

    With shift = law(a*) - law(a) and the pooled outcome G = sum_k omega mean, per stratum:
    sum_z shift^2 sum_k omega var / mass + sum_{arm in a*, a} var_{law(arm)}(G) / w(arm)
    + sum_k omega (sum_z mean shift)^2.
    """
    t = dist._cache()
    i_s, i_r = _pair_indices(dist, pair)
    w_text, law_text, mass_text, cells = _MEDIATOR_MODELS[model]
    # dead strata go before any product: their cached conditionals are NaN
    pi, law, w, omega, mean, var, mass = cells(t, np.flatnonzero(t["pc"] > 0))
    _require_positive(w, w_text)
    if law_text:
        _require_positive(law, law_text)
    theta = ace_twodoor(dist, pair)
    if mass_text:
        _require_positive(mass, mass_text)
    pi = np.asarray(pi)[..., None]
    shift = law[..., i_s, :] - law[..., i_r, :]
    pooled = np.einsum("...k,...kz->...z", omega, mean)
    arms, w_arms = law[..., [i_s, i_r], :], w[..., [i_s, i_r]]
    terms = (
        pi * shift**2 * np.einsum("...k,...kz->...z", omega, var / mass),
        pi[..., None] * pooled[..., None, :] ** 2 * arms / w_arms[..., None],
        -pi * np.einsum("...z,...az->...a", pooled, arms) ** 2 / w_arms,
        pi * omega * np.einsum("...kz,...z->...k", mean, shift) ** 2,
    )
    return fsum(np.concatenate([x.ravel() for x in terms])) - theta**2


def _bd_td_value(dist: DiscreteJoint, pair: TreatmentPair) -> float:
    """The TD bound plus a correction for the outcome regression on (z, c) alone."""
    base = _exact_sum(dist, pair, "TD")
    t = dist._cache()
    i_s, i_r = _pair_indices(dist, pair)
    live = t["pc"] > 0
    pac, pzac = t["p_a_given_c"][live], t["p_z_given_ac"][live]
    mix = _require_positive(np.einsum("caz,ca->cz", pzac, pac), "sum_a p(z|a,c) p(a|c)")
    harm = np.einsum("ca,caz->cz", pac, 1.0 / pzac)
    shift = pzac[:, i_s] - pzac[:, i_r]
    corr = shift**2 * t["pc"][live, None] * t["vy_zc"][live] * (1.0 / mix - harm)
    return base + fsum(corr)


def bound(dist: DiscreteJoint, pair: TreatmentPair, model: str) -> BoundReport:
    """The exact efficiency bound of `model` on `dist`, summed over its cells."""
    if model == "BD":
        value = _bd_value(dist, pair)
    elif model == "BD_TD":
        value = _bd_td_value(dist, pair)
    elif model in _MEDIATOR_MODELS:
        value = _exact_sum(dist, pair, model)
    else:
        raise DomainError(f"unknown model {model!r}; expected one of {MODELS}")
    return _finish(model, value, "exact-sum", pair)


# -- the Gaussian-mediator simulation family --------------------------------


@dataclass(frozen=True)
class SimDgpParams:
    """Parameters of the binary-confounder / binary-treatment / Gaussian-mediator family.

    C ~ Bernoulli(p_c); A|C ~ Bernoulli(expit(alpha*C)); Z|A ~ N(beta*A, sigma_z^2);
    Y|Z,C ~ N(gamma1*Z + gamma2*C, sigma_y^2).
    """

    alpha: float
    beta: float
    gamma1: float
    gamma2: float
    sigma_z: float = 1.0
    sigma_y: float = 1.0
    p_c: float = 0.5

    def __post_init__(self):
        if not (self.sigma_z > 0 and self.sigma_y > 0):
            raise DomainError("sigma_z and sigma_y must be positive")
        if not 0.0 < self.p_c < 1.0:
            raise DomainError("p_c must lie strictly inside (0, 1)")
        pa1 = self.p_a1_given_c()
        _require_positive(np.stack([1.0 - pa1, pa1]), "p(a|c)")

    def p_c_vec(self):
        return np.array([1.0 - self.p_c, self.p_c])

    def p_a1_given_c(self):
        return expit(self.alpha * np.array([0.0, 1.0]))

    def p_a_marginal(self, level: int) -> float:
        pa1 = float(np.dot(self.p_c_vec(), self.p_a1_given_c()))
        return pa1 if level == 1 else 1.0 - pa1


def _check_pair(pair: TreatmentPair):
    levels = {pair.a_star, pair.a_ref}
    if levels != {0.0, 1.0}:
        raise DomainError("the Gaussian-mediator family has binary treatment levels {0, 1}")


def simdgp_theta(params: SimDgpParams, pair: TreatmentPair) -> float:
    """gamma1 * beta * (a_star - a_ref): the causal effect in this family."""
    _check_pair(pair)
    return params.gamma1 * params.beta * (pair.a_star - pair.a_ref)


def _inv_prop_sum(params: SimDgpParams) -> float:
    """sum_c p(c) [1/p(A=1|c) + 1/p(A=0|c)]."""
    pa1 = params.p_a1_given_c()
    return float(np.dot(params.p_c_vec(), 1.0 / pa1 + 1.0 / (1.0 - pa1)))


def _simdgp_bd(params: SimDgpParams) -> float:
    return (params.sigma_y**2 + params.gamma1**2 * params.sigma_z**2) * _inv_prop_sum(params)


def _shift_ratio(params: SimDgpParams) -> float:
    """exp((beta/sigma_z)^2) - 1 = integral of p(z|1)^2 / p(z|0) dz - 1; DomainError where it overflows."""
    try:
        return math.expm1((params.beta / params.sigma_z) ** 2)
    except OverflowError:
        raise DomainError(
            f"(beta/sigma_z)^2 is too large for a finite bound (beta={params.beta!r}, sigma_z={params.sigma_z!r})"
        ) from None


def _simdgp_td(params: SimDgpParams) -> float:
    return _simdgp_bd(params) + params.sigma_y**2 * (_shift_ratio(params) - _inv_prop_sum(params))


def _simdgp_fd(params: SimDgpParams) -> float:
    ratio = _shift_ratio(params)
    pa1_c1 = float(expit(params.alpha))
    pa = {1: params.p_a_marginal(1), 0: params.p_a_marginal(0)}
    g2, pc1 = params.gamma2, params.p_c
    factor = params.sigma_y**2 + g2**2 * pc1
    factor -= g2**2 * pc1**2 * (pa1_c1**2 / pa[1] + (1.0 - pa1_c1) ** 2 / pa[0])
    ipw = params.gamma1**2 * params.sigma_z**2 * (1.0 / pa[1] + 1.0 / pa[0])
    return ratio * factor + ipw


def simdgp_td_bd_crossing(params: SimDgpParams) -> float:
    """|beta| below which the TD bound is smaller than the BD bound in this family."""
    return params.sigma_z * math.sqrt(math.log1p(_inv_prop_sum(params)))


def _combo_value(params: SimDgpParams, pair: TreatmentPair, model: str, n_nodes: int) -> float:
    beta, sz, sy = params.beta, params.sigma_z, params.sigma_y
    g1, g2 = params.gamma1, params.gamma2
    pcv = params.p_c_vec()
    pa1c = params.p_a1_given_c()
    w_c = np.stack([1.0 - pa1c, pa1c], axis=1)  # w_c[c, a] = p(a|c)
    pa = {1: params.p_a_marginal(1), 0: params.p_a_marginal(0)}
    mu = {0: 0.0, 1: beta}
    x, w = _gauss_hermite(n_nodes)

    def nodes(level):
        return mu[level] + math.sqrt(2.0) * sz * x

    def gh(level, f):
        return fsum(f(nodes(level)) * w)

    def dens(z, level):
        return norm_pdf(z, mu[level], sz)

    def delta(z):
        return dens(z, 1) - dens(z, 0)

    def mix(ic):
        # sum_a p(a|c) p(z|a) at covariate level ic
        return lambda z: w_c[ic, 0] * dens(z, 0) + w_c[ic, 1] * dens(z, 1)

    def sq_over(denom_fn):
        # integral of (p1 - p0)^2 / denom dz as a difference of two expectations
        return gh(1, lambda z: delta(z) / denom_fn(z)) - gh(0, lambda z: delta(z) / denom_fn(z))

    def pooled_mean(z):
        # sum over (a, c) of E(Y|a, z, c) p(a|c) p(c); a-free in this family
        return g1 * z + g2 * params.p_c

    def ipw_spread():
        out = 0.0
        for level in (int(pair.a_star), int(pair.a_ref)):
            m1 = gh(level, pooled_mean)
            m2 = gh(level, lambda z: pooled_mean(z) ** 2)
            out += (m2 - m1 * m1) / pa[level]
        return out

    def drift_term():
        # sum over (a, c) cells of p(a, c) (sum_z E(Y|a,z,c) shift)^2 - theta^2;
        # the outcome mean is a-free, so the a-sum collapses onto p(c)
        out = []
        for ic in range(2):
            shift = gh(int(pair.a_star), lambda z: g1 * z + g2 * ic) - gh(
                int(pair.a_ref), lambda z: g1 * z + g2 * ic
            )
            out.append(pcv[ic] * shift**2)
        return fsum(out) - simdgp_theta(params, pair) ** 2

    if model == "BD_TD":
        corr = 0.0
        for ic in range(2):
            harm_c = w_c[ic, 0] * sq_over(lambda z: dens(z, 0)) + w_c[ic, 1] * sq_over(
                lambda z: dens(z, 1)
            )
            corr += pcv[ic] * sy**2 * (sq_over(mix(ic)) - harm_c)
        return _simdgp_td(params) + corr
    if model == "FD_TD":
        resid = sy**2 * fsum(pa[level] * sq_over(lambda z: dens(z, level)) for level in (0, 1))
        return resid + ipw_spread() + drift_term()
    resid = 0.0  # BD_FD_TD
    for ic in range(2):
        resid += pcv[ic] * sy**2 * sq_over(mix(ic))
    return resid + ipw_spread() + drift_term()


def simdgp_bound(params: SimDgpParams, pair: TreatmentPair, model: str, n_nodes: int = 64) -> BoundReport:
    """BoundReport for any of the six models on the Gaussian-mediator family.

    BD, FD and TD are closed forms; the others use quadrature at `n_nodes` >= 64, stable to 1e-4 as the nodes double.
    """
    _check_pair(pair)
    closed = {"BD": _simdgp_bd, "FD": _simdgp_fd, "TD": _simdgp_td}
    if model in closed:
        return _finish(model, closed[model](params), "closed-form", pair)
    if model not in MODELS:
        raise DomainError(f"unknown model {model!r}; expected one of {MODELS}")
    if n_nodes < 64:
        raise DomainError("quadrature order must be at least 64")
    with np.errstate(divide="ignore", invalid="ignore"):  # BoundReport refuses a non-finite value
        coarse, fine = (_combo_value(params, pair, model, k) for k in (n_nodes, 2 * n_nodes))
        moved = abs(fine - coarse)
    if moved > 1e-4:
        raise QuadratureNonConvergence(f"{model} combo moved by {moved:.3e} when doubling nodes from {n_nodes}")
    return _finish(model, fine, "quadrature", pair)
