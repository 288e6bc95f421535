"""Semiparametric efficiency bounds.

Two evaluation routes are provided:

* exact summation of each bound formula over a :class:`DiscreteJoint`
  (method ``exact-sum``), and
* the Gaussian-mediator family used by the simulation studies, where each
  bound is gamma1^2 sigma_z^2 times a treatment-weight sum plus a noise factor
  times a mediator term:

  ==========  ======  ==========  ========  ===========
  model       weight  noise       mediator  method
  ==========  ======  ==========  ========  ===========
  BD          S       sigma_y^2   S         closed-form
  TD          S       sigma_y^2   R         closed-form
  FD          P       kappa       R         closed-form
  BD_TD       S       sigma_y^2   M         quadrature
  FD_TD       P       sigma_y^2   R         closed-form
  BD_FD_TD    P       sigma_y^2   M         quadrature
  ==========  ======  ==========  ========  ===========

  with S = sum_c p(c) [1/p(A=1|c) + 1/p(A=0|c)], P = 1/p(A=1) + 1/p(A=0),
  R = exp((beta/sigma_z)^2) - 1, kappa = sigma_y^2 + gamma2^2 E Var(C|A) and
  M = sum_c p(c) integral (p(z|1) - p(z|0))^2 / sum_a p(a|c) p(z|a) dz, the
  one term integrated (Gauss-Hermite, checked by node doubling).  M <= R,
  M <= S and P <= S give the orderings of the six bounds.

Whenever a formula subtracts theta**2 (or centers on theta), theta is the
two-door functional of the same distribution, so there is a single source of
truth for the target parameter.

The exact sums of the five mediator models use one kernel.  Over strata
of weight pi it adds a residual term, the spread of the pooled outcome under
the mediator law at a* and at a over the treatment weights, and a drift term,
then subtracts theta**2.  The models differ only in:

==========  ========  =======  =====================  =======
model       strata s  cells k  mass                   weights
==========  ========  =======  =====================  =======
FD          --        a        p(z|a)                 p(a)
TD          live c    a        p(z|a,c)               p(a|c)
BD_TD       live c    one      sum_a p(z|a,c) p(a|c)  p(a|c)
FD_TD       --        (c, a)   p(z|a)                 p(a)
BD_FD_TD    --        c        sum_a p(a|c) p(z|a)    p(a)
==========  ========  =======  =====================  =======

Strata have weight p(c) and law p(z|a,c); without them the law is p(z|a).
BD is written out.
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
from .quadrature import _GH_NODES, _MAX_GH_NODES, _gauss_hermite
from .special import expit

__all__ = [
    "BoundReport",
    "bound",
    "SimDgpParams",
    "simdgp_bound",
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
# stratum axis for TD and BD_TD (module docstring).
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
    "BD_TD": (
        "p(a|c)", "p(z|a,c)", "sum_a p(z|a,c) p(a|c)",
        lambda t, c: (
            t["pc"][c], t["p_z_given_ac"][c], t["p_a_given_c"][c], np.ones((c.size, 1)), t["ey_zc"][c, None], t["vy_zc"][c, None],
            np.einsum("caz,ca->cz", t["p_z_given_ac"][c], t["p_a_given_c"][c])[:, None],
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
    pi, mean = np.asarray(pi)[..., None], mean - dist.y_support.mean()  # centred as in _cache: every term is shift-invariant
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


def bound(dist: DiscreteJoint, pair: TreatmentPair, model: str) -> BoundReport:
    """The exact efficiency bound of `model` on `dist`, summed over its cells."""
    if model == "BD":
        value = _bd_value(dist, pair)
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
    """S = sum_c p(c) [1/p(A=1|c) + 1/p(A=0|c)]."""
    pa1 = params.p_a1_given_c()
    return float(np.dot(params.p_c_vec(), 1.0 / pa1 + 1.0 / (1.0 - pa1)))


def _marginal_inv_sum(params: SimDgpParams) -> float:
    """P = 1/p(A=1) + 1/p(A=0)."""
    return 1.0 / params.p_a_marginal(1) + 1.0 / params.p_a_marginal(0)


def _shift_ratio(params: SimDgpParams) -> float:
    """R = exp((beta/sigma_z)^2) - 1 = integral of p(z|1)^2 / p(z|0) dz - 1; DomainError where it overflows."""
    try:
        return math.expm1((params.beta / params.sigma_z) ** 2)
    except OverflowError:
        raise DomainError(
            f"(beta/sigma_z)^2 is too large for a finite bound (beta={params.beta!r}, sigma_z={params.sigma_z!r})"
        ) from None


def _mixture_term(params: SimDgpParams, n_nodes: int) -> float:
    """M = sum_c p(c) integral (p(z|1) - p(z|0))^2 / sum_a p(a|c) p(z|a) dz, per level c as E_{z|1}[d] - E_{z|0}[d].

    d = (p(z|1) - p(z|0)) / sum_a p(a|c) p(z|a) comes from the log density ratio l, divided through by the larger
    density: d = sign(l) (1 - e^-|l|) / (p(a_small|c) e^-|l| + p(a_large|c)), bounded by 1/p(a|c).
    """
    b = params.beta / params.sigma_z
    x, w = _gauss_hermite(n_nodes)
    log_ratio = math.sqrt(2.0) * b * x + np.array([[-0.5], [0.5]]) * b * b  # [arm, node]: at the nodes of z|0, z|1
    pa1 = params.p_a1_given_c()[:, None, None]  # [c, arm, node]
    p_large = np.where(log_ratio > 0, pa1, 1.0 - pa1)
    far = np.exp(-np.abs(log_ratio))  # the smaller density over the larger
    d = np.copysign(-np.expm1(-np.abs(log_ratio)), log_ratio) / ((1.0 - p_large) * far + p_large)
    return float(np.dot(params.p_c_vec(), [fsum(d[ic, 1] * w) - fsum(d[ic, 0] * w) for ic in range(2)]))


def _fd_noise(params: SimDgpParams) -> float:
    """kappa = sigma_y^2 + gamma2^2 E Var(C|A): the outcome variance that the front door leaves given (a, z)."""
    pa1_c1 = float(expit(params.alpha))
    g2, pc1 = params.gamma2, params.p_c
    spread = pa1_c1**2 / params.p_a_marginal(1) + (1.0 - pa1_c1) ** 2 / params.p_a_marginal(0)
    return params.sigma_y**2 + g2**2 * pc1 - g2**2 * pc1**2 * spread


def _outcome_noise(params: SimDgpParams) -> float:
    return params.sigma_y**2


# model -> (weight term, noise factor, mediator term); the bound is gamma1^2 sigma_z^2 weight + noise mediator
_SIMDGP_TERMS = {
    "BD": (_inv_prop_sum, _outcome_noise, _inv_prop_sum),
    "TD": (_inv_prop_sum, _outcome_noise, _shift_ratio),
    "FD": (_marginal_inv_sum, _fd_noise, _shift_ratio),
    "BD_TD": (_inv_prop_sum, _outcome_noise, _mixture_term),
    "FD_TD": (_marginal_inv_sum, _outcome_noise, _shift_ratio),
    "BD_FD_TD": (_marginal_inv_sum, _outcome_noise, _mixture_term),
}


def simdgp_bound(params: SimDgpParams, pair: TreatmentPair, model: str, n_nodes: int = _GH_NODES) -> BoundReport:
    """BoundReport for any of the six models on the Gaussian-mediator family (module docstring table).

    The mixture term M of BD_TD and BD_FD_TD uses quadrature at `n_nodes` >= the default ``_GH_NODES``, and
    the bound must stay within 1e-4 as the nodes double; the other four bounds are closed forms.
    """
    _check_pair(pair)
    if model not in _SIMDGP_TERMS:
        raise DomainError(f"unknown model {model!r}; expected one of {MODELS}")
    weight, noise, mediator = _SIMDGP_TERMS[model]
    if mediator is _mixture_term:
        if n_nodes < _GH_NODES:
            raise DomainError(f"quadrature order must be at least {_GH_NODES}")
        if 2 * n_nodes > _MAX_GH_NODES:
            raise DomainError(f"quadrature order {n_nodes} (gh_nodes) doubles past {_MAX_GH_NODES} Gauss-Hermite nodes")
        coarse, term = (_mixture_term(params, k) for k in (n_nodes, 2 * n_nodes))
        moved = noise(params) * abs(term - coarse)
        if moved > 1e-4:
            raise QuadratureNonConvergence(f"{model} moved by {moved:.3e} when doubling nodes from {n_nodes}")
        method = "quadrature"
    else:
        term, method = mediator(params), "closed-form"
    value = params.gamma1**2 * params.sigma_z**2 * weight(params) + noise(params) * term
    return _finish(model, value, method, pair)
