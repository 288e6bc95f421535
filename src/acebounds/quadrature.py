"""Integration rules over the mediator.

Every sum-over-z appearing in an influence function is an expectation of some
g(z) under a conditional mediator law.  The rules below turn such a law into a
node grid plus weights so that ``sum(g(nodes) * weights, axis=-1)`` evaluates
the expectation.  Conditioning values may be scalars or 1-d arrays of
conditioning levels; level arrays are reshaped to broadcast against the node
axis, so g must do the same with any level arrays it closes over.  Callers
integrate once per distinct conditioning level rather than once per data row,
and copy the per-level results back to their rows (see
:mod:`acebounds.influence`).
"""

from __future__ import annotations

import functools
import math
import numbers

import numpy as np

from .dist import _require_support
from .errors import DomainError, MissingNuisance

__all__ = ["FiniteZRule", "GaussHermiteZRule", "expect_z"]

# levels x support elements of one finite grid; an n-node rule over n (a, c) levels grows as n^2
_MAX_GRID_ELEMENTS = 1 << 22


def _node_shape(x):
    """Reshape a conditioning value so it broadcasts against the node axis."""
    x = np.asarray(x)
    return x[..., None] if x.ndim else x


# numpy's hermgauss builds an n x n matrix, and its weights turn non-finite from about 371 nodes
_MAX_GH_NODES = 256
_GH_NODES = 64  # the node count of a rule given none (gh_nodes)


@functools.cache
def _gauss_hermite(n_nodes: int):
    """Nodes x and weights w with sum_i w_i f(mu + sqrt(2) sd x_i) ~ E f(Z), Z ~ N(mu, sd^2).

    Built once per node count (hermgauss takes about 1 ms at the default count).  Every rule of that
    count shares the arrays, so they are read-only; a refusal is raised, so it is never cached.
    """
    if n_nodes > _MAX_GH_NODES:
        raise DomainError(f"a Gauss-Hermite rule of {n_nodes} nodes (gh_nodes) exceeds the {_MAX_GH_NODES}-node limit")
    x, w = np.polynomial.hermite.hermgauss(n_nodes)
    w = w / math.sqrt(math.pi)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


class FiniteZRule:
    """Exact summation over a finite mediator support of distinct finite values.

    A grid of more than ``_MAX_GRID_ELEMENTS`` (conditioning levels times
    support points) raises DomainError before the density is evaluated.
    """

    def __init__(self, support):
        self.support = _require_support(support, "mediator support")  # a repeated node would be summed twice

    def grid(self, density, *cond):
        levels = np.broadcast(*cond).size
        if levels * self.support.size > _MAX_GRID_ELEMENTS:
            raise DomainError(
                f"a finite mediator grid of {levels} levels x {self.support.size} nodes exceeds "
                f"{_MAX_GRID_ELEMENTS} elements"
            )
        cond = tuple(_node_shape(x) for x in cond)
        weights = density(self.support, *cond)
        return self.support, np.asarray(weights, dtype=float)

    def __repr__(self):
        return f"FiniteZRule(support={self.support.tolist()})"


class GaussHermiteZRule:
    """Gauss-Hermite rule for Gaussian conditional mediator laws.

    The density object must expose ``location_scale(*cond) -> (mean, sd)``;
    nodes are placed at mean + sqrt(2)*sd*x_i with the usual weight rescaling
    so that the weights sum to one.
    """

    def __init__(self, n_nodes: int = _GH_NODES):
        if not isinstance(n_nodes, numbers.Integral):
            raise DomainError(f"a Gauss-Hermite rule needs a whole number of nodes (gh_nodes), got {n_nodes!r}")
        if n_nodes < 1:
            raise DomainError(f"a Gauss-Hermite rule needs at least one node (gh_nodes), got {n_nodes!r}")
        self.n_nodes = n_nodes
        self._x, self._w = _gauss_hermite(n_nodes)

    def grid(self, density, *cond):
        loc_scale = getattr(density, "location_scale", None)
        if loc_scale is None:
            raise MissingNuisance(
                "Gauss-Hermite integration needs a Gaussian conditional density "
                f"exposing location_scale(); got {getattr(density, 'what', type(density).__name__)}"
            )
        cond = tuple(_node_shape(x) for x in cond)
        mean, sd = loc_scale(*cond)
        nodes = mean + math.sqrt(2.0) * sd * self._x
        return nodes, self._w

    def __repr__(self):
        return f"GaussHermiteZRule(n_nodes={self.n_nodes})"


def expect_z(rule, density, g, *cond):
    """E[g(Z) | cond] under `density`, integrated with `rule`.

    Returns an array shaped like the (broadcast) conditioning levels, or a
    scalar when every input is scalar and g introduces no level axis.
    """
    nodes, weights = rule.grid(density, *cond)
    vals = np.asarray(g(nodes), dtype=float)
    weights = np.asarray(weights, dtype=float)
    if weights.ndim == 1 and vals.ndim >= 1 and vals.shape[-1] == weights.size:
        return vals @ weights
    return np.sum(vals * weights, axis=-1)
