import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from acebounds.dist import DiscreteJoint, TreatmentPair, chain_joint, factorized_joint
from acebounds.special import expit

settings.register_profile(
    "package",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    max_examples=40,
)
settings.load_profile("package")

BINARY = [0.0, 1.0]
PAIR = TreatmentPair(1.0, 0.0)


def bernoulli(p1):
    return lambda v: p1 if v == 1 else 1.0 - p1


def random_chain_dist(rng) -> DiscreteJoint:
    """Random all-binary joint where treatment acts on the outcome only through
    the mediator and confounding runs through the covariate."""
    pc1 = rng.uniform(0.2, 0.8)
    pa1 = rng.uniform(0.2, 0.8, size=2)  # indexed by c
    pz1 = rng.uniform(0.2, 0.8, size=2)  # indexed by a
    py1 = rng.uniform(0.1, 0.9, size=(2, 2))  # indexed by (z, c)
    return chain_joint(
        BINARY,
        BINARY,
        BINARY,
        BINARY,
        bernoulli(pc1),
        lambda a, c: pa1[int(c)] if a == 1 else 1.0 - pa1[int(c)],
        lambda z, a: pz1[int(a)] if z == 1 else 1.0 - pz1[int(a)],
        lambda y, z, c: py1[int(z), int(c)] if y == 1 else 1.0 - py1[int(z), int(c)],
    )


def random_confounded_mediator_dist(rng) -> DiscreteJoint:
    """Like random_chain_dist but the mediator law also depends on the covariate."""
    pc1 = rng.uniform(0.2, 0.8)
    pa1 = rng.uniform(0.2, 0.8, size=2)
    pz1 = rng.uniform(0.2, 0.8, size=(2, 2))  # indexed by (a, c)
    py1 = rng.uniform(0.1, 0.9, size=(2, 2))
    return factorized_joint(
        BINARY,
        BINARY,
        BINARY,
        BINARY,
        bernoulli(pc1),
        lambda a, c: pa1[int(c)] if a == 1 else 1.0 - pa1[int(c)],
        lambda z, a, c: pz1[int(a), int(c)] if z == 1 else 1.0 - pz1[int(a), int(c)],
        lambda y, z, c: py1[int(z), int(c)] if y == 1 else 1.0 - py1[int(z), int(c)],
    )


def binary_logit_dist(beta0, alpha, beta, gamma1, gamma2) -> DiscreteJoint:
    """The all-binary example family on the logit scale: C ~ B(expit(beta0)), A|C ~ B(expit(alpha C)),
    Z|A ~ B(expit(beta A)), Y|Z,C ~ B(expit(gamma1 Z + gamma2 C))."""
    return chain_joint(
        BINARY,
        BINARY,
        BINARY,
        BINARY,
        bernoulli(float(expit(beta0))),
        lambda a, c: bernoulli(float(expit(alpha * c)))(a),
        lambda z, a: bernoulli(float(expit(beta * a)))(z),
        lambda y, z, c: bernoulli(float(expit(gamma1 * z + gamma2 * c)))(y),
    )


def uniform_joint() -> DiscreteJoint:
    pmf = np.full((2, 2, 2, 2), 1.0 / 16.0)
    return DiscreteJoint(BINARY, BINARY, BINARY, BINARY, pmf)


@pytest.fixture
def pair():
    return PAIR


@pytest.fixture
def uniform_dist():
    return uniform_joint()


@pytest.fixture
def chain_dists():
    rng = np.random.default_rng(20240817)
    return [random_chain_dist(rng) for _ in range(8)]
