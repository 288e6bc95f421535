import warnings

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from acebounds.special import expit


def _two_branch(x):
    """The inverse logit with each branch evaluated on its own rows only."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


EDGES = [0.0, -0.0, np.inf, -np.inf, 710.0, -710.0, 800.0, -800.0, 1e-300, -1e-300]


@given(st.lists(st.floats(min_value=-800.0, max_value=800.0, width=64), min_size=1, max_size=60))
def test_expit_matches_both_branches_bitwise(values):
    x = np.array(values + EDGES)
    got = expit(x)
    assert got.tobytes() == _two_branch(x).tobytes()


def test_expit_extremes_raise_no_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = expit(np.array([800.0, -800.0, np.nan]))
        assert expit(-800.0) == 0.0 and expit(800.0) == 1.0
    assert got[0] == 1.0 and got[1] == 0.0
    assert np.isnan(got[2])
