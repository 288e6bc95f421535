import io
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from acebounds.dist import (
    DiscreteJoint,
    TreatmentPair,
    ace_backdoor,
    ace_frontdoor,
    ace_twodoor,
    fsum,
    read_dist_csv,
    write_dist_csv,
    write_text,
)
from acebounds.errors import DomainError, PositivityViolation
from acebounds.fitting import read_data_csv
from acebounds.influence import MODEL_TAGS, evaluate_m, truth_nuisances
from acebounds.special import expit

from conftest import BINARY, PAIR, binary_logit_dist, random_chain_dist, random_confounded_mediator_dist, uniform_joint

probs = st.floats(min_value=0.15, max_value=0.85)


def test_treatment_pair_rejects_equal_levels():
    with pytest.raises(DomainError):
        TreatmentPair(1.0, 1.0)


def test_pmf_must_sum_to_one():
    pmf = np.full((2, 2, 2, 2), 1.0 / 16.0)
    pmf[0, 0, 0, 0] += 1e-6
    with pytest.raises(DomainError):
        DiscreteJoint(BINARY, BINARY, BINARY, BINARY, pmf)


def test_pmf_must_be_nonnegative():
    pmf = np.full((2, 2, 2, 2), 1.0 / 16.0)
    pmf[0, 0, 0, 0] = -1.0 / 16.0
    pmf[1, 1, 1, 1] = 3.0 / 16.0
    with pytest.raises(DomainError):
        DiscreteJoint(BINARY, BINARY, BINARY, BINARY, pmf)


def test_joint_leaves_the_callers_arrays_writable():
    sup = np.array(BINARY)
    pmf = random_chain_dist(np.random.default_rng(2)).pmf.copy()
    dist = DiscreteJoint(sup, sup, sup, sup, pmf)
    want = DiscreteJoint(*(np.array(BINARY),) * 4, pmf.copy())
    pmf[0, 0, 0, 0], sup[1] = 0.5, 7.0  # "assignment destination is read-only" while the joint froze them
    assert dist.pmf.tobytes() == want.pmf.tobytes() and dist.a_support.tolist() == BINARY
    assert not dist.pmf.flags.writeable and not dist.a_support.flags.writeable
    assert ace_twodoor(dist, PAIR) == ace_twodoor(want, PAIR)  # the joint's first query, made after the writes


def test_marginal_uniform_treatment(uniform_dist):
    table = uniform_dist.table(("a",))
    assert table == pytest.approx([0.5, 0.5], abs=1e-15)


def test_marginal_full_set_is_identity(uniform_dist):
    table = uniform_dist.table(("c", "a", "z", "y"))
    assert np.array_equal(table, uniform_dist.pmf)


def test_marginal_example_family_alpha_zero():
    # with a flat treatment logit, hand summation over c gives p(A=1) = 1/2
    dist = binary_logit_dist(0.3, 0.0, 1.0, 1.0, 1.0)
    assert dist.table(("a",))[1] == pytest.approx(0.5, abs=1e-12)


@given(probs, probs, probs, probs)
def test_marginal_sums_to_one(pc1, pa1, pz1, py1):
    pmf = np.zeros((2, 2, 2, 2))
    for ic, pc in enumerate((1 - pc1, pc1)):
        for ia, pa in enumerate((1 - pa1, pa1)):
            for iz, pz in enumerate((1 - pz1, pz1)):
                for iy, py in enumerate((1 - py1, py1)):
                    pmf[ic, ia, iz, iy] = pc * pa * pz * py
    dist = DiscreteJoint(BINARY, BINARY, BINARY, BINARY, pmf / pmf.sum())
    for vars_ in (("a",), ("c", "z"), ("y",), ("a", "z", "y")):
        assert math.fsum(dist.table(vars_).ravel().tolist()) == pytest.approx(1.0, abs=1e-12)


def test_conditional_independent_treatment(uniform_dist):
    assert uniform_dist._cache()["p_a_given_c"] == pytest.approx(np.tile(uniform_dist.table(("a",)), (2, 1)), abs=1e-15)


def test_conditional_example_family_propensity():
    # A | C=1 is Bernoulli(expit(alpha)) in the all-binary example family
    alpha = 0.7
    dist = binary_logit_dist(0.2, alpha, 0.9, 0.5, -0.3)
    assert dist._cache()["p_a_given_c"][1, 1] == pytest.approx(float(expit(alpha)), abs=1e-12)


def _moments(dist, given):
    """E(Y|given) and Var(Y|given) from the marginal tables, axes in (c, a, z) order; NaN off the support."""
    axes = tuple(v for v in "caz" if v in given)
    joint, margin = dist.table(axes + ("y",)), dist.table(axes)
    with np.errstate(divide="ignore", invalid="ignore"):
        mean, second = (joint @ dist.y_support**k / margin for k in (1, 2))
    return mean, np.clip(second - mean**2, 0.0, None)


@pytest.mark.parametrize("null_c", [False, True], ids=["full", "null covariate level"])
def test_cached_tables_are_the_marginal_ratios(null_c):
    # every table the bounds and oracles read, against marginals divided here; NaN where the denominator is 0
    rng = np.random.default_rng(5)
    wide = rng.random((3, 3, 4, 2))
    wide = DiscreteJoint([0.0, 2.0, 1.0], [1.0, 0.0, 2.0], [0.5, -1.0, 3.0, 2.0], [1.0, -2.0], wide / fsum(wide))
    for dist in [random_confounded_mediator_dist(rng) for _ in range(3)] + [wide]:
        if null_c:
            pmf = dist.pmf.copy()
            pmf[1] = 0.0
            dist = DiscreteJoint(*dist.supports(), pmf / fsum(pmf))
        t, margin = dist._cache(), dist.table
        with np.errstate(divide="ignore", invalid="ignore"):
            want = {
                "pc": margin("c"),
                "pa": margin("a"),
                "pzc": margin("cz"),
                "p_a_given_c": margin("ca") / margin("c")[:, None],
                "p_z_given_ac": margin("caz") / margin("ca")[..., None],
                "p_z_given_a": margin("az") / margin("a")[:, None],
            }
        for given in ("azc", "zc", "az", "ac"):
            want["ey_" + given], want["vy_" + given] = _moments(dist, given)
        assert sorted(k for k in t if isinstance(k, str)) == sorted(want)
        for key, table in want.items():
            assert t[key] == pytest.approx(table, abs=1e-15, nan_ok=True), key
            assert np.array_equal(np.isnan(t[key]), np.isnan(table)), key
        assert np.all(np.isnan(t["p_a_given_c"][1])) == null_c


def test_conditional_times_margin_reconstructs_joint():
    dist = random_chain_dist(np.random.default_rng(5))
    t = dist._cache()
    rebuilt = t["pc"][:, None, None] * t["p_a_given_c"][..., None] * t["p_z_given_ac"]
    assert np.max(np.abs(rebuilt - dist.table(("c", "a", "z")))) < 1e-12


def test_cond_mean_var_deterministic_outcome():
    pmf = np.zeros((2, 2, 2, 2))
    pmf[:, :, :, 1] = 1.0 / 8.0  # y == 1 always
    t = DiscreteJoint(BINARY, BINARY, BINARY, BINARY, pmf)._cache()
    assert t["ey_zc"][0, 0] == pytest.approx(1.0, abs=1e-15)
    assert t["vy_zc"][0, 0] == pytest.approx(0.0, abs=1e-15)


@given(probs)
def test_cond_mean_var_bernoulli_identity(q):
    t = binary_logit_dist(0.0, 0.0, 0.0, math.log(q / (1 - q)), 0.0)._cache()
    # outcome given (z=1, c) is Bernoulli(q) by construction; tables are indexed [c, z]
    assert t["ey_zc"][0, 1] == pytest.approx(q, abs=1e-12)
    assert t["vy_zc"][0, 1] == pytest.approx(q * (1 - q), abs=1e-12)


def test_cond_mean_var_flat_logit_quarter_variance():
    t = binary_logit_dist(0.4, 1.0, 1.0, 0.0, 0.0)._cache()
    assert t["vy_zc"] == pytest.approx(np.full((2, 2), 0.25), abs=1e-12)


def test_ace_null_effect(uniform_dist, pair):
    assert ace_backdoor(uniform_dist, pair) == pytest.approx(0.0, abs=1e-12)
    assert ace_frontdoor(uniform_dist, pair) == pytest.approx(0.0, abs=1e-12)
    assert ace_twodoor(uniform_dist, pair) == pytest.approx(0.0, abs=1e-12)


def test_ace_randomized_treatment_matches_conditional_means(pair):
    dist = binary_logit_dist(0.3, 0.0, 1.2, 0.8, -0.4)  # alpha=0: randomized
    ey = dist.table(("a", "y")) @ dist.y_support / dist.table(("a",))  # E(Y|a) at a = 0, 1
    assert ace_backdoor(dist, pair) == pytest.approx(ey[1] - ey[0], abs=1e-12)


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_ace_three_routes_agree_on_chain_family(seed):
    rng = np.random.default_rng(seed)
    dist = random_chain_dist(rng)
    pair = TreatmentPair(1.0, 0.0)
    bd = ace_backdoor(dist, pair)
    fd = ace_frontdoor(dist, pair)
    td = ace_twodoor(dist, pair)
    assert abs(bd - fd) < 1e-10
    assert abs(bd - td) < 1e-10


@given(st.integers(min_value=0, max_value=2**32 - 1), st.permutations([0, 1]), st.permutations([0, 1]))
def test_ace_invariant_to_support_permutation(seed, perm_a, perm_z):
    rng = np.random.default_rng(seed)
    dist = random_chain_dist(rng)
    pair = TreatmentPair(1.0, 0.0)
    pmf = dist.pmf[:, perm_a][:, :, perm_z]
    permuted = DiscreteJoint(
        dist.c_support,
        dist.a_support[perm_a],
        dist.z_support[perm_z],
        dist.y_support,
        pmf,
    )
    for fn in (ace_backdoor, ace_frontdoor, ace_twodoor):
        assert fn(permuted, pair) == pytest.approx(fn(dist, pair), abs=1e-12)


def test_ace_positivity_violation(pair):
    pmf = np.zeros((2, 2, 2, 2))
    pmf[:, 1] = 1.0 / 8.0  # nobody untreated
    dist = DiscreteJoint(BINARY, BINARY, BINARY, BINARY, pmf)
    with pytest.raises(PositivityViolation):
        ace_backdoor(dist, pair)
    with pytest.raises(PositivityViolation):
        ace_twodoor(dist, pair)


def test_dist_csv_round_trip():
    rng = np.random.default_rng(11)
    dist = random_chain_dist(rng)
    buf = io.StringIO()
    write_dist_csv(dist, buf)
    buf.seek(0)
    back = read_dist_csv(buf)
    assert np.max(np.abs(back.pmf - dist.pmf)) < 1e-15


def test_dist_csv_reports_bad_line_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("c,a,z,y,p\n0,0,0,0,0.5\n0,0,0,oops,0.5\n")
    with pytest.raises(DomainError, match=":3"):
        read_dist_csv(path)


def test_dist_csv_rejects_duplicate_cells(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text("c,a,z,y,p\n0,0,0,0,0.5\n0,0,0,0,0.5\n")
    with pytest.raises(DomainError, match="duplicate"):
        read_dist_csv(path)
    # the earliest row that repeats an earlier cell is reported, not the first repeat in sort order
    path.write_text("c,a,z,y,p\n0,1,0,0,0.25\n0,0,0,0,0.25\n\n1,0,0,0,0.25\n0,1,0,0,0.1\n0,0,0,0,0.15\n")
    with pytest.raises(DomainError) as exc:
        read_dist_csv(path)
    assert str(exc.value) == f"{path}:6: duplicate cell (0.0, 1.0, 0.0, 0.0)"


def test_write_dist_csv_golden_bytes():
    dist = DiscreteJoint([0.0], [0.0, 1.0], [0.1], [-2.0, 1e-05], [[[[0.1, 0.2]], [[0.3, 0.4]]]])
    buf = io.StringIO()
    write_dist_csv(dist, buf)
    assert buf.getvalue() == (
        "c,a,z,y,p\n0.0,0.0,0.1,-2.0,0.1\n0.0,0.0,0.1,1e-05,0.2\n0.0,1.0,0.1,-2.0,0.3\n0.0,1.0,0.1,1e-05,0.4\n"
    )


_READERS = {
    "dist": (read_dist_csv, ",p", ",0.5", "distribution", "cells", 5),
    "data": (lambda source: read_data_csv(source, PAIR), "", "", "data", "observations", 4),
}
# {p} completes the reader's header and {v} its rows; the expected error follows the source name
_MALFORMED = {
    "wrong header": ("c,a,z,q{p}\n0,0,0,0{v}\n", ":1: expected header 'c,a,z,y{p}', got 'c,a,z,q{p}'"),
    "wrong field count": ("c,a,z,y{p}\n0,0,0,0{v}\n0,0,1\n", ":3: expected {k} fields, got 3"),
    "empty file": ("", ": empty {what} file"),
    "header only": ("c,a,z,y{p}\n", ": no {rows}"),
    "header and blank lines": ("c,a,z,y{p}\n\n  \n", ": no {rows}"),
    "non-float field": ("c,a,z,y{p}\n0,0,0,0{v}\n0,0,oops,0{v}\n", ":3: could not convert string to float: 'oops'"),
    "non-float after blank lines": ("c,a,z,y{p}\n\n\n0,0,0,oops{v}\n", ":4: could not convert string to float: 'oops'"),
    "non-finite field": ("c,a,z,y{p}\n0,0,0,0{v}\n0,1,nan,0{v}\n", ":3: non-finite value in column 'z'"),
    "infinite field": ("c,a,z,y{p}\n0,0,0,0{v}\n0,1,0,-inf{v}\n", ":3: non-finite value in column 'y'"),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED))
@pytest.mark.parametrize("reader", sorted(_READERS))
def test_csv_readers_report_malformed_input_at_its_line(tmp_path, reader, case):
    read, p, v, what, rows, k = _READERS[reader]
    text, message = _MALFORMED[case]
    message = message.format(p=p, k=k, what=what, rows=rows)
    path = tmp_path / "in.csv"
    path.write_text(text.format(p=p, v=v))
    for source, name in ((path, str(path)), (io.StringIO(path.read_text()), "<stream>")):
        with pytest.raises(DomainError) as exc:
            read(source)
        assert str(exc.value) == name + message


@pytest.mark.parametrize("reader", sorted(_READERS))
def test_csv_readers_skip_blank_lines(reader):
    read, p, v, *_ = _READERS[reader]
    got = read(io.StringIO(f"c,a,z,y{p}\n\n0,0,0,0{v}\n   \n0,1,0,0{v}\n\n"))
    if reader == "dist":
        assert got.a_support.tolist() == [0.0, 1.0] and got.pmf.ravel().tolist() == [0.5, 0.5]
    else:
        assert got.a.tolist() == [0.0, 1.0] and got.n == 2


def test_uniform_helper_consistency(uniform_dist):
    assert uniform_joint().pmf == pytest.approx(uniform_dist.pmf)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_dist_csv_rejects_non_finite(bad):
    text = f"c,a,z,y,p\n0,0,0,0,0.5\n0,1,{bad},0,0.5\n"
    with pytest.raises(DomainError, match=r"<stream>:3: .*non-finite"):
        read_dist_csv(io.StringIO(text))


def test_joint_rejects_nan_pmf_entry():
    # fsum gives nan, and abs(nan - 1.0) > 1e-12 is False, so the mass check alone lets it through
    pmf = np.array([0.5, 0.5, 0.0, np.nan]).reshape(1, 1, 2, 2)
    with pytest.raises(DomainError, match="finite"):
        DiscreteJoint([0.0], [0.0], [0.0, 1.0], [0.0, 1.0], pmf)


@pytest.mark.parametrize("var", ["c", "a", "z", "y"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_joint_rejects_non_finite_support(var, bad):
    supports = {name: [0.0] for name in "cazy"}
    supports[var] = [bad]
    with pytest.raises(DomainError, match=f"support of {var}.*finite"):
        DiscreteJoint(supports["c"], supports["a"], supports["z"], supports["y"], np.ones((1, 1, 1, 1)))


def test_write_text_replaces_a_path_whole(tmp_path):
    path, ref = tmp_path / "dist.csv", tmp_path / "ref.csv"
    path.write_text("old\n")
    ref.write_text("")
    with pytest.raises(TypeError):
        write_text(None, path)
    assert path.read_bytes() == b"old\n"
    buf = io.StringIO()
    write_dist_csv(uniform_joint(), buf)
    write_dist_csv(uniform_joint(), path)
    assert path.read_bytes() == buf.getvalue().encode()
    assert path.stat().st_mode == ref.stat().st_mode
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dist.csv", "ref.csv"]


def test_cells_enumerate_the_table_in_loop_order():
    rng = np.random.default_rng(12)
    pmf = rng.random((2, 3, 2, 3))
    dist = DiscreteJoint([1.0, 0.0], [2.0, 0.0, 1.0], [0.5, -0.5], [3.0, 1.0, 2.0], pmf / pmf.sum())
    loop = [
        (c, a, z, y, dist.pmf[ic, ia, iz, iy])
        for ic, c in enumerate(dist.c_support)
        for ia, a in enumerate(dist.a_support)
        for iz, z in enumerate(dist.z_support)
        for iy, y in enumerate(dist.y_support)
    ]
    assert np.array_equal(dist.cells(), np.array(loop))


# -- the exact sum ------------------------------------------------------------------


def _sum_outcome(sum_fn, values):
    """The sum's float.hex, or the type of the exception it raised."""
    try:
        return sum_fn(values).hex()
    except (ValueError, OverflowError) as exc:
        return type(exc)


def _same_as_math_fsum(x):
    assert _sum_outcome(fsum, x) == _sum_outcome(math.fsum, x.ravel().tolist())


@given(
    n=st.integers(min_value=0, max_value=6000),
    spread=st.integers(min_value=0, max_value=600),
    kind=st.sampled_from(["plain", "cancelling", "negative zeros", "non-finite", "near overflow"]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_fsum_matches_math_fsum_bit_for_bit(n, spread, kind, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n) * np.exp2(rng.integers(-spread // 2, spread // 2 + 1, n))
    if kind == "cancelling":  # every value beside its negation, in shuffled order: the sum is exactly 0
        x = rng.permutation(np.concatenate([x, -x]))
    elif kind == "negative zeros":
        x = np.full(n, -0.0)
    elif kind == "non-finite" and n:
        x[rng.integers(0, n, 3)] = rng.choice([np.nan, np.inf, -np.inf], 3)
    elif kind == "near overflow":
        x = np.sign(x) * rng.uniform(1.5e308, 1.7e308, n)
    _same_as_math_fsum(x)
    _same_as_math_fsum(x.reshape(2, -1) if n % 2 == 0 else x[::-1])  # any shape, any strides
    assert _sum_outcome(fsum, x.tolist()) == _sum_outcome(math.fsum, x.tolist())  # a plain iterable
    assert _sum_outcome(fsum, iter(x.tolist())) == _sum_outcome(math.fsum, x.tolist())


def test_fsum_matches_math_fsum_on_the_oracle_terms(chain_dists):
    # every (m - theta)^2 p array the enumeration oracle sums on these joints, and all of them at once
    terms = []
    for dist in chain_dists:
        cells = dist.cells()
        *cols, p = cells[cells[:, 4] > 0.0].T
        eta = truth_nuisances(dist)
        for pair in (PAIR, TreatmentPair(0.0, 1.0)):
            theta = ace_twodoor(dist, pair)
            for tag in MODEL_TAGS + ("TD_REDUCED",):
                terms.append((evaluate_m(tag, *cols, eta, pair) - theta) ** 2 * p)
                _same_as_math_fsum(terms[-1])
    _same_as_math_fsum(np.concatenate(terms))

