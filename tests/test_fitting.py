import io
import math

import numpy as np
import pytest

from acebounds.dist import TreatmentPair
from acebounds.errors import (
    DegenerateModel,
    DomainError,
    RankDeficient,
    SeparationDetected,
)
from acebounds import fitting
from acebounds.fitting import (
    CLIP_EPS,
    CrossFitPlan,
    Dataset,
    ModelSpec,
    fit,
    read_data_csv,
    write_data_csv,
)
from acebounds.special import expit

PAIR = TreatmentPair(1.0, 0.0)


def _toy(n=200, seed=0):
    rng = np.random.default_rng(seed)
    c = (rng.random(n) < 0.5).astype(float)
    a = (rng.random(n) < expit(c)).astype(float)
    z = 1.5 * a + rng.standard_normal(n)
    y = 0.5 * z + 0.5 * c + rng.standard_normal(n)
    return Dataset(c, a, z, y, PAIR)


def test_dataset_needs_both_levels():
    with pytest.raises(DomainError):
        Dataset(np.zeros(4), np.ones(4), np.zeros(4), np.zeros(4), PAIR)


def test_dataset_needs_two_rows():
    with pytest.raises(DomainError):
        Dataset(np.zeros(1), np.ones(1), np.zeros(1), np.zeros(1), PAIR)


def test_empirical_treated_share():
    a = np.array([1.0] * 62 + [0.0] * 38)
    data = Dataset(np.zeros(100), a, np.zeros(100), np.zeros(100), PAIR)
    eta = fit(data, [ModelSpec("p_a", "empirical")])
    assert float(eta.p_a(1.0)) == pytest.approx(0.62, abs=1e-12)
    assert float(eta.p_a(0.0)) == pytest.approx(0.38, abs=1e-12)


def test_fixed_value_probability():
    data = _toy()
    eta = fit(data, [ModelSpec("p_a", "fixed-value", fix_value=0.25)])
    got = eta.p_a(np.array([1.0, 0.0, 1.0]))
    assert got == pytest.approx([0.25, 0.75, 0.25], abs=1e-12)
    assert eta.manifest["slots"]["p_a"]["fixed_value"] == 0.25


def test_linear_mean_interpolates_noiseless_data():
    rng = np.random.default_rng(1)
    n = 50
    c = rng.random(n)
    z = rng.random(n)
    y = 2.0 + 3.0 * z - 1.5 * c
    data = Dataset(c, (np.arange(n) % 2).astype(float), z, y, PAIR)
    eta = fit(data, [ModelSpec("mean_y_zc", "linear-mean", predictors=("z", "c"))])
    coef = eta.manifest["slots"]["mean_y_zc"]["coef"]
    assert coef == pytest.approx([2.0, 3.0, -1.5], abs=1e-8)


def test_logistic_intercept_only_closed_form():
    y = np.array([1.0] * 30 + [0.0] * 70)
    X = np.ones((100, 1))
    coef = fitting._irls(X, y, np.ones(y.size))
    assert coef[0] == pytest.approx(math.log(0.3 / (1 - 0.3)), abs=1e-8)


def test_logistic_slope_recovery():
    rng = np.random.default_rng(12345)
    n = 100_000
    c = rng.standard_normal(n)
    y = (rng.random(n) < expit(c)).astype(float)
    coef = fitting._irls(np.column_stack([np.ones(n), c]), y, np.ones(n))
    assert coef[1] == pytest.approx(1.0, abs=0.05)


def test_logistic_separation_detected():
    x = np.array([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0])
    y = (x > 0).astype(float)
    with pytest.raises(SeparationDetected):
        fitting._irls(np.column_stack([np.ones(6), x]), y, np.ones(6))


def test_logistic_constant_response_rejected():
    with pytest.raises(SeparationDetected):
        fitting._irls(np.ones((5, 1)), np.ones(5), np.ones(5))


def test_gaussian_density_recovers_slope_and_variance():
    rng = np.random.default_rng(77)
    n = 100_000
    a = (rng.random(n) < 0.6).astype(float)
    z = 1.5 * a + rng.standard_normal(n)
    data = Dataset(np.zeros(n), a, z, z, PAIR)
    coef, sd = fitting._gaussian_law(data, "z", ("a",))
    assert coef[1] == pytest.approx(1.5, abs=0.02)
    assert sd**2 == pytest.approx(1.0, abs=0.02)


def test_gaussian_density_zero_variance_rejected():
    n = 50
    a = (np.arange(n) % 2).astype(float)
    data = Dataset(np.zeros(n), a, 2.0 * a, np.zeros(n), PAIR)
    with pytest.raises(DegenerateModel):
        fitting._gaussian_law(data, "z", ("a",))


def test_gaussian_density_omitted_treatment_is_flat():
    data = _toy(2000, seed=5)
    eta = fit(data, [ModelSpec("p_z_given_a", "gaussian-density", predictors=("a",), omit=("a",))])
    z0 = np.array([0.3])
    assert eta.p_z_given_a(z0, np.array([1.0]))[0] == pytest.approx(
        eta.p_z_given_a(z0, np.array([0.0]))[0], abs=1e-15
    )
    manifest = eta.manifest["slots"]["p_z_given_a"]
    assert manifest["omitted"] == ["a"]
    assert manifest["predictors"] == []
    assert len(manifest["coef"]) == 1  # intercept only: the coefficient is absent


def test_empirical_conditional_probability_table():
    c = np.array([0.0, 0.0, 1.0, 1.0, 1.0, 1.0])
    a = np.array([0.0, 1.0, 1.0, 1.0, 0.0, 1.0])
    data = Dataset(c, a, np.zeros(6), np.zeros(6), PAIR)
    eta = fit(data, [ModelSpec("p_a_given_c", "empirical", predictors=("c",))])
    assert float(eta.p_a_given_c(1.0, 0.0)) == pytest.approx(0.5, abs=1e-12)
    assert float(eta.p_a_given_c(1.0, 1.0)) == pytest.approx(0.75, abs=1e-12)


def test_clipping_counts_are_reported():
    data = _toy(400, seed=9)
    eta = fit(data, [ModelSpec("p_a", "fixed-value", fix_value=1.0 - 1e-9)])
    eta.p_a(np.ones(7))
    assert eta.manifest["clip_events"]["p_a"] == 7
    assert eta.manifest["clip_events"]["total"] == 7


def test_crossfit_rows_held_out():
    data = _toy(40, seed=3)
    plan = CrossFitPlan(folds=4, seed=11)
    spec = ModelSpec("mean_y_zc", "linear-mean", predictors=("z", "c"))
    folded = fit(data, [spec], plan=plan)
    seen = np.zeros(data.n, dtype=int)
    for eval_idx, eta in folded.folds:
        seen[eval_idx] += 1
        assert eta.manifest["n"] == data.n - len(eval_idx)
        # the fold's fit is the fit on every row outside its evaluation chunk
        train = fit(data.subset(np.setdiff1d(np.arange(data.n), eval_idx)), [spec])
        assert eta.manifest["slots"] == train.manifest["slots"]
    assert np.all(seen == 1)


def test_crossfit_requires_sane_folds():
    with pytest.raises(DomainError):
        CrossFitPlan(folds=1)
    data = _toy(5, seed=2)
    with pytest.raises(DomainError):
        fit(data, [ModelSpec("p_a", "empirical")], plan=CrossFitPlan(folds=10))


def test_model_spec_validation():
    with pytest.raises(DomainError):
        ModelSpec("p_q", "empirical")
    with pytest.raises(DomainError):
        ModelSpec("mean_y_zc", "gaussian-density", predictors=("z",))
    with pytest.raises(DomainError):
        ModelSpec("mean_y_zc", "linear-mean", predictors=("q",))
    with pytest.raises(DomainError):
        ModelSpec("mean_y_zc", "linear-mean", predictors=("z",), fix_value=0.3)


@pytest.mark.parametrize(
    "component, family, predictors, omit",
    [
        ("p_a_given_c", "logistic", ("a",), ()),  # the response is not a predictor
        ("p_a_given_c", "empirical", ("z",), ()),  # z is not an argument of p(a|c)
        ("p_a_given_c", "logistic", ("c",), ("z",)),
        ("p_c", "empirical", ("c",), ()),
        ("p_z_given_a", "gaussian-density", ("a", "c"), ()),
        ("mean_y_zc", "linear-mean", ("a", "z"), ()),
    ],
)
def test_model_spec_rejects_predictors_the_slot_cannot_read(component, family, predictors, omit):
    with pytest.raises(DomainError, match="conditioning argument"):
        ModelSpec(component, family, predictors=predictors, omit=omit)


def test_model_spec_rejects_fix_value_outside_the_fixed_value_family():
    with pytest.raises(DomainError, match="fixed-value"):
        ModelSpec("p_a", "empirical", fix_value=0.3)
    with pytest.raises(DomainError, match="fixed-value"):
        ModelSpec("p_c", "logistic", fix_value=0.3)
    with pytest.raises(DomainError, match="fixed-value"):
        ModelSpec("p_a", "fixed-value")
    for bad in (1.5, -0.2, float("nan")):
        with pytest.raises(DomainError, match="not a probability"):
            ModelSpec("p_a", "fixed-value", fix_value=bad)
    assert ModelSpec("p_a", "fixed-value", fix_value=0.3).fix_value == 0.3


def test_duplicate_slots_rejected():
    data = _toy()
    with pytest.raises(DomainError):
        fit(data, [ModelSpec("p_a", "empirical"), ModelSpec("p_a", "fixed-value", fix_value=0.5)])


def test_data_csv_round_trip(tmp_path):
    data = _toy(25, seed=8)
    path = tmp_path / "obs.csv"
    write_data_csv(data, path)
    back = read_data_csv(path, PAIR)
    assert np.array_equal(back.y, data.y)
    assert np.array_equal(back.a, data.a)


def test_write_data_csv_golden_bytes():
    buf = io.StringIO()
    write_data_csv(Dataset([0, 1], [1, 0], [0.1, -2.5], [1e-05, 3.0], PAIR), buf)
    assert buf.getvalue() == "c,a,z,y\n0.0,1.0,0.1,1e-05\n1.0,0.0,-2.5,3.0\n"


def test_data_csv_error_has_line_number(tmp_path):
    path = tmp_path / "obs.csv"
    path.write_text("c,a,z,y\n0,1,0.5,??\n")
    with pytest.raises(DomainError, match=":2"):
        read_data_csv(path, PAIR)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_data_csv_rejects_non_finite(tmp_path, bad):
    path = tmp_path / "obs.csv"
    path.write_text(f"c,a,z,y\n0,1,0.5,1.0\n1,0,{bad},0.0\n")
    with pytest.raises(DomainError, match=r"obs\.csv:3: .*non-finite"):
        read_data_csv(path, PAIR)


@pytest.mark.parametrize("column", ["c", "a", "z", "y"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_dataset_rejects_non_finite(column, bad):
    cols = {"c": np.zeros(4), "a": np.array([0.0, 1.0, 0.0, 1.0]), "z": np.zeros(4), "y": np.zeros(4)}
    cols[column][2] = bad
    with pytest.raises(DomainError, match=f"non-finite value in column {column!r}"):
        Dataset(**cols, pair=PAIR)


def test_empirical_and_fixed_value_table_semantics():
    a = np.array([0.0, 0.0, 1.0, 1.0, 0.0, 1.0])
    c = np.array([0.0, 0.0, 1.0, 1.0, 0.0, 1.0])
    z = np.array([0.0, 1.0, 0.0, 0.0, 2.0, 2.0])
    data = Dataset(c, a, z, np.arange(6.0), PAIR)
    specs = [
        ModelSpec("p_z_given_a", "empirical", predictors=("a",)),
        ModelSpec("p_z_given_ac", "empirical", predictors=("a", "c")),
        ModelSpec("p_a_given_c", "empirical", predictors=("c",)),
        ModelSpec("mean_y_azc", "empirical", predictors=("a",)),
        ModelSpec("p_a", "fixed-value", fix_value=0.25),
    ]
    eta = fit(data, specs)
    # z = 1 was seen, but never with a = 1: frequency zero, not an error
    assert float(eta.p_z_given_a(1.0, 1.0)) == 0.0
    assert float(eta.p_z_given_a(1.0, 0.0)) == 1.0 / 3.0
    # a = 0 never occurs with c = 1: clipped up to CLIP_EPS and counted
    assert float(eta.p_a_given_c(0.0, 1.0)) == CLIP_EPS
    assert eta.manifest["clip_events"]["p_a_given_c"] == 1
    # a table reading only `a` still broadcasts over every call argument
    assert eta.mean_y_azc(1.0, np.zeros(5), 1.0).shape == (5,)
    with pytest.raises(DomainError):  # (a, c) = (1, 0): both values seen, never together
        eta.p_z_given_ac(0.0, 1.0, 0.0)
    with pytest.raises(DomainError):  # z = 5 lies outside the observed support
        eta.p_z_given_a(np.array([0.0, 5.0]), 0.0)
    with pytest.raises(DomainError):  # a = 0.5 lies outside the observed support
        eta.mean_y_azc(0.5, 0.0, 0.0)
    with pytest.raises(DomainError):
        eta.p_a(0.5)


def test_empirical_table_size_is_bounded(monkeypatch):
    monkeypatch.setattr(fitting, "_MAX_TABLE_CELLS", 60)
    data = _toy(50, seed=4)  # continuous z: 50 levels x 2 covariate levels
    with pytest.raises(DomainError, match="cells"):
        fit(data, [ModelSpec("mean_y_zc", "empirical", predictors=("z", "c"))])
    fit(data, [ModelSpec("mean_y_az", "empirical", predictors=("z",))])


def test_empirical_tables_match_a_per_group_reference():
    rng = np.random.default_rng(5)
    n = 500
    c = rng.integers(0, 3, n).astype(float)
    a = rng.integers(0, 2, n).astype(float)
    z = rng.integers(0, 4, n).astype(float)
    y = rng.normal(2.0, 3.0, n)
    data = Dataset(c, a, z, y, PAIR)
    specs = [
        ModelSpec("p_z_given_ac", "empirical", predictors=("a", "c")),
        ModelSpec("mean_y_azc", "empirical", predictors=("a", "z", "c")),
    ]
    eta = fit(data, specs)
    eps = np.finfo(float).eps
    for av in (0.0, 1.0):
        for cv in (0.0, 1.0, 2.0):
            group = (a == av) & (c == cv)
            for zv in (0.0, 1.0, 2.0, 3.0):
                # frequencies are exact ratios of counts
                assert float(eta.p_z_given_ac(zv, av, cv)) == np.count_nonzero(group & (z == zv)) / np.count_nonzero(group)
                cell = group & (z == zv)
                # group sums now run in row order: bound the error by the summation order
                tol = np.count_nonzero(cell) * eps * np.max(np.abs(y))
                assert abs(float(eta.mean_y_azc(av, zv, cv)) - y[cell].mean()) <= tol


def _cells_design(levels, seed):
    """Rows over unbalanced (a, c) cells: c in {0, 1, 2}, a drawn from `levels` with c-dependent odds."""
    rng = np.random.default_rng(seed)
    n = 3000
    c = rng.choice(3, n, p=[0.7, 0.25, 0.05]).astype(float)
    odds = np.array([[6.0, 3.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 4.0]])[: len(levels)]
    p = odds[:, c.astype(int)] / odds[:, c.astype(int)].sum(axis=0)
    a = np.array(levels)[(rng.random(n) > np.cumsum(p, axis=0)).sum(axis=0)]
    z = 0.8 * a - 0.6 * c + rng.standard_normal(n)
    y = 1.5 * z + 2.0 * c - a + rng.standard_normal(n)
    return Dataset(c, a, z, y, TreatmentPair(levels[1], levels[0]))


@pytest.mark.parametrize("levels", [(0.0, 1.0), (0.0, 1.0, 2.5)], ids=["binary-a", "three-a"])
@pytest.mark.parametrize("preds", [("a", "c"), ("c",), ("a",)])
def test_collapsed_fits_match_row_wise_fits(levels, preds):
    data = _cells_design(levels, seed=len(levels))
    X = np.column_stack([np.ones(data.n)] + [data.column(p) for p in preds])
    mean = fit(data, [ModelSpec("mean_y_ac", "linear-mean", predictors=preds)]).manifest["slots"]["mean_y_ac"]
    np.testing.assert_allclose(mean["coef"], fitting._least_squares(list(X.T), data.y, np.ones(data.n)), rtol=1e-12)
    law = fit(data, [ModelSpec("p_z_given_ac", "gaussian-density", predictors=preds)]).p_z_given_ac
    row_coef, row_sd = fitting._gaussian_law(data, "z", preds)
    np.testing.assert_allclose(law.coef, row_coef, rtol=1e-12)
    assert law.sd == pytest.approx(row_sd, rel=1e-12)
    if len(levels) == 2 and preds == ("c",):
        got = fit(data, [ModelSpec("p_a_given_c", "logistic", predictors=preds)]).manifest["slots"]["p_a_given_c"]
        np.testing.assert_allclose(got["coef"], fitting._irls(X, (data.a == 1.0).astype(float), np.ones(data.n)), rtol=1e-12)


@pytest.mark.parametrize("levels", [(0.0, 1.0), (0.0, 1.0, 2.5)], ids=["binary-a", "three-a"])
@pytest.mark.parametrize("response, given", [("c", ()), ("a", ()), ("a", ("c",)), (None, ()), (None, ("a",)), (None, ("c",)), (None, ("a", "c"))])
def test_tables_over_a_and_c_from_the_cells_equal_the_row_tables_bitwise(levels, response, given):
    # p_c, p_a, empirical p_a_given_c and mean_y_ac count the coded (a, c) cells; a mean still sums y
    # over the rows in row order, so every value, support and mask keeps its bits
    data = _cells_design(levels, seed=len(levels))
    index = fitting.level_index(data.a, data.c, np.unique(data.a), np.unique(data.c))

    def cells():
        return index, np.bincount(index.inv, minlength=index.a.size)

    values, supports, axes, observed, what = fitting._empirical_table(data, given, response, cells)
    want = fitting._empirical_table(data, given, response)
    assert values.tobytes() == want[0].tobytes() and [s.tobytes() for s in supports] == [s.tobytes() for s in want[1]]
    assert (axes, what) == (want[2], want[4]) and np.array_equal(observed, want[3])


def test_collapsed_fits_raise_the_row_wise_errors():
    # the sign of c decides a: every (a, c) cell is pure and on its side, as every row is
    x = np.array([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0])
    separated = Dataset(x, (x > 0).astype(float), np.zeros(6), np.zeros(6), PAIR)
    with pytest.raises(SeparationDetected) as row_wise:
        fitting._irls(np.column_stack([np.ones(6), x]), (x > 0).astype(float), np.ones(6))
    with pytest.raises(SeparationDetected) as collapsed:
        fit(separated, [ModelSpec("p_a_given_c", "logistic", predictors=("c",))])
    assert str(collapsed.value) == str(row_wise.value) == "classes are perfectly separated"
    n = 40
    c = (np.arange(n) % 2).astype(float)
    # a z that (a, c) explains exactly leaves no residual variance
    a = (np.arange(n) // 2 % 2).astype(float)
    exact = Dataset(c, a, 2.0 * a - c, np.zeros(n), PAIR)
    with pytest.raises(DegenerateModel, match="residual variance .* below the 1e-08 floor"):
        fit(exact, [ModelSpec("p_z_given_ac", "gaussian-density", predictors=("a", "c"))])
    # a constant covariate makes the (a, c) design rank deficient, in cells as in rows
    flat = Dataset(np.zeros(n), a, np.arange(n, dtype=float), np.arange(n, dtype=float), PAIR)
    with pytest.raises(RankDeficient, match="design has rank 2 < 3 columns"):
        fit(flat, [ModelSpec("mean_y_ac", "linear-mean", predictors=("a", "c"))])
    # grouped IRLS: a response constant over every group has no Bernoulli MLE
    X, trials = np.column_stack([np.ones(3), [0.0, 1.0, 2.0]]), np.array([4.0, 2.0, 5.0])
    for successes in (np.zeros(3), trials):
        with pytest.raises(SeparationDetected, match="response is constant; the Bernoulli MLE does not exist"):
            fitting._irls(X, successes, trials)
    # a mixed group is never separated, even once a large pure group drives its predictor past -30
    beta = fitting._irls(np.array([[1.0, 0.0], [1.0, 1.0]]), np.array([3.0, 0.0]), np.array([4.0, 1e7]))
    assert beta[0] == pytest.approx(math.log(0.75 / (1 - 0.75)), abs=1e-8)
    assert beta[0] + beta[1] < -30.0


@pytest.mark.parametrize("grouped", [False, True], ids=["rows", "groups"])
@pytest.mark.parametrize("offset", [0.0, 1e2, 1e4])
@pytest.mark.parametrize("p", [2, 3, 4])
@pytest.mark.parametrize("n", [10, 37, 500, 50000])
def test_least_squares_matches_lstsq(n, p, offset, grouped):
    rng = np.random.default_rng([n, p, int(offset), grouped])
    sd = rng.uniform(0.5, 2.0, p - 1)
    cols = [s * (offset * rng.choice((-1.0, 1.0)) + rng.standard_normal(n)) for s in sd]
    y = np.column_stack([np.ones(n)] + cols) @ rng.standard_normal(p) + rng.standard_normal(n)
    counts = rng.integers(1, 20, n).astype(float) if grouped else None
    root = np.ones(n) if counts is None else np.sqrt(counts)
    # compared on the centred design, where every coefficient is well determined: at an offset of
    # 1e4 sd the intercept of the raw design moves by the slopes' rounding times 1e4, and lstsq's
    # own intercept strays by up to 3e-9 relative from a 60-digit solution of the normal equations
    means = np.array([col.mean() for col in cols])
    centred = np.column_stack([np.ones(n)] + [col - m for col, m in zip(cols, means)])
    want = np.linalg.lstsq(centred * root[:, None], y * root, rcond=None)[0]
    got = fitting._least_squares(fitting._design(cols, n), y if counts is None else counts * y, counts)
    got[0] += means @ got[1:]
    assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)


@pytest.mark.parametrize("c_of", [lambda z: np.zeros_like(z), lambda z: np.full_like(z, 0.1), lambda z: z], ids=["zero", "constant", "duplicate"])
def test_row_wise_fit_refuses_a_constant_or_duplicated_column(c_of):
    # mean_y_zc on (z, c) is fitted over the rows; a c that is constant or equals z leaves rank 2
    data = _toy(n=2000, seed=3)
    data = Dataset(c_of(data.z), data.a, data.z, data.y, PAIR)
    with pytest.raises(RankDeficient) as raised:
        fit(data, [ModelSpec("mean_y_zc", "linear-mean", predictors=("z", "c"))])
    assert str(raised.value) == "design has rank 2 < 3 columns"
