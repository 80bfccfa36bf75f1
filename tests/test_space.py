import json

import numpy as np
import pytest

from hypbo import (
    ConstraintSyntaxError,
    Dataset,
    FeasibilityBudgetError,
    Hypothesis,
    InfeasibleHypothesisError,
    SearchSpace,
    box_hypothesis,
    hypothesis_from_dict,
    load_hypotheses_file,
)


@pytest.fixture
def unit5():
    return SearchSpace(np.zeros(2), np.full(2, 5.0))


def test_space_validation():
    with pytest.raises(ValueError):
        SearchSpace([0.0, 1.0], [1.0, 1.0])  # equal bounds
    with pytest.raises(ValueError):
        SearchSpace([0.0], [np.inf])
    with pytest.raises(ValueError):
        SearchSpace([[0.0]], [[1.0]])
    sp = SearchSpace([0.0, 1.0], [1.0, 1.0], allow_degenerate=True)
    assert sp.contains([0.5, 1.0])


def test_space_basics(unit5):
    assert unit5.dim == 2
    np.testing.assert_allclose(unit5.span, [5.0, 5.0])
    assert unit5.contains([0.0, 5.0])
    assert not unit5.contains([-0.1, 2.0])
    np.testing.assert_allclose(unit5.clip([-1.0, 7.0]), [0.0, 5.0])
    np.testing.assert_allclose(unit5.normalize([2.5, 5.0]), [0.5, 1.0])


def test_space_names():
    sp = SearchSpace([0.0], [1.0], names=["a"])
    assert sp.index_of("a") == 0
    with pytest.raises(KeyError):
        sp.index_of("b")
    with pytest.raises(ValueError):
        SearchSpace([0.0], [1.0], names=["a", "b"])


def test_space_sample_shapes(unit5):
    rng = np.random.default_rng(0)
    one = unit5.sample(rng)
    assert one.shape == (2,)
    many = unit5.sample(rng, 7)
    assert many.shape == (7, 2)
    assert np.all(unit5.contains_many(many))


def test_contains_halfspace(unit5):
    h = Hypothesis("sum", unit5, ineq_lhs=[[1.0, 1.0]], ineq_rhs=[5.0])
    assert h.contains([2.0, 2.0])
    assert not h.contains([3.0, 2.5])


def test_contains_sum_lower_bound(unit5):
    # "more than 3 in total" style constraint: x0 + x1 > 3 stored as -x0 - x1 <= -3
    h = Hypothesis("lots", unit5, ineq_lhs=[[-1.0, -1.0]], ineq_rhs=[-3.0])
    assert h.contains([2.0, 2.0])
    assert not h.contains([0.0, 0.0])


def test_contains_equality_slab():
    sp = SearchSpace([0.0, 0.0], [10.0, 10.0])
    h = Hypothesis("pin", sp, eq_lhs=[[1.0, 0.0]], eq_rhs=[5.0])
    assert h.contains([5.0 - 0.5e-9, 1.0])
    assert not h.contains([5.0 + 1e-6, 1.0])


def test_bounding_box_single_coordinate_rows():
    sp = SearchSpace([0.5], [7.0])
    h = Hypothesis(
        "band", sp, ineq_lhs=[[-1.0], [1.0]], ineq_rhs=[-1.5, 2.5]
    )  # 1.5 <= x <= 2.5
    box = h.bounding_box()
    np.testing.assert_allclose(box.lower, [1.5])
    np.testing.assert_allclose(box.upper, [2.5])


def test_bounding_box_ignores_multi_coordinate_rows(unit5):
    h = Hypothesis("diag", unit5, ineq_lhs=[[1.0, 1.0]], ineq_rhs=[3.0])
    box = h.bounding_box()
    np.testing.assert_allclose(box.lower, unit5.lower)
    np.testing.assert_allclose(box.upper, unit5.upper)


def test_bounding_box_pins_equality_axis():
    sp = SearchSpace(np.zeros(3), np.ones(3) * 4.0)
    h = Hypothesis("z0", sp, eq_lhs=[[0.0, 0.0, 1.0]], eq_rhs=[0.0])
    box = h.bounding_box()
    assert box.lower[2] == box.upper[2] == 0.0
    np.testing.assert_array_equal(h.pinned_axes, [2])


def test_infeasible_rejected_at_construction():
    sp = SearchSpace([0.0], [5.0])
    with pytest.raises(InfeasibleHypothesisError):
        Hypothesis("empty", sp, ineq_lhs=[[1.0], [-1.0]], ineq_rhs=[1.0, -2.0])


def test_certification_catches_non_box_emptiness(unit5):
    # box bounds alone cannot detect x0 + x1 <= 5 AND x0 + x1 >= 9 being empty
    with pytest.raises(InfeasibleHypothesisError):
        Hypothesis(
            "gap",
            unit5,
            ineq_lhs=[[1.0, 1.0], [-1.0, -1.0]],
            ineq_rhs=[5.0, -9.0],
        )


def test_sample_uniform_budget_error(unit5):
    # a band of +-0.01 around x + y = 5 certifies within the 10,000
    # construction-time draws but is missed by 8
    thin = Hypothesis(
        "thin",
        unit5,
        ineq_lhs=[[1.0, 1.0], [-1.0, -1.0]],
        ineq_rhs=[5.01, -4.99],
    )
    with pytest.raises(FeasibilityBudgetError):
        thin.sample_uniform(np.random.default_rng(0), max_attempts=8)


def test_sample_box_halves():
    """1000 draws from a centred sub-box split evenly around its middle."""
    sp = SearchSpace([-5.0], [5.0])
    h = box_hypothesis("mid", sp, [-1.0], [1.0])
    rng = np.random.default_rng(3)
    draws = np.array([h.sample_uniform(rng) for _ in range(1000)])
    assert np.all(h.contains_many(draws))
    left = int(np.sum(draws[:, 0] < 0.0))
    # Binomial(1000, 1/2): P(400 <= X <= 600) > 1 - 1e-9
    assert 400 <= left <= 600


def test_sample_triangle_acceptance(unit5):
    # x0 + x1 <= 5 cuts the [0,5]^2 box exactly in half (area oracle)
    h = Hypothesis("tri", unit5, ineq_lhs=[[1.0, 1.0]], ineq_rhs=[5.0])
    rng = np.random.default_rng(11)
    n = 4000
    cand = unit5.sample(rng, n)
    frac = float(np.mean(h.contains_many(cand)))
    assert abs(frac - 0.5) < 0.03


def test_sample_pinned_axis_exact():
    sp = SearchSpace([0.0, 0.0], [10.0, 10.0])
    h = Hypothesis("x0is5", sp, eq_lhs=[[1.0, 0.0]], eq_rhs=[5.0])
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = h.sample_uniform(rng)
        assert x[0] == 5.0  # pinned exactly, not within tolerance


def test_filter_dataset(unit5):
    h = box_hypothesis("corner", unit5, [0.0, 0.0], [1.0, 1.0])
    d = Dataset.from_arrays(
        [[0.5, 0.5], [2.0, 2.0], [4.0, 1.0]], [1.0, 2.0, 3.0]
    )
    kept = h.filter_dataset(d)
    assert len(kept) == 1
    np.testing.assert_allclose(kept.x, [[0.5, 0.5]])
    assert kept.y[0] == 1.0


def test_filter_dataset_empty(unit5):
    h = box_hypothesis("corner", unit5, [0.0, 0.0], [1.0, 1.0])
    assert len(h.filter_dataset(Dataset())) == 0


def test_filter_dataset_binomial_count():
    """A 10%-volume interval keeps a Binomial(100, 0.1)-sized subset."""
    sp = SearchSpace([0.0], [10.0])
    h = box_hypothesis("decile", sp, [3.0], [4.0])
    rng = np.random.default_rng(17)
    x = sp.sample(rng, 100)
    d = Dataset.from_arrays(x, np.zeros(100))
    kept = h.filter_dataset(d)
    # P(3 <= Binomial(100, 0.1) <= 20) ~ 0.999
    assert 3 <= len(kept) <= 20


def test_constraint_row_validation(unit5):
    with pytest.raises(ValueError):
        Hypothesis("none", unit5)  # no rows at all
    with pytest.raises(ValueError):
        Hypothesis("wide", unit5, ineq_lhs=[[1.0, 2.0, 3.0]], ineq_rhs=[1.0])
    with pytest.raises(ValueError):
        Hypothesis("nan", unit5, ineq_lhs=[[np.nan, 0.0]], ineq_rhs=[1.0])
    with pytest.raises(ValueError):
        Hypothesis("rhs", unit5, ineq_lhs=[[1.0, 0.0]], ineq_rhs=[1.0, 2.0])


def test_box_hypothesis_bounds_check(unit5):
    with pytest.raises(ValueError):
        box_hypothesis("bad", unit5, [0.0], [1.0])


def test_hypothesis_from_dict_ops(unit5):
    h = hypothesis_from_dict(
        {
            "label": "mixed",
            "constraints": [
                {"terms": {"0": 1.0}, "op": ">=", "rhs": 1.0},
                {"terms": {"1": 1.0}, "op": "<", "rhs": 4.0},
                {"terms": {"0": 1.0, "1": 1.0}, "op": "<=", "rhs": 6.0},
            ],
        },
        unit5,
    )
    assert h.contains([2.0, 3.0])
    assert not h.contains([0.5, 3.0])  # violates x0 >= 1
    assert not h.contains([2.0, 4.5])  # violates x1 < 4


def test_hypothesis_from_dict_named_axes_and_equality():
    sp = SearchSpace([0.0, 0.0], [5.0, 5.0], names=("salt", "acid"))
    h = hypothesis_from_dict(
        {
            "label": "no salt",
            "constraints": [{"terms": {"salt": 1.0}, "op": "=", "rhs": 0.0}],
        },
        sp,
    )
    assert h.contains([0.0, 3.0])
    assert not h.contains([0.5, 3.0])


def test_hypothesis_from_dict_errors(unit5):
    with pytest.raises(ConstraintSyntaxError):
        hypothesis_from_dict({"constraints": []}, unit5)
    with pytest.raises(ConstraintSyntaxError):
        hypothesis_from_dict({"label": "x", "constraints": []}, unit5)
    with pytest.raises(ConstraintSyntaxError):
        hypothesis_from_dict(
            {"label": "x", "constraints": [{"terms": {"0": 1.0}, "op": "~", "rhs": 0}]},
            unit5,
        )
    with pytest.raises(ConstraintSyntaxError):
        hypothesis_from_dict(
            {"label": "x", "constraints": [{"terms": {"9": 1.0}, "op": "<", "rhs": 0}]},
            unit5,
        )


@pytest.mark.parametrize("terms", [{"x": 1.0}, {"-1": 1.0}, [1.0, 2.0]])
def test_hypothesis_from_dict_bad_terms_are_syntax_errors(unit5, terms):
    # unit5 has no axis names: only numeric indices resolve
    spec = {"label": "lab", "constraints": [{"terms": terms, "op": "<=", "rhs": 1.0}]}
    with pytest.raises(ConstraintSyntaxError, match="lab"):
        hypothesis_from_dict(spec, unit5)


def test_load_hypotheses_file(tmp_path, unit5):
    payload = [
        {
            "label": "left",
            "constraints": [{"terms": {"0": 1.0}, "op": "<=", "rhs": 2.0}],
        },
        {
            "label": "right",
            "constraints": [{"terms": {"0": 1.0}, "op": ">=", "rhs": 3.0}],
        },
    ]
    path = tmp_path / "hyps.json"
    path.write_text(json.dumps(payload))
    hyps = load_hypotheses_file(path, unit5)
    assert [h.label for h in hyps] == ["left", "right"]
    # a single object (not a list) also works
    path2 = tmp_path / "one.json"
    path2.write_text(json.dumps(payload[0]))
    assert len(load_hypotheses_file(path2, unit5)) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConstraintSyntaxError):
        load_hypotheses_file(bad, unit5)


def test_strict_ops_stored_non_strict(unit5):
    h = hypothesis_from_dict(
        {
            "label": "strict",
            "constraints": [{"terms": {"0": 1.0}, "op": ">", "rhs": 3.0}],
        },
        unit5,
    )
    # boundary itself passes: strictness is dropped (measure-zero set)
    assert h.contains([3.0, 0.0])
    assert not h.contains([2.9, 0.0])
