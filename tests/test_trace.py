import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hypbo.dataset import Dataset
from hypbo.space import Hypothesis, SearchSpace
from hypbo.trace import (
    SOURCE_INIT_GLOBAL,
    SOURCE_LOWER,
    SOURCE_UPPER,
    Trace,
    TraceRecord,
    csv_header,
    read_traces_csv,
    write_traces_csv,
)


def rec(i, source, x, y, inc, hyp=None, acq=None, lu=(0, 0)):
    return TraceRecord(i, source, hyp, np.asarray(x, dtype=float), y, inc, acq, lu)


def small_trace():
    t = Trace(2)
    t.append(rec(0, SOURCE_INIT_GLOBAL, [0.1, 0.2], -1.0, -1.0))
    t.append(rec(1, SOURCE_INIT_GLOBAL, [0.3, 0.4], -0.5, -0.5))
    t.append(rec(2, SOURCE_LOWER, [0.5, 0.6], -0.25, -0.25, hyp=0, acq=0.7))
    t.append(rec(3, SOURCE_UPPER, [0.7, 0.8], -2.0, -0.25, acq=0.1, lu=(1, 1)))
    return t


def test_trace_accessors():
    t = small_trace()
    assert len(t) == 4
    assert t.n_init == 2
    assert [r.source for r in t.post_init()] == [SOURCE_LOWER, SOURCE_UPPER]
    np.testing.assert_array_equal(t.values(), [-0.25, -2.0])
    np.testing.assert_array_equal(t.values(include_init=True), [-1.0, -0.5, -0.25, -2.0])
    np.testing.assert_array_equal(t.incumbents(), [-0.25, -0.25])
    assert t.best_y == -0.25


def test_record_validation():
    with pytest.raises(ValueError, match="source"):
        TraceRecord(0, "midway", None, np.zeros(1), 0.0, 0.0, None, (0, 0))
    t = Trace(2)
    with pytest.raises(ValueError, match="dimension"):
        t.append(rec(0, SOURCE_UPPER, [1.0], 0.0, 0.0))
    with pytest.raises(ValueError, match="empty"):
        Trace(1).best_y


def test_csv_header_layout():
    assert csv_header(2) == [
        "trial", "iteration", "source", "hypothesis",
        "x_0", "x_1", "y", "incumbent", "acq_value", "l", "u",
    ]


def test_roundtrip_bit_exact(tmp_path):
    # awkward floats: 1/3, an exact binary fraction, a tiny subnormal-ish value
    t = Trace(2)
    t.append(rec(0, SOURCE_INIT_GLOBAL, [1.0 / 3.0, 0.1], -1e-300, -1e-300))
    t.append(rec(1, SOURCE_LOWER, [0.5, 2.0 / 7.0], 0.1 + 0.2, 0.30000000000000004,
                 hyp=3, acq=1.2345678901234567e-5, lu=(2, 5)))
    path = tmp_path / "t.csv"
    write_traces_csv(path, {0: t, 4: small_trace()})
    back = read_traces_csv(path)
    assert sorted(back) == [0, 4]
    for trial, orig in ((0, t), (4, small_trace())):
        got = back[trial]
        assert len(got) == len(orig)
        for a, b in zip(got, orig):
            assert a.iteration == b.iteration
            assert a.source == b.source
            assert a.hypothesis == b.hypothesis
            np.testing.assert_array_equal(a.x, b.x)  # bit-exact, not approx
            assert a.y == b.y
            assert a.incumbent == b.incumbent
            assert a.acq_value == b.acq_value
            assert a.level_counters == b.level_counters


def test_roundtrip_preserves_none_fields(tmp_path):
    path = tmp_path / "t.csv"
    write_traces_csv(path, {0: small_trace()})
    back = read_traces_csv(path)[0]
    assert back.records[0].hypothesis is None
    assert back.records[0].acq_value is None
    assert back.records[2].hypothesis == 0


def test_write_rewrite_identical_bytes(tmp_path):
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    write_traces_csv(p1, {0: small_trace()})
    write_traces_csv(p2, {0: small_trace()})
    assert p1.read_bytes() == p2.read_bytes()


def test_write_validation(tmp_path):
    with pytest.raises(ValueError, match="no traces"):
        write_traces_csv(tmp_path / "x.csv", {})
    with pytest.raises(ValueError, match="dimension"):
        write_traces_csv(tmp_path / "x.csv", {0: Trace(1), 1: Trace(2)})


def test_read_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("trial,iteration,source\n", encoding="utf-8")
    with pytest.raises(ValueError, match="header"):
        read_traces_csv(path)
    empty = tmp_path / "empty.csv"
    empty.write_text("", encoding="utf-8")
    with pytest.raises(ValueError, match="empty"):
        read_traces_csv(empty)


# -- dataset ---------------------------------------------------------

def test_dataset_append_and_best():
    d = Dataset()
    assert len(d) == 0
    assert d.y_max == -np.inf
    d.append([1.0, 2.0], -3.0)
    d.append([0.0, 1.0], -1.0)
    d.append([2.0, 2.0], -1.0)  # tie: argmax keeps the first
    assert d.y_max == -1.0
    assert d.argmax_index == 1
    np.testing.assert_array_equal(d.best_x, [0.0, 1.0])
    assert d.x.shape == (3, 2)
    np.testing.assert_array_equal(d.y, [-3.0, -1.0, -1.0])


def test_dataset_from_arrays_and_subset():
    d = Dataset.from_arrays([[0.0], [1.0], [2.0]], [5.0, 3.0, 4.0])
    s = d.subset([2, 0])
    np.testing.assert_array_equal(s.x, [[2.0], [0.0]])
    np.testing.assert_array_equal(s.y, [4.0, 5.0])
    assert s.y_max == 5.0


def test_dataset_rejects_non_finite():
    d = Dataset()
    with pytest.raises(ValueError):
        d.append([0.0], np.nan)
    with pytest.raises(ValueError):
        d.append([0.0], np.inf)
    with pytest.raises(ValueError, match="non-finite"):
        Dataset.from_arrays([[0.0], [1.0]], [1.0, np.nan])


def test_dataset_from_arrays_empty_and_mismatch():
    d = Dataset.from_arrays(np.empty((0, 3)), [])
    assert len(d) == 0 and d.x.shape == (0, 0) and d.argmax_index == -1
    with pytest.raises(ValueError, match="row counts"):
        Dataset.from_arrays([[0.0], [1.0]], [1.0])


def _same(a: Dataset, b: Dataset) -> None:
    assert a.x.shape == b.x.shape and a.x.tobytes() == b.x.tobytes()
    assert a.y.tobytes() == b.y.tobytes()
    assert a.y_max == b.y_max and a.argmax_index == b.argmax_index


_SPACE = SearchSpace([-5.0, -5.0], [5.0, 5.0])
_REGIONS = (
    Hypothesis("diagonal", _SPACE, ineq_lhs=[[1.0, 1.0]], ineq_rhs=[1.0]),
    Hypothesis("pinned", _SPACE, eq_lhs=[[1.0, 0.0]], eq_rhs=[0.5],
               ineq_lhs=[[0.0, -1.0]], ineq_rhs=[0.0]),
)
# coordinates on and off the region boundaries, some outside the box;
# few distinct values so that ties in y are common
_coord = st.one_of(st.sampled_from([-6.0, -5.0, 0.0, 0.5, 1.0, 5.0]), st.floats(-6.0, 6.0))
_rows = st.lists(
    st.tuples(st.tuples(_coord, _coord), st.integers(-3, 3).map(float)), max_size=24
)


@settings(max_examples=150, deadline=None)
@given(rows=_rows, picks=st.lists(st.integers(0, 23), max_size=12))
def test_dataset_matches_list_reference(rows, picks):
    xs = [list(x) for x, _ in rows]
    ys = [y for _, y in rows]
    d = Dataset()
    for x, y in rows:
        d.append(x, y)
    assert len(d) == len(rows)
    np.testing.assert_array_equal(d.y, ys)
    if rows:
        best = ys.index(max(ys))  # the first maximizer
        assert d.x.tobytes() == np.array(xs).tobytes() and d.x.shape == (len(xs), 2)
        assert d.argmax_index == best and d.y_max == ys[best]
        assert d.best_x.tolist() == xs[best]
    else:
        assert d.x.shape == (0, 0) and d.argmax_index == -1 and d.y_max == -math.inf
        with pytest.raises(ValueError):
            d.best_x
    _same(Dataset.from_arrays(np.array(xs).reshape(len(xs), 2), ys), d)

    idx = [i for i in picks if i < len(rows)]
    ref = Dataset()
    for i in idx:
        ref.append(xs[i], ys[i])
    _same(d.subset(idx), ref)

    for h in _REGIONS:
        ref = Dataset()
        for x, y in rows:
            if h.contains(x):
                ref.append(x, y)
        _same(h.filter_dataset(d), ref)
