"""Feature selection (§3.1): typing, RF relevance, correlation clustering."""
import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import feature_selection as fs
from repro.core.feature_selection import (
    cluster_attributes,
    encode_matrix,
    filter_attrs,
    rf_importance,
    split_attr_types,
)


@pytest.fixture()
def pdf():
    rng = np.random.default_rng(1)
    n = 400
    signal = rng.integers(0, 2, n)
    # pts is discriminative but only partially correlated with team
    # (|corr| ≈ 0.78 < clustering threshold), while pts_copy ≈ pts.
    pts = signal * 10 + rng.normal(0, 4, n)
    return pd.DataFrame(
        {
            "pts": pts,                                       # discriminative
            "noise": rng.normal(0, 1, n),                     # irrelevant
            "pts_copy": pts + rng.normal(0, 0.01, n),         # ~dup of pts
            "team": np.where(signal == 1, "GSW", "CLE"),      # categorical signal
            "pos": rng.choice(["G", "F", "C"], n),            # categorical noise
            "flag": rng.integers(0, 2, n),                    # low-card numeric
            "row_id": [f"r{i}" for i in range(n)],            # key-like
        }
    ), signal


def test_split_types(pdf):
    frame, _ = pdf
    num, cat = split_attr_types(frame)
    assert "pts" in num and "noise" in num
    assert "team" in cat and "pos" in cat
    assert "flag" in cat  # ≤12 distinct values → categorical semantics
    assert "row_id" not in num + cat  # *_id excluded


def test_split_types_exclude(pdf):
    frame, _ = pdf
    num, cat = split_attr_types(frame, exclude=("pts",))
    assert "pts" not in num


def test_encode_matrix_shape(pdf):
    frame, _ = pdf
    X = encode_matrix(frame, ["pts", "team"])
    assert X.shape == (len(frame), 2)
    assert np.isfinite(X).all()


def test_encode_matrix_empty():
    assert encode_matrix(pd.DataFrame({"a": [1]}), []).shape == (1, 0)


def test_rf_importance_finds_signal(pdf):
    frame, y = pdf
    attrs = ["pts", "noise", "pos"]
    X = encode_matrix(frame, attrs)
    imp = rf_importance(X, y, seed=0)
    assert imp[0] > imp[1] and imp[0] > imp[2]


def test_rf_importance_degenerate_label(pdf):
    frame, _ = pdf
    X = encode_matrix(frame, ["pts"])
    assert rf_importance(X, np.zeros(len(frame), dtype=int)).sum() == 0


def test_rf_importance_deterministic(pdf):
    frame, y = pdf
    X = encode_matrix(frame, ["pts", "noise"])
    a = rf_importance(X, y, seed=3)
    b = rf_importance(X, y, seed=3)
    assert np.allclose(a, b)


def test_cluster_groups_correlated(pdf):
    frame, y = pdf
    attrs = ["pts", "pts_copy", "noise"]
    X = encode_matrix(frame, attrs)
    imp = rf_importance(X, y, seed=0)
    clusters = cluster_attributes(X, attrs, imp)
    by_member = {a: i for i, cl in enumerate(clusters) for a in cl}
    assert by_member["pts"] == by_member["pts_copy"]
    assert by_member["noise"] != by_member["pts"]


def test_cluster_representative_is_most_relevant(pdf):
    frame, y = pdf
    attrs = ["pts", "pts_copy", "noise"]
    X = encode_matrix(frame, attrs)
    imp = rf_importance(X, y, seed=0)
    clusters = cluster_attributes(X, attrs, imp)
    for cl in clusters:
        best = max(cl, key=lambda a: imp[attrs.index(a)])
        assert cl[0] == best


def test_cluster_tiny_input():
    assert cluster_attributes(np.empty((0, 0)), [], np.array([])) == []
    got = cluster_attributes(np.array([[1.0]]), ["a"], np.array([0.5]))
    assert got == [["a"]]


def test_filter_attrs_selects_discriminative(pdf):
    frame, y = pdf
    fr = filter_attrs(frame, y, n_sel_attr=1, seed=0)
    assert fr.num_attrs and fr.num_attrs[0] in ("pts", "pts_copy")
    assert fr.cat_attrs == ["team"]


def test_filter_attrs_disabled_keeps_everything(pdf, monkeypatch):
    import repro.core.feature_selection as fs

    def no_forest(*args, **kwargs):
        raise AssertionError("filter_attrs(enabled=False) trained a forest")

    monkeypatch.setattr(fs, "rf_importance", no_forest)
    frame, y = pdf
    fr = filter_attrs(frame, y, n_sel_attr=1, enabled=False)
    assert set(fr.num_attrs) == {"pts", "noise", "pts_copy"}
    assert set(fr.cat_attrs) == {"team", "pos", "flag"}


def test_filter_attrs_importance_map(pdf):
    frame, y = pdf
    fr = filter_attrs(frame, y, n_sel_attr=2, seed=0)
    assert fr.importance["pts"] > fr.importance["noise"]


def test_filter_attrs_respects_n_sel(pdf):
    frame, y = pdf
    fr = filter_attrs(frame, y, n_sel_attr=1, seed=0)
    assert len(fr.num_attrs) <= 1 and len(fr.cat_attrs) <= 1


# ---- reference forest: the scalar split search that _grow_tree replaced ----
def _ref_gini(y: np.ndarray) -> float:
    if len(y) == 0:
        return 0.0
    p = y.mean()
    return 2 * p * (1 - p)


def _ref_grow_tree(X, y, idx, depth, rng, importance, n_total, min_leaf=5):
    n = len(idx)
    if depth == 0 or n < 2 * min_leaf or len(np.unique(y[idx])) < 2:
        return
    p = X.shape[1]
    mtry = max(1, int(np.sqrt(p)))
    feats = rng.choice(p, size=min(mtry, p), replace=False)
    parent = _ref_gini(y[idx])
    best = (0.0, -1, 0.0)  # (gain, feature, threshold)
    for f in feats:
        vals = X[idx, f]
        qs = np.unique(np.quantile(vals, [0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875]))
        for thr in qs:
            left = vals <= thr
            nl = left.sum()
            if nl < min_leaf or n - nl < min_leaf:
                continue
            gain = parent - (
                nl / n * _ref_gini(y[idx[left]])
                + (n - nl) / n * _ref_gini(y[idx[~left]])
            )
            if gain > best[0]:
                best = (gain, f, thr)
    gain, f, thr = best
    if f < 0 or gain <= 0:
        return
    importance[f] += (n / n_total) * gain
    left_mask = X[idx, f] <= thr
    _ref_grow_tree(X, y, idx[left_mask], depth - 1, rng, importance, n_total, min_leaf)
    _ref_grow_tree(X, y, idx[~left_mask], depth - 1, rng, importance, n_total, min_leaf)


def _ref_rf_importance(X, y, n_trees=20, max_depth=4, seed=0):
    n, p = X.shape
    imp = np.zeros(p)
    if n == 0 or p == 0 or len(np.unique(y)) < 2:
        return imp
    rng = np.random.default_rng(seed)
    for _ in range(n_trees):
        boot = rng.integers(0, n, size=n)
        _ref_grow_tree(X, y, boot, max_depth, rng, imp, n_total=n)
    return imp / n_trees


@st.composite
def _forest_inputs(draw):
    """(X, y, seed) shaped like ``mine_apt``'s mining samples: factorized
    codes with -1 for NULL, rounded normals (tied quantiles), duplicate and
    constant columns, p from 1 to past mtry, n down to below 2·min_leaf,
    single-class labels."""
    n = draw(st.integers(0, 120))
    p = draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cols = []
    for _ in range(p):
        kind = draw(st.sampled_from(["codes", "normal", "constant", "duplicate"]))
        if kind == "codes":
            col = rng.integers(-1, draw(st.integers(1, 6)), n).astype(float)
        elif kind == "normal":
            col = np.round(rng.normal(0, 3, n), draw(st.integers(0, 2)))
        elif kind == "constant" or not cols:
            col = np.full(n, float(draw(st.integers(-1, 3))))
        else:
            col = cols[draw(st.integers(0, len(cols) - 1))].copy()
        cols.append(col)
    X = np.column_stack(cols)
    share = draw(st.sampled_from([0.0, 0.05, 0.5, 0.9, 1.0]))
    y = (rng.random(n) < share).astype(int)
    if n and draw(st.booleans()):
        # Tie the label to a column, so that splits reach depth and gains tie.
        y = (X[:, draw(st.integers(0, p - 1))] > 0).astype(int)
    return X, y, draw(st.integers(0, 2**31 - 1))


@settings(max_examples=300, deadline=None)
@given(_forest_inputs())
def test_rf_importance_equals_scalar_reference(case):
    X, y, seed = case
    assert np.array_equal(rf_importance(X, y, seed=seed), _ref_rf_importance(X, y, seed=seed))


@settings(max_examples=60, deadline=None)
@given(_forest_inputs(), st.integers(1, 3))
def test_filter_attrs_equals_scalar_reference(case, n_sel_attr):
    X, y, seed = case
    frame = pd.DataFrame(X, columns=[f"a{i}" for i in range(X.shape[1])])
    got = filter_attrs(frame, y, n_sel_attr, seed=seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fs, "rf_importance", _ref_rf_importance)
        want = filter_attrs(frame, y, n_sel_attr, seed=seed)
    assert got == want
