"""Feature selection (§3.1): typing, RF relevance, correlation clustering."""
import numpy as np
import pandas as pd
import pytest

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
