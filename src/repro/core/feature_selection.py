"""Attribute clustering and relevance filtering (§3.1).

Two steps, both on a bounded driver-side sample of the APT:

1. **Relevance** — the paper trains a random forest predicting which of the
   two user-question outputs a row's provenance belongs to, and keeps the
   most relevant attributes. sklearn is not available offline, so this
   module ships a small pure-numpy random forest (bootstrap + random
   feature subspace, depth-limited Gini trees, impurity-decrease
   importances). See DESIGN.md substitution #4.
2. **Clustering** — highly correlated attributes (age vs birth year) yield
   redundant patterns; the paper clusters them with VARCLUS and keeps one
   representative per cluster. We greedily cluster attributes whose
   pairwise |Pearson correlation| over the encoded sample exceeds a
   threshold, and keep the most relevant member (substitution #5; the paper
   notes any correlated-attribute clustering is admissible).

Attribute typing: object/bool columns and low-cardinality numerics are
*categorical* (equality predicates only); the rest are *numeric* (also
allow ≤ / ≥). Key-like columns (``*_id``, ``__pt_id``) and group-by columns
never become pattern attributes.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd

_CAT_CARD_MAX = 12  # numeric columns with ≤ this many values act categorical


def split_attr_types(
    pdf: pd.DataFrame, exclude: tuple[str, ...] = ()
) -> tuple[list[str], list[str]]:
    """(numeric_attrs, categorical_attrs) usable in patterns."""
    num, cat = [], []
    for c in pdf.columns:
        if c in exclude or c.endswith("_id") or c.startswith("__"):
            continue
        s = pdf[c]
        if pd.api.types.is_numeric_dtype(s) and not pd.api.types.is_bool_dtype(s):
            if s.nunique(dropna=True) > _CAT_CARD_MAX:
                num.append(c)
            else:
                cat.append(c)
        else:
            cat.append(c)
    return num, cat


def encode_matrix(pdf: pd.DataFrame, attrs: list[str]) -> np.ndarray:
    """Columns → float matrix; categoricals are factorized to codes
    (sufficient for split-finding and coarse correlation detection)."""
    cols = []
    for c in attrs:
        s = pdf[c]
        if pd.api.types.is_numeric_dtype(s) and not pd.api.types.is_bool_dtype(s):
            v = s.to_numpy(dtype=float, na_value=np.nan)
        else:
            v = pd.factorize(s, use_na_sentinel=True)[0].astype(float)
            v[v < 0] = np.nan
        cols.append(np.nan_to_num(v, nan=-1.0))
    return np.column_stack(cols) if cols else np.empty((len(pdf), 0))


def _gini(y: np.ndarray) -> float:
    if len(y) == 0:
        return 0.0
    p = y.mean()
    return 2 * p * (1 - p)


def _grow_tree(
    X: np.ndarray,
    y: np.ndarray,
    idx: np.ndarray,
    depth: int,
    rng: np.random.Generator,
    importance: np.ndarray,
    n_total: int,
    min_leaf: int = 5,
) -> None:
    n = len(idx)
    if depth == 0 or n < 2 * min_leaf or len(np.unique(y[idx])) < 2:
        return
    p = X.shape[1]
    mtry = max(1, int(np.sqrt(p)))
    feats = rng.choice(p, size=min(mtry, p), replace=False)
    parent = _gini(y[idx])
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
                nl / n * _gini(y[idx[left]])
                + (n - nl) / n * _gini(y[idx[~left]])
            )
            if gain > best[0]:
                best = (gain, f, thr)
    gain, f, thr = best
    if f < 0 or gain <= 0:
        return
    importance[f] += (n / n_total) * gain
    left_mask = X[idx, f] <= thr
    _grow_tree(X, y, idx[left_mask], depth - 1, rng, importance, n_total, min_leaf)
    _grow_tree(X, y, idx[~left_mask], depth - 1, rng, importance, n_total, min_leaf)


def rf_importance(
    X: np.ndarray,
    y: np.ndarray,
    n_trees: int = 20,
    max_depth: int = 4,
    seed: int = 0,
) -> np.ndarray:
    """Mean impurity-decrease importance of each column of X for the binary
    label y, from a small bootstrap/random-subspace forest."""
    n, p = X.shape
    imp = np.zeros(p)
    if n == 0 or p == 0 or len(np.unique(y)) < 2:
        return imp
    rng = np.random.default_rng(seed)
    for _ in range(n_trees):
        boot = rng.integers(0, n, size=n)
        _grow_tree(X, y, boot, max_depth, rng, imp, n_total=n)
    return imp / n_trees


def cluster_attributes(
    X: np.ndarray,
    attrs: list[str],
    importance: np.ndarray,
    threshold: float = 0.95,
) -> list[list[str]]:
    """Greedy |corr|-clustering; clusters are returned with their most
    relevant attribute first (that member is the representative)."""
    if not attrs:
        return []
    if X.shape[0] < 3 or X.shape[1] < 2:
        # Too few rows/columns for a meaningful correlation estimate.
        return [[attrs[int(i)]] for i in np.argsort(-importance)]
    with np.errstate(invalid="ignore", divide="ignore"):
        corr = np.corrcoef(X, rowvar=False)
    corr = np.nan_to_num(np.atleast_2d(corr), nan=0.0)
    order = np.argsort(-importance)
    clusters: list[list[int]] = []
    for i in order:
        placed = False
        for cl in clusters:
            if abs(corr[i, cl[0]]) >= threshold:
                cl.append(int(i))
                placed = True
                break
        if not placed:
            clusters.append([int(i)])
    return [[attrs[i] for i in cl] for cl in clusters]


@dataclass
class FilterResult:
    """FILTERATTRS output: selected numeric/categorical attrs + clusters."""

    num_attrs: list[str]
    cat_attrs: list[str]
    clusters: list[list[str]]
    importance: dict[str, float]


def filter_attrs(
    sample_pdf: pd.DataFrame,
    label: np.ndarray,
    n_sel_attr: int,
    exclude: tuple[str, ...] = (),
    enabled: bool = True,
    seed: int = 0,
) -> FilterResult:
    """FILTERATTRS (Algorithm 1): cluster correlated attributes, score
    relevance with the random forest, keep the top ``n_sel_attr`` cluster
    representatives of each type. With ``enabled=False`` ("Naive" in §5.1)
    every attribute survives, in singleton clusters, and no forest is
    trained: ``importance`` is empty."""
    num, cat = split_attr_types(sample_pdf, exclude)
    attrs = num + cat
    if not enabled:
        return FilterResult(num, cat, [[a] for a in attrs], {})
    X = encode_matrix(sample_pdf, attrs)
    imp = rf_importance(X, label, seed=seed)
    imp_map = {a: float(v) for a, v in zip(attrs, imp)}
    clusters = cluster_attributes(X, attrs, imp)
    reps = [cl[0] for cl in clusters]
    reps.sort(key=lambda a: -imp_map[a])
    sel_num = [a for a in reps if a in num][:n_sel_attr]
    sel_cat = [a for a in reps if a in cat][:n_sel_attr]
    return FilterResult(sel_num, sel_cat, clusters, imp_map)
