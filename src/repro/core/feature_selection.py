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


# Split thresholds tried per drawn feature: these quantiles of the node's
# values, in ascending order.
_QUANTILES = np.array([0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875])


def _gini(p):
    """Gini impurity of a 0/1 label with positive share ``p``."""
    return 2 * p * (1 - p)


def _thresholds(block: np.ndarray) -> np.ndarray:
    """``np.quantile(block, _QUANTILES, axis=1).T``, sorted along each row:
    numpy's default ('linear') method, with its arithmetic, on a sort of
    the (m, n) block, n ≥ 2."""
    srt = np.sort(block, axis=1)
    virtual = (block.shape[1] - 1) * _QUANTILES
    lo = np.floor(virtual).astype(np.intp)
    gamma = virtual - lo
    below, above = srt[:, lo], srt[:, lo + 1]
    diff = above - below
    thr = np.where(gamma >= 0.5, above - diff * (1 - gamma), below + diff * gamma)
    thr.sort(axis=1)
    return thr


def _grow_tree(
    Xt: np.ndarray,
    W: np.ndarray,
    idx: np.ndarray,
    depth: int,
    rng: np.random.Generator,
    importance: np.ndarray,
    n_total: int,
    min_leaf: int = 5,
) -> None:
    """Grow one tree over the bootstrap rows ``idx`` (depth first, left
    child first), adding each split's weighted Gini decrease to
    ``importance``. ``Xt`` is the feature-major (transposed) matrix and
    ``W`` the (rows, 2) matrix [1, label].

    A node draws its features (``rng.choice``) only once it has passed the
    depth, ``min_leaf`` and purity checks. Its split search is one
    vectorised step over the drawn features × thresholds, with the
    arithmetic of the scalar loop it replaces (kept in the tests as the
    reference): the first candidate of largest gain in (draw order,
    ascending threshold) order wins, and only a gain > 0 splits. The caller
    silences numpy's divide and invalid warnings (:func:`rf_importance`)."""
    n = len(idx)
    if depth == 0 or n < 2 * min_leaf:
        return
    w = W[idx]
    s = w[:, 1].sum()
    if s == 0 or s == n:  # pure node
        return
    p = Xt.shape[0]
    feats = rng.choice(p, size=max(1, int(np.sqrt(p))), replace=False)
    block = Xt[feats][:, idx]  # (m, n)
    left = block[:, None, :] <= _thresholds(block)[:, :, None]  # (m, 7, n)
    counts = left @ w  # exact: sums of 0/1 values
    nl, sl = counts[..., 0], counts[..., 1]
    nr = n - nl
    gain = _gini(s / n) - (
        nl / n * _gini(sl / nl) + nr / n * _gini((s - sl) / nr)
    )
    gain[np.minimum(nl, nr) < min_leaf] = 0.0
    best = int(np.argmax(gain))
    fi, ti = divmod(best, len(_QUANTILES))
    if gain[fi, ti] <= 0:
        return
    importance[feats[fi]] += (n / n_total) * gain[fi, ti]
    go_left = left[fi, ti]
    _grow_tree(Xt, W, idx[go_left], depth - 1, rng, importance, n_total, min_leaf)
    _grow_tree(Xt, W, idx[~go_left], depth - 1, rng, importance, n_total, min_leaf)


def rf_importance(
    X: np.ndarray,
    y: np.ndarray,
    n_trees: int = 20,
    max_depth: int = 4,
    seed: int = 0,
) -> np.ndarray:
    """Mean impurity-decrease importance of each column of the finite matrix
    X for the 0/1 label y (``mine_apt`` labels a row 1 when it is on t1's
    side), from a small bootstrap/random-subspace forest."""
    n, p = X.shape
    imp = np.zeros(p)
    if n == 0 or p == 0 or len(np.unique(y)) < 2:
        return imp
    rng = np.random.default_rng(seed)
    Xt = np.ascontiguousarray(X.T)
    W = np.column_stack((np.ones(n), y))
    # An empty side of a threshold gives 0/0 gains, which the leaf-size
    # rule then zeroes.
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(n_trees):
            boot = rng.integers(0, n, size=n)
            _grow_tree(Xt, W, boot, max_depth, rng, imp, n_total=n)
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
