"""LCA pattern-candidate generation over categorical attributes (§3.2, [19]).

The LCA (lowest common ancestor) heuristic generates a candidate pattern for
every pair of sample tuples: keep ``attr = c`` where both agree, ``*`` where
they differ. Frequently co-occurring constant combinations therefore surface
as frequently generated patterns.

We first collapse the sample to its distinct categorical-value combinations
(with multiplicities) — the pair (t, t') only depends on the combination
values, so this computes the same candidate multiset in O(d²) instead of
O(n²) for d distinct combos. The pairs are then grouped, not looped over:
each combo column is factorised to codes (NULL → −1), every pair (i ≤ j)
gets an integer key that encodes the columns and codes on which the two
combos agree on a non-NULL value, and the pair weights are summed per
distinct key. Candidates are ranked by their weighted pair frequency, ties
by the pair (i, j) that first generated them; the empty pattern (all *) is
discarded.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.core.pattern import Pattern, Predicate

_MAX_COMBOS = 300  # cap d so the d(d+1)/2 pairs stay bounded


def lca_candidates(
    sample_pdf: pd.DataFrame,
    cat_attrs: list[str],
    max_patterns: int | None = None,
) -> list[Pattern]:
    """Candidate patterns over ``cat_attrs``, most frequent first."""
    if not cat_attrs or sample_pdf.empty:
        return []
    combos = (
        sample_pdf.groupby(cat_attrs, dropna=False, observed=True)
        .size()
        .reset_index(name="__w")
        .sort_values("__w", ascending=False)
        .head(_MAX_COMBOS)
        .reset_index(drop=True)
    )
    vals = combos[cat_attrs].to_numpy(dtype=object)
    w = combos["__w"].to_numpy(dtype=np.int64)
    codes = np.column_stack(
        [pd.factorize(combos[a], use_na_sentinel=True)[0] for a in cat_attrs]
    ).astype(np.int32)

    # Pairs in the order of a row-major loop over i ≤ j.
    ii, jj = np.triu_indices(len(combos))
    # pair weight: w_i*w_j for i<j, C(w_i, 2) for the diagonal; integers
    # below 2^53, so their float sums are exact in any order.
    pw = np.where(ii != jj, w[ii] * w[jj], w[ii] * (w[ii] - 1) // 2)
    keys, agrees = _pair_keys(codes, ii, jj)
    kept = np.flatnonzero((pw > 0) & agrees)
    if not len(kept):
        return []
    _, first, inverse = np.unique(
        keys[kept], return_index=True, return_inverse=True
    )
    freq = np.bincount(inverse, weights=pw[kept].astype(np.float64))
    order = np.lexsort((first, -freq))
    if max_patterns:
        order = order[:max_patterns]

    by_name = sorted(range(len(cat_attrs)), key=lambda k: cat_attrs[k])
    pats = []
    for u in order:
        p = kept[first[u]]
        ci, cj = codes[ii[p]], codes[jj[p]]
        pats.append(
            Pattern(
                tuple(
                    Predicate(cat_attrs[k], "=", vals[ii[p]][k])
                    for k in by_name
                    if ci[k] == cj[k] >= 0
                )
            )
        )
    return pats


def _pair_keys(
    codes: np.ndarray, ii: np.ndarray, jj: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(key, any agreement) per pair (ii[p], jj[p]) of combo rows. Two pairs
    get equal int64 keys iff they agree on the same values of the same
    columns: the key is a mixed-radix number with one digit per column,
    1 + the shared code or 0 where the rows differ or are NULL; it is
    renumbered densely whenever the next digit could overflow."""
    keys = np.zeros(len(ii), dtype=np.int64)
    agrees = np.zeros(len(ii), dtype=bool)
    span = 1  # keys < span
    for k in range(codes.shape[1]):
        a, b = codes[ii, k], codes[jj, k]
        digit = np.where(a == b, a + 1, 0)  # NULL's code −1 gives 0
        agrees |= digit > 0
        radix = int(codes[:, k].max()) + 2
        if span * radix >= 2**62:
            uniq, keys = np.unique(keys, return_inverse=True)
            span = len(uniq)
        keys = keys * radix + digit
        span *= radix
    return keys, agrees
