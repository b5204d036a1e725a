"""Diversity-aware top-k pattern selection (§3.5).

Patterns are picked greedily by ``wscore(Φ) = Fscore + min_{Φ'∈R} D(Φ, Φ')``
where R is the already-selected set and D averages a per-attribute
matchscore: +1 when Φ' does not constrain the attribute, −0.3 when both
constrain it with different constants, −2 with the same constant. The first
pick is always the highest-F-score pattern.
"""
from __future__ import annotations

from typing import Callable, Sequence, TypeVar

from repro.core.pattern import Pattern

T = TypeVar("T")


def matchscore(phi: Pattern, other: Pattern, attr: str) -> float:
    p = phi.pred_on(attr)
    q = other.pred_on(attr)
    assert p is not None
    if q is None:
        return 1.0
    if (p.value, p.op) == (q.value, q.op):
        return -2.0
    return -0.3


def diversity(phi: Pattern, other: Pattern) -> float:
    """D(Φ, Φ') ∈ [−2, 1]; larger means more dissimilar."""
    if phi.size == 0:
        return 1.0
    total = sum(matchscore(phi, other, a) for a in phi.attrs)
    return total / phi.size


def diverse_topk(
    candidates: Sequence[T],
    k: int,
    pattern_of: Callable[[T], Pattern],
    fscore_of: Callable[[T], float],
) -> list[T]:
    """Greedy wscore selection over arbitrary carriers (explanations).

    Each remaining candidate keeps its min D(Φ, Φ') over the selected set,
    updated against the newest pick only, so a round costs one D per
    candidate. Ties go to the candidate with the higher F-score, then to
    the earlier one in ``candidates``."""
    remaining = sorted(candidates, key=fscore_of, reverse=True)
    if not remaining:
        return []
    selected = [remaining.pop(0)]
    pats = [pattern_of(c) for c in remaining]
    fscores = [fscore_of(c) for c in remaining]
    min_d = [float("inf")] * len(remaining)
    while remaining and len(selected) < k:
        last = pattern_of(selected[-1])
        best_i, best_score = 0, float("-inf")
        for i, pat in enumerate(pats):
            min_d[i] = min(min_d[i], diversity(pat, last))
            score = fscores[i] + min_d[i]
            if score > best_score:
                best_i, best_score = i, score
        selected.append(remaining.pop(best_i))
        for xs in (pats, fscores, min_d):
            del xs[best_i]
    return selected
