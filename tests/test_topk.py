"""Diversity-aware top-k (§3.5)."""
import pytest

from repro.core.pattern import Pattern, Predicate
from repro.core.topk import diverse_topk, diversity, matchscore


def P(*preds):
    return Pattern(tuple(Predicate(a, op, v) for a, op, v in preds))


def test_matchscore_absent_attr():
    assert matchscore(P(("a", "=", 1)), P(("b", "=", 2)), "a") == 1.0


def test_matchscore_same_constant():
    assert matchscore(P(("a", "=", 1)), P(("a", "=", 1)), "a") == -2.0


def test_matchscore_different_constant():
    assert matchscore(P(("a", "=", 1)), P(("a", "=", 2)), "a") == -0.3


def test_matchscore_same_value_different_op():
    # (X, ≤) vs (X, ≥) count as different conditions → mild penalty.
    assert matchscore(P(("a", "<=", 1)), P(("a", ">=", 1)), "a") == -0.3


def test_diversity_bounds():
    a = P(("a", "=", 1), ("b", "=", 2))
    assert diversity(a, a) == -2.0
    assert diversity(a, P(("c", "=", 3))) == 1.0


def test_diversity_mixed():
    a = P(("a", "=", 1), ("b", "=", 2))
    b = P(("a", "=", 1), ("c", "=", 9))
    # a vs b: attr a same constant (-2), attr b absent (+1) → -0.5
    assert diversity(a, b) == pytest.approx(-0.5)


def test_empty_pattern_diversity_is_one():
    assert diversity(Pattern(), P(("a", "=", 1))) == 1.0


def test_topk_first_is_best_fscore():
    items = [(P(("a", "=", i)), 0.1 * i) for i in range(5)]
    got = diverse_topk(items, 3, pattern_of=lambda t: t[0], fscore_of=lambda t: t[1])
    assert got[0][1] == pytest.approx(0.4)


def test_topk_prefers_diverse_over_marginally_better():
    best = (P(("a", "=", 1)), 1.0)
    dup = (P(("a", "=", 1), ("b", "<=", 5)), 0.95)  # shares a=1 → -2 penalty
    other = (P(("c", "=", 2)), 0.5)                 # disjoint → +1 bonus
    got = diverse_topk(
        [best, dup, other], 2, pattern_of=lambda t: t[0], fscore_of=lambda t: t[1]
    )
    assert got == [best, other]


def test_topk_k_larger_than_pool():
    items = [(P(("a", "=", 1)), 0.5)]
    assert len(diverse_topk(items, 10, lambda t: t[0], lambda t: t[1])) == 1


def test_topk_empty():
    assert diverse_topk([], 5, lambda t: t, lambda t: 0) == []


def _reference_topk(candidates, k, pattern_of, fscore_of):
    """The quadratic loop the running-min selection replaced: every round
    recomputes each candidate's min D over the whole selected set."""
    remaining = sorted(candidates, key=fscore_of, reverse=True)
    if not remaining:
        return []
    selected = [remaining.pop(0)]
    while remaining and len(selected) < k:
        best_i, best_score = 0, float("-inf")
        for i, cand in enumerate(remaining):
            d = min(diversity(pattern_of(cand), pattern_of(s)) for s in selected)
            score = fscore_of(cand) + d
            if score > best_score:
                best_i, best_score = i, score
        selected.append(remaining.pop(best_i))
    return selected


@pytest.mark.parametrize("seed", range(40))
def test_topk_equals_quadratic_loop(seed):
    import random

    rng = random.Random(seed)
    # Few attributes, values and F-scores: many equal F-scores and many
    # equal wscores (e.g. 0.5 + 1.0 == 1.0 + 0.5).
    pool = [
        P(*((a, rng.choice(["=", "<=", ">="]), rng.randint(0, 2))
            for a in rng.sample("abcd", rng.randint(1, 3))))
        for _ in range(rng.randint(1, 60))
    ]
    items = [(i, p, rng.choice([0.0, 0.25, 0.5, 0.75, 1.0]))
             for i, p in enumerate(pool)]
    k = rng.randint(1, 12)
    got = diverse_topk(items, k, lambda t: t[1], lambda t: t[2])
    want = _reference_topk(items, k, lambda t: t[1], lambda t: t[2])
    assert [t[0] for t in got] == [t[0] for t in want]
