"""Summarization patterns (Def. 5): matching, refinement, compilation."""
import numpy as np
import pandas as pd
import pytest

from repro.core.pattern import Pattern, Predicate


@pytest.fixture()
def pdf():
    return pd.DataFrame(
        {
            "player": ["S. Curry", "K. Thompson", "S. Curry", None],
            "pts": [22.0, 27.0, 40.0, np.nan],
            "mins": [30.0, 35.0, 38.0, 10.0],
        }
    )


def test_predicate_rejects_bad_op():
    with pytest.raises(ValueError):
        Predicate("pts", "<", 3)


@pytest.mark.parametrize(
    "op,value,expected",
    [
        ("=", "S. Curry", [True, False, True, False]),
        (">=", 23, [False, True, True, False]),
        ("<=", 27, [True, True, False, False]),
    ],
)
def test_predicate_pandas_mask(pdf, op, value, expected):
    attr = "player" if op == "=" else "pts"
    assert Predicate(attr, op, value).pandas_mask(pdf).tolist() == expected


def test_null_never_matches(pdf):
    # NULL pts / player: SQL three-valued logic collapses to non-match.
    assert not Predicate("pts", ">=", -1e9).pandas_mask(pdf)[3]
    assert not Predicate("player", "=", "S. Curry").pandas_mask(pdf)[3]


def test_empty_pattern_matches_everything(pdf):
    assert Pattern().pandas_mask(pdf).all()


def test_conjunction(pdf):
    p = Pattern(
        (Predicate("player", "=", "S. Curry"), Predicate("pts", ">=", 23))
    )
    assert p.pandas_mask(pdf).tolist() == [False, False, True, False]


def test_with_pred_sorts_and_hashes():
    a = Pattern((Predicate("a", "=", 1),)).with_pred(Predicate("b", "<=", 2))
    b = Pattern((Predicate("b", "<=", 2),)).with_pred(Predicate("a", "=", 1))
    assert a == b and hash(a) == hash(b)


def test_with_pred_rejects_duplicate_attr():
    p = Pattern((Predicate("a", "=", 1),))
    with pytest.raises(ValueError):
        p.with_pred(Predicate("a", "<=", 5))


def test_refinement_relation():
    base = Pattern((Predicate("a", "=", 1),))
    ref = base.with_pred(Predicate("b", ">=", 3))
    assert ref.is_refinement_of(base)
    assert not base.is_refinement_of(ref)
    assert not base.is_refinement_of(base)


def test_pred_on():
    p = Pattern((Predicate("a", "=", 1), Predicate("b", "<=", 2)))
    assert p.pred_on("a").value == 1
    assert p.pred_on("zzz") is None


def test_describe():
    p = Pattern((Predicate("player", "=", "S. Curry"), Predicate("pts", ">=", 23)))
    assert p.describe() == "player=S. Curry ∧ pts>23"
    assert Pattern().describe() == "*"


def test_describe_leq_renders_lt():
    assert Predicate("pts", "<=", 5).describe() == "pts<5"


def test_size_and_attrs():
    p = Pattern((Predicate("a", "=", 1), Predicate("b", "<=", 2)))
    assert p.size == 2
    assert p.attrs == ("a", "b")


def test_spark_column_matches_pandas(spark, pdf):
    sdf = spark.createDataFrame(pdf)
    pats = [
        Pattern((Predicate("player", "=", "S. Curry"),)),
        Pattern((Predicate("pts", ">=", 23),)),
        Pattern((Predicate("pts", "<=", 27), Predicate("mins", ">=", 31))),
        Pattern(),
    ]
    for p in pats:
        got = sdf.filter(p.to_sql()).count()
        assert got == int(p.pandas_mask(pdf).sum()), p.describe()
