"""AggQuery model + SQL rendering, checked against the DuckDB oracle."""
import datetime as dt

import pytest

from repro.oracle import assert_equivalent
from repro.substrate.query import AggQuery, split_ref


def test_split_ref():
    assert split_ref("g.season_id") == ("g", "season_id")


def test_split_ref_rejects_unqualified():
    with pytest.raises(ValueError):
        split_ref("season_id")


def test_duplicate_aliases_rejected():
    with pytest.raises(ValueError):
        AggQuery(tables=(("a", "x"), ("b", "x")))


@pytest.mark.parametrize(
    "refs, match",
    [
        (dict(group_by=(("season", "season"),)), "alias-qualified"),
        (dict(group_by=(("x.season", "season"),)), "alias 'x' is not in FROM"),
        (dict(filters=(("x.winner", "GSW"),)), "alias 'x' is not in FROM"),
        (dict(join_conds=(("g.home", "x.home"),)), "alias 'x' is not in FROM"),
    ],
    ids=["unqualified", "group_by_alias", "filter_alias", "join_alias"],
)
def test_malformed_references_rejected(refs, match):
    with pytest.raises(ValueError, match=match):
        AggQuery(tables=(("game", "g"),), **refs)


def test_relations_deduped():
    q = AggQuery(tables=(("game", "g1"), ("game", "g2")))
    assert q.relations == ("game",)


def test_where_sql_no_conditions():
    q = AggQuery(tables=(("game", "g"),))
    assert q.where_sql() == "1 = 1"


def test_literal_escaping(toy_db):
    q = AggQuery(
        tables=(("game", "g"),),
        filters=(("g.winner", "O'Brien"),),
        agg="count(*)",
        agg_alias="c",
    )
    assert "O''Brien" in q.to_sql()
    assert q.result(toy_db).collect()[0]["c"] == 0


def test_toy_query_result(toy_db, toy_query, toy_frames):
    game, _ = toy_frames
    assert_equivalent(
        toy_query.result(toy_db),
        "SELECT season, count(*) AS win FROM game "
        "WHERE winner = 'GSW' GROUP BY season",
        game=game,
    )


def test_toy_query_values(toy_db, toy_query):
    rows = {r["season"]: r["win"] for r in toy_query.result(toy_db).collect()}
    assert rows == {"2012-13": 1, "2015-16": 3}


def test_join_query_against_oracle(toy_db, toy_frames):
    game, pgs = toy_frames
    q = AggQuery(
        tables=(("game", "g"), ("player_game_scoring", "p")),
        join_conds=(
            ("g.year", "p.year"),
            ("g.month", "p.month"),
            ("g.day", "p.day"),
            ("g.home", "p.home"),
        ),
        filters=(("p.player", "S. Curry"),),
        group_by=(("g.season", "season"),),
        agg="avg(p.pts)",
        agg_alias="avg_pts",
    )
    assert_equivalent(
        q.result(toy_db),
        "SELECT g.season AS season, avg(p.pts) AS avg_pts "
        "FROM game g, player_game_scoring p "
        "WHERE g.year = p.year AND g.month = p.month AND g.day = p.day "
        "AND g.home = p.home AND p.player = 'S. Curry' GROUP BY g.season",
        game=game,
        player_game_scoring=pgs,
    )


@pytest.mark.parametrize(
    "value", [dt.date(2015, 1, 2), None, float("nan")], ids=["date", "none", "nan"]
)
def test_filter_constant_without_sql_text_raises(value):
    """``str()`` of a date is integer arithmetic in SQL (``2015-01-02``), and
    of None or NaN an identifier, which Spark and the DuckDB oracle would
    read alike, so such a filter fails when the query is built."""
    with pytest.raises(ValueError, match=r"filter g\.day = "):
        AggQuery(tables=(("game", "g"),), filters=(("g.day", value),))


def test_filter_constants_render_for_spark_and_duckdb():
    q = AggQuery(
        tables=(("game", "g"),),
        filters=(("g.winner", "GSW"), ("g.year", 2016), ("g.home_pts", 1.5)),
    )
    assert q.where_sql() == "g.winner = 'GSW' AND g.year = 2016 AND g.home_pts = 1.5"


@pytest.mark.parametrize(
    "const", ["a\\b", "it's", "${env:HOME}"], ids=["backslash", "quote", "variable"]
)
def test_filter_constant_selects_the_same_rows_in_spark_and_duckdb(spark, const):
    """Spark's parser reads backslash escapes and substitutes ``${…}``
    variables in SQL text, where DuckDB reads both literally: the query's
    Spark result equals the oracle's, and PT holds the constant's rows."""
    import pandas as pd

    from repro.substrate.catalog import Database
    from repro.substrate.provenance import compute_pt

    frame = pd.DataFrame({
        "id": range(6),
        "s": [const, const, "a", "b", "ab", "it"],
        "g": ["x", "y", "x", "y", "x", "y"],
    })
    db = Database(spark)
    db.add("odd_consts", spark.createDataFrame(frame), ("id",))
    db.cache_all()
    q = AggQuery(
        tables=(("odd_consts", "o"),),
        filters=(("o.s", const),),
        group_by=(("o.g", "g"),),
        agg="count(*)",
        agg_alias="c",
    )
    assert_equivalent(q.result(db), q.to_sql(), odd_consts=frame)
    assert q.result(db).count() == 2
    assert compute_pt(db, q).n_rows == 2
