"""Why-provenance substrate (Def. 1) against hand-computed Example 1 values."""
import duckdb
import pytest

from repro.substrate.provenance import PT_ID, compute_pt, prov_col


def test_pt_size_is_filtered_rows(toy_pt):
    # Example 2: PT(Q1, D) = all games GSW won (4 of 5 toy games).
    assert toy_pt.n_rows == 4


def test_pt_columns_prefixed(toy_pt):
    assert "prov_game_winner" in toy_pt.prov_cols
    assert prov_col("game", "winner") == "prov_game_winner"


def test_group_col_exported(toy_pt):
    assert toy_pt.group_cols == ("season",)
    assert "season" in toy_pt.df.columns


def test_group_prov_twin_tracked(toy_pt):
    assert toy_pt.group_prov_cols == ("prov_game_season",)


def test_pt_ids_distinct(toy_pt):
    assert toy_pt.df.select(PT_ID).distinct().count() == toy_pt.n_rows


def test_pt_ids_stable_across_actions(toy_pt):
    a = sorted(r[PT_ID] for r in toy_pt.df.select(PT_ID).collect())
    b = sorted(r[PT_ID] for r in toy_pt.df.select(PT_ID).collect())
    assert a == b


def test_pt_contents_match_duckdb(toy_pt, toy_frames):
    game, _ = toy_frames
    got = sorted(
        (r["prov_game_winner"], r["prov_game_home"], r["season"])
        for r in toy_pt.df.collect()
    )
    expected = sorted(
        duckdb.sql(
            "SELECT winner, home, season FROM game WHERE winner='GSW'"
        ).fetchall()
    )
    assert got == expected


def test_self_join_query_uses_alias_prefixes(toy_db):
    from repro.substrate.query import AggQuery

    q = AggQuery(
        tables=(("game", "g1"), ("game", "g2")),
        join_conds=(("g1.season", "g2.season"),),
        group_by=(("g1.season", "season"),),
        agg="count(*)",
        agg_alias="c",
    )
    pt = compute_pt(toy_db, q)
    assert "prov_g1_winner" in pt.prov_cols
    assert "prov_g2_winner" in pt.prov_cols


def test_nba_pt_matches_duckdb(nba_db, nba_pandas):
    from repro.workload import Q_NBA4

    pt = compute_pt(nba_db, Q_NBA4)
    con = duckdb.connect()
    for n, f in nba_pandas.items():
        con.register(n, f)
    expected = con.execute(
        "SELECT count(*) FROM team t, game g, season s "
        "WHERE t.team_id = g.winner_id AND g.season_id = s.season_id "
        "AND t.team = 'GSW'"
    ).fetchone()[0]
    con.close()
    assert pt.n_rows == expected


def _view_based_pt_rows(db, query):
    """PT rows as the view-based build produced them: the query's FROM/WHERE
    block run as SQL text over temp views, ids from the same window."""
    from pyspark.sql import Window
    from pyspark.sql import functions as F

    from repro.substrate.provenance import _prov_prefixes

    db.create_views()
    prefixes = _prov_prefixes(query)
    items = [
        f"{alias}.{attr} AS {prov_col(prefixes[alias], attr)}"
        for rel, alias in query.tables
        for attr in db.attrs(rel)
    ] + [f"{ref} AS {out}" for ref, out in query.group_by]
    df = db.spark.sql(
        f"SELECT {', '.join(items)} FROM {query.from_sql()} "
        f"WHERE {query.where_sql()}"
    )
    w = Window.orderBy(*[F.col(c) for c in df.columns])
    return sorted(df.withColumn(PT_ID, F.row_number().over(w)).collect())


def test_pt_ids_match_view_based_build(toy_db, toy_pt, toy_query, nba_db):
    from repro.workload import Q_NBA4

    assert sorted(toy_pt.df.collect()) == _view_based_pt_rows(toy_db, toy_query)
    nba_pt = compute_pt(nba_db, Q_NBA4)
    assert sorted(nba_pt.df.collect()) == _view_based_pt_rows(nba_db, Q_NBA4)


def test_repeated_compute_pt_runs_no_action(toy_db, toy_query, action_counter):
    pt = compute_pt(toy_db, toy_query)
    ids = sorted(pt.df.select(PT_ID).collect())
    before = action_counter["n"]
    again = compute_pt(toy_db, toy_query)
    assert action_counter["n"] == before
    assert sorted(again.df.select(PT_ID).collect()) == ids


def test_pt_survives_another_database_with_the_same_table_names(
    spark, toy_db, toy_frames, toy_sg, toy_query, toy_pt, action_counter
):
    """Another Database registering its own ``game`` view (AggQuery.result
    and explain on it) must not drop this Database's cached PT."""
    from repro.core.config import CajadeParams
    from repro.core.explain import explain
    from repro.substrate.catalog import Database

    ids = sorted(toy_pt.df.collect())
    game, pgs = toy_frames
    other = Database(spark)
    other.add("game", spark.createDataFrame(game.head(3)), toy_db.pk("game"))
    other.add(
        "player_game_scoring", spark.createDataFrame(pgs),
        toy_db.pk("player_game_scoring"),
    )
    toy_query.result(other).collect()
    explain(
        other, toy_sg, toy_query, {"season": "2012-13"}, None,
        CajadeParams(n_edges=1, f1_samp=1.0, pat_samp=1.0),
    )
    assert toy_pt.df.storageLevel.useMemory
    before = action_counter["n"]
    assert compute_pt(toy_db, toy_query) is toy_pt
    assert action_counter["n"] == before
    assert sorted(toy_pt.df.collect()) == ids


def test_adding_a_table_drops_the_memo(spark, toy_db, toy_query):
    from repro.substrate.catalog import Database

    db = Database(spark)
    for name in toy_db.names():
        db.add(name, toy_db.df(name), toy_db.pk(name))
    pt = compute_pt(db, toy_query)
    assert compute_pt(db, toy_query) is pt
    db.add("game", toy_db.df("game").filter("year > 2012"), toy_db.pk("game"))
    assert compute_pt(db, toy_query).n_rows == 3


def test_pt_ids_independent_of_shuffle_partitions(spark, mimic_db):
    """PT's ``__pt_id`` numbers the same tuples under any number of shuffle
    partitions: PT (a join, then the window that numbers its rows) is
    recomputed under each count and the tuple of every id compared."""
    from repro.workload import Q_MIMIC5

    key = "spark.sql.shuffle.partitions"
    saved = spark.conf.get(key)
    frames = {}
    try:
        for n in ("1", "7", "64"):
            spark.conf.set(key, n)
            # A cached PT would serve this count's identical plan.
            stale = mimic_db.pts.pop(Q_MIMIC5, None)
            if stale is not None:
                stale.df.unpersist(blocking=True)
            pt = compute_pt(mimic_db, Q_MIMIC5)
            frames[n] = pt.df.toPandas().sort_values(PT_ID, ignore_index=True)
    finally:
        spark.conf.set(key, saved)
    want = frames["64"]
    assert want[PT_ID].tolist() == list(range(1, len(want) + 1))
    for n in ("1", "7"):
        assert frames[n].equals(want), f"{key}={n}"
