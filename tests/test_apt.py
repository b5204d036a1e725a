"""Augmented provenance tables (Def. 4) against DuckDB joins."""
import duckdb
import pytest

from repro.core.apt import materialize_apt
from repro.core.join_graph import PT_NODE, JGEdge, JoinGraph, empty_join_graph
from repro.core.schema_graph import JoinCond, fk_cond

GAME_PGS_COND = fk_cond(
    ("year", "year"), ("month", "month"), ("day", "day"), ("home", "home")
)


@pytest.fixture(scope="module")
def omega1():
    """Ω1 from Fig. 2a: PT — PlayerGameScoring."""
    return JoinGraph(
        nodes=((PT_NODE, None), (1, "player_game_scoring")),
        edges=(
            JGEdge(PT_NODE, 1, GAME_PGS_COND, "game", "player_game_scoring"),
        ),
    )


def test_empty_jg_apt_is_pt(toy_db, toy_pt):
    apt = materialize_apt(toy_db, toy_pt, empty_join_graph())
    assert apt.df.count() == toy_pt.n_rows
    assert apt.context_cols == ()


def test_apt_row_count_matches_duckdb(toy_db, toy_pt, toy_frames, omega1):
    game, player_game_scoring = toy_frames  # noqa: F841 (duckdb scan)
    apt = materialize_apt(toy_db, toy_pt, omega1)
    expected = duckdb.sql(
        "SELECT count(*) FROM game g, player_game_scoring p "
        "WHERE g.winner='GSW' AND g.year=p.year AND g.month=p.month "
        "AND g.day=p.day AND g.home=p.home"
    ).fetchone()[0]
    assert apt.df.count() == expected


def test_apt_example_4_contents(toy_db, toy_pt, omega1):
    """Figure 4: the 2012-12-05 DET game joins to 3 player rows."""
    apt = materialize_apt(toy_db, toy_pt, omega1)
    rows = apt.df.filter("prov_game_day = 5").collect()
    players = sorted(r["player_game_scoring_player"] for r in rows)
    assert players == ["D. Green", "K. Thompson", "S. Curry"]


def test_join_key_columns_dropped(toy_db, toy_pt, omega1):
    apt = materialize_apt(toy_db, toy_pt, omega1)
    # context-side join keys duplicate PT columns → removed (Def. 4)
    for c in ("player_game_scoring_year", "player_game_scoring_home"):
        assert c not in apt.df.columns
    assert "player_game_scoring_player" in apt.df.columns


def test_pattern_cols_exclude_group_and_ids(toy_db, toy_pt, omega1):
    apt = materialize_apt(toy_db, toy_pt, omega1)
    assert "season" not in apt.pattern_cols
    assert "prov_game_season" not in apt.pattern_cols
    assert "player_game_scoring_pts" in apt.pattern_cols


def test_pattern_cols_exclude_context_group_attr(toy_db, toy_db_season_jg=None):
    """A context node reintroducing the group-by attribute is banned."""
    from repro.substrate.provenance import compute_pt
    from repro.substrate.query import AggQuery

    q = AggQuery(
        tables=(("game", "g"),),
        filters=(("g.winner", "GSW"),),
        group_by=(("g.season", "season"),),
        agg="count(*)",
        agg_alias="win",
    )
    pt = compute_pt(toy_db, q)
    jg = JoinGraph(
        nodes=((PT_NODE, None), (1, "game")),
        edges=(
            JGEdge(PT_NODE, 1, fk_cond(("season", "season")), "game", "game"),
        ),
    )
    apt = materialize_apt(toy_db, pt, jg)
    assert "game_season" not in apt.pattern_cols
    assert "game_winner" in apt.pattern_cols


def test_repeated_relation_prefixes(toy_db, toy_pt):
    jg = JoinGraph(
        nodes=(
            (PT_NODE, None),
            (1, "player_game_scoring"),
            (2, "player_game_scoring"),
        ),
        edges=(
            JGEdge(PT_NODE, 1, GAME_PGS_COND, "game", "player_game_scoring"),
            JGEdge(PT_NODE, 2, GAME_PGS_COND, "game", "player_game_scoring"),
        ),
    )
    apt = materialize_apt(toy_db, toy_pt, jg)
    assert "player_game_scoring_player" in apt.df.columns
    assert "player_game_scoring2_player" in apt.df.columns


def test_cycle_edge_becomes_filter(toy_db, toy_pt, toy_frames):
    """Parallel second edge between joined nodes filters, not re-joins."""
    game, player_game_scoring = toy_frames  # noqa: F841 (duckdb scan)
    extra = JoinCond(pairs=(("winner", "home"),))
    jg = JoinGraph(
        nodes=((PT_NODE, None), (1, "player_game_scoring")),
        edges=(
            JGEdge(PT_NODE, 1, GAME_PGS_COND, "game", "player_game_scoring"),
            JGEdge(PT_NODE, 1, extra, "game", "player_game_scoring"),
        ),
    )
    apt = materialize_apt(toy_db, toy_pt, jg)
    expected = duckdb.sql(
        "SELECT count(*) FROM game g, player_game_scoring p "
        "WHERE g.winner='GSW' AND g.year=p.year AND g.month=p.month "
        "AND g.day=p.day AND g.home=p.home AND g.winner=p.home"
    ).fetchone()[0]
    assert apt.df.count() == expected


def test_const_condition_applied(toy_db, toy_pt):
    cond = JoinCond(
        pairs=GAME_PGS_COND.pairs, consts=(("r", "player", "S. Curry"),)
    )
    jg = JoinGraph(
        nodes=((PT_NODE, None), (1, "player_game_scoring")),
        edges=(JGEdge(PT_NODE, 1, cond, "game", "player_game_scoring"),),
    )
    apt = materialize_apt(toy_db, toy_pt, jg)
    rows = apt.df.collect()
    assert rows and all(
        r["player_game_scoring_player"] == "S. Curry" for r in rows
    )


def test_disconnected_graph_raises(toy_db, toy_pt):
    jg = JoinGraph(
        nodes=((PT_NODE, None), (1, "player_game_scoring"), (2, "game")),
        edges=(
            JGEdge(1, 2, GAME_PGS_COND.flipped(), "player_game_scoring", "game"),
        ),
    )
    with pytest.raises(ValueError, match="not connected"):
        materialize_apt(toy_db, toy_pt, jg)


def test_pt_id_fanout_preserved(toy_db, toy_pt, omega1):
    from repro.substrate.provenance import PT_ID

    apt = materialize_apt(toy_db, toy_pt, omega1)
    # 4 PT tuples; the DEN home loss is not in PT; every APT row carries a
    # valid PT id
    ids = {r[PT_ID] for r in apt.df.select(PT_ID).collect()}
    pt_ids = {r[PT_ID] for r in toy_pt.df.select(PT_ID).collect()}
    assert ids.issubset(pt_ids)


def _planned_joins(df) -> list[str]:
    """The join operators Spark's planner chose for ``df``, before adaptive
    execution; a cached relation (PT) is a leaf, its own plan not walked."""

    def walk(node) -> list[str]:
        kids = node.children()
        own = [node.nodeName()] if node.nodeName().endswith("Join") else []
        return own + [j for i in range(kids.size()) for j in walk(kids.apply(i))]

    return walk(df._jdf.queryExecution().sparkPlan())


def test_small_context_relation_joins_by_broadcast(
    mimic_db, fresh_db, monkeypatch
):
    """The collect plan of MIMIC's Ω_1 (PT — patients) broadcasts patients,
    whose size the catalog puts under ``BROADCAST_MAX_BYTES``, although the
    session switches Spark's own broadcast rule off. With the bound at the
    relation's size, the join is a sort-merge join, and both plans collect
    the same rows."""
    import repro.core.apt as apt_mod
    from repro.core.join_graph import enumerate_join_graphs
    from repro.core.metrics import _prepared
    from repro.data.mimic import mimic_schema_graph
    from repro.substrate.provenance import compute_pt
    from repro.workload import UQ_MIMIC4 as uq

    db = fresh_db(mimic_db)
    pt = compute_pt(db, uq.query)
    (omega1,) = [
        jg for jg in enumerate_join_graphs(mimic_schema_graph(), uq.query, 1)
        if jg.structure() == "PT - patients"
    ]

    def collect_plan():
        pt.prepared = None
        union, _ = _prepared(db, pt, (omega1,), uq.t1, uq.t2, 0)
        rows = union.toPandas()
        return _planned_joins(union), rows.sort_values(list(rows.columns))

    size = db.size_bytes("patients")
    assert 0 < size < apt_mod.BROADCAST_MAX_BYTES
    joins, broadcast_rows = collect_plan()
    assert joins == ["BroadcastHashJoin"]
    monkeypatch.setattr(apt_mod, "BROADCAST_MAX_BYTES", size)
    joins, shuffled_rows = collect_plan()
    assert joins == ["SortMergeJoin"]
    assert broadcast_rows.reset_index(drop=True).equals(
        shuffled_rows.reset_index(drop=True)
    )
