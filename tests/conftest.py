"""Shared dataset fixtures for the test suite.

All Spark fixtures are session-scoped and cached: the NBA/MIMIC generators
run once, and the toy database mirrors the paper's Example 1 so provenance/
APT/metric assertions can be written against hand-computed values.
"""
import pandas as pd
import pytest

from repro.substrate.catalog import Database
from repro.core.schema_graph import SchemaGraph, fk_cond

TEST_SF = 0.04


@pytest.fixture(scope="session")
def nba_db(spark):
    from repro.data.nba import generate_nba

    db = generate_nba(spark, sf=TEST_SF)
    db.cache_all()
    return db


@pytest.fixture(scope="session")
def mimic_db(spark):
    from repro.data.mimic import generate_mimic

    db = generate_mimic(spark, sf=TEST_SF)
    db.cache_all()
    return db


@pytest.fixture(scope="session")
def nba_pandas(nba_db):
    return nba_db.to_pandas()


@pytest.fixture(scope="session")
def mimic_pandas(mimic_db):
    return mimic_db.to_pandas()


def _toy_frames():
    """Example 1 of the paper, literally: Game + PlayerGameScoring."""
    game = pd.DataFrame(
        [
            # year, month, day, home, away, home_pts, away_pts, winner, season
            (2012, 11, 29, "DEN", "GSW", 102, 106, "DEN", "2012-13"),
            (2012, 12, 5, "DET", "GSW", 97, 104, "GSW", "2012-13"),
            (2015, 10, 27, "GSW", "NOP", 111, 95, "GSW", "2015-16"),
            (2016, 1, 22, "GSW", "IND", 122, 110, "GSW", "2015-16"),
            (2016, 2, 6, "OKC", "GSW", 112, 116, "GSW", "2015-16"),
        ],
        columns=[
            "year", "month", "day", "home", "away", "home_pts", "away_pts",
            "winner", "season",
        ],
    )
    pgs = pd.DataFrame(
        [
            (2012, 11, 29, "DEN", "S. Curry", 19),
            (2012, 12, 5, "DET", "S. Curry", 22),
            (2012, 12, 5, "DET", "K. Thompson", 27),
            (2012, 12, 5, "DET", "D. Green", 2),
            (2015, 10, 27, "GSW", "S. Curry", 40),
            (2016, 1, 22, "GSW", "S. Curry", 39),
            (2016, 1, 22, "GSW", "K. Thompson", 18),
            (2016, 2, 6, "OKC", "S. Curry", 26),
            (2016, 2, 6, "OKC", "D. Green", 14),
        ],
        columns=["year", "month", "day", "home", "player", "pts"],
    )
    return game, pgs


@pytest.fixture(scope="session")
def toy_frames():
    return _toy_frames()


@pytest.fixture(scope="session")
def toy_db(spark):
    game, pgs = _toy_frames()
    db = Database(spark)
    db.add("game", spark.createDataFrame(game), ("year", "month", "day", "home"))
    db.add(
        "player_game_scoring",
        spark.createDataFrame(pgs),
        ("year", "month", "day", "home", "player"),
    )
    db.cache_all()
    return db


@pytest.fixture(scope="session")
def toy_sg():
    sg = SchemaGraph(relations=("game", "player_game_scoring"))
    sg.add_edge(
        "game",
        "player_game_scoring",
        fk_cond(
            ("year", "year"), ("month", "month"), ("day", "day"), ("home", "home")
        ),
    )
    return sg


@pytest.fixture(scope="session")
def toy_query():
    """Q1 from Example 1: GSW wins per season."""
    from repro.substrate.query import AggQuery

    return AggQuery(
        tables=(("game", "g"),),
        filters=(("g.winner", "GSW"),),
        group_by=(("g.season", "season"),),
        agg="count(*)",
        agg_alias="win",
    )


@pytest.fixture(scope="session")
def toy_pt(toy_db, toy_query):
    from repro.substrate.provenance import compute_pt

    return compute_pt(toy_db, toy_query)


@pytest.fixture
def action_counter(spark, monkeypatch):
    """Counts the DataFrame actions (count/collect/toPandas/toArrow) that
    run, in total (``n``) and per method name; an action another one calls
    internally is not counted again."""
    cls = type(spark.range(1))
    names = ("count", "collect", "toPandas", "toArrow")
    state = {"n": 0, "depth": 0, **dict.fromkeys(names, 0)}

    def counting(orig):
        def wrapped(*args, **kwargs):
            state["n"] += state["depth"] == 0
            state[orig.__name__] += state["depth"] == 0
            state["depth"] += 1
            try:
                return orig(*args, **kwargs)
            finally:
                state["depth"] -= 1

        return wrapped

    for name in names:
        monkeypatch.setattr(cls, name, counting(getattr(cls, name)))
    return state


@pytest.fixture
def job_counter(spark):
    """The highest Spark job id the status tracker knows, read after the
    listener bus has delivered every pending event: the jobs some code ran
    are the change in this id (the tracker retains only the latest jobs,
    so their number stops growing while the ids keep rising)."""
    sc = spark.sparkContext
    tracker, bus = sc.statusTracker(), sc._jsc.sc().listenerBus()

    def last_job_id() -> int:
        bus.waitUntilEmpty()
        return max(tracker.getJobIdsForGroup(None) or [-1])

    return last_job_id


@pytest.fixture
def fresh_db(spark):
    """Builds a new Database over another one's cached tables, with
    ``cache_all`` run: it holds their row counts, but no distinct count
    and no provenance table, as a cold ``explain`` finds them."""

    def copy(db: Database) -> Database:
        out = Database(spark)
        for name in db.names():
            out.add(name, db.df(name), db.pk(name))
        out.cache_all()
        return out

    return copy
