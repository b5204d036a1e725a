"""Checks on the benchmark's own trace arithmetic.

    python3 perfbench/selfcheck.py

1. ``self_times`` on synthetic nested spans, with known answers.
2. A traced ``explain()`` on the paper's Example 1 database (five games,
   nine scoring rows): the root's children plus its self time must add up
   to the wall clock measured outside the wrappers within 3 %, every Spark
   job must fall inside a wrapped action, and the traced call must run as
   many jobs as an untraced one.

Exits 0 when every check holds.
"""
from __future__ import annotations

import sys

from tracer import Span, coverage, self_times


def check_self_times() -> list[str]:
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 4.0, parent=0),
        Span("a.x", 1.5, 2.0, parent=1),
        Span("a.y", 3.0, 5.0, parent=1),   # runs past its parent's end
        Span("b", 6.0, 9.0, parent=0),
        Span("b.x", 6.0, 8.0, parent=4),
        Span("b.y", 7.0, 8.5, parent=4),   # overlaps its sibling
    ]
    want = [4.0, 1.5, 0.5, 2.0, 0.5, 2.0, 1.5]
    got = self_times(spans)
    if any(abs(g - w) > 1e-12 for g, w in zip(got, want)):
        return [f"self_times: got {got}, want {want}"]
    return []


def toy_database(spark):
    from repro.substrate.catalog import Database
    from repro.substrate.query import AggQuery
    from repro.core.schema_graph import SchemaGraph, fk_cond

    game = spark.createDataFrame(
        [
            (2012, 11, 29, "DEN", "GSW", 102, 106, "DEN", "2012-13"),
            (2012, 12, 5, "DET", "GSW", 97, 104, "GSW", "2012-13"),
            (2015, 10, 27, "GSW", "NOP", 111, 95, "GSW", "2015-16"),
            (2016, 1, 22, "GSW", "IND", 122, 110, "GSW", "2015-16"),
            (2016, 2, 6, "OKC", "GSW", 112, 116, "GSW", "2015-16"),
        ],
        "year int, month int, day int, home string, away string, "
        "home_pts int, away_pts int, winner string, season string",
    )
    pgs = spark.createDataFrame(
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
        "year int, month int, day int, home string, player string, pts int",
    )
    db = Database(spark)
    db.add("game", game, ("year", "month", "day", "home"))
    db.add("player_game_scoring", pgs, ("year", "month", "day", "home", "player"))
    db.cache_all()
    sg = SchemaGraph(relations=("game", "player_game_scoring"))
    keys = [(a, a) for a in ("year", "month", "day", "home")]
    sg.add_edge("game", "player_game_scoring", fk_cond(*keys))
    query = AggQuery(
        tables=(("game", "g"),),
        filters=(("g.winner", "GSW"),),
        group_by=(("g.season", "season"),),
        agg="count(*)",
        agg_alias="win",
    )
    return db, sg, query


def check_toy_trace() -> list[str]:
    from types import SimpleNamespace

    import run

    sys.path.insert(0, str(run.SRC))
    from layers import call_metrics
    from repro.core.config import CajadeParams

    run.OUT.mkdir(parents=True, exist_ok=True)
    spark = run.start_spark(run.OUT / "tmp")
    problems = []
    try:
        db, sg, query = toy_database(spark)
        uq = SimpleNamespace(
            query=query, t1={"season": "2015-16"}, t2={"season": "2012-13"}
        )
        params = CajadeParams(n_edges=1, k=3, f1_samp=1.0, q_cost=1e9)
        r = run.Run(spark, [(db, sg)], uq, params)
        for traced in (False, False, True):  # one warm-up, then a pair
            c = r.call(traced)
            if c["error"]:
                return [c["error"]]
        plain, traced = r.calls[1], r.calls[2]
        spans = traced["spans"]
        cover = coverage(spans, traced["wall"])
        if abs(1 - cover) > 0.03:
            problems.append(f"children + self cover {cover:.4f} of the wall")
        m = call_metrics(spans, traced["result"].timer.times, traced["jobs"])
        if m["spark.unattributed_jobs"] != 0:
            problems.append(f"{m['spark.unattributed_jobs']} jobs outside actions")
        if traced["jobs"] != plain["jobs"]:
            problems.append(
                f"traced call ran {traced['jobs']} jobs, untraced {plain['jobs']}"
            )
        print(f"toy explain: wall {traced['wall']:.3f} s, cover {cover:.4f}, "
              f"{m['spark.jobs']} jobs in {m['spark.actions']} actions, "
              f"{m['mine.graphs']} graphs mined")
    finally:
        run.stop_spark(spark)
    return problems


def main() -> int:
    problems = check_self_times() + check_toy_trace()
    for p in problems:
        print("FAIL " + p)
    print("selfcheck " + ("failed" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
