"""Baseline comparisons: Fig 11 + Table 10 (Explanation Tables), Fig 13
(CAPE)."""
from __future__ import annotations

import time

from pyspark.sql import SparkSession

from repro.baselines.cape import counterbalances
from repro.baselines.explanation_tables import discretize, explanation_table
from repro.core.apt import materialize_apt
from repro.core.feature_selection import filter_attrs, split_attr_types
from repro.core.join_graph import PT_NODE, JGEdge, JoinGraph
from repro.core.lca import lca_candidates
from repro.core.schema_graph import fk_cond
from repro.experiments.common import driver_evaluator, get_dataset
from repro.substrate.provenance import compute_pt
from repro.workload import Q_NBA3, Q_NBA4, UQ_1


def _pgs_player_jg() -> JoinGraph:
    """The §5.5 comparison join graph: PT – player_game_stats – player."""
    return JoinGraph(
        nodes=((PT_NODE, None), (1, "player_game_stats"), (2, "player")),
        edges=(
            JGEdge(
                PT_NODE, 1,
                fk_cond(("game_date", "game_date"), ("home_id", "home_id")),
                "game", "player_game_stats",
            ),
            JGEdge(1, 2, fk_cond(("player_id", "player_id")),
                   "player_game_stats", "player"),
        ),
    )


def et_comparison_table(
    spark: SparkSession,
    sample_sizes: tuple[int, ...] = (16, 32, 64, 128, 256, 512),
) -> tuple[list[dict], dict]:
    """Fig 11: CaJaDE vs ET runtime on one APT, varying the sample size.

    As in the paper, feature selection is applied for both systems, and ET
    gets numeric attributes discretised up front (§A.1). The CaJaDE side
    measures its sample-driven mining path (LCA + recall ranking) on the
    same APT; the ET side measures the greedy information-gain summary.
    """
    db, _sg = get_dataset(spark, "nba")
    pt = compute_pt(db, Q_NBA4)
    jg = _pgs_player_jg()
    apt = materialize_apt(db, pt, jg)
    apt.df = apt.df.cache()
    n_rows = apt.df.count()
    pdf = apt.df.toPandas()

    import numpy as np

    t1, t2 = UQ_1.t1, UQ_1.t2
    label = (pdf["season_name"] == t1["season_name"]).to_numpy(dtype=int)
    usable = [c for c in apt.pattern_cols]
    fr = filter_attrs(pdf[usable], label, n_sel_attr=10)
    attrs = fr.num_attrs + fr.cat_attrs
    outcome = "__outcome"
    et_pdf = discretize(pdf[attrs].copy(), fr.num_attrs)
    et_pdf[outcome] = label

    ev = driver_evaluator(db, pt, jg, UQ_1)
    rows = []
    et_patterns_last: list[str] = []
    for n in sample_sizes:
        # --- CaJaDE mining on an n-row sample -------------------------
        t0 = time.perf_counter()
        samp = pdf.sample(n=min(n, len(pdf)), random_state=0)
        _num, cat = split_attr_types(samp[attrs])
        cands = lca_candidates(samp, cat, max_patterns=100)
        sups = ev.supports(cands)
        _ranked = sorted(
            zip(cands, sups),
            key=lambda cs: -max(cs[1].fscore(1), cs[1].fscore(2)),
        )
        cajade_s = time.perf_counter() - t0
        # --- ET on the same sample size -------------------------------
        res = explanation_table(
            et_pdf, outcome, attrs, k=20, sample_size=n, seed=0
        )
        et_patterns_last = [p.describe() for p in res.patterns]
        rows.append(
            {
                "sample size": n,
                "CaJaDE (s)": round(cajade_s, 3),
                "ET (s)": round(res.runtime_s, 3),
                "ET candidates": res.n_candidates,
            }
        )
    apt.df.unpersist()
    return rows, {
        "apt_rows": n_rows,
        "n_attrs_after_fs": len(attrs),
        "et_top_patterns": et_patterns_last[:20],
    }


def cape_table(spark: SparkSession) -> tuple[list[dict], dict]:
    """Fig 13: CAPE's top-3 explanations for UQ_cape1 and UQ_cape2."""
    db, _sg = get_dataset(spark, "nba")
    rows = []
    # UQ_cape1: why was GSW's number of wins high in 2015-16?
    wins = Q_NBA4.result(db).toPandas()
    for rank, e in enumerate(
        counterbalances(wins, "season_name", "win", "2015-16", "high", k=3),
        start=1,
    ):
        rows.append(
            {
                "Rank": rank,
                "Query": "UQ_cape1",
                "explanation": f"(GSW,{e.group['season_name']},{e.value:g})",
            }
        )
    # UQ_cape2: why was LeBron James's average points low in 2010-11?
    pts = Q_NBA3.result(db).toPandas()
    for rank, e in enumerate(
        counterbalances(pts, "season_name", "avg_pts", "2010-11", "low", k=3),
        start=1,
    ):
        rows.append(
            {
                "Rank": rank,
                "Query": "UQ_cape2",
                "explanation": (
                    f"(LeBron James,{e.group['season_name']},{e.value:.1f})"
                ),
            }
        )
    return rows, {}
