"""Query-workload experiments: Fig 12 (varying queries), Tables 4/6 (case
studies), Tables 7/8/9 (user-study explanation metrics).

The ten workload queries double as the ten case-study questions, so one
``explain`` run per question feeds both the runtime table and the
explanation tables; results are memoised per session.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import SparkSession

from repro.baselines.ranking import kendall_tau_distance, ndcg
from repro.core.explain import ExplainResult, dedupe_explanations
from repro.core.pattern import Pattern, Predicate
from repro.experiments.common import (
    BENCH_SF,
    bench_params,
    driver_evaluator,
    get_dataset,
    run_explain,
)
from repro.substrate.provenance import compute_pt
from repro.workload import MIMIC_QUESTIONS, NBA_QUESTIONS, UQ_1


def _run_query(spark: SparkSession, name: str) -> tuple[ExplainResult, float]:
    """Explain workload question ``name`` at λ_F1-samp = 0.3."""
    dataset = "nba" if name.startswith("Q_nba") else "mimic"
    uq = {**NBA_QUESTIONS, **MIMIC_QUESTIONS}[name]
    return run_explain(spark, dataset, BENCH_SF, bench_params(f1_samp=0.3), uq)


def varying_queries_table(spark: SparkSession) -> tuple[list[dict], dict]:
    """Fig 12: runtime (and #join graphs) for the 10 workload queries,
    λ_F1-samp = 0.3."""
    rows = []
    for name in list(NBA_QUESTIONS) + list(MIMIC_QUESTIONS):
        res, total = _run_query(spark, name)
        rows.append(
            {
                "query": name,
                "runtime (s)": round(total, 2),
                "# join graphs": res.n_join_graphs,
                "# mined": res.n_mined,
            }
        )
    return rows, {}


def case_study_table(
    spark: SparkSession, dataset: str, top: int = 3
) -> tuple[list[dict], dict]:
    """Tables 4 (NBA) / 6 (MIMIC): top-3 deduplicated explanations per
    user question."""
    questions = NBA_QUESTIONS if dataset == "nba" else MIMIC_QUESTIONS
    rows = []
    for name, uq in questions.items():
        res, _ = _run_query(spark, name)
        for e in dedupe_explanations(res.explanations, top):
            rows.append(
                {
                    "Query": name,
                    "User question": uq.description,
                    "Top explanations": e.describe(),
                    "F-score": round(e.fscore, 2),
                    "join graph": e.jg.structure(),
                }
            )
    return rows, {}


def _user_study_explanations() -> list[tuple[str, str, Pattern, int]]:
    """The ten fixed explanations of Table 7 (Expl1..Expl10), expressed as
    patterns over Q1's provenance (Expl1–5) and over CaJaDE join-graph
    APTs (Expl6–10). Team/player ids: GSW = T00. Numeric constants follow
    the paper's text; primary tuple 1 = 2015-16 unless noted."""
    P = Predicate
    return [
        ("Expl1", "prov", Pattern((P("prov_game_away_id", "=", "T00"),
                                   P("prov_game_away_points", ">=", 105))), 1),
        ("Expl2", "prov", Pattern((P("prov_season_season_type", "=", "regular season"),)), 1),
        ("Expl3", "prov", Pattern((P("prov_game_away_id", "=", "T00"),
                                   P("prov_game_away_points", ">=", 99),
                                   P("prov_game_away_possessions", ">=", 102))), 1),
        ("Expl4", "prov", Pattern((P("prov_game_home_id", "=", "T00"),
                                   P("prov_game_home_points", ">=", 105))), 1),
        ("Expl5", "prov", Pattern((P("prov_game_home_points", "<=", 105),
                                   P("prov_game_home_possessions", "<=", 100))), 1),
        ("Expl6", "cajade", Pattern((P("player_player_name", "=", "Stephen Curry"),
                                     P("player_game_stats_minutes", "<=", 38),
                                     P("player_game_stats_usage", ">=", 25))), 1),
        ("Expl7", "cajade", Pattern((P("player_player_name", "=", "Draymond Green"),
                                     P("player_game_stats_minutes", ">=", 15))), 1),
        ("Expl8", "cajade", Pattern((P("player_player_name", "=", "Jarrett Jack"),)), 2),
        ("Expl9", "cajade", Pattern((P("team_game_stats_assists", ">=", 24),)), 1),
        ("Expl10", "cajade", Pattern((P("player_game_stats_tspct", "<=", 0.4),)), 1),
    ]


# Average user ratings from Table 8 (not reproducible without humans;
# copied for reference and used to sanity-check the ranking machinery).
PAPER_RATINGS = {
    "Expl1": 3.150, "Expl2": 1.450, "Expl3": 3.950, "Expl4": 3.600,
    "Expl5": 2.750, "Expl6": 3.600, "Expl7": 3.800, "Expl8": 2.350,
    "Expl9": 3.950, "Expl10": 2.300,
}


def user_study_tables(spark: SparkSession, seed: int = 0) -> tuple[list[dict], dict]:
    """Table 8's machine rows (F-score/recall/precision per fixed Table-7
    explanation) for UQ_1, plus Table 9's ranking-quality machinery
    computed against *simulated* ratings (DESIGN.md substitution #6)."""
    from repro.core.join_graph import PT_NODE, JGEdge, JoinGraph, empty_join_graph
    from repro.core.schema_graph import fk_cond
    from repro.experiments.baselines_exp import _pgs_player_jg

    db, _sg = get_dataset(spark, "nba")
    pt = compute_pt(db, UQ_1.query)
    # Expl1–5 evaluate over the provenance itself; Expl6–10 over the
    # PT–player_game_stats–player and PT–team_game_stats APTs.
    tgs_jg = JoinGraph(
        nodes=((PT_NODE, None), (1, "team_game_stats")),
        edges=(
            JGEdge(PT_NODE, 1,
                   fk_cond(("game_date", "game_date"), ("home_id", "home_id")),
                   "game", "team_game_stats"),
            JGEdge(PT_NODE, 1, fk_cond(("team_id", "team_id")),
                   "team", "team_game_stats"),
        ),
    )
    ev_prov, ev_pgs, ev_tgs = (
        driver_evaluator(db, pt, jg, UQ_1)
        for jg in (empty_join_graph(), _pgs_player_jg(), tgs_jg)
    )

    rows = []
    fscores, recalls, precs = {}, {}, {}
    for name, _kind, pattern, primary in _user_study_explanations():
        ev = ev_prov
        if any(p.attr.startswith("player_") for p in pattern.preds):
            ev = ev_pgs
        elif any(p.attr.startswith("team_game_stats") for p in pattern.preds):
            ev = ev_tgs
        sup = ev.support(pattern)
        prec, rec, f1 = sup.metrics(primary)
        fscores[name], recalls[name], precs[name] = f1, rec, prec
        rows.append(
            {
                "Explanation": name,
                "pattern": pattern.describe(),
                "paper rating": PAPER_RATINGS[name],
                "F-score": round(f1, 2),
                "recall": round(rec, 2),
                "precision": round(prec, 2),
            }
        )

    # Table 9 machinery against simulated ratings: a noisy monotone
    # transform of our F-scores stands in for the human panel.
    rng = np.random.default_rng(seed)
    names = list(fscores)
    sim_ratings = {
        n: 1 + 4 * fscores[n] + rng.normal(0, 0.35) for n in names
    }
    cajade = [
        name for name, kind, _p, _pr in _user_study_explanations()
        if kind == "cajade"
    ]
    meta = {}
    for metric, vals in (
        ("F-score", fscores), ("recall", recalls), ("precision", precs)
    ):
        order = sorted(cajade, key=lambda n: -vals[n])
        rated = [sim_ratings[n] for n in order]
        meta[f"kendall_tau_{metric}"] = kendall_tau_distance(
            [vals[n] for n in cajade], [sim_ratings[n] for n in cajade]
        )
        meta[f"ndcg_{metric}"] = round(ndcg(rated), 3)
    return rows, meta
