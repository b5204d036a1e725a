"""Sampling experiments (§5.4): Fig 10a (APT stats), Fig 10b–e (LCA sample
rate vs runtime/quality), Fig 10f–g (F-score sample rate vs NDCG/recall)."""
from __future__ import annotations

import time

from pyspark.sql import SparkSession

from repro.core.apt import materialize_apt
from repro.core.join_graph import PT_NODE, JGEdge, JoinGraph, empty_join_graph
from repro.core.lca import lca_candidates
from repro.core.metrics import SupportEvaluator
from repro.core.feature_selection import split_attr_types
from repro.core.schema_graph import fk_cond
from repro.baselines.ranking import ndcg_of_ranking, top_k_recall
from repro.experiments.common import (
    BENCH_SF,
    bench_params,
    driver_evaluator,
    get_dataset,
    question_for,
    run_explain,
)
from repro.substrate.provenance import compute_pt
from repro.workload import Q_MIMIC4, Q_NBA1, UQ_MIMIC4, UQ_NBA1


def _nba_omega2() -> JoinGraph:
    """Ω2 of Fig 10a: PT – player_salary – player."""
    return JoinGraph(
        nodes=((PT_NODE, None), (1, "player_salary"), (2, "player")),
        edges=(
            JGEdge(PT_NODE, 1, fk_cond(("player_id", "player_id")), "player", "player_salary"),
            JGEdge(PT_NODE, 1, fk_cond(("season_id", "season_id")), "season", "player_salary"),
            JGEdge(1, 2, fk_cond(("player_id", "player_id")), "player_salary", "player"),
        ),
    )


def _mimic_omega4() -> JoinGraph:
    """Ω4 of Fig 10a: PT – patients_admit_info – patients."""
    return JoinGraph(
        nodes=((PT_NODE, None), (1, "patients_admit_info"), (2, "patients")),
        edges=(
            JGEdge(PT_NODE, 1, fk_cond(("hadm_id", "hadm_id")), "admissions", "patients_admit_info"),
            JGEdge(1, 2, fk_cond(("subject_id", "subject_id")), "patients_admit_info", "patients"),
        ),
    )


def _four_graphs(spark: SparkSession, sf: float | None = None):
    """(label, structure, db, jg, pt, uq) for Ω1..Ω4 as in Fig 10a."""
    nba_db, _ = get_dataset(spark, "nba", sf) if sf else get_dataset(spark, "nba")
    mimic_db, _ = get_dataset(spark, "mimic", sf) if sf else get_dataset(spark, "mimic")
    pt_nba = compute_pt(nba_db, Q_NBA1)
    pt_mimic = compute_pt(mimic_db, Q_MIMIC4)
    return [
        ("Ω1", "PT", nba_db, empty_join_graph(), pt_nba, UQ_NBA1),
        ("Ω2", "PT - player_salary - player", nba_db, _nba_omega2(), pt_nba, UQ_NBA1),
        ("Ω3", "PT", mimic_db, empty_join_graph(), pt_mimic, UQ_MIMIC4),
        ("Ω4", "PT - patients_admit_info - patients", mimic_db, _mimic_omega4(), pt_mimic, UQ_MIMIC4),
    ]


def apt_stats_table(spark: SparkSession) -> tuple[list[dict], dict]:
    """Fig 10a: #rows and #pattern attributes of the four APTs (all of
    PT(Q, D), not only the question's two sides that mining reads)."""
    rows = []
    for label, structure, db, jg, pt, _uq in _four_graphs(spark):
        apt = materialize_apt(db, pt, jg)
        rows.append(
            {
                "join graph": label,
                "join graph structure": structure,
                "APT (#rows)": apt.df.count(),
                "# attributes": len(apt.pattern_cols),
            }
        )
    return rows, {}


def _lca_top10(apt, ev: SupportEvaluator, rate: float, seed: int = 0):
    """LCA candidates at a sample rate, ranked by recall; returns the
    top-10 descriptions and the candidate-generation runtime."""
    df = apt.df
    if rate < 1.0:
        df = df.sample(fraction=rate, seed=seed)
    pdf = df.limit(2000).toPandas()
    _num, cat = split_attr_types(pdf[list(apt.pattern_cols)])
    t0 = time.perf_counter()
    cands = lca_candidates(pdf, cat, max_patterns=100)
    gen_s = time.perf_counter() - t0
    sups = ev.supports(cands)
    ranked = sorted(
        zip(cands, sups),
        key=lambda cs: -max(cs[1].recall(1), cs[1].recall(2)),
    )
    return [c.describe() for c, _ in ranked[:10]], gen_s, len(pdf)


def lca_sampling_table(
    spark: SparkSession,
    rates: tuple[float, ...] = (0.05, 0.1, 0.2, 0.5),
) -> tuple[list[dict], dict]:
    """Fig 10b–e: per-APT LCA sample rate vs runtime and top-10 match
    against the no-sampling ground truth."""
    rows = []
    for label, structure, db, jg, pt, uq in _four_graphs(spark):
        apt = materialize_apt(db, pt, jg)
        apt.df = apt.df.cache()
        ev = driver_evaluator(db, pt, jg, uq)
        truth, _, _ = _lca_top10(apt, ev, 1.0)
        for rate in rates:
            top, gen_s, n_rows = _lca_top10(apt, ev, rate)
            rows.append(
                {
                    "join graph": label,
                    "sample rate": rate,
                    "sample rows": n_rows,
                    "gen time (s)": round(gen_s, 3),
                    "match@10": len(set(top) & set(truth)),
                }
            )
        apt.df.unpersist()
    return rows, {}


def f1_sampling_table(
    spark: SparkSession,
    configs: tuple[tuple[str, int], ...] = (("nba", 1), ("nba", 2), ("mimic", 2)),
    rates: tuple[float, ...] = (0.1, 0.5),
) -> tuple[list[dict], dict]:
    """Fig 10f–g: NDCG and top-10 recall of the pattern ranking under
    F-score sampling, against the no-sampling ranking as ground truth."""
    rows = []
    for dataset, n_edges in configs:
        uq = question_for(dataset)
        truth, _ = run_explain(
            spark, dataset, BENCH_SF,
            bench_params(n_edges=n_edges, f1_samp=1.0, k=10), uq,
        )
        truth_list = [e.describe() for e in truth.explanations[:10]]
        relevance = {
            e.describe(): e.fscore for e in truth.explanations
        }
        for rate in rates:
            got, _ = run_explain(
                spark, dataset, BENCH_SF,
                bench_params(n_edges=n_edges, f1_samp=rate, k=10), uq,
            )
            got_list = [e.describe() for e in got.explanations[:10]]
            rows.append(
                {
                    "dataset": dataset,
                    "n_edges": n_edges,
                    "f1_samp": rate,
                    "NDCG": round(ndcg_of_ranking(got_list, relevance), 3),
                    "recall@10": round(
                        top_k_recall(got_list, truth_list, 10), 3
                    ),
                }
            )
    return rows, {}
