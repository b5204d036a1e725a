"""Runtime experiments: Fig 7/7a (feature selection breakdown), Fig 8
(join-graph size × F1 sampling), Fig 9 (scalability in database size)."""
from __future__ import annotations

import time

from pyspark.sql import SparkSession

from repro.core.explain import explain
from repro.core.mine import STEP_NAMES
from repro.experiments.common import (
    BENCH_EDGES,
    BENCH_SF,
    bench_params,
    get_dataset,
    question_for,
)


def _warm_up(spark: SparkSession, dataset: str, sf: float, n_edges: int) -> None:
    """Untimed: the first explain on a dataset also computes PT and the
    catalog statistics isValid reads (5.5 s on NBA), which would be billed
    to the first timed configuration only."""
    _run(spark, dataset, sf, n_edges=n_edges)


def _run(spark: SparkSession, dataset: str, sf: float, **params_over):
    """One timed configuration, run here rather than taken from
    ``run_explain``'s memo, whose entry another table may have timed under
    other conditions. The rows memoised on the PT are dropped first, so
    "Materialize APTs" times the APT joins, as the paper's breakdown does,
    not a reuse of an earlier configuration's rows."""
    db, sg = get_dataset(spark, dataset, sf)
    for pt in db.pts.values():
        pt.prepared = None
    uq = question_for(dataset)
    t0 = time.perf_counter()
    res = explain(db, sg, uq.query, uq.t1, uq.t2, bench_params(**params_over))
    return res, time.perf_counter() - t0


def feature_selection_table(
    spark: SparkSession,
    dataset: str,
    f1_rates: tuple[float, ...] = (0.1, 0.3, 1.0),
    sf: float | None = None,
    n_edges: int = BENCH_EDGES,
) -> tuple[list[dict], dict]:
    """Fig 7a (NBA) / Fig 7 (MIMIC): per-step runtime with feature
    selection at several λ_F1-samp values, and without feature selection.
    """
    sf = sf or BENCH_SF
    _warm_up(spark, dataset, sf, n_edges)
    configs: list[tuple[str, dict]] = [
        (f"fs {r}", dict(f1_samp=r, feature_selection=True)) for r in f1_rates
    ]
    configs.append(("w/o feature sel.", dict(f1_samp=1.0, feature_selection=False)))
    per_step: dict[str, dict[str, float]] = {}
    totals: dict[str, float] = {}
    meta: dict = {"dataset": dataset, "sf": sf, "n_edges": n_edges}
    for label, over in configs:
        res, total = _run(spark, dataset, sf, n_edges=n_edges, **over)
        totals[label] = total
        for step in STEP_NAMES:
            per_step.setdefault(step, {})[label] = res.timer.times.get(step, 0.0)
        meta.setdefault("n_join_graphs", res.n_join_graphs)
        meta.setdefault("n_mined", res.n_mined)
    rows = []
    for step in STEP_NAMES:
        row = {"Step": step}
        for label, _ in configs:
            v = per_step.get(step, {}).get(label, 0.0)
            row[label] = round(v, 2) if v else "N/A"
        rows.append(row)
    rows.append(
        {"Step": "total", **{l: round(totals[l], 2) for l, _ in configs}}
    )
    return rows, meta


def jg_size_table(
    spark: SparkSession,
    dataset: str = "nba",
    edge_counts: tuple[int, ...] = (1, 2),
    f1_rates: tuple[float, ...] = (0.1, 0.3, 1.0),
    sf: float | None = None,
) -> tuple[list[dict], dict]:
    """Fig 8: total runtime varying λ_#edges and λ_F1-samp (table form)."""
    sf = sf or BENCH_SF
    _warm_up(spark, dataset, sf, max(edge_counts))
    rows = []
    for ne in edge_counts:
        row: dict = {"n_edges": ne}
        for r in f1_rates:
            res, total = _run(spark, dataset, sf, n_edges=ne, f1_samp=r)
            row[f"f1_samp={r}"] = round(total, 2)
            row["n_join_graphs"] = res.n_join_graphs
            row["n_mined"] = res.n_mined
        rows.append(row)
    return rows, {"dataset": dataset, "sf": sf}


def scalability_table(
    spark: SparkSession,
    dataset: str,
    sfs: tuple[float, ...] = (0.05, 0.1, 0.2),
    f1_rates: tuple[float, ...] = (0.1, 0.7),
    n_edges: int = BENCH_EDGES,
) -> tuple[list[dict], dict]:
    """Fig 9a/9b (total runtime vs DB size, per sample rate) plus the
    per-step breakdown of Fig 9c/9d for the largest SF."""
    rows = []
    breakdown: dict[str, float] = {}
    for sf in sfs:
        _warm_up(spark, dataset, sf, n_edges)
        row: dict = {"scale_factor": sf}
        for r in f1_rates:
            res, total = _run(spark, dataset, sf, n_edges=n_edges, f1_samp=r)
            row[f"f1_samp={r}"] = round(total, 2)
            if sf == sfs[-1] and r == f1_rates[-1]:
                breakdown = {
                    k: round(v, 2) for k, v in res.timer.times.items()
                }
        rows.append(row)
    return rows, {"dataset": dataset, "breakdown_at_max_sf": breakdown}
