"""Shared plumbing for the evaluation harnesses (§5/§6).

Each experiment function returns ``(rows, meta)`` where ``rows`` is a list
of dicts (one per printed table row). ``format_table`` renders the rows the
way the paper's tables read; the benchmarks print, assert and save them.

Benchmark scale: the paper runs at λ_db-size=1.0 (~17 MB NBA) with
λ_#edges=3 on PostgreSQL; on this container we default to sf=0.1 and
λ_#edges=2 so the whole suite stays in minutes. Both knobs are exposed.
"""
from __future__ import annotations

import dataclasses
import os
import time

from pyspark.sql import SparkSession

from repro.substrate.catalog import Database
from repro.substrate.provenance import ProvenanceTable
from repro.core.config import CajadeParams
from repro.core.join_graph import JoinGraph
from repro.core.metrics import SupportEvaluator, collect_question
from repro.core.schema_graph import SchemaGraph
from repro.workload import UQ_1, UQ_MIMIC4, UserQuestion

BENCH_SF = float(os.environ.get("REPRO_BENCH_SF", "0.1"))
BENCH_EDGES = int(os.environ.get("REPRO_BENCH_EDGES", "2"))
BENCH_QCOST = float(os.environ.get("REPRO_BENCH_QCOST", "5e5"))

_DB_CACHE: dict[tuple[str, float], tuple[Database, SchemaGraph]] = {}


def get_dataset(
    spark: SparkSession, name: str, sf: float = BENCH_SF
) -> tuple[Database, SchemaGraph]:
    """NBA or MIMIC database + schema graph, cached per (name, sf)."""
    key = (name, sf)
    if key not in _DB_CACHE:
        if name == "nba":
            from repro.data.nba import generate_nba, nba_schema_graph

            db, sg = generate_nba(spark, sf=sf), nba_schema_graph()
        elif name == "mimic":
            from repro.data.mimic import generate_mimic, mimic_schema_graph

            db, sg = generate_mimic(spark, sf=sf), mimic_schema_graph()
        else:
            raise ValueError(f"unknown dataset {name!r}")
        db.cache_all()
        _DB_CACHE[key] = (db, sg)
    return _DB_CACHE[key]


def driver_evaluator(
    db: Database, pt: ProvenanceTable, jg: JoinGraph, uq: UserQuestion
) -> SupportEvaluator:
    """Exact supports for ``uq`` over APT(Ω), evaluated on the driver after
    one collect of the APT's projection (as ``explain`` collects it for
    ``mine_apt``)."""
    sides = collect_question(db, pt, [jg], uq.t1, uq.t2)
    _, pdf = sides.collected[jg]
    return SupportEvaluator(pdf, sides.n1, sides.n2)


def question_for(dataset: str) -> UserQuestion:
    """The question each runtime experiment uses (§5.1/§5.2): the running
    example UQ_1 for NBA, Q_mimic4's question for MIMIC."""
    return UQ_1 if dataset == "nba" else UQ_MIMIC4


def bench_params(**over) -> CajadeParams:
    base = dict(n_edges=BENCH_EDGES, q_cost=BENCH_QCOST, k=5)
    base.update(over)
    return CajadeParams(**base)


_EXPLAIN_CACHE: dict = {}


def run_explain(
    spark: SparkSession,
    dataset: str,
    sf: float,
    params: CajadeParams,
    uq: UserQuestion,
):
    """Memoised end-to-end explain run: several experiments share
    configurations (e.g. the λ_F1-samp=1.0 ground truth), so identical
    (dataset, sf, question, params) runs execute once per session."""
    from repro.core.explain import explain

    # repr: a UserQuestion holds dicts, so it is not hashable.
    key = (dataset, sf, repr(uq), dataclasses.astuple(params))
    if key not in _EXPLAIN_CACHE:
        db, sg = get_dataset(spark, dataset, sf)
        t0 = time.perf_counter()
        res = explain(db, sg, uq.query, uq.t1, uq.t2, params)
        _EXPLAIN_CACHE[key] = (res, time.perf_counter() - t0)
    return _EXPLAIN_CACHE[key]


def format_table(rows: list[dict], title: str = "") -> str:
    """Markdown-ish fixed-width rendering of result rows."""
    if not rows:
        return f"== {title} ==\n(no rows)\n"
    cols = list(dict.fromkeys(k for r in rows for k in r))
    widths = {
        c: max(len(str(c)), *(len(str(r.get(c, ""))) for r in rows))
        for c in cols
    }
    lines = []
    if title:
        lines.append(f"== {title} ==")
    lines.append(" | ".join(str(c).ljust(widths[c]) for c in cols))
    lines.append("-+-".join("-" * widths[c] for c in cols))
    for r in rows:
        lines.append(
            " | ".join(str(r.get(c, "")).ljust(widths[c]) for c in cols)
        )
    return "\n".join(lines) + "\n"


def save_table(rows: list[dict], name: str, title: str = "") -> str:
    """Persist a rendered table under results/ and return the text."""
    text = format_table(rows, title)
    os.makedirs("results", exist_ok=True)
    with open(os.path.join("results", f"{name}.txt"), "w") as f:
        f.write(text)
    return text
