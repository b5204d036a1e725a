"""End-to-end CaJaDE (§4): enumerate join graphs, mine each, rank globally.

``explain`` is the system entry point for a user question: it builds the
provenance table (memoised per Database, cached, no Spark action),
enumerates join graphs up to λ_#edges (Algorithm 2), filters them with
``isValid`` (PK-connectivity + estimated APT cost, with |PT| bounded from
held row counts and counted only for a graph the bounds leave undecided),
collects every surviving graph's APT projection over the question's two
sides in one Spark action (raising ``ValueError`` when a question tuple
has no provenance), runs MineAPT per graph, and returns the union of
per-graph top-k patterns ranked by F-score (the paper's global ranking,
§2.5/§4). A question's first call on a fresh Database whose bounds decide
every graph (MIMIC Q4) runs one Spark action in all: that collect, which
also materialises PT's cache. The collected rows are memoised on PT, so
the question asked again, at any λ_F1-samp, k, λ_pat-samp or feature
selection, runs no Spark job.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from repro.substrate.catalog import Database
from repro.substrate.provenance import ProvenanceTable, compute_pt
from repro.substrate.query import AggQuery
from repro.core.config import CajadeParams
from repro.core.join_graph import (
    JoinGraph,
    enumerate_join_graphs,
    is_valid,
)
from repro.core.metrics import collect_question
from repro.core.mine import Explanation, MineResult, StepTimer, mine_apt
from repro.core.schema_graph import SchemaGraph


@dataclass
class ExplainResult:
    """Ranked explanations + per-join-graph results and aggregate timings."""

    explanations: list[Explanation]
    pt: ProvenanceTable
    join_graphs: list[JoinGraph]         # all enumerated
    mined: dict[int, MineResult] = field(default_factory=dict)  # idx → result
    timer: StepTimer = field(default_factory=StepTimer)

    @property
    def n_join_graphs(self) -> int:
        return len(self.join_graphs)

    @property
    def n_mined(self) -> int:
        return len(self.mined)


def explain(
    db: Database,
    sg: SchemaGraph,
    query: AggQuery,
    t1: dict[str, object],
    t2: dict[str, object] | None,
    params: CajadeParams | None = None,
) -> ExplainResult:
    params = params or CajadeParams()
    timer = StepTimer()
    pt = compute_pt(db, query)

    with timer.step("JG Enum."):
        jgs = enumerate_join_graphs(sg, query, params.n_edges)
        valid = [
            (i, jg)
            for i, jg in enumerate(jgs)
            if is_valid(jg, db, pt, params.q_cost)
        ]
    with timer.step("Materialize APTs"):
        sides = collect_question(
            db, pt, [jg for _, jg in valid], t1, t2, params.f1_samp, params.seed
        )

    mined: dict[int, MineResult] = {}
    all_expl: list[Explanation] = []
    for i, jg in valid:
        res = mine_apt(jg, params, sides)
        mined[i] = res
        all_expl.extend(res.explanations)
        timer.merge(res.timer)

    all_expl.sort(key=lambda e: -e.fscore)
    return ExplainResult(
        explanations=all_expl,
        pt=pt,
        join_graphs=jgs,
        mined=mined,
        timer=timer,
    )


def dedupe_explanations(
    expls: list[Explanation], top: int | None = None
) -> list[Explanation]:
    """Case-study presentation rule (§6): the same pattern often recurs for
    several join graphs (same attributes, different join path) — keep the
    highest-scoring occurrence of each pattern description."""
    seen: set[str] = set()
    out: list[Explanation] = []
    for e in expls:
        key = e.describe()
        if key in seen:
            continue
        seen.add(key)
        out.append(e)
        if top is not None and len(out) >= top:
            break
    return out
