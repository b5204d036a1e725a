"""MineAPT (Algorithm 1): top-k pattern mining for one join graph.

Phases, each timed under the step names the paper's runtime-breakdown
tables use (Fig. 7/7a/9c/9d):

  Materialize APTs   — build the APT for Ω on the question's sided PT. Its
                       projection (``__pt_id``, side, F-score-sample flag,
                       pattern columns, content hash) comes from
                       ``collect_question``: one Arrow collect for the
                       question and every join graph ``explain`` mines.
  Feature Selection  — draw the mining sample, cluster + RF-filter attrs.
  Gen. Pat. Cand.    — LCA candidates over categorical attributes.
  Sampling for F1    — keep the collected rows of the deterministic PT-tuple
                       sample (the per-side sizes come from the same
                       collect).
  F-score Calc.      — vectorised evaluation of pattern supports.
  Refine Patterns    — numeric-predicate refinement rounds (Prop. 3.1
                       recall pruning; refinement evaluation cost is billed
                       here).

Every mined graph is scored on the driver. isValid's λ_qCost bounds the
estimated APT size of every graph that reaches MineAPT, so that bound is
also the bound on the rows a graph collects. The mining sample is the rows
whose content hash falls in a λ_pat-samp share, in hash order, capped at
``pat_samp_cap``: a function of the APT's content, not of its partitioning.

Returns the diversity-ranked top-k explanations for both orientations of
the user question plus the per-step timings and APT stats.
"""
from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass

import pandas as pd

from repro.substrate.catalog import Database
from repro.substrate.provenance import PT_ID, ProvenanceTable
from repro.core.config import CajadeParams
from repro.core.feature_selection import filter_attrs
from repro.core.join_graph import JoinGraph
from repro.core.lca import lca_candidates
from repro.core.metrics import (
    F1_FLAG,
    ROW_HASH,
    SIDE,
    QuestionSides,
    Support,
    SupportEvaluator,
    collect_question,
)
from repro.core.pattern import Pattern
from repro.core.refine import numeric_fragments, refinements
from repro.core.topk import diverse_topk

# Unused here: kept so that perfbench/tracer.py, which wraps both names in
# this module, still finds them.
from repro.core.apt import materialize_apt  # noqa: F401
from repro.core.metrics import compute_support  # noqa: F401

STEP_NAMES = (
    "Feature Selection",
    "Gen. Pat. Cand.",
    "F-score Calc.",
    "Materialize APTs",
    "Refine Patterns",
    "Sampling for F1",
    "JG Enum.",
)

_BEAM = 60  # refinements carried to the next round (tractability cap)


class StepTimer:
    """Accumulates wall-clock seconds per named pipeline step."""

    def __init__(self) -> None:
        self.times: dict[str, float] = {}

    @contextmanager
    def step(self, name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.times[name] = self.times.get(name, 0.0) + (
                time.perf_counter() - t0
            )

    def merge(self, other: "StepTimer") -> None:
        for k, v in other.times.items():
            self.times[k] = self.times.get(k, 0.0) + v

    @property
    def total(self) -> float:
        return sum(self.times.values())


@dataclass(frozen=True)
class Explanation:
    """(Ω, Φ, (v1, a1), (v2, a2)) with the chosen primary tuple (Def. 6)."""

    jg: JoinGraph
    pattern: Pattern
    primary: int  # 1 → t1 is primary, 2 → t2
    support: Support

    @property
    def fscore(self) -> float:
        return self.support.fscore(self.primary)

    @property
    def precision(self) -> float:
        return self.support.precision(self.primary)

    @property
    def recall(self) -> float:
        return self.support.recall(self.primary)

    def describe(self) -> str:
        return f"{self.pattern.describe()} [t{self.primary}]"


@dataclass
class MineResult:
    explanations: list[Explanation]
    timer: StepTimer
    apt_rows: int = 0
    n_pattern_attrs: int = 0
    n_candidates: int = 0


def _sample_threshold(rate: float) -> int:
    """Rows whose ``pmod(__hash, 10^4)`` is below this form the mining
    sample: a λ_pat-samp share, oversampled 1.3× so that the cap rather
    than the rate binds when rate · |APT| is near it."""
    return int(min(1.0, rate * 1.3) * 10000)


def _mining_sample(proj: pd.DataFrame, rate: float, cap: int) -> pd.DataFrame:
    """The LCA / random-forest sample of a collected APT projection: the
    rate-selected rows in hash order, at most ``cap`` of them."""
    ordered = proj.sort_values([ROW_HASH, PT_ID], kind="stable")
    sample = ordered[ordered[ROW_HASH] % 10000 < _sample_threshold(rate)]
    if len(sample) < 20:
        # Tiny APT: the rate sample is too small to mine from — fall back
        # to the first ``cap`` rows (still bounded).
        sample = ordered
    return sample.head(cap).reset_index(drop=True)


def mine_apt(
    db: Database,
    pt: ProvenanceTable,
    jg: JoinGraph,
    t1: dict[str, object],
    t2: dict[str, object] | None,
    params: CajadeParams,
    sides: QuestionSides | None = None,
) -> MineResult:
    """MineAPT for ``jg``. ``sides`` is :func:`collect_question` of ``pt``
    over graphs including ``jg``; ``explain`` collects it once for all join
    graphs."""
    timer = StepTimer()
    if sides is None:
        with timer.step("Materialize APTs"):
            sides = collect_question(
                db, pt, [jg], t1, t2, params.f1_samp, params.seed
            )
    apt, proj = sides.collected[jg]
    apt_rows = len(proj)
    if apt_rows == 0:
        return MineResult([], timer, apt_rows=0)

    # With feature selection disabled ("Naive", §5.1) the mining sample is
    # still needed for LCA, so its cost is billed to candidate generation
    # and the breakdown tables report Feature Selection as N/A.
    fs_step = (
        "Feature Selection" if params.feature_selection else "Gen. Pat. Cand."
    )
    with timer.step(fs_step):
        sample_pdf = _mining_sample(proj, params.pat_samp, params.pat_samp_cap)
        label = (sample_pdf[SIDE] == 1).to_numpy(dtype=int)
        sample_pdf = sample_pdf.drop(columns=[SIDE, F1_FLAG, ROW_HASH])
        usable = list(apt.pattern_cols)
        exclude = tuple(
            c for c in sample_pdf.columns if c not in usable
        )
        fr = filter_attrs(
            sample_pdf,
            label,
            params.n_sel_attr,
            exclude=exclude,
            enabled=params.feature_selection,
            seed=params.seed,
        )

    with timer.step("Gen. Pat. Cand."):
        cands = lca_candidates(sample_pdf, fr.cat_attrs, max_patterns=200)

    with timer.step("Sampling for F1"):
        evaluator = SupportEvaluator(proj, sides.n1, sides.n2)

    with timer.step("F-score Calc."):
        supports = evaluator.supports(cands)
    scored: dict[Pattern, Support] = dict(zip(cands, supports))
    keep = [
        p
        for p in cands
        if max(scored[p].recall(1), scored[p].recall(2))
        >= params.recall_threshold
    ]
    keep.sort(
        key=lambda p: -max(scored[p].recall(1), scored[p].recall(2))
    )
    frontier = keep[: params.k_cat]
    if not frontier and cands:
        # Even the best categorical pattern missed λ_recall — refine the
        # top-frequency candidates anyway (plus the empty pattern) so purely
        # numeric explanations can still emerge.
        frontier = cands[: params.k_cat]
    frontier = frontier + [Pattern()]

    with timer.step("Refine Patterns"):
        frags = numeric_fragments(sample_pdf, fr.num_attrs, params.n_frag)
        done: set[Pattern] = set(scored)
        level = frontier
        for _ in range(params.attr_num):
            todo: list[Pattern] = []
            for p in level:
                for r in refinements(p, frags, params.attr_num):
                    if r not in done:
                        done.add(r)
                        todo.append(r)
            if not todo:
                break
            sups = evaluator.supports(todo)
            for p, s in zip(todo, sups):
                scored[p] = s
            # Prop. 3.1: refinements of low-recall patterns stay low-recall.
            survivors = [
                p
                for p in todo
                if max(scored[p].recall(1), scored[p].recall(2))
                >= params.recall_threshold
            ]
            survivors.sort(
                key=lambda p: -max(scored[p].fscore(1), scored[p].fscore(2))
            )
            level = survivors[:_BEAM]

    candidates: list[Explanation] = []
    for p, s in scored.items():
        if p.size == 0:
            continue
        for primary in (1, 2):
            if s.recall(primary) >= params.recall_threshold:
                candidates.append(Explanation(jg, p, primary, s))
    top = diverse_topk(
        candidates,
        params.k,
        pattern_of=lambda e: e.pattern,
        fscore_of=lambda e: e.fscore,
    )
    return MineResult(
        top,
        timer,
        apt_rows=apt_rows,
        n_pattern_attrs=len(apt.pattern_cols),
        n_candidates=len(scored),
    )
