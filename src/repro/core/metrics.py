"""Pattern quality metrics (Def. 7): TP/FP/FN, precision, recall, F-score.

Coverage counts *distinct provenance tuples* — a PT tuple is covered when at
least one of its APT rows matches the pattern — so the Spark evaluation is a
two-stage aggregation: per-(``__pt_id``, side) ``max(match_i)`` then a
per-side ``sum``. All patterns of a batch are evaluated in **one** Spark job
(one boolean column per pattern), which is the optimization that makes
"F-score Calc." tractable (§5.1's dominant step).

F-score sampling (λ_F1-samp) samples *PT tuples* (not APT rows) with a
deterministic hash so numerator and denominator stay consistent, and so that
the same sample is drawn across batches.

``collect_question`` binds a question to PT once per ``explain()``: it tags
each PT row with its side and F-score-sample flag and drops the rows on
neither side. One Arrow collect then returns the side sizes and the
projection (``apt_projection``) of every APT built on that sided PT; the
projections are scored on the driver by ``SupportEvaluator``.
``compute_support`` scores patterns with batched Spark aggregations,
without collecting the APT. The tests and the benchmark's output check use
it as the reference for reported supports, and the user-study table
(``experiments/cases.py``) scores its fixed explanations with it.

``brute_force_support`` is a pandas reference implementation used by tests
to validate both scorers.
"""
from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field, replace
from functools import reduce

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
from pyspark.sql import Column, DataFrame
from pyspark.sql import functions as F

from repro.substrate.catalog import Database
from repro.substrate.provenance import PT_ID, ProvenanceTable
from repro.core.apt import APT, materialize_apt
from repro.core.join_graph import JoinGraph
from repro.core.pattern import Pattern

_BATCH = 200  # patterns per Spark job; keeps codegen size bounded
SIDE = "__side"      # 1: provenance of t1, 2: of t2 (see side_col)
F1_FLAG = "__f1"     # the PT tuple is in the λ_F1-samp sample
ROW_HASH = "__hash"  # content hash of an APT projection row
GRAPH = "__g"        # union branch of a collected row (collect_question)
SIZES = ("__n1", "__n2", "__s1", "__s2")  # exact and sampled side sizes


@dataclass(frozen=True)
class Support:
    """Relative support (v1, a1), (v2, a2) of a pattern for (t1, t2)."""

    cov1: int  # v1 — covered PT tuples of t1
    n1: int    # a1 — |PT(Q, D, t1)|
    cov2: int  # v2
    n2: int    # a2

    def __post_init__(self) -> None:
        # Coverage counts a subset of each side's provenance — a violation
        # means the APT's __pt_id values desynced from PT's (e.g. an
        # unstable tuple-id under recomputation), which silently corrupts
        # every metric. Fail loudly instead.
        if self.cov1 > self.n1 or self.cov2 > self.n2:
            raise ValueError(
                f"coverage exceeds provenance size: {self} — "
                "PT tuple ids are inconsistent between PT and APT"
            )

    def metrics(self, primary: int) -> tuple[float, float, float]:
        """(precision, recall, fscore) treating t1 (primary=1) or t2
        (primary=2) as the primary tuple of Def. 7."""
        tp, fp, n = (
            (self.cov1, self.cov2, self.n1)
            if primary == 1
            else (self.cov2, self.cov1, self.n2)
        )
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / n if n else 0.0
        f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
        return prec, rec, f1

    def precision(self, primary: int = 1) -> float:
        return self.metrics(primary)[0]

    def recall(self, primary: int = 1) -> float:
        return self.metrics(primary)[1]

    def fscore(self, primary: int = 1) -> float:
        return self.metrics(primary)[2]


def _group_cond(group_cols: tuple[str, ...], t: dict[str, object]) -> Column:
    cond = F.lit(True)
    for k in group_cols:
        cond = cond & F.col(k).eqNullSafe(F.lit(t[k]))
    return cond


def side_col(
    group_cols: tuple[str, ...],
    t1: dict[str, object],
    t2: dict[str, object] | None,
) -> Column:
    """The side of the question a PT or APT row is on: 1 for t1's
    provenance, 2 for t2's (for a single-point question, every other PT
    tuple), NULL for neither. Group-by values compare null-safely, so a NULL
    group value is an answer tuple of its own, as in GROUP BY.
    :func:`pandas_side` is the same rule over pandas frames."""
    c1 = _group_cond(group_cols, t1)
    c2 = ~c1 if t2 is None else _group_cond(group_cols, t2)
    return F.when(c1, 1).when(c2, 2)


def pandas_side(
    pdf: pd.DataFrame,
    group_cols: tuple[str, ...],
    t1: dict[str, object],
    t2: dict[str, object] | None,
) -> np.ndarray:
    """:func:`side_col` over a pandas frame, with 0 for neither side."""

    def cond(t: dict[str, object]) -> np.ndarray:
        m = np.ones(len(pdf), dtype=bool)
        for k in group_cols:
            col = pdf[k]
            m &= (col.isna() if pd.isna(t[k]) else col == t[k]).to_numpy(bool)
        return m

    c1 = cond(t1)
    c2 = ~c1 if t2 is None else cond(t2) & ~c1
    return np.where(c1, 1, np.where(c2, 2, 0))


def _f1_flag(rate: float | None, seed: int) -> Column:
    """λ_F1-samp membership of a PT tuple: a hash of its ``__pt_id``, so
    every batch, join graph and path draws the same sample."""
    if rate is None or rate >= 1.0:
        return F.lit(True)
    return F.pmod(F.xxhash64(F.col(PT_ID), F.lit(seed)), F.lit(10000)) < int(
        rate * 10000
    )


def _with_side(
    df: DataFrame,
    group_cols: tuple[str, ...],
    t1: dict[str, object],
    t2: dict[str, object] | None,
) -> DataFrame:
    return df.withColumn(SIDE, side_col(group_cols, t1, t2)).filter(
        F.col(SIDE).isNotNull()
    )


def _size_cols(flag: Column) -> list[Column]:
    """Aggregates of a sided frame: n1, n2, sampled n1, sampled n2."""
    side = F.col(SIDE)
    return [
        F.count(F.when(side == 1, 1)).alias(SIZES[0]),
        F.count(F.when(side == 2, 1)).alias(SIZES[1]),
        F.count(F.when((side == 1) & flag, 1)).alias(SIZES[2]),
        F.count(F.when((side == 2) & flag, 1)).alias(SIZES[3]),
    ]


def pt_sizes(
    pt: ProvenanceTable,
    t1: dict[str, object],
    t2: dict[str, object] | None,
    f1_samp: float | None = None,
    seed: int = 0,
) -> tuple[int, int]:
    """(|PT(Q,D,t1)|, |PT(Q,D,t2)|) under the F-score sample. For
    single-point questions (t2 is None) the second side is PT \\ PT(t1)."""
    sided = _with_side(pt.df, pt.group_cols, t1, t2)
    row = sided.agg(*_size_cols(_f1_flag(f1_samp, seed))).collect()[0]
    return int(row[SIZES[2]]), int(row[SIZES[3]])


@dataclass(frozen=True)
class QuestionSides:
    """A user question bound to ``PT(Q, D)``: ``pt`` holds only the PT rows
    on the question's two sides, tagged with their side (``__side``) and
    their λ_F1-samp membership (``__f1``); ``n1``/``n2`` are the side sizes
    under that sample (a1, a2 of Def. 7). ``f1_samp`` is the rate in
    effect: None when every tuple counts. ``collected`` maps each join graph
    collected with the question to its APT (built on ``pt``) and that APT's
    :func:`apt_projection` over its pattern columns, as a pandas frame."""

    pt: ProvenanceTable
    n1: int
    n2: int
    f1_samp: float | None
    collected: dict[JoinGraph, tuple[APT, pd.DataFrame]] = field(
        default_factory=dict
    )


def question_sides(
    pt: ProvenanceTable,
    t1: dict[str, object],
    t2: dict[str, object] | None,
    f1_samp: float | None = None,
    seed: int = 0,
) -> QuestionSides:
    """:func:`collect_question` without join graphs: the side sizes only."""
    return collect_question(None, pt, (), t1, t2, f1_samp, seed)


def collect_question(
    db: Database | None,
    pt: ProvenanceTable,
    graphs: Sequence[JoinGraph],
    t1: dict[str, object],
    t2: dict[str, object] | None,
    f1_samp: float | None = None,
    seed: int = 0,
) -> QuestionSides:
    """Split PT into the question's sides and collect the APT projection of
    every join graph in ``graphs`` (over ``db``), with one Spark action.

    The action is one Arrow collect of a union by name: a one-row branch
    with the exact and the sampled side sizes, and one branch per graph,
    each tagged with its index in ``__g``. A column missing from a branch
    is NULL on that branch's rows, so the table is split per ``__g`` in
    Arrow before any pandas conversion: a pandas frame of the union would
    turn every such integer column into float64, ``__hash`` included.

    Raises ``ValueError`` when a side has no provenance. When the F-score
    sample misses a side entirely, every tuple counts instead."""
    sided = _with_side(pt.df, pt.group_cols, t1, t2)
    flag = _f1_flag(f1_samp, seed)
    sided_pt = replace(pt, df=sided.withColumn(F1_FLAG, flag))
    apts = [materialize_apt(db, sided_pt, jg) for jg in graphs]
    branches = [sided.agg(*_size_cols(flag))] + [
        apt_projection(apt, apt.pattern_cols, seed) for apt in apts
    ]
    union = reduce(
        lambda a, b: a.unionByName(b, allowMissingColumns=True),
        (b.withColumn(GRAPH, F.lit(i - 1)) for i, b in enumerate(branches)),
    )
    table = union.toArrow()
    tag = table.column(GRAPH)

    def branch(i: int) -> pa.Table:
        return table.filter(pc.equal(tag, i))

    sizes = branch(-1)
    n1, n2, s1, s2 = (sizes.column(c)[0].as_py() for c in SIZES)
    if n1 == 0:
        raise ValueError(f"question tuple t1={t1} has no provenance in PT(Q, D)")
    if n2 == 0:
        raise ValueError(
            f"question tuple t2={t2} has no provenance in PT(Q, D)"
            if t2 is not None
            else f"every provenance tuple belongs to t1={t1}: "
            "PT(Q, D) \\ PT(Q, D, t1) is empty"
        )
    sampled = f1_samp is not None and f1_samp < 1.0
    fallback = sampled and (s1 == 0 or s2 == 0)
    if fallback:
        sampled, flag = False, F.lit(True)
        sided_pt = replace(sided_pt, df=sided.withColumn(F1_FLAG, flag))
        apts = [replace(apt, df=apt.df.withColumn(F1_FLAG, flag)) for apt in apts]
    elif sampled:
        n1, n2 = s1, s2
    collected = {}
    for i, (jg, apt) in enumerate(zip(graphs, apts)):
        cols = [PT_ID, SIDE, F1_FLAG, *apt.pattern_cols, ROW_HASH]
        # The options DataFrame.toPandas passes, so a frame equals the
        # graph's own apt_projection(...).toPandas().
        pdf = branch(i).select(cols).to_pandas(
            date_as_object=True, coerce_temporal_nanoseconds=True
        )
        if fallback:
            pdf[F1_FLAG] = True
        collected[jg] = (apt, pdf)
    return QuestionSides(
        pt=replace(sided_pt, n_rows=n1 + n2),
        n1=n1,
        n2=n2,
        f1_samp=f1_samp if sampled else None,
        collected=collected,
    )


def apt_projection(apt: APT, cols: Iterable[str], seed: int = 0) -> DataFrame:
    """What mining reads of an APT built on :attr:`QuestionSides.pt`:
    (``__pt_id``, ``__side``, ``__f1``, ``cols``, ``__hash``). ``__hash`` is
    a content hash of the row, so an order by it does not depend on how the
    APT is partitioned."""
    cols = list(cols)
    return apt.df.select(
        PT_ID,
        SIDE,
        F1_FLAG,
        *cols,
        F.xxhash64(PT_ID, *cols, F.lit(seed)).alias(ROW_HASH),
    )


def compute_support(
    apt: APT,
    pt: ProvenanceTable,
    patterns: list[Pattern],
    t1: dict[str, object],
    t2: dict[str, object] | None,
    f1_samp: float | None = None,
    seed: int = 0,
) -> list[Support]:
    """Evaluate the supports of many patterns in few Spark jobs."""
    if not patterns:
        return []
    n1, n2 = pt_sizes(pt, t1, t2, f1_samp, seed)
    df = _with_side(apt.df, apt.group_cols, t1, t2).filter(
        _f1_flag(f1_samp, seed)
    )

    out: list[Support] = []
    for lo in range(0, len(patterns), _BATCH):
        chunk = patterns[lo : lo + _BATCH]
        cols = [
            F.when(p.to_column(), 1).otherwise(0).alias(f"__m{i}")
            for i, p in enumerate(chunk)
        ]
        stage1 = (
            df.select(PT_ID, SIDE, *cols)
            .groupBy(PT_ID, SIDE)
            .agg(*[F.max(f"__m{i}").alias(f"__c{i}") for i in range(len(chunk))])
        )
        rows = (
            stage1.groupBy(SIDE)
            .agg(*[F.sum(f"__c{i}").alias(f"__c{i}") for i in range(len(chunk))])
            .collect()
        )
        cov = {int(r[SIDE]): r for r in rows}
        for i in range(len(chunk)):
            c1v = int(cov[1][f"__c{i}"]) if 1 in cov else 0
            c2v = int(cov[2][f"__c{i}"]) if 2 in cov else 0
            out.append(Support(cov1=c1v, n1=n1, cov2=c2v, n2=n2))
    return out


class SupportEvaluator:
    """Vectorised support evaluation over a collected APT projection.

    ``pdf`` is an :func:`apt_projection` collected to the driver; only its
    rows in the F-score sample (``__f1``) are kept, and every pattern
    evaluation is a numpy pass over them. ``n1``/``n2`` are the sampled side
    sizes (:class:`QuestionSides`). This mirrors the paper's design —
    λ_F1-samp exists precisely to make F-score calculation operate on a
    bounded sample — while the data-heavy steps (PT, APT joins) stay in
    Spark. MineAPT scores every pattern with it; isValid's λ_qCost bounds
    the size of every APT it is built from.
    """

    def __init__(self, pdf: pd.DataFrame, n1: int, n2: int) -> None:
        self.n1, self.n2 = n1, n2
        self.pdf = pdf = pdf[pdf[F1_FLAG].to_numpy(bool)]
        codes, uniques = pd.factorize(pdf[PT_ID])
        self._codes = codes
        self._n_ptids = len(uniques)
        self._side1 = (pdf[SIDE] == 1).to_numpy()
        self._side2 = (pdf[SIDE] == 2).to_numpy()

    @property
    def n_rows(self) -> int:
        return len(self.pdf)

    def support(self, pattern: Pattern) -> Support:
        mask = pattern.pandas_mask(self.pdf)
        cov = np.zeros(self._n_ptids, dtype=bool)
        cov[self._codes[mask & self._side1]] = True
        cov1 = int(cov.sum())
        cov[:] = False
        cov[self._codes[mask & self._side2]] = True
        cov2 = int(cov.sum())
        return Support(cov1=cov1, n1=self.n1, cov2=cov2, n2=self.n2)

    def supports(self, patterns: list[Pattern]) -> list[Support]:
        return [self.support(p) for p in patterns]


def brute_force_support(
    apt_pdf: pd.DataFrame,
    pt_pdf: pd.DataFrame,
    group_cols: tuple[str, ...],
    pattern: Pattern,
    t1: dict[str, object],
    t2: dict[str, object] | None,
) -> Support:
    """Reference implementation of Def. 7 over pandas frames (tests only)."""
    side_pt = pandas_side(pt_pdf, group_cols, t1, t2)
    side_apt = pandas_side(apt_pdf, group_cols, t1, t2)
    covered_ids = set(apt_pdf.loc[pattern.pandas_mask(apt_pdf), PT_ID])
    cov1 = len(set(apt_pdf.loc[side_apt == 1, PT_ID]) & covered_ids)
    cov2 = len(set(apt_pdf.loc[side_apt == 2, PT_ID]) & covered_ids)
    return Support(
        cov1=cov1,
        n1=int((side_pt == 1).sum()),
        cov2=cov2,
        n2=int((side_pt == 2).sum()),
    )
