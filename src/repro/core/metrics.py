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

``collect_question`` splits PT into a question's two sides and collects,
with one Arrow action, PT's rows on them and each join graph's APT
projection built on those rows. On a question's first call that action
also materialises PT's cache (``compute_pt`` runs none). Its Spark plan
is built from SQL text in a few coarse DataFrame operations (one
projection per union branch, a balanced tree of unions by name). The
collected rows, split per join graph, are memoised on the
``ProvenanceTable``, so a repeated question, at any λ_F1-samp, runs no
Spark job. Spark binds the question: every collected row carries the side
and λ_F1-samp draw of its PT tuple, which the sided PT gave it before the
APT joins. ``collect_question`` counts the side sizes on PT's rows, and
``SupportEvaluator`` scores the projections.
``compute_support`` scores patterns with batched Spark aggregations,
without collecting the APT. No pipeline or experiment calls it: it is the
reference for reported supports that the tests, the benchmark's output
check and its tracer use.

``brute_force_support`` is a pandas reference implementation used by tests
to validate both scorers.
"""
from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
from pyspark.sql import DataFrame

from repro.substrate.catalog import Database
from repro.substrate.provenance import PT_ID, ProvenanceTable
from repro.substrate.query import quote, sql_literal
from repro.core.apt import APT, materialize_apt
from repro.core.join_graph import JoinGraph
from repro.core.pattern import Pattern, Predicate

_BATCH = 200  # patterns per Spark job; keeps codegen size bounded
SIDE = "__side"      # 1: provenance of t1, 2: of t2 (see side_sql)
F1_FLAG = "__f1"     # the PT tuple is in the λ_F1-samp sample
ROW_HASH = "__hash"  # content hash of an APT projection row
GRAPH = "__g"        # union branch of a collected row (collect_question)
BUCKET = "__bucket"  # a PT tuple's λ_F1-samp draw (see _bucket)


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


def side_sql(
    group_cols: tuple[str, ...],
    t1: dict[str, object],
    t2: dict[str, object] | None,
) -> str:
    """The side of the question a PT or APT row is on, as one SQL CASE: 1
    for t1's provenance, 2 for t2's (for a single-point question, every
    other PT tuple), NULL for neither. Group-by values compare null-safely
    (``<=>``), so a NULL group value is an answer tuple of its own, as in
    GROUP BY, and a question value is cast to its column's type by Spark's
    comparison. :func:`pandas_side` is the same rule over pandas frames, for
    question values typed like their columns."""

    def cond(t: dict[str, object]) -> str:
        return " AND ".join(
            f"{quote(k)} <=> {sql_literal(t[k])}" for k in group_cols
        ) or "true"

    c1 = cond(t1)
    c2 = f"NOT ({c1})" if t2 is None else cond(t2)
    return f"CASE WHEN {c1} THEN 1 WHEN {c2} THEN 2 END"


def pandas_side(
    pdf: pd.DataFrame,
    group_cols: tuple[str, ...],
    t1: dict[str, object],
    t2: dict[str, object] | None,
) -> np.ndarray:
    """:func:`side_sql` over a pandas frame, with 0 for neither side, for
    question values typed like their columns (no implicit cast). The
    reference :func:`brute_force_support` splits sides with it."""

    def cond(t: dict[str, object]) -> np.ndarray:
        m = np.ones(len(pdf), dtype=bool)
        for k in group_cols:
            col = pdf[k]
            m &= (col.isna() if pd.isna(t[k]) else col == t[k]).to_numpy(bool)
        return m

    c1 = cond(t1)
    c2 = ~c1 if t2 is None else cond(t2) & ~c1
    return np.where(c1, 1, np.where(c2, 2, 0))


def _bucket(seed: int) -> str:
    """A PT tuple's λ_F1-samp draw in [0, 10^4), as SQL: a hash of its
    ``__pt_id``, so every batch, join graph and path draws the same
    sample."""
    return f"pmod(xxhash64({quote(PT_ID)}, {int(seed)}), 10000)"


def _f1_threshold(rate: float | None) -> int | None:
    """Tuples whose draw is below this are in the λ_F1-samp sample; None
    when every tuple counts."""
    if rate is None or rate >= 1.0:
        return None
    return int(rate * 10000)


def _f1_flag(rate: float | None, seed: int) -> str:
    """λ_F1-samp membership of a PT tuple, as SQL (see :func:`_bucket`)."""
    threshold = _f1_threshold(rate)
    return "true" if threshold is None else f"{_bucket(seed)} < {threshold}"


def _with_side(
    df: DataFrame,
    group_cols: tuple[str, ...],
    t1: dict[str, object],
    t2: dict[str, object] | None,
    *extra: str,
) -> DataFrame:
    """``df``'s rows on the question's sides: one projection that adds
    ``__side`` (and the SQL items ``extra``) to every column, then one
    filter."""
    return df.selectExpr(
        "*", f"{side_sql(group_cols, t1, t2)} AS {quote(SIDE)}", *extra
    ).filter(f"{quote(SIDE)} IS NOT NULL")


def pt_sizes(
    pt: ProvenanceTable,
    t1: dict[str, object],
    t2: dict[str, object] | None,
    f1_samp: float | None = None,
    seed: int = 0,
) -> tuple[int, int]:
    """(|PT(Q,D,t1)|, |PT(Q,D,t2)|) under the F-score sample. For
    single-point questions (t2 is None) the second side is PT \\ PT(t1)."""
    row = (
        _with_side(pt.df, pt.group_cols, t1, t2)
        .filter(_f1_flag(f1_samp, seed))
        .selectExpr(*[
            f"count(CASE WHEN {quote(SIDE)} = {s} THEN 1 END)" for s in (1, 2)
        ])
        .collect()[0]
    )
    return int(row[0]), int(row[1])


@dataclass(frozen=True)
class QuestionSides:
    """A user question bound to ``PT(Q, D)`` (``source``): ``n1``/``n2``
    are the side sizes under the λ_F1-samp sample (a1, a2 of Def. 7), and
    ``f1_samp`` is the rate in effect: None when every tuple counts.
    ``collected`` maps each join graph collected with the question to its
    APT (built on PT's rows on the two sides) and the bound projection of
    that APT over its pattern columns, as a pandas frame equal to
    :func:`apt_projection` of the APT built on :attr:`pt`."""

    source: ProvenanceTable
    t1: dict[str, object]
    t2: dict[str, object] | None
    seed: int
    n1: int
    n2: int
    f1_samp: float | None
    collected: dict[JoinGraph, tuple[APT, pd.DataFrame]] = field(
        default_factory=dict
    )

    @cached_property
    def pt(self) -> ProvenanceTable:
        """PT restricted to the question's two sides, each row tagged with
        its side (``__side``) and λ_F1-samp membership (``__f1``). Mining
        does not read it; it is built when first read."""
        flag = _f1_flag(self.f1_samp, self.seed)
        sided = _with_side(
            self.source.df, self.source.group_cols, self.t1, self.t2,
            f"{flag} AS {quote(F1_FLAG)}",
        )
        return replace(self.source, df=sided, known_rows=self.n1 + self.n2)


def _prepared(
    db: Database | None,
    pt: ProvenanceTable,
    graphs: tuple[JoinGraph, ...],
    t1: dict[str, object],
    t2: dict[str, object] | None,
    seed: int,
) -> tuple[DataFrame, list[APT]]:
    """The collect plan of a question over ``graphs``: a union by name of
    PT's rows on the question's sides (``__pt_id``, ``__side`` and the
    λ_F1-samp draw ``__bucket``; ``__g`` = -1) and each graph's APT, built
    on those rows, projected on the same three columns, its pattern columns
    and ``__hash`` (``__g`` = the graph's index).

    The sided PT is one projection plus a filter (:func:`_with_side`), and
    each union branch one projection of its own columns. The branches are
    combined by a balanced tree of ``unionByName`` calls, which pad a column
    a branch lacks with a NULL of its type: a left-deep chain would make
    each call analyse the whole union so far."""
    sided = _with_side(
        pt.df, pt.group_cols, t1, t2, f"{_bucket(seed)} AS {quote(BUCKET)}"
    )
    base = replace(pt, df=sided, known_rows=None)
    apts = [materialize_apt(db, base, jg) for jg in graphs]
    tuple_cols = [quote(c) for c in (PT_ID, SIDE, BUCKET)]
    branches = [sided.selectExpr(*tuple_cols, f"-1 AS {quote(GRAPH)}")] + [
        apt.df.selectExpr(
            *tuple_cols,
            *[quote(c) for c in apt.pattern_cols],
            f"{_row_hash(apt.pattern_cols, seed)} AS {quote(ROW_HASH)}",
            f"{i} AS {quote(GRAPH)}",
        )
        for i, apt in enumerate(apts)
    ]
    while len(branches) > 1:
        pairs = zip(branches[::2], branches[1::2])
        branches = [
            a.unionByName(b, allowMissingColumns=True) for a, b in pairs
        ] + branches[len(branches) & ~1:]
    return branches[0], apts


@dataclass(frozen=True, eq=False)
class CollectedRows:
    """What one collect of a question's plan (:func:`_prepared`) returned,
    without the union's NULL padding: PT's rows on the two sides as their
    ``__side`` and ``__bucket`` arrays, and per join graph its APT and its
    rows (``__pt_id``, ``__side``, ``__bucket``, pattern columns,
    ``__hash``) as an Arrow table. Nothing in it depends on λ_F1-samp."""

    side: np.ndarray
    bucket: np.ndarray
    apts: tuple[APT, ...]
    parts: tuple[pa.Table, ...]

    @classmethod
    def split(cls, table: pa.Table, apts: Sequence[APT]) -> "CollectedRows":
        """Split the union's Arrow table per ``__g``, keeping each branch's
        rows in their collected order and only its own columns."""
        tag = table.column(GRAPH).to_numpy()
        order = np.argsort(tag, kind="stable")
        bounds = np.searchsorted(tag[order], np.arange(-1, len(apts) + 1))

        def rows(i: int, cols: list[str]) -> pa.Table:
            return table.select(cols).take(order[bounds[i + 1] : bounds[i + 2]])

        lead = rows(-1, [SIDE, BUCKET])
        return cls(
            side=lead.column(SIDE).to_numpy(),
            bucket=lead.column(BUCKET).to_numpy(),
            apts=tuple(apts),
            parts=tuple(
                rows(i, [PT_ID, SIDE, BUCKET, *apt.pattern_cols, ROW_HASH])
                for i, apt in enumerate(apts)
            ),
        )

    @property
    def nbytes(self) -> int:
        """Bytes held: the two arrays and every part's Arrow buffers."""
        return (
            self.side.nbytes + self.bucket.nbytes
            + sum(p.nbytes for p in self.parts)
        )


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
    every join graph in ``graphs`` (over ``db``), with at most one Spark
    action. With no graphs, it gives the side sizes only.

    The action is one Arrow collect of the question's plan
    (:func:`_prepared`). Its rows are split per ``__g``
    (:class:`CollectedRows`) and memoised on ``pt``, keyed by (graphs, seed,
    question), so a repeated question runs no Spark job, whatever its
    λ_F1-samp. PT's rows give the side sizes, and every row carries its PT
    tuple's side and λ_F1-samp draw, so each graph's ``__f1`` flag is
    computed before any pandas conversion. A column missing from a branch
    is NULL on that branch's rows, so a pandas frame of the whole union
    would turn every such integer column into float64, ``__hash`` included.

    Raises ``ValueError`` when a side has no provenance. When the F-score
    sample misses a side entirely, every tuple counts instead."""
    graphs = tuple(graphs)
    key = (graphs, seed, repr(t1), repr(t2))
    if pt.prepared is None or pt.prepared[0] != key:
        union, apts = _prepared(db, pt, graphs, t1, t2, seed)
        pt.prepared = (key, CollectedRows.split(union.toArrow(), apts))
    rows = pt.prepared[1]
    side = rows.side
    n1, n2 = int(np.count_nonzero(side == 1)), int(np.count_nonzero(side == 2))
    if n1 == 0:
        raise ValueError(f"question tuple t1={t1} has no provenance in PT(Q, D)")
    if n2 == 0:
        raise ValueError(
            f"question tuple t2={t2} has no provenance in PT(Q, D)"
            if t2 is not None
            else f"every provenance tuple belongs to t1={t1}: "
            "PT(Q, D) \\ PT(Q, D, t1) is empty"
        )
    threshold = _f1_threshold(f1_samp)
    if threshold is not None:
        flag = rows.bucket < threshold
        s1 = int(np.count_nonzero((side == 1) & flag))
        s2 = int(np.count_nonzero((side == 2) & flag))
        if s1 == 0 or s2 == 0:
            threshold = None
        else:
            n1, n2 = s1, s2
    collected = {}
    for jg, apt, part in zip(graphs, rows.apts, rows.parts):
        flag = (
            pc.less(part.column(BUCKET), threshold) if threshold is not None
            else pa.array(np.ones(len(part), dtype=bool))
        )
        part = part.select([PT_ID, SIDE, *apt.pattern_cols, ROW_HASH])
        part = part.add_column(2, F1_FLAG, flag)
        # The options DataFrame.toPandas passes, so a frame equals the
        # graph's own apt_projection(...).toPandas().
        collected[jg] = (
            apt,
            part.to_pandas(date_as_object=True, coerce_temporal_nanoseconds=True),
        )
    return QuestionSides(
        source=pt,
        t1=t1,
        t2=t2,
        seed=seed,
        n1=n1,
        n2=n2,
        f1_samp=f1_samp if threshold is not None else None,
        collected=collected,
    )


def _row_hash(cols: Sequence[str], seed: int) -> str:
    """Content hash of an APT projection row, as SQL, so an order by it
    does not depend on how the APT is partitioned."""
    return f"xxhash64({', '.join(quote(c) for c in (PT_ID, *cols))}, {int(seed)})"


def apt_projection(apt: APT, cols: Iterable[str], seed: int = 0) -> DataFrame:
    """What mining reads of an APT built on :attr:`QuestionSides.pt`:
    (``__pt_id``, ``__side``, ``__f1``, ``cols``, ``__hash``).
    ``collect_question`` returns the same rows from its one collect."""
    cols = list(cols)
    return apt.df.selectExpr(
        *[quote(c) for c in (PT_ID, SIDE, F1_FLAG, *cols)],
        f"{_row_hash(cols, seed)} AS {quote(ROW_HASH)}",
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

    # A dict ``agg`` names its columns ``max(__m0)`` …, in no fixed order,
    # so its results are read by name.
    out: list[Support] = []
    for lo in range(0, len(patterns), _BATCH):
        chunk = patterns[lo : lo + _BATCH]
        stage1 = (
            df.selectExpr(quote(PT_ID), quote(SIDE), *[
                f"CASE WHEN {p.to_sql()} THEN 1 ELSE 0 END AS __m{i}"
                for i, p in enumerate(chunk)
            ])
            .groupBy(PT_ID, SIDE)
            .agg({f"__m{i}": "max" for i in range(len(chunk))})
        )
        rows = (
            stage1.groupBy(SIDE)
            .agg({f"max(__m{i})": "sum" for i in range(len(chunk))})
            .collect()
        )
        cov = {int(r[SIDE]): r for r in rows}
        for i in range(len(chunk)):
            c1v = int(cov[1][f"sum(max(__m{i}))"]) if 1 in cov else 0
            c2v = int(cov[2][f"sum(max(__m{i}))"]) if 2 in cov else 0
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

    Each distinct predicate is compared against the frame once: its row
    mask is cached, and a pattern's mask is the AND of its predicates'
    masks. A PT tuple is covered when one of its rows matches, so a side's
    coverage is the number of that side's ``__pt_id`` codes that occur
    among the matching rows.
    """

    def __init__(self, pdf: pd.DataFrame, n1: int, n2: int) -> None:
        self.n1, self.n2 = n1, n2
        self.pdf = pdf = pdf[pdf[F1_FLAG].to_numpy(bool)]
        codes, uniques = pd.factorize(pdf[PT_ID])
        self._codes = codes
        self._n_ptids = len(uniques)
        # The side of each PT tuple (every row of a tuple has its side).
        pt_side = np.zeros(self._n_ptids, dtype=np.int8)
        pt_side[codes] = pdf[SIDE].to_numpy(dtype=np.int8)
        self._pt_side1 = pt_side == 1
        self._pt_side2 = pt_side == 2
        self._masks: dict[Predicate, np.ndarray] = {}

    @property
    def n_rows(self) -> int:
        return len(self.pdf)

    def _mask(self, pred: Predicate) -> np.ndarray:
        mask = self._masks.get(pred)
        if mask is None:
            mask = self._masks[pred] = pred.pandas_mask(self.pdf)
        return mask

    def support(self, pattern: Pattern) -> Support:
        codes = self._codes
        if pattern.preds:
            mask = self._mask(pattern.preds[0])
            for pred in pattern.preds[1:]:
                mask = mask & self._mask(pred)
            codes = codes[mask]
        hit = np.bincount(codes, minlength=self._n_ptids) > 0
        return Support(
            cov1=int(np.count_nonzero(hit & self._pt_side1)),
            n1=self.n1,
            cov2=int(np.count_nonzero(hit & self._pt_side2)),
            n2=self.n2,
        )

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
