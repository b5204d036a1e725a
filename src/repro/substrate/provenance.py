"""Why-provenance for single-block aggregate queries (Perm/GProM substitute).

The paper obtains ``PT(Q, D)`` from the GProM middleware [5]; for the
single-block SPJA queries CaJaDE supports (Def. 1), Perm-style
why-provenance has a closed form: the selection+join result over
``rels_Q(D)`` with *all* base attributes retained, where the provenance of
an output tuple ``t`` is the subset of rows whose group-by values equal
``t``'s. We build exactly that as a Spark DataFrame.

Conventions (matching the paper's appendix output):
  * every base attribute is exported as ``prov_<rel>_<attr>`` (alias-based
    when the query self-joins a relation);
  * the group-by attributes are *also* exported under their output names so
    provenance rows can be linked to answer tuples;
  * a synthetic ``__pt_id`` column identifies each provenance tuple — the
    coverage metrics of Def. 7 count *distinct provenance tuples*, so the
    APT (which fans each PT row out across joined context rows) must be able
    to group back to PT tuples.

PT is cached but not computed here: the first Spark action over it
materialises it, and |PT| (``ProvenanceTable.n_rows``) is counted only
when it is read, as isValid reads a statistic (``join_graph.is_valid``).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

from pyspark.sql import DataFrame

from repro.substrate.catalog import Database
from repro.substrate.query import AggQuery, quote, split_ref

PT_ID = "__pt_id"
PROV_PREFIX = "prov_"


def prov_col(rel_or_alias: str, attr: str) -> str:
    return f"{PROV_PREFIX}{rel_or_alias}_{attr}"


@dataclass
class ProvenanceTable:
    """``PT(Q, D)`` plus the bookkeeping needed to slice it per answer.

    |PT| is a statistic read on demand, like ``Database.n_rows``:
    ``known_rows`` is the count once held (else None, no Spark job), and
    ``n_rows`` counts PT the first time it is read and holds the count.

    ``prepared`` memoises the rows of the last collect
    ``metrics.collect_question`` ran over this PT (a
    ``metrics.CollectedRows``), keyed by (join graphs, seed, question); no
    Spark plan is held. It lives and dies with this object: a recomputed
    PT, or one dropped by ``Database.add``, starts with none. Setting it to
    None makes the next collect build and run its APT joins again."""

    query: AggQuery
    df: DataFrame               # prov_* columns + group output columns + __pt_id
    group_cols: tuple[str, ...]  # group-by output names
    prov_cols: tuple[str, ...]   # the prov_* columns
    group_prov_cols: tuple[str, ...]  # prov_* twins of group-by attrs
    known_rows: int | None = field(default=None, compare=False)
    prepared: tuple | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def n_rows(self) -> int:
        """|PT|; the first read runs one Spark action (``count``)."""
        if self.known_rows is None:
            self.known_rows = self.df.count()
        return self.known_rows


def _prov_prefixes(query: AggQuery) -> dict[str, str]:
    """alias → name used in the prov_ prefix (relation name when unique,
    else the alias, mirroring the paper's disambiguation rule)."""
    rel_counts: dict[str, int] = {}
    for rel, _ in query.tables:
        rel_counts[rel] = rel_counts.get(rel, 0) + 1
    return {
        alias: (rel if rel_counts[rel] == 1 else alias)
        for rel, alias in query.tables
    }


def compute_pt(db: Database, query: AggQuery) -> ProvenanceTable:
    """Build ``PT(Q, D)`` (Def. 1), cached, with frozen tuple identifiers.

    No Spark action runs: the first action over PT (in ``explain``, the
    question's collect) materialises its cache, and |PT| is counted only
    when ``n_rows`` is read. PT is one projection of the query's filtered
    join: each ``alias.attr`` as its prov_* column (every identifier
    backtick-quoted), the group-by output columns, and ``__pt_id``. The
    filter is the query's own WHERE text for Spark (``AggQuery.where_sql``).

    PT is built from ``db``'s DataFrames, not from temp views: replacing a
    view (``AggQuery.result`` on another Database with the same table
    names) would drop the cache of every plan that reads it. The result is
    memoised on ``db`` per query while its cache is held in memory, so a
    repeated call builds nothing."""
    memo = db.pts.get(query)
    if memo is not None and memo.df.storageLevel.useMemory:
        return memo
    prefixes = _prov_prefixes(query)
    exprs: list[str] = []
    outs: list[str] = []
    for rel, alias in query.tables:
        for attr in db.attrs(rel):
            exprs.append(f"{quote(alias)}.{quote(attr)}")
            outs.append(prov_col(prefixes[alias], attr))
    prov_cols = tuple(outs)
    # prov_* twins of group-by attributes exactly determine the answer
    # tuples, so patterns must not use them (§2.4 forbids group-by attrs).
    group_prov: list[str] = []
    for ref, out in query.group_by:
        alias, attr = split_ref(ref)
        exprs.append(f"{quote(alias)}.{quote(attr)}")
        outs.append(out)
        group_prov.append(prov_col(prefixes[alias], attr))
    # Content-deterministic tuple id: row_number over a total order of all
    # selected columns, in select order. Unlike monotonically_increasing_id,
    # it is stable when the plan is re-executed (cache eviction, AQE
    # re-partitioning), which the coverage metrics rely on — the APT's
    # __pt_id values must agree with PT's under any recomputation. The
    # single-partition window is fine at PT scale (provenance of one query,
    # ≤ a few 100k rows).
    pt_id = f"row_number() OVER (ORDER BY {', '.join(exprs)}) AS {quote(PT_ID)}"
    frames = [db.df(rel).alias(alias) for rel, alias in query.tables]
    df = (
        reduce(DataFrame.join, frames)
        .filter(query.where_sql(spark=True))
        .selectExpr(
            *[f"{e} AS {quote(o)}" for e, o in zip(exprs, outs)], pt_id
        )
        .cache()
    )
    pt = ProvenanceTable(
        query=query,
        df=df,
        group_cols=query.group_output_names,
        prov_cols=prov_cols,
        group_prov_cols=tuple(group_prov),
    )
    db.pts[query] = pt
    return pt
