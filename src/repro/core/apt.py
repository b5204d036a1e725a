"""Augmented provenance tables (Def. 4): PT joined with context relations.

``materialize_apt`` walks a join graph breadth-first from the PT node and
realises it as a chain of Catalyst equi-joins:

  * each context node's relation is loaded with its columns renamed to a
    unique prefix by one ``toDF`` (``team_``, ``player_salary_``,
    ``lineup_player2_`` …, matching the paper's alias disambiguation), and
    carries a broadcast hint when the catalog's statistics put its size
    under ``BROADCAST_MAX_BYTES``;
  * an edge whose far endpoint is not yet part of the plan becomes a join;
    an edge between two already-joined nodes (a cycle / parallel edge)
    becomes a filter. A join is an inner join whose condition is the
    following ``where``, which Catalyst pushes into the join;
  * an edge's condition is one SQL condition: its equi-join pairs over
    backtick-quoted column names, and each constant constraint compared
    with its value as ``query.sql_literal`` renders it;
  * after all joins, the context-side join-key columns are dropped — they
    duplicate the columns they were equated with ("duplicate (renamed)
    columns are removed", Def. 4).

The result keeps PT's ``prov_*`` columns, the group-by output columns and
``__pt_id`` (so Def. 7's per-provenance-tuple coverage can group back),
plus the surviving context columns.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from pyspark.sql import DataFrame

from repro.substrate.catalog import Database
from repro.substrate.provenance import ProvenanceTable, prov_col
from repro.substrate.query import quote, split_ref, sql_literal
from repro.core.join_graph import PT_NODE, JGEdge, JoinGraph

# A context relation whose size (``Database.size_bytes``: held row count ×
# default row size, no Spark job) is under this bound joins by broadcast.
# It is the default of Spark's own rule, spark.sql.autoBroadcastJoinThreshold
# (10 MB). A hint applies whatever that setting is, so sessions that switch
# Spark's rule off (threshold -1) still broadcast these relations, and no
# shuffle stage runs for their side of the join.
BROADCAST_MAX_BYTES = 10 * 1024 * 1024


@dataclass
class APT:
    """A materialised augmented provenance table plus its bookkeeping."""

    jg: JoinGraph
    df: DataFrame
    group_cols: tuple[str, ...]
    prov_cols: tuple[str, ...]      # PT-side attribute columns
    context_cols: tuple[str, ...]   # surviving context attribute columns
    group_prov_cols: tuple[str, ...] = ()  # prov_* twins of group-by attrs
    group_attr_names: tuple[str, ...] = ()  # base attr names used in grouping
    # context col → its base attr
    col_source: dict[str, str] = field(default_factory=dict)

    @property
    def pattern_cols(self) -> tuple[str, ...]:
        """Columns patterns may use. §2.4 bans attributes used in grouping —
        including context-node copies of them (a joined ``season`` node's
        ``season_name`` would trivially determine the answer tuples) — plus
        their prov_* twins and ``__pt_id``."""
        banned = set(self.group_cols) | set(self.group_prov_cols)
        banned |= {
            c
            for c, attr in self.col_source.items()
            if attr in set(self.group_attr_names)
        }
        return tuple(
            c for c in self.prov_cols + self.context_cols if c not in banned
        )


def _node_prefixes(jg: JoinGraph) -> dict[int, str]:
    """Context node id → column prefix; repeated relations get suffixes
    2, 3, … (LineupPlayer, LineupPlayer2 — the paper's renaming rule)."""
    counts: dict[str, int] = {}
    prefixes: dict[int, str] = {}
    for nid, rel in sorted(jg.nodes):
        if rel is None:
            continue
        counts[rel] = counts.get(rel, 0) + 1
        prefixes[nid] = rel if counts[rel] == 1 else f"{rel}{counts[rel]}"
    return prefixes


def _side_col(
    nid: int, rel: str, attr: str, prefixes: dict[int, str]
) -> str:
    if nid == PT_NODE:
        return prov_col(rel, attr)
    return f"{prefixes[nid]}_{attr}"


def _edge_cond(e: JGEdge, prefixes: dict[int, str]) -> str:
    """An edge's condition over APT columns, as one SQL condition: its
    equi-join pairs over backtick-quoted names AND each constant constraint
    compared with its :func:`~repro.substrate.query.sql_literal` value."""
    conds = [
        f"{quote(_side_col(e.n1, e.rel1, la, prefixes))} = "
        f"{quote(_side_col(e.n2, e.rel2, ra, prefixes))}"
        for la, ra in e.cond.pairs
    ]
    for side, attr, value in e.cond.consts:
        nid, rel = (e.n1, e.rel1) if side == "l" else (e.n2, e.rel2)
        conds.append(
            f"{quote(_side_col(nid, rel, attr, prefixes))} = {sql_literal(value)}"
        )
    if not conds:
        raise ValueError("edge with empty join condition")
    return " AND ".join(conds)


def materialize_apt(db: Database, pt: ProvenanceTable, jg: JoinGraph) -> APT:
    """Build ``APT(Q, D, Ω)`` as a DataFrame (lazy; caller decides caching)."""
    prefixes = _node_prefixes(jg)
    df = pt.df
    joined = {PT_NODE}
    context_cols: list[str] = []
    col_source: dict[str, str] = {}
    dropped: list[str] = []
    edges = deque(jg.edges)
    stall = 0
    while edges:
        e = edges.popleft()
        new_side = None
        if e.n1 not in joined and e.n2 in joined:
            new_side = "l"
        elif e.n2 not in joined and e.n1 in joined:
            new_side = "r"
        elif e.n1 in joined and e.n2 in joined:
            stall = 0
        else:
            # Neither endpoint reached yet: requeue (the enumeration only
            # emits connected graphs, so progress is guaranteed).
            edges.append(e)
            stall += 1
            if stall > len(edges):
                raise ValueError(f"join graph is not connected to PT: {jg}")
            continue
        stall = 0
        cond = _edge_cond(e, prefixes)
        if new_side is not None:
            new_nid = e.n1 if new_side == "l" else e.n2
            rel = jg.node_labels[new_nid]
            assert rel is not None
            pfx = prefixes[new_nid]
            right = db.df(rel).toDF(*[f"{pfx}_{a}" for a in db.attrs(rel)])
            size = db.size_bytes(rel)
            if size is not None and size < BROADCAST_MAX_BYTES:
                right = right.hint("broadcast")
            context_cols.extend(f"{pfx}_{a}" for a in db.attrs(rel))
            col_source.update({f"{pfx}_{a}": a for a in db.attrs(rel)})
            # The new node's join keys equal the other side — drop them.
            dropped.extend(
                _side_col(e.n1, e.rel1, la, prefixes)
                if new_side == "l"
                else _side_col(e.n2, e.rel2, ra, prefixes)
                for la, ra in e.cond.pairs
            )
            df = df.join(right).where(cond)
            joined.add(new_nid)
        else:
            df = df.filter(cond)
    keep_context = [c for c in dict.fromkeys(context_cols) if c not in set(dropped)]
    df = df.drop(*dict.fromkeys(dropped))
    return APT(
        jg=jg,
        df=df,
        group_cols=pt.group_cols,
        prov_cols=pt.prov_cols,
        context_cols=tuple(keep_context),
        group_prov_cols=pt.group_prov_cols,
        group_attr_names=tuple(
            split_ref(ref)[1] for ref, _ in pt.query.group_by
        ),
        col_source=col_source,
    )
