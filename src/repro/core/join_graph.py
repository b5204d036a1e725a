"""Join graphs (Def. 3) and their enumeration (Algorithm 2, §4).

A join graph Ω is an undirected multigraph with exactly one node labeled PT
(the provenance table of the user's query) and other nodes labeled with
relations; edges carry join conditions drawn from the schema graph. Nodes
are integers (PT is node 0); each edge records the *base relation* bound to
each endpoint — for the PT node this is the accessed relation whose
``prov_<rel>_<attr>`` columns the condition touches.

``enumerate_join_graphs`` grows graphs one edge at a time exactly as
EnumerateJoinGraphs/ExtendJG/AddEdge in the paper, deduplicating isomorphic
graphs via a small brute-force canonical form (graphs have ≤ λ_#edges ≤ 3
edges, so trying all label-preserving node permutations is cheap).

``is_valid`` implements the paper's two pruning tests: PK-connectivity
(every non-PT node must join on all of its relation's PK attributes) and an
estimated-cost cap. The paper asks PostgreSQL for the cost estimate; we use
the textbook |R⋈S| = |R||S|/max(d_R, d_S) estimate over cached distinct
counts, which serves the same pruning role (DESIGN.md substitution #3).

Like Postgres' estimate, the cap is first decided from the statistics the
catalog already holds, without running the provenance query. Each distinct
count lies in bounds the catalog knows without a Spark job
(``Database.distinct_bounds``), and |PT| lies in [0, Π row counts of the
query's tables] until PT has been counted (``pt_row_bounds``). So the
estimate lies in [E_min, E_max], computed in ``estimate_apt_rows``' own
operation order: float multiplication and division by a positive number
are monotone, so a larger |PT| never gives a smaller result and a larger
divisor never a larger one. E_max ≤ λ_qCost keeps the graph and E_min >
λ_qCost prunes it. Only a graph the bounds leave undecided counts PT (once
per PT), and only one they still leave undecided computes its exact
distinct counts, one aggregation per table.
"""
from __future__ import annotations

import itertools
from collections.abc import Callable, Iterator
from dataclasses import dataclass

from repro.substrate.catalog import Database
from repro.substrate.provenance import ProvenanceTable
from repro.substrate.query import AggQuery
from repro.core.schema_graph import JoinCond, SchemaGraph

PT_NODE = 0


@dataclass(frozen=True)
class JGEdge:
    """Edge between nodes n1, n2; ``cond`` oriented n1→n2; rel1/rel2 are the
    base relations the two condition sides refer to."""

    n1: int
    n2: int
    cond: JoinCond
    rel1: str
    rel2: str

    def normalized(self) -> "JGEdge":
        if self.n1 <= self.n2:
            return self
        return JGEdge(self.n2, self.n1, self.cond.flipped(), self.rel2, self.rel1)


@dataclass(frozen=True)
class JoinGraph:
    """Ω = (V_J, E_J, l_Jnode, l_Jedge); node 0 is PT (label ``None``)."""

    nodes: tuple[tuple[int, str | None], ...]  # (node id, relation | None=PT)
    edges: tuple[JGEdge, ...]

    @property
    def node_labels(self) -> dict[int, str | None]:
        return dict(self.nodes)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def context_nodes(self) -> list[tuple[int, str]]:
        return [(n, r) for n, r in self.nodes if r is not None]

    def incident(self, nid: int) -> list[JGEdge]:
        return [e for e in self.edges if nid in (e.n1, e.n2)]

    def signature(self) -> tuple:
        """Canonical form under label-preserving node renumbering, so the
        breadth-first enumeration can discard isomorphic duplicates."""
        labels = self.node_labels
        ids = sorted(labels)
        best: tuple | None = None
        # PT (node 0) must map to itself; permute only context nodes that
        # share a label.
        ctx = [n for n in ids if n != PT_NODE]
        for perm in itertools.permutations(ctx):
            mapping = {PT_NODE: PT_NODE}
            ok = True
            for old, new in zip(ctx, perm):
                if labels[old] != labels[new]:
                    ok = False
                    break
                mapping[old] = new
            if not ok:
                continue
            eds = []
            for e in self.edges:
                m = JGEdge(
                    mapping[e.n1], mapping[e.n2], e.cond, e.rel1, e.rel2
                ).normalized()
                eds.append((m.n1, m.n2, m.cond, m.rel1, m.rel2))
            cand = (
                tuple(sorted(labels[n] or "" for n in ids)),
                tuple(sorted(eds, key=repr)),
            )
            if best is None or repr(cand) < repr(best):
                best = cand
        assert best is not None
        return best

    def describe(self) -> str:
        parts = [
            f"A_{n + 1}: {r or 'PT'}" for n, r in sorted(self.nodes)
        ]
        eparts = [
            e.cond.describe(f"A_{e.n1 + 1}", f"A_{e.n2 + 1}") for e in self.edges
        ]
        return "; ".join(parts) + (" | " + " ; ".join(eparts) if eparts else "")

    def structure(self) -> str:
        """Compact ``PT - rel - rel`` chain description (as in Fig. 10a)."""
        if not self.edges:
            return "PT"
        names = ["PT"] + [r for n, r in sorted(self.nodes) if r is not None]
        return " - ".join(names)


def empty_join_graph() -> JoinGraph:
    """Ω_0: the single PT node (its APT is the provenance table itself)."""
    return JoinGraph(nodes=((PT_NODE, None),), edges=())


def _add_edge(
    jg: JoinGraph, v: int, v_rel: str, end: str, cond: JoinCond
) -> list[JoinGraph]:
    """AddEdge from Algorithm 2: connect node ``v`` (whose condition side is
    bound to base relation ``v_rel``) to relation ``end`` — once via a fresh
    node, and once per existing ``end``-labeled node lacking this edge."""
    out: list[JoinGraph] = []
    new_id = max(n for n, _ in jg.nodes) + 1
    out.append(
        JoinGraph(
            nodes=jg.nodes + ((new_id, end),),
            edges=jg.edges + (JGEdge(v, new_id, cond, v_rel, end),),
        )
    )
    for n, r in jg.nodes:
        if r != end or n == v:
            continue
        dup = any(
            {e.n1, e.n2} == {v, n} and e.normalized().cond
            == JGEdge(v, n, cond, v_rel, end).normalized().cond
            for e in jg.edges
        )
        if not dup:
            out.append(
                JoinGraph(
                    nodes=jg.nodes,
                    edges=jg.edges + (JGEdge(v, n, cond, v_rel, end),),
                )
            )
    return out


def extend_jg(jg: JoinGraph, sg: SchemaGraph, query: AggQuery) -> list[JoinGraph]:
    """ExtendJG from Algorithm 2: all one-edge extensions of ``jg``."""
    out: list[JoinGraph] = []
    for v, label in jg.nodes:
        rels = list(query.relations) if label is None else [label]
        for r in rels:
            for edge, r_is_left in sg.adjacent(r):
                other = edge.r2 if r_is_left else edge.r1
                for cond in edge.conds:
                    oriented = cond if r_is_left else cond.flipped()
                    out.extend(_add_edge(jg, v, r, other, oriented))
    return out


def _sides(jg: JoinGraph) -> Iterator[tuple[str, tuple[str, ...]]]:
    """(relation, join attributes) of each edge side that has attributes."""
    for e in jg.edges:
        if la := e.cond.left_attrs():
            yield e.rel1, la
        if ra := e.cond.right_attrs():
            yield e.rel2, ra


def _estimate(
    jg: JoinGraph,
    pt_rows: int,
    rows: Callable[[str], int],
    distinct: Callable[[str, tuple[str, ...]], int],
) -> float:
    est = float(pt_rows)
    for _, rel in jg.context_nodes():
        est *= rows(rel)
    for e in jg.edges:
        la = e.cond.left_attrs()
        ra = e.cond.right_attrs()
        d_l = distinct(e.rel1, la) if la else 1
        d_r = distinct(e.rel2, ra) if ra else 1
        est /= max(d_l, d_r, 1)
    return est


def estimate_apt_rows(jg: JoinGraph, db: Database, pt_rows: int) -> float:
    """System-R style cardinality estimate of |APT(Q, D, Ω)|.

    |result| = |PT| · Π|R_i| · Π_edges 1/max(d_left, d_right), with per-side
    distinct counts of the join attrs taken from the bound base relation
    (the PT side approximated by its accessed relation's statistics).
    """
    return _estimate(jg, pt_rows, db.n_rows, db.n_distinct)


def pt_row_bounds(db: Database, pt: ProvenanceTable) -> tuple[int, int] | None:
    """[low, high] bounds on |PT| without a Spark job: the count once it is
    held (``pt.known_rows``), else [0, Π row counts of the query's tables],
    as PT is a filtered join of them. None when a row count is not held."""
    if pt.known_rows is not None:
        return pt.known_rows, pt.known_rows
    high = 1
    for rel, _ in pt.query.tables:
        n = db.known_rows(rel)
        if n is None:
            return None
        high *= n
    return 0, high


def estimate_bounds(
    jg: JoinGraph, db: Database, pt_rows: tuple[int, int]
) -> tuple[float, float] | None:
    """(E_min, E_max) around ``estimate_apt_rows`` for |PT| within
    ``pt_rows`` ([low, high]), from the statistics the catalog holds,
    without a Spark job; None when a row count is not held. Both are
    computed in the estimate's operation order, E_min with |PT| at its low
    bound and each distinct count at its high bound, E_max the reverse."""
    rows = {rel: db.known_rows(rel) for _, rel in jg.context_nodes()}
    bounds = {side: db.distinct_bounds(*side) for side in _sides(jg)}
    if None in rows.values() or None in bounds.values():
        return None
    return (
        _estimate(jg, pt_rows[0], rows.__getitem__, lambda *s: bounds[s][1]),
        _estimate(jg, pt_rows[1], rows.__getitem__, lambda *s: bounds[s][0]),
    )


def _cap(
    jg: JoinGraph, db: Database, pt_rows: tuple[int, int] | None, q_cost: float
) -> bool | None:
    """The cost cap's decision when [E_min, E_max] lies on one side of
    ``q_cost``, else None."""
    bounds = None if pt_rows is None else estimate_bounds(jg, db, pt_rows)
    if bounds is not None:
        if bounds[1] <= q_cost:
            return True
        if bounds[0] > q_cost:
            return False
    return None


def is_valid(
    jg: JoinGraph, db: Database, pt: ProvenanceTable, q_cost: float
) -> bool:
    """isValid from Algorithm 2: PK-connectivity + estimated-cost cap.

    The cap is decided from ``estimate_bounds`` with |PT| bounded by
    ``pt_row_bounds`` when they put the estimate on one side of ``q_cost``.
    Otherwise PT is counted (once: ``pt.n_rows`` holds the count) and the
    bounds are tried again; if they still straddle ``q_cost``, each table's
    missing distinct counts are computed in one aggregation and the exact
    estimate decides."""
    for nid, rel in jg.context_nodes():
        joined_attrs: set[str] = set()
        for e in jg.incident(nid):
            if e.n1 == nid:
                joined_attrs.update(e.cond.left_attrs())
            if e.n2 == nid:
                joined_attrs.update(e.cond.right_attrs())
        if not set(db.pk(rel)).issubset(joined_attrs):
            return False
    decided = _cap(jg, db, pt_row_bounds(db, pt), q_cost)
    if decided is None and pt.known_rows is None:
        decided = _cap(jg, db, (pt.n_rows, pt.n_rows), q_cost)
    if decided is not None:
        return decided
    by_table: dict[str, list[tuple[str, ...]]] = {}
    for rel, attrs in _sides(jg):
        by_table.setdefault(rel, []).append(attrs)
    for rel, sets in by_table.items():
        db.n_distinct(rel, sets[0], also=sets[1:])
    return estimate_apt_rows(jg, db, pt.n_rows) <= q_cost


def enumerate_join_graphs(
    sg: SchemaGraph, query: AggQuery, n_edges: int
) -> list[JoinGraph]:
    """EnumerateJoinGraphs: breadth-first growth up to λ_#edges edges,
    deduplicated by canonical signature. Includes Ω_0 (pure provenance)."""
    base = empty_join_graph()
    result = [base]
    seen = {base.signature()}
    prev = [base]
    for _ in range(n_edges):
        new: list[JoinGraph] = []
        for jg in prev:
            for ext in extend_jg(jg, sg, query):
                sig = ext.signature()
                if sig not in seen:
                    seen.add(sig)
                    new.append(ext)
        result.extend(new)
        prev = new
    return result
