"""Join graphs (Def. 3), Algorithm 2 enumeration and isValid's cost cap."""
import math

import numpy as np
import pytest

from repro.substrate.query import AggQuery
from repro.core.join_graph import (
    PT_NODE,
    JGEdge,
    JoinGraph,
    empty_join_graph,
    enumerate_join_graphs,
    estimate_apt_rows,
    estimate_bounds,
    extend_jg,
    is_valid,
    pt_row_bounds,
)
from repro.core.schema_graph import SchemaGraph, fk_cond


@pytest.fixture()
def sg():
    g = SchemaGraph(relations=("game", "pgs", "player"))
    g.add_edge("game", "pgs", fk_cond(("gid", "gid")))
    g.add_edge("pgs", "player", fk_cond(("pid", "pid")))
    return g


@pytest.fixture()
def q():
    return AggQuery(
        tables=(("game", "g"),),
        group_by=(("g.season", "season"),),
        agg="count(*)",
        agg_alias="c",
    )


def test_empty_graph_is_pt_only():
    jg = empty_join_graph()
    assert jg.nodes == ((PT_NODE, None),)
    assert jg.n_edges == 0
    assert jg.structure() == "PT"


def test_extend_from_pt(sg, q):
    exts = extend_jg(empty_join_graph(), sg, q)
    # game only borders pgs → exactly one extension
    assert len(exts) == 1
    (jg,) = exts
    assert jg.structure() == "PT - pgs"
    assert jg.edges[0].rel1 == "game" and jg.edges[0].rel2 == "pgs"


def test_enumerate_sizes(sg, q):
    jgs = enumerate_join_graphs(sg, q, 2)
    by_size = {}
    for j in jgs:
        by_size.setdefault(j.n_edges, []).append(j)
    assert len(by_size[0]) == 1
    assert len(by_size[1]) == 1  # PT - pgs
    # size 2: PT-pgs-player, two pgs copies, and PT-pgs-game (a context
    # copy of an accessed relation is allowed by Def. 3)
    assert len(by_size[2]) == 3
    structures = {j.structure() for j in by_size[2]}
    assert "PT - pgs - player" in structures
    assert "PT - pgs - pgs2" in structures or "PT - pgs - pgs" in structures


def test_enumeration_growth_is_monotone(sg, q):
    assert len(enumerate_join_graphs(sg, q, 1)) < len(
        enumerate_join_graphs(sg, q, 3)
    )


def test_signature_dedupes_isomorphic(sg, q):
    # Building the same graph with different node ids must give equal sigs.
    e1 = JGEdge(PT_NODE, 1, fk_cond(("gid", "gid")), "game", "pgs")
    a = JoinGraph(nodes=((PT_NODE, None), (1, "pgs")), edges=(e1,))
    e2 = JGEdge(PT_NODE, 2, fk_cond(("gid", "gid")), "game", "pgs")
    b = JoinGraph(nodes=((PT_NODE, None), (2, "pgs")), edges=(e2,))
    # node ids are normalised relative to sorted order, so re-label b
    b2 = JoinGraph(nodes=((PT_NODE, None), (1, "pgs")), edges=(e1,))
    assert a.signature() == b2.signature()
    assert a.signature() != empty_join_graph().signature()


def test_edge_normalized_flips():
    e = JGEdge(3, 1, fk_cond(("a", "b")), "x", "y")
    n = e.normalized()
    assert (n.n1, n.n2) == (1, 3)
    assert n.cond.pairs == (("b", "a"),)
    assert (n.rel1, n.rel2) == ("y", "x")


def test_no_pt_pt_edges_enumerated(sg, q):
    for jg in enumerate_join_graphs(sg, q, 3):
        for e in jg.edges:
            assert not (e.n1 == PT_NODE and e.n2 == PT_NODE)


def test_describe_mentions_pt(sg, q):
    jgs = enumerate_join_graphs(sg, q, 1)
    assert any("PT" in j.describe() for j in jgs)


def test_nba_enumeration_counts():
    from repro.data.nba import nba_schema_graph
    from repro.workload import Q_NBA4

    sg = nba_schema_graph()
    jgs1 = enumerate_join_graphs(sg, Q_NBA4, 1)
    jgs2 = enumerate_join_graphs(sg, Q_NBA4, 2)
    # Q_NBA4 accesses game/team/season → several 1-edge graphs exist.
    assert len(jgs1) > 5
    assert len(jgs2) > len(jgs1) * 2


def test_parallel_edges_allowed():
    # game–team has 3 conditions: PT(team,game) query gets parallel edges
    from repro.data.nba import nba_schema_graph
    from repro.workload import Q_NBA4

    sg = nba_schema_graph()
    jgs = enumerate_join_graphs(sg, Q_NBA4, 2)
    two_edge_single_node = [
        j
        for j in jgs
        if j.n_edges == 2 and len(j.context_nodes()) == 1
    ]
    assert two_edge_single_node, "parallel edges between PT and one node"


@pytest.mark.parametrize("dataset", ["mimic", "nba"])
def test_is_valid_equals_the_exact_estimate(
    request, dataset, fresh_db, job_counter, action_counter
):
    """isValid's cost cap decided from the catalog's bounds equals the
    exact estimate's decision for every enumerated graph up to 2 edges, at
    every graph's own exact estimate, at its bounds E_min and E_max (with
    |PT| exact, and with |PT| bounded by the query's row counts), at the
    float neighbours of these, and at the benchmarks' λ_qCost values.
    Where the bounds decide without |PT|, no Spark job runs, PT's count
    included; where they decide once PT is counted, PT is counted once and
    no distinct count runs; where they do not decide, the exact counts are
    computed. A PT is never counted twice."""
    from repro.substrate.provenance import compute_pt
    from repro.workload import UQ_1, UQ_MIMIC4

    if dataset == "mimic":
        from repro.data.mimic import mimic_schema_graph as schema_graph

        uq = UQ_MIMIC4
    else:
        from repro.data.nba import nba_schema_graph as schema_graph

        uq = UQ_1
    src = request.getfixturevalue(f"{dataset}_db")
    pt_rows = compute_pt(src, uq.query).n_rows
    exact, bounded, undecided_db = fresh_db(src), fresh_db(src), fresh_db(src)
    lazy = compute_pt(bounded, uq.query)
    pt_bounds = pt_row_bounds(bounded, lazy)
    assert pt_bounds[0] == 0 < pt_rows <= pt_bounds[1]
    # PK-connected graphs: the cap alone decides them.
    jgs = [
        jg for jg in enumerate_join_graphs(schema_graph(), uq.query, 2)
        if is_valid(jg, bounded, lazy, math.inf)
    ]
    by_bounds, by_count, undecided = [], [], []
    for jg in jgs:
        est = estimate_apt_rows(jg, exact, pt_rows)
        lo, hi = estimate_bounds(jg, bounded, (pt_rows, pt_rows))
        lo0, hi0 = estimate_bounds(jg, bounded, pt_bounds)
        assert lo0 <= lo <= est <= hi <= hi0
        qs = {0.0, 5e5, 2e6, math.inf}
        for v in (est, lo, hi, hi0):
            qs |= {v, np.nextafter(v, -math.inf), np.nextafter(v, math.inf)}
        for q in qs:
            if hi0 <= q or lo0 > q:
                by_bounds.append((jg, q, est))
            elif hi <= q or lo > q:
                by_count.append((jg, q, est))
            else:
                undecided.append((jg, q, est))
    assert by_bounds and by_count and undecided
    before, counts = job_counter(), dict(action_counter)
    for jg, q, est in by_bounds:
        assert is_valid(jg, bounded, lazy, q) == (est <= q), (jg, q)
    assert job_counter() == before
    assert lazy.known_rows is None
    for jg, q, est in by_count:
        assert is_valid(jg, bounded, lazy, q) == (est <= q), (jg, q)
    assert lazy.known_rows == pt_rows
    assert action_counter["count"] - counts["count"] == 1
    assert action_counter["n"] - counts["n"] == 1
    before, counts = job_counter(), dict(action_counter)
    pt = compute_pt(undecided_db, uq.query)
    for jg, q, est in undecided:
        assert is_valid(jg, undecided_db, pt, q) == (est <= q), (jg, q)
    assert job_counter() > before
    assert pt.known_rows == pt_rows
    assert action_counter["count"] - counts["count"] == 1
