"""Database catalog statistics: row and distinct counts for isValid."""
import numpy as np

from repro.substrate.catalog import Database


def _db(spark, **tables):
    db = Database(spark)
    for name, rows in tables.items():
        db.add(name, spark.createDataFrame(rows, "id int, g int"), ("id",))
    return db


def test_add_drops_the_replaced_tables_statistics(spark, job_counter):
    db = _db(spark, t=[(1, 0), (2, 0), (3, 1)], u=[(1, 5)])
    assert (db.n_rows("t"), db.n_distinct("t", ("g",))) == (3, 2)
    assert (db.n_rows("u"), db.n_distinct("u", ("g",))) == (1, 1)
    db.add(
        "t",
        spark.createDataFrame([(1, 0), (2, 1), (3, 2), (4, 3)], "id int, g int"),
        ("id",),
    )
    assert (db.n_rows("t"), db.n_distinct("t", ("g",))) == (4, 4)
    assert db.n_distinct("t", ("id",)) == 4
    before = job_counter()
    assert (db.n_rows("u"), db.n_distinct("u", ("g",))) == (1, 1)
    assert job_counter() == before  # the other table's statistics stay cached


def test_row_counts_and_key_distinct_counts_run_no_job(spark, job_counter):
    db = _db(spark, t=[(1, 0), (2, 0), (3, 1)])
    db.cache_all()
    before = job_counter()
    assert db.n_rows("t") == 3
    assert db.n_distinct("t", ("id",)) == db.n_distinct("t", ("g", "id")) == 3
    assert job_counter() == before
    assert db.n_distinct("t", ("g",)) == 2
    assert job_counter() > before


def test_batched_distinct_counts_count_nulls_as_values(spark, action_counter):
    """One aggregation counts every missing attribute set of a table, and a
    NULL in a join column counts as a value, as in ``distinct().count()``
    (``countDistinct(a, b)`` would see 1 distinct pair here, not 4)."""
    df = spark.createDataFrame(
        [(1, None, "x"), (2, None, "x"), (3, 1, None), (4, 1, None),
         (5, 2, "y"), (6, None, None), (7, 2, "y")],
        "id int, a int, b string",
    )
    db = Database(spark)
    db.add("t", df, ("id",))
    db.cache_all()
    sets = [("a",), ("b",), ("a", "b"), ("b", "a"), ("a", "id")]
    expected = [df.select(*s).distinct().count() for s in sets]
    assert expected[:4] == [3, 3, 4, 4]
    before = action_counter["n"]
    assert db.n_distinct("t", sets[0], also=sets[1:]) == expected[0]
    assert [db.n_distinct("t", s) for s in sets] == expected
    assert action_counter["n"] - before == 1
    assert [db.distinct_bounds("t", s) for s in sets] == [(d, d) for d in expected]


def test_bounds_and_size_use_held_statistics_only(spark, job_counter):
    db = _db(spark, t=[(1, 0), (2, 0), (3, 1)])
    assert db.known_rows("t") is db.distinct_bounds("t", ("g",)) is None
    assert db.size_bytes("t") is None
    db.cache_all()
    before = job_counter()
    assert db.known_rows("t") == 3
    assert db.distinct_bounds("t", ("id",)) == (3, 3)
    assert db.distinct_bounds("t", ("g", "id")) == (3, 3)
    assert db.distinct_bounds("t", ("g",)) == (1, 3)
    assert db.size_bytes("t") == 3 * 8  # two ints of 4 bytes per row
    assert job_counter() == before


def test_cold_explain_computes_only_non_key_distinct_counts(
    mimic_db, fresh_db, job_counter, monkeypatch
):
    """A cold explain on a fresh, cached MIMIC database decides isValid
    from the statistics it holds: at the default λ_qCost, isValid runs no
    Spark job at all, PT's count included. At a λ_qCost the bounds leave
    undecided (just below a graph's exact estimate), the exact counts are
    computed: PT's count and distinct counts over non-key attributes run
    jobs; row counts come from ``cache_all`` and a key's distinct count
    from the row count."""
    import repro.core.explain as explain_mod
    from repro.core.config import CajadeParams
    from repro.core.join_graph import (
        enumerate_join_graphs,
        estimate_apt_rows,
        estimate_bounds,
    )
    from repro.data.mimic import mimic_schema_graph
    from repro.substrate.provenance import ProvenanceTable
    from repro.workload import UQ_MIMIC4 as uq

    sg = mimic_schema_graph()
    stats_jobs: dict = {}  # (table, attrs or None for the row count) → jobs
    is_valid_jobs: list[int] = []
    pt_count_jobs: list[int] = []

    def counted(fn, record):
        def wrapped(*args, **kwargs):
            before = job_counter()
            out = fn(*args, **kwargs)
            record(args, job_counter() - before)
            return out

        return wrapped

    def add_stats(args, n):
        key = (args[1], args[2] if len(args) > 2 else None)
        stats_jobs[key] = stats_jobs.get(key, 0) + n

    for name in ("n_rows", "n_distinct"):
        monkeypatch.setattr(
            Database, name, counted(getattr(Database, name), add_stats)
        )
    monkeypatch.setattr(
        explain_mod,
        "is_valid",
        counted(explain_mod.is_valid, lambda _, n: is_valid_jobs.append(n)),
    )
    monkeypatch.setattr(
        ProvenanceTable,
        "n_rows",
        property(counted(
            ProvenanceTable.n_rows.fget, lambda _, n: pt_count_jobs.append(n)
        )),
    )

    def cold_explain(q_cost: float):
        db = fresh_db(mimic_db)
        stats_jobs.clear()
        is_valid_jobs.clear()
        pt_count_jobs.clear()
        res = explain_mod.explain(
            db, sg, uq.query, uq.t1, uq.t2,
            CajadeParams(n_edges=1, seed=3, q_cost=q_cost),
        )
        return db, res

    db, res = cold_explain(CajadeParams().q_cost)
    assert res.n_mined >= 2
    assert len(is_valid_jobs) == res.n_join_graphs
    assert sum(is_valid_jobs) == sum(stats_jobs.values()) == 0
    assert not pt_count_jobs

    # A λ_qCost just below a graph's exact estimate E and above its E_min:
    # the bounds leave the graph undecided, and the exact count prunes it.
    pt_rows, exact = res.pt.n_rows, fresh_db(mimic_db)
    jg, borderline = next(
        (j, q) for j in enumerate_join_graphs(sg, uq.query, 1)
        if estimate_bounds(j, db, (pt_rows, pt_rows))[0]
        <= (q := np.nextafter(estimate_apt_rows(j, exact, pt_rows), 0))
    )
    db, res = cold_explain(borderline)
    assert jg in res.join_graphs
    assert jg not in {res.join_graphs[i] for i in res.mined}
    keyed = {
        k for k in stats_jobs if k[1] is None or set(db.pk(k[0])) <= set(k[1])
    }
    assert keyed and all(stats_jobs[k] == 0 for k in keyed)
    non_key = sum(stats_jobs[k] for k in set(stats_jobs) - keyed)
    assert non_key > 0 and sum(pt_count_jobs) > 0
    assert non_key + sum(pt_count_jobs) == sum(is_valid_jobs)
