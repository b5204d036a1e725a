"""Database catalog statistics: row and distinct counts for isValid."""
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


def test_cold_explain_computes_only_non_key_distinct_counts(
    spark, mimic_db, job_counter, monkeypatch
):
    """A cold explain on a fresh, cached MIMIC database takes row counts
    from ``cache_all`` and a key's distinct count from the row count: only
    distinct counts over non-key attributes run Spark jobs."""
    from repro.core.config import CajadeParams
    from repro.core.explain import explain
    from repro.data.mimic import mimic_schema_graph
    from repro.workload import UQ_MIMIC4 as uq

    db = Database(spark)
    for name in mimic_db.names():
        db.add(name, mimic_db.df(name), mimic_db.pk(name))
    db.cache_all()
    jobs = {}  # (table, attrs or None for the row count) → Spark jobs

    def counted(fn):
        def wrapped(self, name, attrs=None):
            before = job_counter()
            out = fn(self, name) if attrs is None else fn(self, name, attrs)
            key = (name, attrs)
            jobs[key] = jobs.get(key, 0) + job_counter() - before
            return out

        return wrapped

    monkeypatch.setattr(Database, "n_rows", counted(Database.n_rows))
    monkeypatch.setattr(Database, "n_distinct", counted(Database.n_distinct))
    explain(
        db, mimic_schema_graph(), uq.query, uq.t1, uq.t2,
        CajadeParams(n_edges=1, seed=3),
    )
    keyed = {k for k in jobs if k[1] is None or set(db.pk(k[0])) <= set(k[1])}
    assert ("patients", None) in keyed and ("patients", ("subject_id",)) in keyed
    assert ("admissions", ("subject_id",)) in set(jobs) - keyed
    assert all(jobs[k] == 0 for k in keyed)
    assert all(jobs[k] > 0 for k in set(jobs) - keyed)
