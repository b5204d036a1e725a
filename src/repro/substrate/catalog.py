"""Database catalog: named Spark tables with primary keys and cached stats.

The paper runs on PostgreSQL; here a :class:`Database` plays the same role —
it owns the base relations (as Spark DataFrames), knows their primary keys
(needed by the join-graph `isValid` PK-connectivity check, §4), registers
them as temp views so queries run through Catalyst via ``spark.sql``, and
caches the cardinality statistics (row counts / distinct counts) that our
analytic cost estimator uses in place of Postgres' ``EXPLAIN`` cost.

Like Postgres' planner, a caller can ask what the held statistics say
without running a query: ``known_rows``, ``distinct_bounds`` and
``size_bytes`` never start a Spark job. ``n_rows`` and ``n_distinct`` compute
what is missing; ``n_distinct`` counts every missing attribute set of one
table that its caller names in one aggregation.
"""
from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from pyspark.sql import DataFrame, SparkSession

from repro.substrate.query import quote


@dataclass
class Table:
    """One base relation: a Spark DataFrame plus schema metadata."""

    name: str
    df: DataFrame
    pk: tuple[str, ...]

    @property
    def attrs(self) -> tuple[str, ...]:
        return tuple(self.df.columns)


@dataclass
class Database:
    """A set of relations ``rels(D)`` with PKs and cached statistics.

    A declared primary key is trusted to be unique, as Postgres enforces it:
    the distinct count of any attribute set that contains it is the table's
    row count, and no Spark job computes it (both data generators' keys are
    checked by ``test_primary_keys_unique``). Replacing a table with
    :meth:`add` drops its cached statistics and every cached PT."""

    spark: SparkSession
    tables: dict[str, Table] = field(default_factory=dict)
    _n_rows: dict[str, int] = field(default_factory=dict)
    _n_distinct: dict[tuple[str, tuple[str, ...]], int] = field(default_factory=dict)
    # AggQuery → its cached ProvenanceTable (``provenance.compute_pt``).
    pts: dict = field(default_factory=dict, repr=False)

    def add(self, name: str, df: DataFrame, pk: tuple[str, ...]) -> None:
        missing = [a for a in pk if a not in df.columns]
        if missing:
            raise ValueError(f"PK attrs {missing} not in {name} columns {df.columns}")
        self.tables[name] = Table(name, df, pk)
        self._n_rows.pop(name, None)
        for key in [k for k in self._n_distinct if k[0] == name]:
            del self._n_distinct[key]
        self.pts.clear()

    def df(self, name: str) -> DataFrame:
        return self.tables[name].df

    def pk(self, name: str) -> tuple[str, ...]:
        return self.tables[name].pk

    def attrs(self, name: str) -> tuple[str, ...]:
        return self.tables[name].attrs

    def names(self) -> list[str]:
        return list(self.tables)

    def create_views(self) -> None:
        """Register every table as a temp view so SQL text runs via Catalyst."""
        for t in self.tables.values():
            t.df.createOrReplaceTempView(t.name)

    def cache_all(self) -> None:
        """Cache and materialise every table (benchmarks call this once so
        generator cost is not billed to the algorithm under test), keeping
        each table's row count as its ``n_rows`` statistic.

        It ends with a full collection of the driver JVM's heap (60–90 ms
        at MIMIC SF 0.1, where it finds 700–840 MB in use and ~100 MB
        live). Without it, the young collection that frees the set-up's
        garbage lands in a later call, and the driver's peak RSS depends
        on where G1's few collections fall (1.5–2.3 GB over runs of one
        benchmark)."""
        for t in self.tables.values():
            t.df.cache()
            self._n_rows[t.name] = t.df.count()
        self.spark.sparkContext._jvm.System.gc()

    # ---- statistics used by the join-graph cost estimator -------------
    def _keyed(self, name: str, attrs: tuple[str, ...]) -> bool:
        pk = self.pk(name)
        return bool(pk) and set(pk) <= set(attrs)

    def known_rows(self, name: str) -> int | None:
        """The table's row count if it is held, else None (no Spark job)."""
        return self._n_rows.get(name)

    def distinct_bounds(
        self, name: str, attrs: tuple[str, ...]
    ) -> tuple[int, int] | None:
        """[low, high] bounds on ``n_distinct(name, attrs)`` from the held
        statistics, without a Spark job: exact for a cached count or an
        attribute set that contains the PK, else [1, row count]. None when
        the row count is not held."""
        d = self._n_distinct.get((name, tuple(sorted(attrs))))
        if d is not None:
            return max(1, d), max(1, d)
        n = self.known_rows(name)
        if n is None:
            return None
        return (max(1, n),) * 2 if self._keyed(name, attrs) else (1, max(1, n))

    def size_bytes(self, name: str) -> int | None:
        """Estimated size of the table: its held row count times its schema's
        default row size (Spark's per-type estimate, e.g. 4 bytes for an
        int and 20 for a string). None when the row count is not held; no
        Spark job either way."""
        n = self.known_rows(name)
        return None if n is None else n * self.df(name)._jdf.schema().defaultSize()

    def n_rows(self, name: str) -> int:
        if name not in self._n_rows:
            self._n_rows[name] = self.df(name).count()
        return self._n_rows[name]

    def n_distinct(
        self,
        name: str,
        attrs: tuple[str, ...],
        also: Iterable[tuple[str, ...]] = (),
    ) -> int:
        """Distinct count of an attribute combination, cached; the row
        count when the combination contains the table's primary key.

        A missing count is computed in one aggregation together with the
        missing counts of ``also``, further attribute sets of the same
        table. Each set is counted as ``count(DISTINCT struct(…))`` of its
        attributes: a struct is never NULL and compares NULL fields as
        equal, so a NULL counts as a value, as in
        ``select(*attrs).distinct().count()`` (``count(DISTINCT a, b)``
        would skip rows where a or b is NULL)."""
        if self._keyed(name, attrs):
            return max(1, self.n_rows(name))
        key = (name, tuple(sorted(attrs)))
        if key not in self._n_distinct:
            todo = list(dict.fromkeys(
                k
                for k in [key] + [(name, tuple(sorted(a))) for a in also]
                if k not in self._n_distinct and not self._keyed(name, k[1])
            ))
            row = self.df(name).selectExpr(*[
                f"count(DISTINCT struct({', '.join(map(quote, k[1]))}))"
                for k in todo
            ]).first()
            self._n_distinct.update(zip(todo, row))
        return max(1, self._n_distinct[key])

    def to_pandas(self) -> dict[str, "object"]:
        """All tables as pandas frames (for the DuckDB oracle)."""
        return {n: t.df.toPandas() for n, t in self.tables.items()}
