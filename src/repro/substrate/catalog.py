"""Database catalog: named Spark tables with primary keys and cached stats.

The paper runs on PostgreSQL; here a :class:`Database` plays the same role —
it owns the base relations (as Spark DataFrames), knows their primary keys
(needed by the join-graph `isValid` PK-connectivity check, §4), registers
them as temp views so queries run through Catalyst via ``spark.sql``, and
caches the cardinality statistics (row counts / distinct counts) that our
analytic cost estimator uses in place of Postgres' ``EXPLAIN`` cost.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F


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
        each table's row count as its ``n_rows`` statistic."""
        for t in self.tables.values():
            t.df.cache()
            self._n_rows[t.name] = t.df.count()

    # ---- statistics used by the join-graph cost estimator -------------
    def n_rows(self, name: str) -> int:
        if name not in self._n_rows:
            self._n_rows[name] = self.df(name).count()
        return self._n_rows[name]

    def n_distinct(self, name: str, attrs: tuple[str, ...]) -> int:
        """Distinct count of an attribute combination, cached; the row
        count when the combination contains the table's primary key."""
        pk = self.pk(name)
        if pk and set(pk) <= set(attrs):
            return max(1, self.n_rows(name))
        key = (name, tuple(sorted(attrs)))
        if key not in self._n_distinct:
            self._n_distinct[key] = (
                self.df(name).select(*key[1]).distinct().count()
            )
        return max(1, self._n_distinct[key])

    def to_pandas(self) -> dict[str, "object"]:
        """All tables as pandas frames (for the DuckDB oracle)."""
        return {n: t.df.toPandas() for n, t in self.tables.items()}
