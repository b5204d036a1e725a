"""Single-block SPJA query model (select–from–where–group by, one aggregate).

This is the query class the paper supports (§2): equi-joins plus constant
selections, one aggregate expression, group-by. A query is a declarative
spec; :meth:`AggQuery.to_sql` renders its SQL for Spark (Catalyst, via temp
views) and for the DuckDB oracle, the same text but for the filter
constants, and the provenance substrate reuses the Spark FROM/WHERE block
to build `PT(Q, D)`.

Attribute references are written ``alias.attr`` throughout.

Every Spark expression the package builds is SQL text: :func:`quote` renders
an identifier and :func:`sql_literal` a Python value. PySpark 4 wraps each
``Column``-API call (``F.col``, Column operators and methods such as
``alias``, …) in a capture of its Python call site, which costs py4j round
trips per call, and the first capture in a process imports IPython.
DataFrame methods that take SQL text (``selectExpr``, ``filter``/``where``,
``hint``, ``groupBy().agg`` with a dict) are not wrapped.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date, datetime
from decimal import Decimal
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from pyspark.sql import DataFrame

    from repro.substrate.catalog import Database


def quote(name: str) -> str:
    """``name`` as a Spark SQL identifier: backtick-quoted, so reserved
    words, spaces and dots are taken literally (a backtick is doubled)."""
    return "`" + name.replace("`", "``") + "`"


# Spark SQL suffix of a numpy integer literal, by the integer's width:
# TINYINT, SMALLINT, INT, BIGINT (``F.lit`` casts to the numpy type).
_INT_SUFFIX = {1: "Y", 2: "S", 4: "", 8: "L"}


def sql_literal(v: object) -> str:
    """``v`` as Spark SQL literal text, of the type and value ``F.lit(v)``
    gives it:

    * ``None`` → ``NULL`` (void); ``bool`` → ``true``/``false``;
    * ``int`` → digits, which Spark reads as INT when the value fits in 32
      bits and BIGINT otherwise, as py4j passes it;
    * ``float`` → ``repr(v)`` with the ``D`` (double) suffix; NaN and ±inf
      as a CAST of Spark's name for them;
    * ``Decimal`` → ``str(v)`` with the ``BD`` suffix (Java's BigDecimal of
      the same text, as py4j passes it);
    * ``str`` → single-quoted, with backslashes and quotes escaped and ``$``
      as ``\\u0024``, so Spark's ``${…}`` variable substitution, which runs
      over expression text too, leaves it as it is;
    * ``date`` → ``DATE '…'``; ``datetime`` (and ``pd.Timestamp``, to the
      microsecond) → ``TIMESTAMP '…'``, with its UTC offset when it has
      one. A naive value is read in the session time zone, which is the
      one ``F.lit`` uses while the session keeps its default;
    * numpy scalars as their Python value, typed like ``F.lit`` types them:
      ``np.int8``…``np.int64`` as TINYINT…BIGINT, ``np.float32`` as FLOAT.

    Raises ``ValueError`` for any other value, and for an integer or a
    Decimal that Spark cannot hold as a literal."""
    if isinstance(v, np.generic):
        if isinstance(v, np.signedinteger) and v.dtype.itemsize in _INT_SUFFIX:
            return f"{int(v)}{_INT_SUFFIX[v.dtype.itemsize]}"
        if isinstance(v, np.float32):
            return f"CAST({sql_literal(float(v))} AS FLOAT)"
        if not isinstance(v, (np.float64, np.bool_, np.str_)):
            raise ValueError(f"no Spark SQL literal for {v!r} ({type(v).__name__})")
        v = v.item()
    if v is None:
        return "NULL"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        if not -(2**63) <= v < 2**63:
            raise ValueError(f"integer {v} does not fit in a Spark BIGINT")
        return str(v)
    if isinstance(v, float):
        if math.isfinite(v):
            return f"{v!r}D"
        name = "NaN" if math.isnan(v) else ("Infinity" if v > 0 else "-Infinity")
        return f"CAST('{name}' AS DOUBLE)"
    if isinstance(v, Decimal):
        if not v.is_finite():
            raise ValueError(f"no Spark SQL literal for {v!r}")
        return f"{v}BD"
    if isinstance(v, str):
        for char, escape in (("\\", "\\\\"), ("'", "\\'"), ("$", "\\u0024")):
            v = v.replace(char, escape)
        return f"'{v}'"
    if isinstance(v, datetime):
        return f"TIMESTAMP '{datetime.isoformat(v, ' ', 'microseconds')}'"
    if isinstance(v, date):
        return f"DATE '{v.isoformat()}'"
    raise ValueError(f"no Spark SQL literal for {v!r} ({type(v).__name__})")


def split_ref(ref: str) -> tuple[str, str]:
    """``"g.season_id"`` → ``("g", "season_id")``."""
    alias, _, attr = ref.partition(".")
    if not attr:
        raise ValueError(f"attribute reference {ref!r} must be alias-qualified")
    return alias, attr


@dataclass(frozen=True)
class AggQuery:
    """A single-block aggregate query.

    ``tables``     — (relation, alias) pairs in the FROM clause.
    ``join_conds`` — equality pairs of alias-qualified attrs.
    ``filters``    — (alias-qualified attr, constant) equality selections;
                     a constant is a ``str``, an ``int``, a ``bool`` or a
                     finite ``float`` (see :meth:`_literal`).
    ``group_by``   — (alias-qualified attr, output name) pairs.
    ``agg``        — SQL aggregate expression, e.g. ``"count(*)"`` or
                     ``"avg(pgs.points)"``.
    ``agg_alias``  — output name of the aggregate column.
    """

    tables: tuple[tuple[str, str], ...]
    join_conds: tuple[tuple[str, str], ...] = ()
    filters: tuple[tuple[str, object], ...] = ()
    group_by: tuple[tuple[str, str], ...] = ()
    agg: str = "count(*)"
    agg_alias: str = "cnt"

    def __post_init__(self) -> None:
        aliases = [a for _, a in self.tables]
        if len(set(aliases)) != len(aliases):
            raise ValueError(f"duplicate table aliases in {aliases}")
        refs = [r for pair in self.join_conds for r in pair]
        refs += [r for r, _ in self.filters] + [r for r, _ in self.group_by]
        for ref in refs:
            alias, _ = split_ref(ref)
            if alias not in aliases:
                raise ValueError(
                    f"attribute reference {ref!r}: alias {alias!r} is not in "
                    f"FROM (aliases {aliases})"
                )
        for ref, v in self.filters:
            self._literal(ref, v)

    # ---- helpers ------------------------------------------------------
    @property
    def aliases(self) -> dict[str, str]:
        """alias → relation name."""
        return {a: r for r, a in self.tables}

    @property
    def relations(self) -> tuple[str, ...]:
        """``rels_Q(D)`` — relations accessed by the query."""
        return tuple(dict.fromkeys(r for r, _ in self.tables))

    @property
    def group_output_names(self) -> tuple[str, ...]:
        return tuple(out for _, out in self.group_by)

    @staticmethod
    def _literal(ref: str, v: object, spark: bool = False) -> str:
        """The filter constant ``ref = v`` as SQL text: for Spark as
        :func:`sql_literal` renders it, else for DuckDB, with a ``str``'s
        quotes doubled. The two differ because Spark's parser also reads
        backslash escapes and substitutes ``${…}`` variables, which DuckDB
        reads literally. Other types have no such text here: ``str()`` of a
        date is integer arithmetic (``2015-01-02``), and of None or NaN an
        identifier, so they raise ``ValueError``."""
        if isinstance(v, (str, int)) or (isinstance(v, float) and math.isfinite(v)):
            if spark:
                return sql_literal(v)
            if isinstance(v, str):
                return "'" + v.replace("'", "''") + "'"
            return str(v)  # bool is an int: True / False
        raise ValueError(
            f"filter {ref} = {v!r}: a filter constant must be a str, an int, "
            f"a bool or a finite float, not {type(v).__name__}"
        )

    def where_sql(self, spark: bool = False) -> str:
        """The WHERE condition, as DuckDB text or, with ``spark``, as Spark
        text (see :meth:`_literal`)."""
        conds = [f"{l} = {r}" for l, r in self.join_conds]
        conds += [f"{a} = {self._literal(a, v, spark)}" for a, v in self.filters]
        return " AND ".join(conds) if conds else "1 = 1"

    def from_sql(self) -> str:
        return ", ".join(f"{rel} {alias}" for rel, alias in self.tables)

    def to_sql(self, spark: bool = False) -> str:
        """The full aggregate query, as DuckDB text or, with ``spark``, as
        Spark text: the two differ only in their filter constants."""
        group_exprs = [f"{ref} AS {out}" for ref, out in self.group_by]
        select = ", ".join(group_exprs + [f"{self.agg} AS {self.agg_alias}"])
        sql = f"SELECT {select} FROM {self.from_sql()} WHERE {self.where_sql(spark)}"
        if self.group_by:
            sql += " GROUP BY " + ", ".join(ref for ref, _ in self.group_by)
        return sql

    def result(self, db: Database) -> DataFrame:
        """Evaluate ``Q(D)`` through Catalyst."""
        db.create_views()
        return db.spark.sql(self.to_sql(spark=True))
