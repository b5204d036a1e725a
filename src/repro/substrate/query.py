"""Single-block SPJA query model (select–from–where–group by, one aggregate).

This is the query class the paper supports (§2): equi-joins plus constant
selections, one aggregate expression, group-by. A query is a declarative
spec; :meth:`AggQuery.to_sql` renders identical SQL for both Spark
(Catalyst, via temp views) and the DuckDB oracle, and the provenance
substrate reuses the same FROM/WHERE block to build `PT(Q, D)`.

Attribute references are written ``alias.attr`` throughout.
"""
from __future__ import annotations

from dataclasses import dataclass

from pyspark.sql import DataFrame

from repro.substrate.catalog import Database


def quote(name: str) -> str:
    """``name`` as a Spark SQL identifier: backtick-quoted, so reserved
    words, spaces and dots are taken literally (a backtick is doubled)."""
    return "`" + name.replace("`", "``") + "`"


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
    ``filters``    — (alias-qualified attr, constant) equality selections.
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

    def _literal(self, v: object) -> str:
        if isinstance(v, str):
            return "'" + v.replace("'", "''") + "'"
        return str(v)

    def where_sql(self) -> str:
        conds = [f"{l} = {r}" for l, r in self.join_conds]
        conds += [f"{a} = {self._literal(v)}" for a, v in self.filters]
        return " AND ".join(conds) if conds else "1 = 1"

    def from_sql(self) -> str:
        return ", ".join(f"{rel} {alias}" for rel, alias in self.tables)

    def to_sql(self) -> str:
        """The full aggregate query (identical text for Spark and DuckDB)."""
        group_exprs = [f"{ref} AS {out}" for ref, out in self.group_by]
        select = ", ".join(group_exprs + [f"{self.agg} AS {self.agg_alias}"])
        sql = f"SELECT {select} FROM {self.from_sql()} WHERE {self.where_sql()}"
        if self.group_by:
            sql += " GROUP BY " + ", ".join(ref for ref, _ in self.group_by)
        return sql

    def result(self, db: Database) -> DataFrame:
        """Evaluate ``Q(D)`` through Catalyst."""
        db.create_views()
        return db.spark.sql(self.to_sql())
