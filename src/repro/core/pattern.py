"""Summarization patterns (Def. 5) and their matching semantics.

A pattern is a conjunction of predicates ``attr op value`` with op ∈
{=, ≤, ≥}; attributes not mentioned are "don't care" (*). Categorical
attributes only take ``=``. A tuple matches when every predicate holds
(NULL never matches, mirroring SQL three-valued logic collapsing to false).

Patterns are immutable and hashable so the miner can keep ``done`` sets and
use them as dict keys. ``to_sql`` renders a pattern as a Spark SQL
condition (values as :func:`~repro.substrate.query.sql_literal` renders
them); ``pandas_mask`` is the driver-side equivalent used on bounded
samples.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
from repro.substrate.query import quote, sql_literal

_OPS = ("=", "<=", ">=")


@dataclass(frozen=True)
class Predicate:
    attr: str
    op: str
    value: object

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise ValueError(f"bad op {self.op!r}; must be one of {_OPS}")

    def to_sql(self) -> str:
        return f"{quote(self.attr)} {self.op} {sql_literal(self.value)}"

    def pandas_mask(self, pdf: pd.DataFrame) -> np.ndarray:
        s = pdf[self.attr]
        if self.op == "=":
            m = s == self.value
        elif self.op == "<=":
            m = s <= self.value
        else:
            m = s >= self.value
        return m.fillna(False).to_numpy(dtype=bool)

    def describe(self) -> str:
        sym = {"=": "=", "<=": "<", ">=": ">"}[self.op]
        return f"{self.attr}{sym}{self.value}"


@dataclass(frozen=True)
class Pattern:
    """An m-ary pattern, represented sparsely by its non-* predicates."""

    preds: tuple[Predicate, ...] = ()

    @property
    def attrs(self) -> tuple[str, ...]:
        return tuple(p.attr for p in self.preds)

    @property
    def size(self) -> int:
        return len(self.preds)

    def pred_on(self, attr: str) -> Predicate | None:
        for p in self.preds:
            if p.attr == attr:
                return p
        return None

    def with_pred(self, pred: Predicate) -> "Pattern":
        """Refinement: replace the * on ``pred.attr`` with ``pred``.

        Predicates are kept sorted by attribute so two equal patterns built
        in different orders hash identically.
        """
        if self.pred_on(pred.attr) is not None:
            raise ValueError(f"pattern already constrains {pred.attr}")
        return Pattern(tuple(sorted(self.preds + (pred,), key=lambda p: p.attr)))

    def is_refinement_of(self, other: "Pattern") -> bool:
        return set(other.preds).issubset(set(self.preds)) and self != other

    def to_sql(self) -> str:
        return " AND ".join(p.to_sql() for p in self.preds) or "true"

    def pandas_mask(self, pdf: pd.DataFrame) -> np.ndarray:
        mask = np.ones(len(pdf), dtype=bool)
        for p in self.preds:
            mask &= p.pandas_mask(pdf)
        return mask

    def describe(self) -> str:
        if not self.preds:
            return "*"
        return " ∧ ".join(p.describe() for p in self.preds)
