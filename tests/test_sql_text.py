"""Spark expressions as SQL text: ``sql_literal`` against ``F.lit``, and no
``Column``-API call (PySpark's call-site capture) on the explain path or the
support check."""
from datetime import date, datetime, timedelta, timezone
from decimal import Decimal

import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pyspark.sql import functions as F

from repro.substrate.query import sql_literal


def _assert_same_as_lit(spark, values):
    """``selectExpr(sql_literal(v))`` has the data type and value of
    ``select(F.lit(v))``, for every v in ``values`` (one query each side)."""
    df = spark.range(1)
    got = df.selectExpr(*[f"{sql_literal(v)} AS c{i}" for i, v in enumerate(values)])
    want = df.select(*[F.lit(v).alias(f"c{i}") for i, v in enumerate(values)])
    for v, g, w in zip(values, got.schema, want.schema):
        assert g.dataType == w.dataType, (v, sql_literal(v))
    # repr tells NaN from NaN-free values and -0.0 from 0.0.
    for v, g, w in zip(values, got.first(), want.first()):
        assert repr(g) == repr(w), (v, sql_literal(v))


TYPED_VALUES = [
    "O'Brien", "back\\slash", "${env:HOME}", "$x", "", "naïve ✓", "two\nlines",
    0, -(2**31), 2**31 - 1, 2**31, -(2**63), 2**63 - 1,
    np.int32(-7), np.int64(7), np.int64(2**40), np.int16(3), np.int8(-3),
    1.5, -0.0, 1e300, 5e-324, 0.1, float("nan"), float("inf"), float("-inf"),
    np.float64(2.5), np.float32(0.1),
    True, False, np.bool_(True), np.bool_(False), np.str_("S. Curry"),
    None,
    date(2015, 1, 2), date(1970, 1, 1), date(9999, 12, 31),
    datetime(2015, 1, 2, 3, 4, 5, 123456), datetime(2016, 2, 29),
    datetime(2015, 1, 2, 3, 4, 5, tzinfo=timezone(timedelta(hours=-5, minutes=-30))),
    pd.Timestamp("2016-02-29 23:59:59.999999"),
    pd.Timestamp("2012-11-29 19:00", tz="UTC"),
    Decimal("1.23"), Decimal("-0.001"), Decimal("1E+2"), Decimal("0"),
    Decimal("12345678901234567890.5"),
]


def test_sql_literal_types_and_values_match_lit(spark):
    _assert_same_as_lit(spark, TYPED_VALUES)


_NUMBERS = st.one_of(
    st.integers(-(2**63), 2**63 - 1),
    st.integers(-(2**31), 2**31 - 1).map(np.int32),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.floats(),
    st.floats().map(np.float64),
    st.decimals(min_value=-(10**12), max_value=10**12, places=4),
)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.one_of(st.text(), _NUMBERS), min_size=1, max_size=12))
def test_sql_literal_matches_lit_on_strings_and_numbers(spark, values):
    _assert_same_as_lit(spark, values)


@pytest.mark.parametrize(
    "value",
    [2**63, -(2**63) - 1, Decimal("NaN"), np.uint8(1), object(), [1]],
    ids=["int-over", "int-under", "decimal-nan", "uint8", "object", "list"],
)
def test_sql_literal_rejects_values_spark_cannot_hold(value):
    with pytest.raises(ValueError):
        sql_literal(value)


# -- no Column-API call on the explain path ---------------------------------


@pytest.fixture
def call_site_captures(monkeypatch):
    """The call-site captures PySpark makes (one per ``Column``-API call:
    ``F.col``, Column operators and methods, …), counted by wrapping
    ``pyspark.errors.utils._capture_call_site``, which the wrapper of every
    such call looks up when it is called."""
    import pyspark.errors.utils as utils

    calls = []
    capture = utils._capture_call_site

    def counting(depth):
        calls.append(depth)
        return capture(depth)

    monkeypatch.setattr(utils, "_capture_call_site", counting)
    return calls


def test_explain_and_support_check_make_no_column_api_call(
    spark, toy_db, toy_sg, toy_query, mimic_db, fresh_db, call_site_captures
):
    """A cold and a warm ``explain()`` on the toy and MIMIC fixtures, the
    output check's ``pt_sizes``/``materialize_apt``/``compute_support`` on
    every reported pattern, and an undecided ``Database.n_distinct`` build
    every Spark expression as SQL text: PySpark captures no call site."""
    from repro.core.apt import materialize_apt
    from repro.core.config import CajadeParams
    from repro.core.explain import explain
    from repro.core.metrics import compute_support, pt_sizes
    from repro.data.mimic import mimic_schema_graph
    from repro.workload import UQ_MIMIC4

    F.col("x")  # the probe sees a Column-API call in this session
    assert len(call_site_captures) == 1
    call_site_captures.clear()

    cases = [
        (fresh_db(toy_db), toy_sg, toy_query, {"season": "2015-16"},
         {"season": "2012-13"}, CajadeParams(n_edges=1, k=5)),
        (fresh_db(mimic_db), mimic_schema_graph(), UQ_MIMIC4.query,
         UQ_MIMIC4.t1, UQ_MIMIC4.t2, CajadeParams(n_edges=1, q_cost=5e5, k=5)),
    ]
    checked = 0
    for db, sg, query, t1, t2, params in cases:
        for _ in ("cold", "warm"):
            res = explain(db, sg, query, t1, t2, params)
        assert res.explanations
        # The sampling rule of mine_apt: an empty sampled side counts all.
        sizes = pt_sizes(res.pt, t1, t2, params.f1_samp, params.seed)
        f1 = None if 0 in sizes else params.f1_samp
        by_graph = {}
        for e in res.explanations[: params.k]:
            by_graph.setdefault(e.jg, []).append(e)
        for jg, expls in by_graph.items():
            apt = materialize_apt(db, res.pt, jg)
            got = compute_support(
                apt, res.pt, [e.pattern for e in expls], t1, t2, f1,
                params.seed,
            )
            assert got == [e.support for e in expls]
            checked += len(expls)
    assert checked
    db = cases[1][0]
    attrs = ("insurance", "admission_type")
    assert db.distinct_bounds("admissions", attrs)[0] == 1  # undecided
    assert db.n_distinct("admissions", attrs, also=[("insurance",)]) > 1
    assert call_site_captures == []
