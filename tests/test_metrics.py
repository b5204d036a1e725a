"""Quality metrics (Def. 7): Spark path vs pandas brute force, sampling."""
import datetime as dt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.apt import materialize_apt
from repro.core.join_graph import PT_NODE, JGEdge, JoinGraph
from repro.core.metrics import (
    Support,
    SupportEvaluator,
    apt_projection,
    brute_force_support,
    collect_question,
    compute_support,
    pt_sizes,
)
from repro.core.pattern import Pattern, Predicate
from repro.core.schema_graph import fk_cond
from repro.substrate.provenance import PT_ID

T1 = {"season": "2015-16"}
T2 = {"season": "2012-13"}

COND = fk_cond(
    ("year", "year"), ("month", "month"), ("day", "day"), ("home", "home")
)


@pytest.fixture(scope="module")
def apt(toy_db, toy_pt):
    jg = JoinGraph(
        nodes=((PT_NODE, None), (1, "player_game_scoring")),
        edges=(JGEdge(PT_NODE, 1, COND, "game", "player_game_scoring"),),
    )
    return materialize_apt(toy_db, toy_pt, jg)


def P(*preds):
    return Pattern(tuple(Predicate(a, op, v) for a, op, v in preds))


CURRY23 = P(("player_game_scoring_player", "=", "S. Curry"),
            ("player_game_scoring_pts", ">=", 23))


def test_support_metrics_math():
    s = Support(cov1=58, n1=73, cov2=21, n2=47)
    prec, rec, f1 = s.metrics(1)
    assert prec == pytest.approx(58 / 79)
    assert rec == pytest.approx(58 / 73)
    assert f1 == pytest.approx(2 / (1 / prec + 1 / rec))


def test_support_metrics_primary_2():
    s = Support(cov1=10, n1=20, cov2=5, n2=8)
    assert s.recall(2) == pytest.approx(5 / 8)
    assert s.precision(2) == pytest.approx(5 / 15)


def test_support_zero_division():
    s = Support(cov1=0, n1=0, cov2=0, n2=0)
    assert s.fscore(1) == 0.0


def test_pt_sizes(toy_pt):
    assert pt_sizes(toy_pt, T1, T2) == (3, 1)


def test_pt_sizes_single_point(toy_pt):
    # t2=None → complement side
    assert pt_sizes(toy_pt, T1, None) == (3, 1)


def test_curry_pattern_support(apt, toy_pt):
    """Hand-checked: Curry ≥23 pts covers 3/3 of 2015-16 wins, 0/1 of
    2012-13 wins (his 22-point DET game is below the threshold)."""
    (s,) = compute_support(apt, toy_pt, [CURRY23], T1, T2)
    assert (s.cov1, s.n1, s.cov2, s.n2) == (3, 3, 0, 1)
    assert s.fscore(1) == pytest.approx(1.0)


def test_spark_matches_brute_force(apt, toy_pt):
    apt_pdf = apt.df.toPandas()
    pt_pdf = toy_pt.df.toPandas()
    pats = [
        CURRY23,
        P(("player_game_scoring_player", "=", "K. Thompson")),
        P(("player_game_scoring_pts", "<=", 20)),
        P(("prov_game_home_pts", ">=", 100)),
        Pattern(),
    ]
    spark_sup = compute_support(apt, toy_pt, pats, T1, T2)
    for p, s in zip(pats, spark_sup):
        b = brute_force_support(apt_pdf, pt_pdf, ("season",), p, T1, T2)
        assert (s.cov1, s.n1, s.cov2, s.n2) == (b.cov1, b.n1, b.cov2, b.n2), (
            p.describe()
        )


_TOY_PREDS = st.one_of(
    st.builds(
        Predicate,
        st.just("player_game_scoring_player"),
        st.just("="),
        st.sampled_from(["S. Curry", "K. Thompson", "D. Green", "X"]),
    ),
    st.builds(
        Predicate,
        st.sampled_from(["player_game_scoring_pts", "prov_game_home_pts"]),
        st.sampled_from(["=", "<=", ">="]),
        st.sampled_from([2, 19, 22, 27, 102, 111]),
    ),
)
_TOY_PATTERNS = st.lists(_TOY_PREDS, max_size=2, unique_by=lambda p: p.attr).map(
    lambda preds: Pattern(tuple(sorted(preds, key=lambda p: p.attr)))
)


@settings(max_examples=12, deadline=None)
@given(
    st.lists(_TOY_PATTERNS, min_size=1, max_size=4),
    st.sampled_from([T2, None]),
    st.sampled_from([None, 0.3, 0.5, 0.9]),
    st.integers(0, 50),
)
def test_compute_support_equals_brute_force(apt, toy_pt, patterns, t2, f1_samp, seed):
    """The Spark reference scorer against Def. 7 over pandas frames, with
    t2 = None and λ_F1-samp samples. The sample is drawn here with its own
    Column expression of the PT-tuple hash, so both the side and the bucket
    expressions the scorers share are checked."""
    from pyspark.sql import functions as F

    apt_pdf, pt_pdf = apt.df.toPandas(), toy_pt.df.toPandas()
    if f1_samp is not None:
        draw = toy_pt.df.select(
            PT_ID,
            F.pmod(F.xxhash64(F.col(PT_ID), F.lit(seed)), F.lit(10000)).alias("b"),
        ).toPandas()
        ids = set(draw.loc[draw["b"] < int(f1_samp * 10000), PT_ID])
        apt_pdf = apt_pdf[apt_pdf[PT_ID].isin(ids)]
        pt_pdf = pt_pdf[pt_pdf[PT_ID].isin(ids)]
    want = [
        brute_force_support(apt_pdf, pt_pdf, ("season",), p, T1, t2)
        for p in patterns
    ]
    assert compute_support(apt, toy_pt, patterns, T1, t2, f1_samp, seed) == want


def test_evaluator_matches_spark(apt, toy_db, toy_pt):
    pats = [
        CURRY23,
        P(("player_game_scoring_pts", ">=", 14)),
        P(("player_game_scoring_player", "=", "D. Green")),
    ]
    attrs = ["player_game_scoring_player", "player_game_scoring_pts"]
    sides = collect_question(None, toy_pt, (), T1, T2)
    sided = materialize_apt(toy_db, sides.pt, apt.jg)
    ev = SupportEvaluator(
        apt_projection(sided, attrs).toPandas(), sides.n1, sides.n2
    )
    got = ev.supports(pats)
    want = compute_support(apt, toy_pt, pats, T1, T2)
    assert [(s.cov1, s.n1, s.cov2, s.n2) for s in got] == [
        (s.cov1, s.n1, s.cov2, s.n2) for s in want
    ]


def test_evaluator_matches_spark_under_f1_sampling(apt, toy_db, toy_pt):
    # At rate 0.5 and seed 2 the sample keeps 2 of side 1's 3 tuples and
    # side 2's one tuple.
    pats = [
        CURRY23,
        P(("player_game_scoring_pts", ">=", 14)),
        P(("player_game_scoring_player", "=", "S. Curry")),
        P(("player_game_scoring_player", "=", "K. Thompson")),
        Pattern(),
    ]
    attrs = ["player_game_scoring_player", "player_game_scoring_pts"]
    sides = collect_question(None, toy_pt, (), T1, T2, f1_samp=0.5, seed=2)
    assert (sides.n1, sides.n2, sides.f1_samp) == (2, 1, 0.5)
    sided = materialize_apt(toy_db, sides.pt, apt.jg)
    ev = SupportEvaluator(
        apt_projection(sided, attrs).toPandas(), sides.n1, sides.n2
    )
    want = compute_support(apt, toy_pt, pats, T1, T2, f1_samp=0.5, seed=2)
    assert ev.supports(pats) == want


def test_coverage_counts_pt_tuples_not_apt_rows(apt, toy_pt):
    # The 2012-12-05 game fans out to 3 APT rows; a pattern matching all of
    # them covers ONE provenance tuple.
    p = P(("prov_game_day", "=", 5))
    (s,) = compute_support(apt, toy_pt, [p], T2, T1)
    assert s.cov1 == 1


def test_empty_pattern_counts_joinable_tuples(apt, toy_pt):
    (s,) = compute_support(apt, toy_pt, [Pattern()], T1, T2)
    # every toy PT tuple has at least one player row → full coverage
    assert (s.cov1, s.cov2) == (3, 1)


def test_single_point_question(apt, toy_pt):
    (s,) = compute_support(apt, toy_pt, [CURRY23], T1, None)
    assert (s.cov1, s.n1, s.cov2, s.n2) == (3, 3, 0, 1)


def test_sampling_is_deterministic(apt, toy_pt):
    a = compute_support(apt, toy_pt, [CURRY23], T1, T2, f1_samp=0.5, seed=1)
    b = compute_support(apt, toy_pt, [CURRY23], T1, T2, f1_samp=0.5, seed=1)
    assert (a[0].cov1, a[0].n1) == (b[0].cov1, b[0].n1)


def test_sampling_shrinks_denominators(nba_db):
    from repro.substrate.provenance import compute_pt
    from repro.workload import Q_NBA4, UQ_1

    pt = compute_pt(nba_db, Q_NBA4)
    full = pt_sizes(pt, UQ_1.t1, UQ_1.t2)
    samp = pt_sizes(pt, UQ_1.t1, UQ_1.t2, f1_samp=0.3, seed=0)
    assert samp[0] <= full[0] and samp[1] <= full[1]


def test_batching_many_patterns(apt, toy_pt):
    pats = [P(("player_game_scoring_pts", ">=", k)) for k in range(0, 44)]
    sup = compute_support(apt, toy_pt, pats, T1, T2)
    assert len(sup) == 44
    # monotone: higher threshold → fewer covered tuples
    covs = [s.cov1 for s in sup]
    assert covs == sorted(covs, reverse=True)


def test_empty_pattern_list(apt, toy_pt):
    assert compute_support(apt, toy_pt, [], T1, T2) == []


@pytest.fixture(scope="module")
def null_group_pt(spark):
    """A PT with a NULL group-by value: seasons A, A, B, NULL."""
    from repro.substrate.catalog import Database
    from repro.substrate.provenance import compute_pt
    from repro.substrate.query import AggQuery

    game = spark.createDataFrame(
        [(1, "A", 10), (2, "A", 30), (3, "B", 20), (4, None, 40)],
        "id int, season string, pts int",
    )
    db = Database(spark)
    db.add("null_game", game, ("id",))
    db.cache_all()
    query = AggQuery(
        tables=(("null_game", "g"),), group_by=(("g.season", "season"),)
    )
    return db, compute_pt(db, query)


@pytest.mark.parametrize(
    "t1, t2, sizes",
    [
        ({"season": "A"}, None, (2, 2)),  # NULL-season tuple is on side 2
        ({"season": None}, {"season": "A"}, (1, 2)),
        ({"season": "B"}, {"season": None}, (1, 1)),
    ],
)
def test_null_group_value_sides_agree(null_group_pt, t1, t2, sizes):
    from repro.core.join_graph import empty_join_graph

    db, pt = null_group_pt
    apt = materialize_apt(db, pt, empty_join_graph())
    pats = [Pattern(), P(("prov_null_game_pts", ">=", 25))]
    assert pt_sizes(pt, t1, t2) == sizes
    spark_sup = compute_support(apt, pt, pats, t1, t2)
    apt_pdf, pt_pdf = apt.df.toPandas(), pt.df.toPandas()
    brute = [
        brute_force_support(apt_pdf, pt_pdf, ("season",), p, t1, t2)
        for p in pats
    ]
    sides = collect_question(None, pt, (), t1, t2)
    sided = materialize_apt(db, sides.pt, empty_join_graph())
    ev = SupportEvaluator(
        apt_projection(sided, ["prov_null_game_pts"]).toPandas(),
        sides.n1,
        sides.n2,
    )
    assert (sides.n1, sides.n2) == sizes
    assert spark_sup == brute == ev.supports(pats)
    # The empty pattern covers every tuple of both sides.
    assert (spark_sup[0].cov1, spark_sup[0].cov2) == sizes


def test_question_sides_fall_back_to_exact_when_sample_misses_a_side(toy_pt):
    # Side 2 has one PT tuple; a tiny rate misses it, so every tuple counts.
    sides = collect_question(None, toy_pt, (), T1, T2, f1_samp=0.0001, seed=0)
    assert (sides.n1, sides.n2, sides.f1_samp) == (3, 1, None)
    assert sides.pt.df.filter("__f1").count() == 4


def test_question_sides_restrict_pt_to_the_two_sides(toy_pt):
    sides = collect_question(None, toy_pt, (), T1, T2)
    assert sides.pt.n_rows == 4
    rows = sides.pt.df.select("season", "__side").distinct().collect()
    assert {(r["season"], r["__side"]) for r in rows} == {
        ("2015-16", 1), ("2012-13", 2)
    }


@pytest.fixture(scope="module")
def split_db(spark):
    """PT over ``sg`` plus two context relations: ``sc`` has an int column
    with NULLs on joined rows, ``sd`` an int column ``sc`` lacks."""
    from repro.substrate.catalog import Database
    from repro.substrate.provenance import compute_pt
    from repro.substrate.query import AggQuery

    db = Database(spark)
    db.add(
        "sg",
        spark.createDataFrame(
            [(i, "A" if i % 3 else "B", 10 * i) for i in range(1, 13)],
            "id int, season string, pts int",
        ),
        ("id",),
    )
    db.add(
        "sc",
        spark.createDataFrame(
            [(i, None if i % 4 == 0 else i * 7) for i in range(1, 13)],
            "id int, bonus int",
        ),
        ("id",),
    )
    db.add(
        "sd",
        spark.createDataFrame(
            [(i, i % 5) for i in range(1, 13)], "id int, rank int"
        ),
        ("id",),
    )
    db.cache_all()
    query = AggQuery(tables=(("sg", "g"),), group_by=(("g.season", "season"),))
    return db, compute_pt(db, query)


# At 0.0001 the sample misses both sides, so every tuple counts.
@pytest.mark.parametrize("f1_samp", [None, 0.5, 0.0001])
def test_collected_frames_equal_each_graph_own_collect(split_db, f1_samp):
    import pandas as pd

    from repro.core.join_graph import empty_join_graph
    from repro.core.metrics import ROW_HASH, collect_question

    db, pt = split_db
    graphs = [
        JoinGraph(
            nodes=((PT_NODE, None), (1, rel)),
            edges=(JGEdge(PT_NODE, 1, fk_cond(("id", "id")), "sg", rel),),
        )
        for rel in ("sc", "sd")
    ] + [empty_join_graph()]
    t1, t2 = {"season": "A"}, {"season": "B"}
    sides = collect_question(db, pt, graphs, t1, t2, f1_samp, seed=5)
    assert sides.collected[graphs[0]][1]["sc_bonus"].isna().any()
    assert "sc_bonus" not in sides.collected[graphs[1]][1]
    for jg in graphs:
        apt = materialize_apt(db, sides.pt, jg)
        want = apt_projection(apt, apt.pattern_cols, seed=5).toPandas()
        got = sides.collected[jg][1]
        assert got[ROW_HASH].dtype == "int64"

        def ordered(pdf):
            return pdf.sort_values([ROW_HASH, PT_ID]).reset_index(drop=True)

        pd.testing.assert_frame_equal(ordered(got), ordered(want))


@pytest.mark.parametrize("f1_samp", [None, 0.5])
def test_collected_frames_do_not_need_dense_pt_ids(apt, toy_db, toy_pt, f1_samp):
    """With PT tuple ids that are a content hash (sparse, and negative for
    some tuples), every collected frame still equals its graph's own
    collect: a row's side and sample draw come with the row."""
    from dataclasses import replace

    import pandas as pd

    from repro.core.join_graph import empty_join_graph
    from repro.core.metrics import ROW_HASH
    from repro.substrate.query import quote

    cols = [quote(c) for c in toy_pt.df.columns if c != PT_ID]
    hashed = replace(toy_pt, df=toy_pt.df.selectExpr(
        *cols, f"xxhash64({quote(PT_ID)}) AS {quote(PT_ID)}"
    ))
    ids = [r[PT_ID] for r in hashed.df.select(PT_ID).collect()]
    assert min(ids) < 0 < max(ids) and len(set(ids)) == len(ids) == 4
    graphs = [apt.jg, empty_join_graph()]
    # At rate 0.5 and seed 3 the sample keeps 1 of side 1's 3 tuples and
    # side 2's one tuple.
    sides = collect_question(toy_db, hashed, graphs, T1, T2, f1_samp, seed=3)
    assert (sides.n1, sides.n2) == ((3, 1) if f1_samp is None else (1, 1))
    for jg in graphs:
        sided = materialize_apt(toy_db, sides.pt, jg)
        want = apt_projection(sided, sided.pattern_cols, seed=3).toPandas()
        got = sides.collected[jg][1]

        def ordered(pdf):
            return pdf.sort_values([ROW_HASH, PT_ID]).reset_index(drop=True)

        pd.testing.assert_frame_equal(ordered(got), ordered(want))


# A string constant with a quote, a backslash, a double quote and a control
# character: rendered as Python's repr or as unescaped SQL, it would not
# parse or would match another value.
_ODD_CONST = """it's \\ a "note"\x7f"""


@pytest.fixture(scope="module")
def odd_db(spark):
    """PT over ``odd`` whose attributes are SQL reserved words or need
    backticks (``order``, ``group``, a space, a dot and a backtick), and
    a context relation ``my rel`` joined on ``order`` and a string
    constant that holds a quote."""
    import pandas as pd

    from repro.substrate.catalog import Database
    from repro.substrate.provenance import compute_pt
    from repro.substrate.query import AggQuery

    n = 12
    db = Database(spark)
    db.add(
        "odd",
        spark.createDataFrame(pd.DataFrame({
            "order": range(n),
            "group": ["a" if i % 3 else "b" for i in range(n)],
            "my col": [f"v {i % 4}" for i in range(n)],
            "a.b`c": [i % 5 for i in range(n)],
        })),
        ("order",),
    )
    db.add(
        "my rel",
        spark.createDataFrame(pd.DataFrame({
            "order": range(n),
            "note": [_ODD_CONST if i % 2 else "it" for i in range(n)],
            "select": [float(i) for i in range(n)],
        })),
        ("order",),
    )
    db.cache_all()
    query = AggQuery(tables=(("odd", "from"),), group_by=(("from.group", "when"),))
    return db, compute_pt(db, query)


@pytest.mark.parametrize("f1_samp", [None, 0.5])
def test_reserved_and_quoted_names_and_constants(odd_db, f1_samp):
    """compute_pt, materialize_apt and collect_question quote every
    identifier and render constants as literals: the collected frames equal
    each graph's own collect, and the constant selects exactly its rows."""
    import pandas as pd

    from repro.core.join_graph import empty_join_graph
    from repro.core.metrics import ROW_HASH, collect_question
    from repro.core.schema_graph import JoinCond

    db, pt = odd_db
    assert "prov_odd_a.b`c" in pt.prov_cols and pt.group_cols == ("when",)
    assert pt.n_rows == 12
    on_order = JoinCond(pairs=(("order", "order"),))
    const = JoinCond(pairs=(("order", "order"),), consts=(("r", "note", _ODD_CONST),))
    rel = "my rel"
    graphs = [
        empty_join_graph(),
        JoinGraph(
            nodes=((PT_NODE, None), (1, rel)),
            edges=(JGEdge(PT_NODE, 1, const, "odd", rel),),
        ),
        # A parallel edge with the constant becomes a filter.
        JoinGraph(
            nodes=((PT_NODE, None), (1, rel)),
            edges=(
                JGEdge(PT_NODE, 1, on_order, "odd", rel),
                JGEdge(PT_NODE, 1, const, "odd", rel),
            ),
        ),
    ]
    t1, t2 = {"when": "a"}, {"when": "b"}
    sides = collect_question(db, pt, graphs, t1, t2, f1_samp, seed=7)
    if f1_samp is None:
        assert (sides.n1, sides.n2) == (8, 4)
    for jg in graphs:
        apt = materialize_apt(db, sides.pt, jg)
        want = apt_projection(apt, apt.pattern_cols, seed=7).toPandas()
        got = sides.collected[jg][1]

        def ordered(pdf):
            return pdf.sort_values([ROW_HASH, PT_ID]).reset_index(drop=True)

        pd.testing.assert_frame_equal(ordered(got), ordered(want))
        if jg.edges:
            assert "my rel_select" in got
            assert len(got) == 6 and set(got["my rel_note"]) == {_ODD_CONST}


_GROUPS = ["A", "B", "C", None]


@st.composite
def _projections(draw):
    """A random PT over one group column ``g`` and an APT on it: NULL
    pattern values, duplicate rows, zero to three APT rows per ``__pt_id``,
    and a per-tuple F-score-sample flag."""
    import numpy as np
    import pandas as pd

    n_pt = draw(st.integers(1, 15))
    groups = draw(st.lists(st.sampled_from(_GROUPS), min_size=n_pt, max_size=n_pt))
    flags = draw(st.lists(st.booleans(), min_size=n_pt, max_size=n_pt))
    pt_pdf = pd.DataFrame({PT_ID: np.arange(n_pt, dtype=np.int64), "g": groups})
    rows = []
    for i in range(n_pt):
        for _ in range(draw(st.integers(0, 3))):
            rows.append((
                i,
                groups[i],
                draw(st.sampled_from(["x", "y", None])),
                draw(st.sampled_from([1.0, 2.0, 3.0, float("nan")])),
            ))
    apt_pdf = pd.DataFrame(rows, columns=[PT_ID, "g", "c", "v"]).astype(
        {PT_ID: "int64", "v": "float64"}
    )
    t1 = {"g": draw(st.sampled_from(_GROUPS))}
    t2 = draw(st.one_of(st.none(), st.sampled_from(_GROUPS).map(lambda g: {"g": g})))
    if t2 == t1:
        t2 = None
    return pt_pdf, apt_pdf, np.array(flags), t1, t2


_PREDS = st.one_of(
    st.builds(Predicate, st.just("c"), st.just("="), st.sampled_from(["x", "y", "z"])),
    st.builds(
        Predicate,
        st.just("v"),
        st.sampled_from(["=", "<=", ">="]),
        st.sampled_from([1.0, 2.0, 2.5, 3.0]),
    ),
)
_PATTERNS = st.lists(_PREDS, max_size=2, unique_by=lambda p: p.attr).map(
    lambda preds: Pattern(tuple(sorted(preds, key=lambda p: p.attr)))
)


@settings(max_examples=300, deadline=None)
@given(_projections(), st.lists(_PATTERNS, min_size=1, max_size=8))
def test_evaluator_equals_brute_force(data, patterns):
    from repro.core.metrics import F1_FLAG, SIDE, pandas_side

    pt_pdf, apt_pdf, flags, t1, t2 = data
    # What collect_question hands the evaluator: the APT rows on the two
    # sides with their side and flag, and the sampled side sizes.
    pt_side = pandas_side(pt_pdf, ("g",), t1, t2)
    proj = apt_pdf.assign(
        **{SIDE: pt_side[apt_pdf[PT_ID]], F1_FLAG: flags[apt_pdf[PT_ID]]}
    )
    proj = proj[proj[SIDE] > 0].drop(columns="g")
    n1 = int(((pt_side == 1) & flags).sum())
    n2 = int(((pt_side == 2) & flags).sum())
    ev = SupportEvaluator(proj, n1, n2)
    sampled_pt = pt_pdf[flags]
    sampled_apt = apt_pdf[flags[apt_pdf[PT_ID]]]
    want = [
        brute_force_support(sampled_apt, sampled_pt, ("g",), p, t1, t2)
        for p in patterns
    ]
    assert ev.supports(patterns) == want


def test_evaluator_compares_each_predicate_once(monkeypatch):
    import pandas as pd

    calls = []
    orig = Predicate.pandas_mask

    def counting(self, pdf):
        calls.append(self)
        return orig(self, pdf)

    monkeypatch.setattr(Predicate, "pandas_mask", counting)
    proj = pd.DataFrame({
        PT_ID: [0, 0, 1, 2, 3],
        "__side": [1, 1, 1, 2, 2],
        "__f1": [True] * 5,
        "c": ["x", "y", "x", None, "x"],
        "v": [1.0, 2.0, 3.0, 2.0, None],
    })
    ev = SupportEvaluator(proj, 2, 2)
    pats = [
        P(("c", "=", "x")),
        P(("v", ">=", 2.0)),
        P(("c", "=", "x"), ("v", ">=", 2.0)),
        P(("c", "=", "x"), ("v", "<=", 2.0)),
        Pattern(),
    ]
    first = ev.supports(pats)
    assert ev.supports(pats[::-1]) == first[::-1]
    distinct = {p for pat in pats for p in pat.preds}
    assert len(calls) == len(set(calls)) == len(distinct) == 3
    # tuple 1 (x, 3.0) matches both predicates; tuple 3's v is NULL.
    assert [(s.cov1, s.cov2) for s in first] == [
        (2, 1), (2, 1), (1, 0), (1, 0), (2, 2)
    ]


_SIDE_POOLS = {
    "int": ("int", [1, 2, 7, None], 99),
    "string": ("string", ["A", "B", "", None], "Z"),
    "date": (
        "date",
        [dt.date(2012, 1, 1), dt.date(2015, 6, 30), None],
        dt.date(1999, 12, 31),
    ),
}


@st.composite
def _side_cases(draw):
    """A frame over one or two group columns of type int, string or date
    (NULLs included) and questions on it: t2 = None, t1 = t2, and values
    absent from the frame."""
    kinds = draw(st.lists(st.sampled_from(sorted(_SIDE_POOLS)), min_size=1, max_size=2))
    cols = tuple(f"g{i}" for i in range(len(kinds)))
    pools = [_SIDE_POOLS[k][1] for k in kinds]
    n = draw(st.integers(0, 12))
    rows = [tuple(draw(st.sampled_from(p)) for p in pools) for _ in range(n)]

    def answer():
        return {
            c: draw(st.sampled_from(_SIDE_POOLS[k][1] + [_SIDE_POOLS[k][2]]))
            for c, k in zip(cols, kinds)
        }

    questions = []
    for _ in range(draw(st.integers(1, 4))):
        t1 = answer()
        t2 = draw(st.one_of(st.none(), st.just(t1), st.builds(answer)))
        questions.append((t1, t2))
    schema = ", ".join(f"{c} {_SIDE_POOLS[k][0]}" for c, k in zip(cols, kinds))
    return schema, rows, cols, questions


@settings(max_examples=40, deadline=None)
@given(_side_cases())
def test_pandas_side_equals_spark_side_col(spark, case):
    """``brute_force_support``, the reference both scorers are checked
    against, splits sides with ``pandas_side`` over Arrow-converted group
    columns; it must agree with ``side_sql``, the rule the pipeline runs."""
    import numpy as np
    import pandas as pd

    from repro.core.metrics import pandas_side, side_sql

    schema, rows, cols, questions = case
    # From pandas: Arrow, no Python worker (~10x faster than a row list).
    df = spark.createDataFrame(pd.DataFrame(rows, columns=list(cols)), schema)
    sides = [
        f"{side_sql(cols, t1, t2)} AS s{j}"
        for j, (t1, t2) in enumerate(questions)
    ]
    table = df.selectExpr(*cols, *sides).toArrow()  # rows keep their order
    groups = table.select(list(cols)).to_pandas(date_as_object=True)
    for j, (t1, t2) in enumerate(questions):
        want = table.column(f"s{j}").fill_null(0).to_numpy()
        got = pandas_side(groups, cols, t1, t2)
        assert np.array_equal(got, want), (t1, t2)


def test_collected_rows_are_reused_and_dropped_with_their_pt(
    spark, toy_db, toy_query, apt, job_counter
):
    """The rows of the last collect are memoised per PT: a repeated
    question reuses them and runs no Spark job, while another question,
    ``Database.add`` and a recomputed PT each collect anew."""
    from repro.core.metrics import collect_question
    from repro.substrate.catalog import Database
    from repro.substrate.provenance import compute_pt

    db = Database(spark)
    for name in toy_db.names():
        db.add(name, toy_db.df(name), toy_db.pk(name))
    pt = compute_pt(db, toy_query)

    def rows(pt):
        return pt.prepared[1]

    first = collect_question(db, pt, [apt.jg], T1, T2)
    first_rows = rows(pt)
    jobs = job_counter()
    again = collect_question(db, pt, [apt.jg], dict(T1), dict(T2))
    assert job_counter() == jobs
    assert rows(pt) is first_rows
    assert again.collected[apt.jg][1].equals(first.collected[apt.jg][1])
    other = collect_question(db, pt, [apt.jg], T1, None)
    other_rows = rows(pt)
    assert other_rows is not first_rows
    assert (first.n1, first.n2, other.n1, other.n2) == (3, 1, 3, 1)
    collect_question(db, pt, [apt.jg], T1, T2)
    assert rows(pt) not in (first_rows, other_rows)

    # Drop the 2016-01-22 game (2015-16, two scoring rows).
    db.add("game", toy_db.df("game").filter("day != 22"), toy_db.pk("game"))
    added = compute_pt(db, toy_query)
    assert added.prepared is None
    sides = collect_question(db, added, [apt.jg], T1, T2)
    assert (sides.n1, sides.n2) == (2, 1)
    assert len(sides.collected[apt.jg][1]) == len(first.collected[apt.jg][1]) - 2
    added_rows = rows(added)

    added.df.unpersist()
    recomputed = compute_pt(db, toy_query)
    assert recomputed is not added and recomputed.prepared is None
    again = collect_question(db, recomputed, [apt.jg], T1, T2)
    assert rows(recomputed) is not added_rows
    assert (again.n1, again.n2) == (2, 1)


def test_collected_rows_hold_no_union_padding(apt, toy_db, toy_pt):
    """Each graph's memoised part holds its own rows and columns only, not
    the NULLs that pad the union's other branches."""
    from repro.core.join_graph import empty_join_graph
    from repro.core.metrics import BUCKET, ROW_HASH, SIDE

    jgs = [empty_join_graph(), apt.jg]
    sides = collect_question(toy_db, toy_pt, jgs, T1, T2)
    rows = toy_pt.prepared[1]
    assert len(rows.side) == len(rows.bucket) == sides.n1 + sides.n2
    for jg, part in zip(jgs, rows.parts):
        graph_apt, frame = sides.collected[jg]
        assert part.column_names == [
            PT_ID, SIDE, BUCKET, *graph_apt.pattern_cols, ROW_HASH
        ]
        assert part.num_rows == len(frame)


def test_question_values_are_cast_to_their_group_column_types(spark):
    """A question value typed unlike its group column (an int or a date
    given as a string) selects the rows Spark's comparison casts it to."""
    from repro.core.join_graph import empty_join_graph
    from repro.core.metrics import collect_question
    from repro.substrate.catalog import Database
    from repro.substrate.provenance import compute_pt
    from repro.substrate.query import AggQuery

    db = Database(spark)
    db.add(
        "ev",
        spark.createDataFrame(
            [
                (i, 2014 + i % 3, dt.date(2015, 1, 1 + i % 2), i)
                for i in range(1, 13)
            ],
            "id int, y int, d date, v int",
        ),
        ("id",),
    )
    db.cache_all()
    jg = empty_join_graph()
    for col, typed, mistyped, sizes in [
        ("y", (2015, 2016), ("2015", "2016"), (4, 4)),
        ("y", (2015, None), ("2015", None), (4, 8)),
        ("d", (dt.date(2015, 1, 2), None), ("2015-01-02", None), (6, 6)),
    ]:
        query = AggQuery(tables=(("ev", "e"),), group_by=((f"e.{col}", col),))
        pt = compute_pt(db, query)

        def ask(t1, t2):
            return collect_question(
                db, pt, [jg], {col: t1}, None if t2 is None else {col: t2}
            )

        want, got = ask(*typed), ask(*mistyped)
        assert (got.n1, got.n2) == (want.n1, want.n2) == sizes
        assert got.collected[jg][1].equals(want.collected[jg][1])
