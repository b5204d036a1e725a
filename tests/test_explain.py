"""End-to-end CaJaDE (§4) on the toy schema graph + NBA sanity check."""
import pytest

from repro.core.config import CajadeParams
from repro.core.explain import dedupe_explanations, explain
from repro.core.join_graph import is_valid


@pytest.fixture(scope="module")
def toy_result(toy_db, toy_sg, toy_query):
    params = CajadeParams(
        n_edges=1, k=5, f1_samp=1.0, pat_samp=1.0, recall_threshold=0.2
    )
    return explain(
        toy_db,
        toy_sg,
        toy_query,
        {"season": "2015-16"},
        {"season": "2012-13"},
        params,
    )


def test_globally_ranked_by_fscore(toy_result):
    scores = [e.fscore for e in toy_result.explanations]
    assert scores == sorted(scores, reverse=True)


def test_enumerates_pt_and_context_graph(toy_result):
    structures = {j.structure() for j in toy_result.join_graphs}
    assert "PT" in structures
    assert "PT - player_game_scoring" in structures


def test_mined_subset_of_enumerated(toy_result):
    assert set(toy_result.mined) <= set(range(toy_result.n_join_graphs))


def test_timer_includes_jg_enum(toy_result):
    assert "JG Enum." in toy_result.timer.times


def test_top_explanation_is_meaningful(toy_result):
    top = toy_result.explanations[0]
    assert top.fscore > 0.5


def test_dedupe_keeps_best_per_description(toy_result):
    deduped = dedupe_explanations(toy_result.explanations)
    descs = [e.describe() for e in deduped]
    assert len(descs) == len(set(descs))


def test_dedupe_top_limit(toy_result):
    assert len(dedupe_explanations(toy_result.explanations, 2)) <= 2


def test_pk_connectivity_prunes(toy_db, toy_sg, toy_query, toy_pt):
    """PT–player_game_scoring joins only the game part of the PK
    (year,month,day,home) but not player → isValid must reject it only if
    the player attr is unjoined; our toy edge covers 4 of 5 PK attrs."""
    from repro.core.join_graph import enumerate_join_graphs

    jgs = enumerate_join_graphs(toy_sg, toy_query, 1)
    one_edge = [j for j in jgs if j.n_edges == 1]
    assert one_edge
    # player_game_scoring PK includes 'player' which no edge joins → invalid
    assert not any(
        is_valid(j, toy_db, toy_pt.n_rows, 1e9) for j in one_edge
    )


def test_cost_cap_prunes_everything(toy_db, toy_sg, toy_query, toy_pt):
    from repro.core.join_graph import enumerate_join_graphs

    jgs = enumerate_join_graphs(toy_sg, toy_query, 1)
    assert not any(
        is_valid(j, toy_db, toy_pt.n_rows, q_cost=0.0) for j in jgs if j.n_edges
    )


def test_nba_explain_small(nba_db):
    """One-edge CaJaDE run over the NBA schema graph finds something."""
    from repro.data.nba import nba_schema_graph
    from repro.workload import UQ_1

    params = CajadeParams(n_edges=1, k=3, f1_samp=1.0, q_cost=5e5)
    res = explain(
        nba_db, nba_schema_graph(), UQ_1.query, UQ_1.t1, UQ_1.t2, params
    )
    assert res.n_mined >= 1
    assert res.explanations


@pytest.mark.parametrize(
    "t1, t2, missing",
    [
        ({"season": "1999-00"}, {"season": "2012-13"}, "t1={'season': '1999-00'}"),
        ({"season": "2015-16"}, {"season": "1999-00"}, "t2={'season': '1999-00'}"),
    ],
)
def test_question_tuple_without_provenance_raises(
    toy_db, toy_sg, toy_query, t1, t2, missing
):
    with pytest.raises(ValueError, match="no provenance") as err:
        explain(toy_db, toy_sg, toy_query, t1, t2, CajadeParams(n_edges=1))
    assert missing in str(err.value)


# -- the mining dataflow on MIMIC Q4 (two mined join graphs) ---------------

# The small cap makes the mining sample's row order choose its rows.
MIMIC_PARAMS = CajadeParams(
    n_edges=1, q_cost=5e5, k=5, f1_samp=0.3, pat_samp=0.2, pat_samp_cap=60,
    seed=3,
)


def _signature(res, k):
    return [
        (e.jg.describe(), e.pattern.describe(), e.primary, e.support)
        for e in res.explanations[:k]
    ]


def _mimic_explain(mimic_db, t2="Private", params=MIMIC_PARAMS):
    from repro.data.mimic import mimic_schema_graph
    from repro.workload import UQ_MIMIC4 as uq

    return explain(
        mimic_db, mimic_schema_graph(), uq.query, uq.t1,
        uq.t2 if t2 else None, params,
    )


@pytest.fixture(scope="module")
def mimic_result(mimic_db):
    return _mimic_explain(mimic_db)


def test_topk_independent_of_shuffle_partitions(spark, mimic_db, mimic_result):
    want = _signature(mimic_result, MIMIC_PARAMS.k)
    assert mimic_result.n_mined >= 2 and want
    key = "spark.sql.shuffle.partitions"
    saved = spark.conf.get(key)
    try:
        for n in ("1", "7", "64"):
            spark.conf.set(key, n)
            got = _signature(_mimic_explain(mimic_db), MIMIC_PARAMS.k)
            assert got == want, f"{key}={n}"
    finally:
        spark.conf.set(key, saved)


def test_warm_explain_makes_one_action(mimic_db, mimic_result, action_counter):
    """With PT and the catalog statistics cached, the question's side sizes
    and every mined graph's APT projection come from one action."""
    before = action_counter["n"]
    res = _mimic_explain(mimic_db)
    assert res.n_mined >= 2
    assert action_counter["n"] - before == 1


@pytest.mark.parametrize("t2", ["Private", None])
def test_reported_supports_match_fresh_apts(mimic_db, mimic_result, t2):
    from repro.core.apt import materialize_apt
    from repro.core.metrics import compute_support, question_sides
    from repro.workload import UQ_MIMIC4 as uq

    res = mimic_result if t2 else _mimic_explain(mimic_db, t2=None)
    t2_ = uq.t2 if t2 else None
    f1 = question_sides(
        res.pt, uq.t1, t2_, MIMIC_PARAMS.f1_samp, MIMIC_PARAMS.seed
    ).f1_samp
    assert f1 == MIMIC_PARAMS.f1_samp
    by_graph = {}
    for e in res.explanations:
        by_graph.setdefault(e.jg, []).append(e)
    assert by_graph
    for jg, expls in by_graph.items():
        apt = materialize_apt(mimic_db, res.pt, jg)
        want = compute_support(
            apt, res.pt, [e.pattern for e in expls], uq.t1, t2_, f1,
            MIMIC_PARAMS.seed,
        )
        assert [e.support for e in expls] == want
