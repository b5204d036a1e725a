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


def test_timer_includes_the_collect_and_every_mining_step(toy_result):
    """``explain`` bills the one collect to "Materialize APTs"; each mined
    graph adds its own steps."""
    from repro.core.mine import STEP_NAMES

    assert set(STEP_NAMES) <= set(toy_result.timer.times)


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
        is_valid(j, toy_db, toy_pt, 1e9) for j in one_edge
    )


def test_cost_cap_prunes_everything(toy_db, toy_sg, toy_query, toy_pt):
    from repro.core.join_graph import enumerate_join_graphs

    jgs = enumerate_join_graphs(toy_sg, toy_query, 1)
    assert not any(
        is_valid(j, toy_db, toy_pt, q_cost=0.0) for j in jgs if j.n_edges
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
            # Collect again under this partition count.
            mimic_result.pt.prepared = None
            got = _signature(_mimic_explain(mimic_db), MIMIC_PARAMS.k)
            assert got == want, f"{key}={n}"
    finally:
        spark.conf.set(key, saved)


def test_warm_explain_runs_no_spark_action_or_job(
    mimic_db, mimic_result, action_counter, job_counter
):
    """With PT and the catalog statistics cached, a repeated question takes
    its side sizes and every mined graph's APT projection from the rows its
    first call collected and memoised on PT: no Spark action, no job."""
    before, jobs = action_counter["n"], job_counter()
    res = _mimic_explain(mimic_db)
    assert res.n_mined >= 2
    assert action_counter["n"] - before == 0
    assert job_counter() - jobs == 0


def test_dropped_memo_runs_the_collect_again(
    mimic_db, mimic_result, action_counter, job_counter
):
    """Dropping the memoised rows (``pt.prepared = None``, as the runtime
    experiments do before each timed configuration) makes the next call
    run the question's collect, so "Materialize APTs" times the APT
    joins."""
    mimic_result.pt.prepared = None
    before, jobs = dict(action_counter), job_counter()
    res = _mimic_explain(mimic_db)
    ran = {k: action_counter[k] - before[k] for k in before if k != "depth"}
    assert ran == {"n": 1, "count": 0, "collect": 0, "toPandas": 0, "toArrow": 1}
    assert job_counter() - jobs >= 1
    assert _signature(res, MIMIC_PARAMS.k) == _signature(
        mimic_result, MIMIC_PARAMS.k
    )


def test_f1_sampling_sweep_reuses_one_collect(
    mimic_db, mimic_result, job_counter
):
    """λ_F1-samp is applied to the memoised rows: a sweep over it on one
    question runs Spark jobs on its first call only, down to a rate whose
    sample misses a side (every tuple counts). Each rate's side sizes
    equal ``pt_sizes``, and its frames those of a fresh collect."""
    from repro.core.metrics import collect_question, pt_sizes
    from repro.workload import UQ_MIMIC4 as uq

    pt, seed = mimic_result.pt, MIMIC_PARAMS.seed
    graphs = [mimic_result.join_graphs[i] for i in mimic_result.mined]
    rates = (1.0, 0.5, 0.0001)

    def collect(rate):
        return collect_question(mimic_db, pt, graphs, uq.t1, uq.t2, rate, seed)

    pt.prepared = None
    swept = []
    for rate in rates:
        jobs = job_counter()
        swept.append(collect(rate))
        ran = job_counter() - jobs
        assert ran >= 1 if rate == rates[0] else ran == 0, rate
    assert [s.f1_samp for s in swept] == [None, 0.5, None]
    for rate, got in zip(rates, swept):
        assert (got.n1, got.n2) == pt_sizes(pt, uq.t1, uq.t2, got.f1_samp, seed)
        pt.prepared = None
        fresh = collect(rate)
        assert (fresh.n1, fresh.n2, fresh.f1_samp) == (got.n1, got.n2, got.f1_samp)
        for jg in graphs:
            frame, want = got.collected[jg][1], fresh.collected[jg][1]
            assert frame.dtypes.equals(want.dtypes)
            assert frame.equals(want), (rate, jg.describe())


def test_cold_explain_makes_one_action(mimic_db, fresh_db, action_counter):
    """A question's first explain on a fresh Database runs one Spark action,
    the collect: isValid decides every graph from held statistics with |PT|
    bounded by the query's row counts, so PT is not counted. |PT| is
    counted the first time it is read, and held."""
    db = fresh_db(mimic_db)
    before = dict(action_counter)
    res = _mimic_explain(db)
    assert res.n_mined >= 2
    ran = {k: action_counter[k] - before[k] for k in before if k != "depth"}
    assert ran == {"n": 1, "count": 0, "collect": 0, "toPandas": 0, "toArrow": 1}
    assert res.pt.known_rows is None
    n = res.pt.n_rows
    assert action_counter["count"] - before["count"] == 1
    assert res.pt.n_rows == res.pt.known_rows == n > 0
    assert action_counter["count"] - before["count"] == 1


@pytest.mark.parametrize("t2", ["Private", None])
def test_reported_supports_match_fresh_apts(
    mimic_db, mimic_result, t2, job_counter
):
    from repro.core.apt import materialize_apt
    from repro.core.metrics import collect_question, compute_support
    from repro.workload import UQ_MIMIC4 as uq

    if t2:
        res = mimic_result
    else:
        # Another question collects its own rows; asked again, it reuses
        # them.
        _mimic_explain(mimic_db, t2=None)
        before = job_counter()
        res = _mimic_explain(mimic_db, t2=None)
        assert job_counter() - before == 0
    t2_ = uq.t2 if t2 else None
    f1 = collect_question(
        None, res.pt, (), uq.t1, t2_, MIMIC_PARAMS.f1_samp, MIMIC_PARAMS.seed
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


def test_reported_numeric_thresholds_reevaluate_to_their_support(
    mimic_db, mimic_result
):
    """Refinement thresholds are rounded to 4 decimals; the threshold an
    explanation prints is the one its support was computed with."""
    import dataclasses

    from repro.core.apt import materialize_apt
    from repro.core.metrics import brute_force_support
    from repro.core.pattern import Pattern, Predicate
    from repro.workload import UQ_MIMIC4 as uq

    params = dataclasses.replace(MIMIC_PARAMS, f1_samp=1.0)
    res = _mimic_explain(mimic_db, params=params)
    numeric = [
        e for e in res.explanations
        if any(p.op != "=" for p in e.pattern.preds)
    ]
    assert numeric
    pt_pdf = res.pt.df.toPandas()
    apt_pdfs = {}
    for e in numeric:
        preds = []
        for p in e.pattern.preds:
            if p.op == "=":
                preds.append(p)
                continue
            sym = {"<=": "<", ">=": ">"}[p.op]
            printed = float(p.describe().split(sym, 1)[1])
            assert printed == round(printed, 4)
            preds.append(Predicate(p.attr, p.op, printed))
        if e.jg not in apt_pdfs:
            apt_pdfs[e.jg] = materialize_apt(mimic_db, res.pt, e.jg).df.toPandas()
        got = brute_force_support(
            apt_pdfs[e.jg], pt_pdf, res.pt.group_cols, Pattern(tuple(preds)),
            uq.t1, uq.t2,
        )
        assert got == e.support, e.describe()


# -- planted signals at the fixture scale -----------------------------------


def _religion_catholic(p):
    return p.attr == "prov_patients_admit_info_religion" and p.value == "Catholic"


def _emergency_or_death(p):
    return (
        p.attr.endswith("admission_type") and p.value == "EMERGENCY"
    ) or p.attr.endswith("hospital_expire_flag")


@pytest.mark.parametrize(
    "name, planted",
    [("Q_mimic5", _religion_catholic), ("Q_mimic2", _emergency_or_death)],
)
def test_planted_signal_reaches_top_k(mimic_db, name, planted):
    """The MIMIC generator plants the explanations the paper reports: Hispanic
    patients skew Catholic (Q_mimic5), and Medicare admissions skew to
    EMERGENCY and die in hospital more often (Q_mimic2). At the fixture SF,
    λ_#edges=1 and otherwise default parameters, each reaches the top k.
    (Q_nba1's planted ``player_salary_salary`` does not reach the top 10 at
    this scale, so NBA has no such gate.)"""
    from repro.data.mimic import mimic_schema_graph
    from repro.workload import MIMIC_QUESTIONS

    uq = MIMIC_QUESTIONS[name]
    params = CajadeParams(n_edges=1)
    res = explain(mimic_db, mimic_schema_graph(), uq.query, uq.t1, uq.t2, params)
    top = res.explanations[: params.k]
    assert any(planted(p) for e in top for p in e.pattern.preds), [
        e.describe() for e in top
    ]
