"""MineAPT (Algorithm 1) on the toy Example-1 database, and its mining sample."""
import numpy as np
import pandas as pd
import pytest

from repro.core.config import CajadeParams
from repro.core.join_graph import PT_NODE, JGEdge, JoinGraph, empty_join_graph
from repro.core.metrics import F1_FLAG, ROW_HASH, SIDE
from repro.core.mine import (
    Explanation,
    StepTimer,
    _mining_sample,
    _sample_threshold,
    mine_apt,
)
from repro.core.schema_graph import fk_cond
from repro.substrate.provenance import PT_ID

T1 = {"season": "2015-16"}
T2 = {"season": "2012-13"}

OMEGA1 = JoinGraph(
    nodes=((PT_NODE, None), (1, "player_game_scoring")),
    edges=(
        JGEdge(
            PT_NODE,
            1,
            fk_cond(
                ("year", "year"), ("month", "month"), ("day", "day"),
                ("home", "home"),
            ),
            "game",
            "player_game_scoring",
        ),
    ),
)


@pytest.fixture(scope="module")
def params():
    # n_sel_attr is widened because the 9-row toy APT's date attributes
    # trivially separate the two seasons and would otherwise crowd out the
    # player/pts signal under the default 3-attribute budget.
    return CajadeParams(
        k=8, f1_samp=1.0, pat_samp=1.0, recall_threshold=0.2, n_sel_attr=8
    )


@pytest.fixture(scope="module")
def result(toy_db, toy_pt, params):
    return mine_apt(toy_db, toy_pt, OMEGA1, T1, T2, params)


def test_returns_explanations(result):
    assert result.explanations
    assert all(isinstance(e, Explanation) for e in result.explanations)


def test_explanations_capped_at_k(result, params):
    assert len(result.explanations) <= params.k


def test_apt_stats_recorded(result):
    assert result.apt_rows == 8  # toy joins: 4 PT games → 8 player rows
    assert result.n_pattern_attrs > 0


def test_timings_cover_paper_steps(result):
    for step in (
        "Materialize APTs", "Feature Selection", "Gen. Pat. Cand.",
        "Sampling for F1", "F-score Calc.", "Refine Patterns",
    ):
        assert step in result.timer.times, step


def test_finds_curry_signal(result):
    """The planted Example-1 signal: Curry's points separate the seasons."""
    descs = [e.describe() for e in result.explanations]
    assert any("S. Curry" in d or "pts" in d for d in descs)


def test_supports_respect_recall_threshold(result, params):
    for e in result.explanations:
        assert e.recall >= params.recall_threshold


def test_explanations_have_valid_fscores(result):
    for e in result.explanations:
        assert 0.0 < e.fscore <= 1.0


def test_empty_apt_returns_no_explanations(toy_db, toy_pt, params):
    from repro.core.schema_graph import JoinCond

    cond = JoinCond(
        pairs=(("year", "year"),), consts=(("r", "player", "NOBODY"),)
    )
    jg = JoinGraph(
        nodes=((PT_NODE, None), (1, "player_game_scoring")),
        edges=(JGEdge(PT_NODE, 1, cond, "game", "player_game_scoring"),),
    )
    res = mine_apt(toy_db, toy_pt, jg, T1, T2, params)
    assert res.explanations == [] and res.apt_rows == 0


def test_pt_only_join_graph_mines_provenance_patterns(toy_db, toy_pt, params):
    res = mine_apt(toy_db, toy_pt, empty_join_graph(), T1, T2, params)
    for e in res.explanations:
        for p in e.pattern.preds:
            assert p.attr.startswith("prov_")


def test_step_timer_merge():
    a, b = StepTimer(), StepTimer()
    a.times["x"] = 1.0
    b.times["x"] = 2.0
    b.times["y"] = 3.0
    a.merge(b)
    assert a.times == {"x": 3.0, "y": 3.0}
    assert a.total == 6.0


def test_mine_apt_alone_makes_one_action(
    toy_db, toy_pt, params, action_counter
):
    """Called without pre-collected sides, mine_apt gets the side sizes and
    its graph's APT projection in one action."""
    from repro.core.join_graph import estimate_apt_rows

    for jg in (OMEGA1, empty_join_graph()):
        estimate_apt_rows(jg, toy_db, toy_pt.n_rows)  # catalog stats, cached
        before = action_counter["n"]
        res = mine_apt(toy_db, toy_pt, jg, T1, T2, params)
        assert res.explanations
        assert action_counter["n"] - before == 1, jg.structure()


def test_mining_the_pt_graph_keeps_the_pt_cached(
    toy_db, toy_sg, toy_query, params
):
    """Ω_0's APT is PT itself; mining it must not drop PT's cache."""
    from repro.core.explain import explain
    from repro.substrate.provenance import compute_pt

    pt = compute_pt(toy_db, toy_query)
    assert pt.df.storageLevel.useMemory
    mine_apt(toy_db, pt, empty_join_graph(), T1, T2, params)
    assert pt.df.storageLevel.useMemory
    res = explain(toy_db, toy_sg, toy_query, T1, T2, params)
    assert res.pt.df.storageLevel.useMemory


def _projection(n: int) -> pd.DataFrame:
    """A collected APT projection: two APT rows per PT tuple, int64 content
    hashes beyond float64's exact range, and five exact duplicate rows."""
    rng = np.random.default_rng(7)
    pdf = pd.DataFrame(
        {
            PT_ID: np.arange(n) // 2,
            SIDE: 1 + (np.arange(n) // 2) % 2,
            F1_FLAG: True,
            "x": rng.integers(0, 5, n),
            ROW_HASH: rng.integers(-(2**62), 2**62, n, dtype=np.int64),
        }
    )
    return pd.concat([pdf, pdf.iloc[:5]], ignore_index=True)


def _keys(pdf: pd.DataFrame) -> list[tuple[int, int]]:
    return list(zip(pdf[ROW_HASH].tolist(), pdf[PT_ID].tolist()))


@pytest.mark.parametrize(
    "rate, cap, from_rate_share",
    [(0.5, 1000, True), (0.5, 30, True), (0.01, 50, False)],
)
def test_mining_sample_depends_only_on_content(rate, cap, from_rate_share):
    proj = _projection(400)
    selected = proj[proj[ROW_HASH] % 10000 < _sample_threshold(rate)]
    # Below 20 rate-selected rows the sample is the first rows of the APT.
    assert (len(selected) >= 20) == from_rate_share
    pool = selected if from_rate_share else proj
    got = _mining_sample(proj, rate, cap)
    assert got[ROW_HASH].dtype == np.int64
    assert len(got) == min(cap, len(pool))
    assert _keys(got) == sorted(_keys(pool))[:cap]
    for seed in (1, 2):
        shuffled = proj.sample(frac=1.0, random_state=seed)
        pd.testing.assert_frame_equal(_mining_sample(shuffled, rate, cap), got)
