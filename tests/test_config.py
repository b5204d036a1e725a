"""Table 1: parameter defaults of the approach."""
from repro.core.config import CajadeParams


def test_default_n_edges():
    assert CajadeParams().n_edges == 3


def test_default_n_sel_attr():
    assert CajadeParams().n_sel_attr == 3


def test_default_attr_num():
    assert CajadeParams().attr_num == 3


def test_default_pat_samp():
    assert CajadeParams().pat_samp == 0.1


def test_default_f1_samp():
    assert CajadeParams().f1_samp == 0.3


def test_default_pat_samp_cap():
    # §5.3: "we capped the number of rows sampled for LCA at 1000"
    assert CajadeParams().pat_samp_cap == 1000


def test_feature_selection_on_by_default():
    assert CajadeParams().feature_selection is True


def test_overrides():
    p = CajadeParams(n_edges=1, f1_samp=0.1)
    assert (p.n_edges, p.f1_samp) == (1, 0.1)
