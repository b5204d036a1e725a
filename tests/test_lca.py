"""LCA pattern-candidate generation (§3.2)."""
import numpy as np
import pandas as pd
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import lca
from repro.core.lca import lca_candidates
from repro.core.pattern import Pattern, Predicate


def _pdf():
    return pd.DataFrame(
        {
            "team": ["GSW", "GSW", "GSW", "CLE"],
            "pos": ["G", "G", "F", "F"],
        }
    )


def test_candidates_nonempty():
    assert lca_candidates(_pdf(), ["team", "pos"])


def test_most_frequent_first():
    cands = lca_candidates(_pdf(), ["team", "pos"])
    # team=GSW pairs across combos (GSW,G)×(GSW,F) carry weight 2; every
    # other pattern's pair weight is ≤ 1 → GSW strictly first.
    assert cands[0] == Pattern((Predicate("team", "=", "GSW"),))


def test_agreement_pattern_present():
    cands = lca_candidates(_pdf(), ["team", "pos"])
    both = Pattern((Predicate("pos", "=", "G"), Predicate("team", "=", "GSW")))
    assert both in cands


def test_empty_pattern_excluded():
    assert Pattern() not in lca_candidates(_pdf(), ["team", "pos"])


def test_no_cat_attrs():
    assert lca_candidates(_pdf(), []) == []


def test_empty_frame():
    assert lca_candidates(_pdf().iloc[0:0], ["team"]) == []


def test_max_patterns_cap():
    pdf = pd.DataFrame({"a": [str(i) for i in range(10)] * 2, "b": list("xy") * 10})
    assert len(lca_candidates(pdf, ["a", "b"], max_patterns=3)) == 3


def test_nan_values_never_in_patterns():
    pdf = pd.DataFrame({"a": [None, None, "x", "x"]})
    cands = lca_candidates(pdf, ["a"])
    for p in cands:
        for pred in p.preds:
            assert pred.value is not None and pred.value == pred.value


def test_single_row_no_pairs():
    pdf = pd.DataFrame({"a": ["x"]})
    # a single row has no distinct pair and C(1,2)=0 diagonal weight
    assert lca_candidates(pdf, ["a"]) == []


def test_only_equality_predicates():
    for p in lca_candidates(_pdf(), ["team", "pos"]):
        assert all(pred.op == "=" for pred in p.preds)


def _reference_lca(sample_pdf, cat_attrs, max_patterns=None):
    """The pair-loop LCA the grouped implementation replaced: one Python
    iteration per combo pair, patterns summed in a dict in pair order."""
    if not cat_attrs or sample_pdf.empty:
        return []
    combos = (
        sample_pdf.groupby(cat_attrs, dropna=False, observed=True)
        .size()
        .reset_index(name="__w")
        .sort_values("__w", ascending=False)
        .head(lca._MAX_COMBOS)
        .reset_index(drop=True)
    )
    vals = combos[cat_attrs].to_numpy(dtype=object)
    w = combos["__w"].to_numpy()
    freq = {}
    d = len(combos)
    for i in range(d):
        for j in range(i, d):
            agree = [
                (a, vals[i][k])
                for k, a in enumerate(cat_attrs)
                if vals[i][k] == vals[j][k] and not pd.isna(vals[i][k])
            ]
            if not agree:
                continue
            pat = Pattern(
                tuple(
                    Predicate(a, "=", v)
                    for a, v in sorted(agree, key=lambda t: t[0])
                )
            )
            pw = w[i] * w[j] if i != j else w[i] * (w[i] - 1) / 2
            if pw > 0:
                freq[pat] = freq.get(pat, 0.0) + pw
    ranked = sorted(freq.items(), key=lambda kv: -kv[1])
    return ranked[:max_patterns] if max_patterns else ranked


def _exact(pats):
    """Patterns with their printed form, so 1 and 1.0 differ."""
    return [(p, p.describe()) for p in pats]


_VALUES = {
    "str": st.sampled_from(["x", "y", "z", None, float("nan")]),
    "float": st.sampled_from([1.0, 2.0, 2.5, float("nan")]),
    "int": st.integers(0, 3),
}


@st.composite
def _frames(draw):
    kinds = draw(st.lists(st.sampled_from(sorted(_VALUES)), min_size=1, max_size=4))
    n = draw(st.integers(1, 40))
    # Attribute names out of alphabetical order: predicates sort by name.
    names = [f"{chr(ord('d') - i)}{kind}" for i, kind in enumerate(kinds)]
    cols = {
        a: draw(st.lists(_VALUES[kind], min_size=n, max_size=n))
        for a, kind in zip(names, kinds)
    }
    return pd.DataFrame(cols)


@settings(max_examples=300, deadline=None)
@given(_frames(), st.integers(0, 12))
def test_grouped_lca_equals_pair_loop(pdf, max_patterns):
    want = [p for p, _ in _reference_lca(pdf, list(pdf.columns), max_patterns)]
    assert _exact(lca_candidates(pdf, list(pdf.columns), max_patterns)) == _exact(want)


def test_max_patterns_cut_inside_a_tie():
    # Four single-row combos: every pair has weight 1, so the cut at 3
    # falls among equally frequent patterns; the pair order decides.
    pdf = pd.DataFrame(
        {"b": ["x", "x", "y", "y", None], "a": ["u", "v", "u", "v", "u"]}
    )
    ranked = _reference_lca(pdf, ["b", "a"])
    assert ranked[2][1] == ranked[3][1]
    got = lca_candidates(pdf, ["b", "a"], max_patterns=3)
    assert _exact(got) == _exact([p for p, _ in ranked[:3]])


def test_wide_keys_equal_pair_loop():
    # 12 columns of ~40 values each: the per-pair key is renumbered before
    # it would overflow int64.
    rng = np.random.default_rng(3)
    pdf = pd.DataFrame(
        {f"c{k:02d}": rng.integers(0, 40, 150).astype(str) for k in range(12)}
    )
    pdf.iloc[::7, :6] = "shared"
    attrs = list(pdf.columns)
    want = [p for p, _ in _reference_lca(pdf, attrs)]
    assert want and _exact(lca_candidates(pdf, attrs)) == _exact(want)
