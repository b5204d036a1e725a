"""Experiment harness plumbing (table rendering, params, caching)."""
import os

import pytest

from repro.core.config import CajadeParams
from repro.experiments.common import (
    bench_params,
    format_table,
    question_for,
    save_table,
)


def test_format_table_alignment():
    text = format_table([{"a": 1, "b": "xy"}, {"a": 22, "b": "z"}], "T")
    lines = text.splitlines()
    assert lines[0] == "== T =="
    assert "a" in lines[1] and "b" in lines[1]
    assert len(lines) == 5


def test_format_table_empty():
    assert "(no rows)" in format_table([], "T")


def test_format_table_union_of_columns():
    text = format_table([{"a": 1}, {"b": 2}])
    assert "a" in text and "b" in text


def test_save_table_writes_file(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    save_table([{"x": 1}], "unit_test_table")
    assert os.path.exists(tmp_path / "results" / "unit_test_table.txt")


def test_bench_params_defaults_and_overrides():
    p = bench_params()
    assert isinstance(p, CajadeParams)
    p2 = bench_params(f1_samp=0.7)
    assert p2.f1_samp == 0.7


def test_question_for_datasets():
    assert question_for("nba").query is not question_for("mimic").query


def test_question_for_unknown_dataset():
    from repro.experiments.common import get_dataset

    with pytest.raises(ValueError):
        get_dataset(None, "tpch")


def test_user_study_explanations_well_formed():
    from repro.experiments.cases import PAPER_RATINGS, _user_study_explanations

    expls = _user_study_explanations()
    assert len(expls) == 10
    assert {n for n, *_ in expls} == set(PAPER_RATINGS)
    for _name, kind, pattern, primary in expls:
        assert kind in ("prov", "cajade")
        assert primary in (1, 2)
        assert pattern.size >= 1


def test_benchmark_modules_import():
    """Tier-1 runs only tests/: importing each benchmark module catches a
    harness function it imports that no longer exists."""
    import glob
    import importlib.util

    root = os.path.join(os.path.dirname(__file__), "..", "benchmarks")
    paths = sorted(glob.glob(os.path.join(root, "bench_*.py")))
    assert len(paths) >= 9
    for path in paths:
        name = os.path.splitext(os.path.basename(path))[0]
        spec = importlib.util.spec_from_file_location(name, path)
        spec.loader.exec_module(importlib.util.module_from_spec(spec))
