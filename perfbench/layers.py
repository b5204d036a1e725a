"""Per-layer metrics of one traced ``explain()`` call, and what they predict.

``call_metrics`` turns the spans of one call (the root span is ``explain``)
into the per-layer numbers the benchmark reports. ``LAYERS`` records, for
each layer, which end-to-end metric a change to it should move and on which
workload it shows (in parentheses: where it should barely show).
"""
from __future__ import annotations

import re

from tracer import APT_ACTION, Span, self_times

from repro.core.mine import STEP_NAMES

# layer, its metrics, the end-to-end metric it should move, workloads.
LAYERS = (
    ("substrate.catalog", "catalog.stats_s catalog.stats_jobs",
     "explain_cold_s", "cold calls of both workloads (none on warm calls)"),
    ("substrate.provenance", "provenance.compute_pt_s provenance.pt_rows",
     "explain_warm_s explain_cold_s", "both alike (same PT)"),
    ("core.join_graph",
     "join_graph.enumerate_s join_graph.is_valid_s join_graph.enumerated "
     "join_graph.valid join_graph.valid_ratio",
     "explain_warm_s", "both alike (same join graphs)"),
    ("core.apt", "apt.materialize_s apt.rows apt.nonempty_ratio",
     "explain_warm_s jvm_peak_rss_mb", "both alike (same APTs)"),
    ("core.mine", "mine.mine_apt_s mine.self_s mine.graphs",
     "explain_warm_s", "mimic_q4_naive (mimic_q4)"),
    ("pyspark actions",
     "spark.actions spark.action_s spark.jobs spark.jobs_per_mined_graph "
     "spark.jobs_untraced spark.unattributed_jobs <layer>.spark_jobs",
     "explain_warm_s", "mimic_q4 (mimic_q4_naive)"),
    ("core.feature_selection", "feature_selection.filter_attrs_s",
     "explain_warm_s", "mimic_q4 (mimic_q4_naive: off)"),
    ("core.lca", "lca.candidates_s lca.candidates",
     "explain_warm_s", "mimic_q4_naive (mimic_q4)"),
    ("core.metrics",
     "metrics.evaluator_build_s metrics.evaluator_rows metrics.supports_s "
     "metrics.patterns_scored metrics.pt_sizes_s metrics.compute_support_calls",
     "explain_warm_s py_peak_rss_mb", "mimic_q4_naive (mimic_q4)"),
    ("core.refine", "refine.fragments_s refine.refinements_s refine.refinements",
     "explain_warm_s", "mimic_q4_naive (mimic_q4)"),
    ("core.topk", "topk.diverse_topk_s", "explain_warm_s", "both (expected ~0)"),
    ("core.explain", "explain.self_s trace_overhead_s step.<StepTimer step>_s",
     "cross-check", "both"),
)

# Layers whose enclosing span bills Spark jobs as ``<layer>.spark_jobs``;
# catalog jobs are reported as ``catalog.stats_jobs``.
JOB_LAYERS = (
    "provenance", "join_graph", "apt", "mine", "feature_selection", "lca",
    "metrics", "refine", "topk", "explain",
)
TIMED = {
    "provenance.compute_pt_s": "provenance.compute_pt",
    "join_graph.enumerate_s": "join_graph.enumerate",
    "join_graph.is_valid_s": "join_graph.is_valid",
    "mine.mine_apt_s": "mine.mine_apt",
    "feature_selection.filter_attrs_s": "feature_selection.filter_attrs",
    "lca.candidates_s": "lca.candidates",
    "metrics.evaluator_build_s": "metrics.evaluator_build",
    "metrics.supports_s": "metrics.supports",
    "metrics.pt_sizes_s": "metrics.pt_sizes",
    "refine.fragments_s": "refine.fragments",
    "refine.refinements_s": "refine.refinements",
    "topk.diverse_topk_s": "topk.diverse_topk",
}


def step_metric(step: str) -> str:
    return "step." + re.sub(r"[^A-Za-z0-9-]+", "_", step).strip("_") + "_s"


COLD_METRICS = ("catalog.stats_s", "catalog.stats_jobs")
RUN_METRICS = ("trace_overhead_s", "spark.jobs_untraced")
CALL_METRICS = (
    "provenance.compute_pt_s", "provenance.pt_rows",
    "join_graph.enumerate_s", "join_graph.is_valid_s",
    "join_graph.enumerated", "join_graph.valid", "join_graph.valid_ratio",
    "apt.materialize_s", "apt.rows", "apt.nonempty_ratio",
    "mine.mine_apt_s", "mine.self_s", "mine.graphs",
    "spark.actions", "spark.action_s", "spark.jobs",
    "spark.jobs_per_mined_graph", "spark.unattributed_jobs",
    *(f"{layer}.spark_jobs" for layer in JOB_LAYERS),
    "feature_selection.filter_attrs_s",
    "lca.candidates_s", "lca.candidates",
    "metrics.evaluator_build_s", "metrics.evaluator_rows",
    "metrics.supports_s", "metrics.patterns_scored", "metrics.pt_sizes_s",
    "metrics.compute_support_calls",
    "refine.fragments_s", "refine.refinements_s", "refine.refinements",
    "topk.diverse_topk_s", "explain.self_s",
    *(step_metric(s) for s in STEP_NAMES),
)


def _is_action(s: Span) -> bool:
    return s.name == APT_ACTION or s.layer == "spark"


def call_metrics(spans: list[Span], step_times: dict[str, float],
                 call_jobs: int) -> dict[str, float]:
    """Per-layer numbers of one call. ``spans[0]`` is its ``explain`` root;
    ``call_jobs`` is the job-id change across the whole call."""
    selfs = self_times(spans)

    def outermost(i: int) -> bool:
        p = spans[i].parent
        while p >= 0:
            if spans[p].name == spans[i].name:
                return False
            p = spans[p].parent
        return True

    def total(name: str) -> float:
        return sum(
            s.duration for i, s in enumerate(spans)
            if s.name == name and outermost(i)
        )

    def named(name: str) -> list[Span]:
        return [s for s in spans if s.name == name]

    def billed_layer(s: Span) -> str:
        # Actions never nest (the tracer records only the outermost one).
        if s.name == APT_ACTION:
            return "apt"
        return spans[s.parent].layer if s.parent >= 0 else "explain"

    actions = [s for s in spans if _is_action(s)]
    jobs_by_layer: dict[str, int] = {}
    for s in actions:
        layer = billed_layer(s)
        jobs_by_layer[layer] = jobs_by_layer.get(layer, 0) + s.jobs

    mined = named("mine.mine_apt")
    enumerated = sum(s.n for s in named("join_graph.enumerate"))
    valid = sum(s.n for s in named("join_graph.is_valid"))
    jobs = sum(s.jobs for s in actions)
    m = {
        "catalog.stats_s": total("catalog.stats"),
        "catalog.stats_jobs": jobs_by_layer.get("catalog", 0),
        "provenance.pt_rows": sum(s.n for s in named("provenance.compute_pt")),
        "join_graph.enumerated": enumerated,
        "join_graph.valid": valid,
        "join_graph.valid_ratio": valid / enumerated if enumerated else 0.0,
        "apt.materialize_s": total("apt.materialize") + total(APT_ACTION),
        "apt.rows": sum(s.n for s in mined),
        "apt.nonempty_ratio": (
            sum(1 for s in mined if s.n > 0) / len(mined) if mined else 0.0
        ),
        "mine.self_s": sum(
            selfs[i] for i, s in enumerate(spans) if s.name == "mine.mine_apt"
        ),
        "mine.graphs": len(mined),
        "spark.actions": len(actions),
        "spark.action_s": sum(s.duration for s in actions),
        "spark.jobs": jobs,
        "spark.jobs_per_mined_graph": jobs / len(mined) if mined else 0.0,
        "spark.unattributed_jobs": call_jobs - jobs,
        "lca.candidates": sum(s.n for s in named("lca.candidates")),
        "metrics.evaluator_rows": sum(
            s.n for s in named("metrics.evaluator_build")
        ),
        "metrics.patterns_scored": sum(
            s.n for s in spans
            if s.name in ("metrics.supports", "metrics.compute_support")
        ),
        "metrics.compute_support_calls": len(named("metrics.compute_support")),
        "refine.refinements": sum(s.n for s in named("refine.refinements")),
        "explain.self_s": selfs[0],
    }
    m.update({k: total(v) for k, v in TIMED.items()})
    m.update({f"{layer}.spark_jobs": jobs_by_layer.get(layer, 0)
              for layer in JOB_LAYERS})
    m.update({step_metric(s): step_times.get(s, 0.0) for s in STEP_NAMES})
    return m
