"""Output check and explanation fingerprint for one workload's explain calls.

The check recomputes every reported top-k ``Support`` with the distributed
``repro.core.metrics.compute_support`` (the path the test suite validates
against ``brute_force_support``) on a freshly materialised APT of the
explanation's join graph. It applies the F-score sampling rule ``mine_apt``
applies: λ_F1-samp below 1 samples PT tuples with ``params.seed``, and a
side whose sample is empty falls back to exact sizes. It runs after the
timed calls, never inside them.
"""
from __future__ import annotations

from repro.core.apt import materialize_apt
from repro.core.config import CajadeParams
from repro.core.metrics import compute_support, pt_sizes


def topk(result, params: CajadeParams) -> list:
    return result.explanations[: params.k]


def signature(expls: list) -> list[tuple]:
    """Everything that identifies a top-k list, exact (for equality)."""
    return [
        (e.jg.describe(), e.pattern.describe(), e.primary, e.support)
        for e in expls
    ]


def fingerprint(expls: list) -> list[dict]:
    """Top-k as a reviewer reads it: structure, pattern, primary, F-score."""
    return [
        {
            "join_graph": e.jg.describe(),
            "pattern": e.pattern.describe(),
            "primary": f"t{e.primary}",
            "fscore": round(e.fscore, 4),
        }
        for e in expls
    ]


def has_planted_signal(expls: list) -> bool:
    """Whether the MIMIC generator's planted explanation reached the top-k:
    age or an EMERGENCY admission."""
    return any(
        p.attr.endswith("_age")
        or (p.attr.endswith("admission_type") and p.value == "EMERGENCY")
        for e in expls
        for p in e.pattern.preds
    )


def verify_supports(db, result, uq, params: CajadeParams) -> list[str]:
    """Recompute each top-k support; returns one message per mismatch."""
    f1 = params.f1_samp if params.f1_samp < 1.0 else None
    if f1 is not None and 0 in pt_sizes(result.pt, uq.t1, uq.t2, f1, params.seed):
        f1 = None
    by_graph: dict = {}
    for e in topk(result, params):
        by_graph.setdefault(e.jg, []).append(e)
    problems = []
    for jg, expls in by_graph.items():
        apt = materialize_apt(db, result.pt, jg)
        want = compute_support(
            apt, result.pt, [e.pattern for e in expls], uq.t1, uq.t2, f1,
            params.seed,
        )
        for e, w in zip(expls, want):
            if w != e.support:
                problems.append(
                    f"{e.describe()} on {jg.structure()}: "
                    f"reported {e.support}, recomputed {w}"
                )
    return problems
