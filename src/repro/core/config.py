"""CaJaDE hyper-parameters (the λ's of Table 1) with the paper's defaults."""
from __future__ import annotations

from dataclasses import dataclass


@dataclass
class CajadeParams:
    """Knobs of the mining pipeline. Names follow Table 1 of the paper.

    ``db_size``        λ_db-size   — dataset scale factor (generator input).
    ``n_edges``        λ_#edges    — max edges per join graph (§4).
    ``n_sel_attr``     λ_#sel-attr — attributes kept per type (numeric /
                                     categorical) by feature selection (§3.1).
    ``attr_num``       λ_attrNum   — max numeric predicates in a pattern.
    ``pat_samp``       λ_pat-samp  — sample rate for LCA candidate generation.
    ``pat_samp_cap``               — row cap of the LCA sample (paper: 1000).
    ``f1_samp``        λ_F1-samp   — PT-tuple sample rate for F-score calc.
    ``recall_threshold`` λ_recall  — patterns below this recall are pruned
                                     (and, by Prop. 3.1, their refinements).
    ``n_frag``         λ_#frag     — numeric domains are split into this many
                                     fragments; only boundaries become
                                     thresholds (§3.4).
    ``q_cost``         λ_qCost     — join graphs whose estimated APT row count
                                     exceeds this are skipped by isValid (§4).
                                     It also bounds the APT rows each mined
                                     graph collects to the driver.
    ``k``                          — patterns returned per join graph.
    ``k_cat``                      — categorical patterns kept for refinement.
    ``feature_selection``          — turn §3.1 off for the "Naive" baseline.
    ``seed``                       — all sampling/ML randomness.
    """

    db_size: float = 1.0
    n_edges: int = 3
    n_sel_attr: int = 3
    attr_num: int = 3
    pat_samp: float = 0.1
    pat_samp_cap: int = 1000
    f1_samp: float = 0.3
    recall_threshold: float = 0.1
    n_frag: int = 4
    q_cost: float = 2_000_000.0
    k: int = 10
    k_cat: int = 15
    feature_selection: bool = True
    seed: int = 0
