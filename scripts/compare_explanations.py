#!/usr/bin/env python
"""Write every explanation a perfbench workload's datasets produce, as JSON.

Usage:

    python3 scripts/compare_explanations.py ROOT WORKLOAD SEED [--out FILE]

ROOT is the checkout whose code runs (its ``src/`` and ``perfbench/run.py``;
nothing under ``perfbench/`` is changed). The script generates the run's
datasets exactly as ``perfbench/run.py --workload WORKLOAD --seed SEED``
does, calls ``explain`` once on each, and writes, per dataset, every
explanation in ranked order with its join graph, pattern, primary tuple and
exact support (cov1/n1/cov2/n2). Two checkouts' files can then be diffed:

    python3 scripts/compare_explanations.py ../parent mimic_q4 11 --out a.json
    python3 scripts/compare_explanations.py . mimic_q4 11 --out b.json
    cmp a.json b.json
"""
from __future__ import annotations

import argparse
import importlib.util
import json
import sys
from pathlib import Path


def load_run(root: Path):
    """``ROOT/perfbench/run.py`` as a module, with ``ROOT/src`` first on
    ``sys.path`` so that ``repro`` is that checkout's."""
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(root / "perfbench"))
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", root / "perfbench" / "run.py"
    )
    run = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = run  # its dataclasses look their module up
    spec.loader.exec_module(run)
    return run


def explanation_record(e) -> dict:
    s = e.support
    return {
        "join_graph": e.jg.describe(),
        "pattern": e.pattern.describe(),
        "primary": e.primary,
        "cov1": s.cov1,
        "n1": s.n1,
        "cov2": s.cov2,
        "n2": s.n2,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("root", type=Path, help="checkout whose code runs")
    ap.add_argument("workload", help="a perfbench workload name")
    ap.add_argument("seed", type=int)
    ap.add_argument("--out", type=Path, help="output file (default: stdout)")
    args = ap.parse_args(argv)

    root = args.root.resolve()
    run = load_run(root)
    if args.workload not in run.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; one of {sorted(run.WORKLOADS)}")
    wl = run.WORKLOADS[args.workload]

    import repro.workload
    from repro.core.config import CajadeParams
    from repro.core.explain import explain

    uq = getattr(repro.workload, wl.question)
    params = CajadeParams(**wl.params, seed=args.seed)
    tmp = run.OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    spark = run.start_spark(tmp)
    try:
        datasets = []
        for r in range(run.SETUP_REPEATS):
            db, sg = run.generate(spark, wl, run.data_seed(args.seed, r))
            db.cache_all()
            res = explain(db, sg, uq.query, uq.t1, uq.t2, params)
            datasets.append({
                "data_seed": run.data_seed(args.seed, r),
                "explanations": [explanation_record(e) for e in res.explanations],
            })
    finally:
        run.stop_spark(spark)
    text = json.dumps(
        {"workload": args.workload, "seed": args.seed, "datasets": datasets},
        indent=1,
    )
    if args.out:
        args.out.write_text(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
