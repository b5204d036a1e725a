#!/usr/bin/env python
"""Time the first call of a question, after a cold call, and a repeat.

Usage (from the repository root):

    python3 scripts/first_call.py [--dataset nba] [--n-edges 2]
        [--q-cost 5e5] [--sf 0.1] [--root CHECKOUT]

One local[4] session with a 4 GB driver generates the dataset at ``--sf``
and caches it (``Database.cache_all``). Then it asks the dataset's runtime
question (``experiments.common.question_for``: UQ_1 on NBA, UQ_MIMIC4 on
MIMIC) with ``bench_params(f1_samp=0.3)`` three times:

  cold    the first ``explain`` on the Database: PT, statistics and the
          question's collect plan are all built;
  first   the first call of the question: the PT is cached, but its
          memoised rows are dropped (``pt.prepared = None``), as a
          new question finds it;
  repeat  the same question again, served from the rows the previous
          call memoised on PT.

For each call it prints the wall time, the Spark actions (``count``,
``collect``, ``toPandas``, ``toArrow``; one inside another counts once), the
Spark jobs, the py4j calls made while building plans (inside
``compute_pt`` and the collect plan's ``metrics._prepared``, less those of
the actions run there), the call-site captures PySpark made (one per
``Column``-API call: ``F.col``, Column operators, …; counted by wrapping
``pyspark.errors.utils._capture_call_site`` here, not in the program), the
wall seconds spent building the collect plan in ``metrics._prepared``
(timed by wrapping it here), the "Materialize APTs" and "JG Enum." step
seconds, the join graphs mined, and the bytes the memo on PT holds after
the call (``CollectedRows.nbytes``: the Arrow buffers of every graph's
rows plus PT's side and draw arrays; "n/a" for a checkout whose memo is a
plan).
After the three calls it prints the process's Python peak RSS
(``ru_maxrss``): the first capture in a process imports IPython.

``--root`` runs another checkout's ``src/`` (e.g. a parent commit's), so
two versions can be measured with the same script.
"""
from __future__ import annotations

import argparse
import os
import resource
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ACTIONS = ("count", "collect", "toPandas", "toArrow")


class Probe:
    """Counts the actions, jobs, plan-building py4j calls and call-site
    captures of a call, and times its ``metrics._prepared``."""

    def __init__(self, spark) -> None:
        import pyspark.errors.utils

        import repro.core.explain
        import repro.core.metrics

        sc = spark.sparkContext
        self._tracker = sc.statusTracker()
        self._bus = sc._jsc.sc().listenerBus()
        self.actions: Counter = Counter()
        self.py4j = 0
        self.captures = 0
        self.prepared_s = 0.0
        self._depth = 0      # open actions
        self._building = 0   # open plan-building functions
        client = sc._gateway._gateway_client
        send = client.send_command

        def counted_send(*args, **kwargs):
            self.py4j += self._building > 0 and self._depth == 0
            return send(*args, **kwargs)

        client.send_command = counted_send
        capture = pyspark.errors.utils._capture_call_site

        def counted_capture(depth):
            self.captures += 1
            return capture(depth)

        # PySpark's call-site wrapper looks the function up in its module.
        pyspark.errors.utils._capture_call_site = counted_capture
        cls = type(spark.range(1))
        for name in ACTIONS:
            setattr(cls, name, self._action(name, getattr(cls, name)))
        repro.core.explain.compute_pt = self._building_in(
            repro.core.explain.compute_pt
        )
        repro.core.metrics._prepared = self._timed(
            self._building_in(repro.core.metrics._prepared)
        )

    def _action(self, name, fn):
        def wrapped(*args, **kwargs):
            self.actions[name] += self._depth == 0
            self._depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._depth -= 1

        return wrapped

    def _building_in(self, fn):
        def wrapped(*args, **kwargs):
            self._building += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._building -= 1

        return wrapped

    def _timed(self, fn):
        def wrapped(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.prepared_s += time.perf_counter() - t0

        return wrapped

    def last_job_id(self) -> int:
        self._bus.waitUntilEmpty()
        return max(self._tracker.getJobIdsForGroup(None) or [-1])

    def reset(self) -> None:
        self.actions.clear()
        self.py4j = 0
        self.captures = 0
        self.prepared_s = 0.0


def memo_bytes(pt) -> str:
    """The bytes of the rows memoised on ``pt``, or "n/a"."""
    nbytes = getattr(pt.prepared and pt.prepared[1], "nbytes", None)
    return "n/a" if nbytes is None else f"{nbytes / 1e6:.2f} MB"


def start_spark():
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        "--master local[4] --driver-memory 4g "
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
        "--conf spark.ui.showConsoleProgress=false pyspark-shell"
    )
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("first_call")
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", "-1")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--dataset", choices=("nba", "mimic"), default="nba")
    ap.add_argument("--n-edges", type=int, default=2)
    ap.add_argument("--q-cost", type=float, default=5e5)
    ap.add_argument("--sf", type=float, default=0.1)
    ap.add_argument("--root", type=Path, default=ROOT,
                    help="checkout whose src/ runs (default: this one)")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(args.root.resolve() / "src"))

    from repro.core.explain import explain
    from repro.experiments.common import bench_params, get_dataset, question_for

    spark = start_spark()
    try:
        t0 = time.perf_counter()
        db, sg = get_dataset(spark, args.dataset, args.sf)
        print(f"setup {time.perf_counter() - t0:.2f} s", flush=True)
        uq = question_for(args.dataset)
        params = bench_params(
            f1_samp=0.3, n_edges=args.n_edges, q_cost=args.q_cost
        )
        probe = Probe(spark)
        res = None
        for call in ("cold", "first", "repeat"):
            if call == "first":
                res.pt.prepared = None
            probe.reset()
            jobs = probe.last_job_id()
            t0 = time.perf_counter()
            res = explain(db, sg, uq.query, uq.t1, uq.t2, params)
            wall = time.perf_counter() - t0
            times = res.timer.times
            print(
                f"{call:6s} wall {wall:6.2f} s | actions "
                f"{sum(probe.actions.values())} {dict(probe.actions)} | jobs "
                f"{probe.last_job_id() - jobs} | plan py4j calls "
                f"{probe.py4j} | call-site captures {probe.captures} | "
                f"_prepared {probe.prepared_s:.2f} s | Materialize APTs "
                f"{times.get('Materialize APTs', 0.0):.2f} s | JG Enum. "
                f"{times.get('JG Enum.', 0.0):.2f} s | mined "
                f"{res.n_mined}/{res.n_join_graphs} | explanations "
                f"{len(res.explanations)} | memo {memo_bytes(res.pt)}",
                flush=True,
            )
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(f"python peak RSS {peak:.1f} MB", flush=True)
    finally:
        spark.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
