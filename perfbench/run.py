"""Benchmark of the system's unit of work: one ``explain()`` call.

Usage (from the repository root):

    python3 perfbench/run.py --workload mimic_q4 --seed 11 --seconds 15 --trace 0

One process, one client, closed loop: ``repro.core.explain.explain`` is
called directly, one call at a time, on Databases the process generated
from ``--seed``. The run

  1. starts a local SparkSession configured like the test suite's fixture;
  2. ``SETUP_REPEATS`` times, generates a dataset from a seed derived from
     ``--seed``, sets it up (generator + ``Database.cache_all``) and times
     the first (cold) call on that fresh Database;
  3. calls again, visiting the datasets in turn, until ``--seconds`` of
     warm calls have elapsed and at least ``MIN_WARM_CALLS`` were made;
  4. checks the outputs (``check.py``) outside the timed calls: on each
     dataset, every call's top-k must equal the last call's, and the last
     call's supports must match a recomputation on freshly materialised
     APTs.

Set-up and cold calls are reported as medians over the datasets. Only the
first cold call also pays the JVM's JIT warm-up; a single cold sample per
run swung by half its value from run to run.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` repeats the run
with the layer wrappers of ``tracer.py`` installed on the cold calls and on
every other warm call, and reports the per-layer metrics of ``layers.py``;
its untraced warm calls give the tracing overhead. Human-readable lines
come first; they list each call's wall time, CPU seconds (this process and
the driver JVM), the host's CPU-steal share during it and its Spark jobs,
so that a run slowed by other tenants shows as such. The last line of
standard output is the JSON result.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shlex
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"
# Datasets generated per run, each from its own seed (``data_seed``). With
# one dataset, the run's timings moved by up to 10 % with the seed's data;
# the medians over several datasets move less.
SETUP_REPEATS = 4
# Warm calls are taken for --seconds, but at least this many (one per
# dataset), so that one slow call (a GC pause, a burst of CPU steal) cannot
# set the median.
MIN_WARM_CALLS = 4
# The heap is fixed at this size (-Xms = -Xmx). A growing heap made the
# JVM's peak RSS bimodal across runs (1.3 or 1.6 GB), as G1's sizing
# decisions depend on timing.
DRIVER_MEMORY = "2g"
# C1 only. Under the default tiered JIT, C2's profile-guided compilation
# kept warming up for 10 to 20 calls and then left each JVM on a plateau of
# its own: warm calls agreed within 3 % inside a run but differed by 30 %
# between two runs of the same seed. C1 reaches its steady state during the
# cold calls, and the warm calls are about as fast as C2's after 15 s.
JIT_OPTIONS = "-XX:TieredStopAtLevel=1"
SESSION_CONFS = {
    "spark.sql.shuffle.partitions": "64",
    "spark.sql.execution.arrow.pyspark.enabled": "true",
    "spark.sql.autoBroadcastJoinThreshold": "-1",
}


@dataclass(frozen=True)
class Workload:
    sf: float           # MIMIC generator scale factor (λ_db-size)
    default_seed: int   # generator seed when --seed is not given
    question: str       # name in repro.workload
    params: dict        # CajadeParams fields besides seed
    why: str


# Both workloads ask the same question of the same data (the paper's Q4 on
# MIMIC, Medicare vs Private) and mine the same two join graphs (the PT and
# PT-patients) with 17 Spark jobs per warm call; they differ in what the
# miner does. The sizes keep a run (session, four set-ups each with its
# cold call, four or more warm calls over 15 s, the output check) under
# 60 s on 4 cores; 48 such runs must fit in 57 minutes.
WORKLOADS = {
    "mimic_q4": Workload(
        0.1, 11, "UQ_MIMIC4",
        dict(n_edges=1, q_cost=5e5, k=5, f1_samp=0.3),
        "the paper's default parameters: feature selection keeps few "
        "attributes and F-scores use a 30% sample, so Spark jobs dominate "
        "and mining is light",
    ),
    "mimic_q4_naive": Workload(
        0.1, 11, "UQ_MIMIC4",
        dict(n_edges=1, q_cost=5e5, k=5, f1_samp=1.0, feature_selection=False),
        "mining-heavy: the paper's Naive (no feature selection, exact "
        "F-score); LCA, support evaluation and refinement run over every "
        "attribute",
    ),
}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=None,
                    help="generator and CajadeParams seed "
                         "(default: the workload's generator seed)")
    ap.add_argument("--seconds", type=float, default=15.0,
                    help="wall-clock budget of the warm calls")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def start_spark(tmp: Path):
    """Local session matching the test fixture: broadcast joins off, 64
    shuffle partitions, Arrow on, UI off, master local[min(nproc, 4)]."""
    cores = min(len(os.sched_getaffinity(0)), 4)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join([
        f"--master local[{cores}]",
        f"--driver-memory {DRIVER_MEMORY}",
        "--conf spark.driver.host=127.0.0.1",
        "--conf spark.ui.enabled=false",
        "--conf spark.ui.showConsoleProgress=false",
        f"--conf spark.local.dir={shlex.quote(str(tmp))}",
        "--driver-java-options "
        + shlex.quote(f"-Xms{DRIVER_MEMORY} {JIT_OPTIONS} -Djava.io.tmpdir={tmp}"),
        "pyspark-shell",
    ])
    from pyspark.sql import SparkSession

    b = SparkSession.builder.appName("perfbench")
    for k, v in SESSION_CONFS.items():
        b = b.config(k, v)
    spark = b.getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session and wait until the gateway JVM has exited."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    proc = gateway.proc
    gateway.shutdown()
    SparkContext._gateway = SparkContext._jvm = None
    proc.stdin.close()  # the gateway JVM exits on EOF of its stdin
    try:
        proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def cpu_seconds(jvm_pid: int) -> float:
    """User + system CPU seconds used so far by this process and the driver
    JVM. Unlike wall time, it leaves out time the host gave to other tenants
    (CPU steal) and time spent waiting for a thread to be woken."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    with open(f"/proc/{jvm_pid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    jvm_ticks = int(fields[11]) + int(fields[12])  # utime, stime
    return me.ru_utime + me.ru_stime + jvm_ticks / os.sysconf("SC_CLK_TCK")


def jvm_peak_rss_mb(spark) -> float:
    pid = spark.sparkContext._gateway.proc.pid
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def host_record(spark) -> dict:
    import numpy
    import pandas
    import pyspark

    conf = spark.sparkContext.getConf()
    with open("/proc/meminfo") as f:
        mem_kb = int(f.readline().split()[1])
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_gb": round(mem_kb / 2**20, 1),
        "python": platform.python_version(),
        "spark": pyspark.__version__,
        "pandas": pandas.__version__,
        "numpy": numpy.__version__,
        "master": spark.sparkContext.master,
        "driver_memory": conf.get("spark.driver.memory", DRIVER_MEMORY),
        "driver_java_options": conf.get("spark.driver.extraJavaOptions", ""),
        "confs": {k: spark.conf.get(k) for k in SESSION_CONFS},
    }


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) jiffies of all CPUs. A share of steal during a run
    marks a host whose other tenants slowed it down."""
    with open("/proc/stat") as f:
        ticks = [int(x) for x in f.readline().split()[1:]]
    return ticks[7], sum(ticks)


def generate(spark, wl: Workload, seed: int):
    from repro.data.mimic import generate_mimic, mimic_schema_graph

    return generate_mimic(spark, sf=wl.sf, seed=seed), mimic_schema_graph()


class Run:
    """The calls of one benchmark run and their outcomes. ``data`` holds one
    (Database, SchemaGraph) per generated dataset; a call names its dataset
    by index."""

    def __init__(self, spark, data, uq, params):
        from tracer import JobCounter, Tracer

        self.data, self.uq, self.params = data, uq, params
        self.jobs = JobCounter(spark.sparkContext)
        self.jvm_pid = spark.sparkContext._gateway.proc.pid
        self.tracer = Tracer(self.jobs, type(spark.range(1)))
        self.calls: list[dict] = []

    @contextmanager
    def _tracing(self):
        self.tracer.spans = []
        with self.tracer.installed(), self.tracer.span("explain"):
            yield

    def call(self, traced: bool, data: int = 0, cold: bool = False) -> dict:
        from repro.core.explain import explain

        uq = self.uq
        db, sg = self.data[data]
        rec = {"traced": traced, "cold": cold, "data": data, "result": None,
               "spans": None, "error": None}
        before = self.jobs.last_job_id()
        steal0, total0 = cpu_ticks()
        cpu0 = cpu_seconds(self.jvm_pid)
        t0 = time.perf_counter()
        try:
            with self._tracing() if traced else nullcontext():
                rec["result"] = explain(
                    db, sg, uq.query, uq.t1, uq.t2, self.params
                )
        except Exception:
            rec["error"] = traceback.format_exc()
        rec["wall"] = time.perf_counter() - t0
        rec["cpu"] = cpu_seconds(self.jvm_pid) - cpu0
        steal1, total1 = cpu_ticks()
        rec["steal"] = (steal1 - steal0) / max(total1 - total0, 1)
        rec["jobs"] = self.jobs.last_job_id() - before
        if traced:
            rec["spans"] = self.tracer.spans
        self.calls.append(rec)
        return rec


def check_calls(run: Run) -> tuple[int, list[str], dict]:
    """(failed calls, problems, fingerprint) after all timed calls. For each
    generated dataset, the last call on it that returned is the reference:
    its supports are recomputed, and every other call on that dataset must
    return the same top-k. The fingerprint is the first dataset's."""
    from check import fingerprint, has_planted_signal, signature, topk
    from check import verify_supports

    problems = [
        f"call {i} raised:\n{c['error']}"
        for i, c in enumerate(run.calls) if c["error"] is not None
    ]
    failed = len(problems)
    fp = {}
    for d, (db, _) in enumerate(run.data):
        done = [(i, c["result"]) for i, c in enumerate(run.calls)
                if c["data"] == d and c["result"]]
        if not done:
            continue
        ref_i, ref = done[-1]
        try:
            bad = verify_supports(db, ref, run.uq, run.params)
        except Exception:
            bad = [traceback.format_exc()]
        problems.extend(f"dataset {d}: {b}" for b in bad)
        expls = topk(ref, run.params)
        for i, res in done:
            if bad:
                failed += 1
            elif signature(topk(res, run.params)) != signature(expls):
                problems.append(f"call {i}: top-k differs from call {ref_i}")
                failed += 1
        if d == 0:
            fp = {
                "topk": fingerprint(expls),
                "planted_signal": has_planted_signal(expls),
            }
    return failed, problems, fp


def data_seed(seed: int, repeat: int) -> int:
    """Generator seed of a run's ``repeat``-th dataset; the first is the
    run's seed itself."""
    return seed + 1000 * repeat


def median_or_zero(xs):
    return statistics.median(xs) if xs else 0.0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "core" / "explain.py").is_file():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    wl = WORKLOADS[args.workload]
    seed = wl.default_seed if args.seed is None else args.seed
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)

    t0 = time.perf_counter()
    spark = start_spark(tmp)
    session_s = time.perf_counter() - t0
    try:
        return measure(spark, wl, args, seed, session_s)
    finally:
        stop_spark(spark)


def measure(spark, wl: Workload, args, seed: int, session_s: float) -> int:
    import repro.workload
    from repro.core.config import CajadeParams

    host = host_record(spark)
    steal0, total0 = cpu_ticks()
    uq = getattr(repro.workload, wl.question)
    params = CajadeParams(**wl.params, seed=seed)

    run = Run(spark, [], uq, params)
    traced = bool(args.trace)
    setup_times = []
    for r in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        db, sg = generate(spark, wl, data_seed(seed, r))
        db.cache_all()
        setup_times.append(time.perf_counter() - t0)
        run.data.append((db, sg))
        run.call(traced, r, cold=True)
    setup_s = session_s + statistics.median(setup_times)
    # Warm calls visit the datasets in turn. Traced runs alternate untraced
    # and traced calls, both on the same dataset.
    n_warm = 0
    t_warm = time.perf_counter()
    while n_warm < MIN_WARM_CALLS or time.perf_counter() - t_warm < args.seconds:
        d = (n_warm // 2 if traced else n_warm) % SETUP_REPEATS
        run.call(traced and n_warm % 2 == 1, d)
        n_warm += 1

    t_check = time.perf_counter()
    failed, problems, fp = check_calls(run)
    check_s = time.perf_counter() - t_check
    py_peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    jvm_peak = jvm_peak_rss_mb(spark)
    steal1, total1 = cpu_ticks()
    host["cpu_steal_share"] = round((steal1 - steal0) / (total1 - total0), 4)

    cold = [c for c in run.calls if c["cold"]]
    warm = [c for c in run.calls if not c["cold"]]
    untraced = [c for c in warm if not c["traced"]]
    print(f"workload: {args.workload} (seed {seed}) — {wl.why}")
    print("host: " + json.dumps(host))
    print(f"setup: session {session_s:.3f} s + generate/cache "
          f"{[round(t, 3) for t in setup_times]} s (median taken)")

    def calls(cs):
        return ", ".join(
            f"{c['wall']:.3f} s/{c['cpu']:.2f} cpu-s/{c['steal']:.3f} steal/"
            f"{c['jobs']} jobs{' traced' if c['traced'] else ''}"
            for c in cs)

    print(f"calls: cold {calls(cold)}; warm {calls(warm)}")
    print(f"output check ({check_s:.3f} s): {len(run.calls) - failed}/"
          f"{len(run.calls)} calls ok; "
          f"explain_fail_ratio {failed / len(run.calls):.3f}")
    for p in problems:
        print("  FAIL " + p)
    print("fingerprint: " + json.dumps(fp))

    if args.trace:
        metrics, ok = layer_metrics(run, args, seed)
        unit = _units()
        out = {k: {"value": v, "unit": unit[k]} for k, v in metrics.items()}
    else:
        ok = True
        out = {
            "setup_s": (setup_s, "s"),
            "explain_cold_s": (statistics.median(c["wall"] for c in cold), "s"),
            "explain_warm_s": (median_or_zero([c["wall"] for c in untraced]), "s"),
            "py_peak_rss_mb": (py_peak, "MB"),
            "jvm_peak_rss_mb": (jvm_peak, "MB"),
        }
        n = len(untraced)
        print(f"explain_warm_s: median of n={n} warm calls" + (
            "; no percentile above it has ten samples beyond it" if n < 20
            else f"; p{100 - 1000 // n} = "
            f"{statistics.quantiles([c['wall'] for c in untraced], n=100)[99 - 1000 // n]:.4f} s"))
        for k, (v, u) in out.items():
            print(f"  {k} = {v:.4f} {u}")
        out = {k: {"value": v, "unit": u} for k, (v, u) in out.items()}
    print(json.dumps({
        "correct": failed == 0 and ok,
        "attempted": len(run.calls),
        "failed": failed,
        "metrics": out,
    }))
    return 0


def _units() -> dict:
    from layers import CALL_METRICS, COLD_METRICS, RUN_METRICS

    def unit(name: str) -> str:
        if name.endswith("_s"):
            return "s"
        return "ratio" if name.endswith(("_ratio", "_per_mined_graph")) else "count"

    return {k: unit(k) for k in (*COLD_METRICS, *RUN_METRICS, *CALL_METRICS)}


def layer_metrics(run: Run, args, seed: int) -> tuple[dict, bool]:
    """Per-layer metrics: catalog as medians over the (traced) cold calls,
    the rest as medians over the traced warm calls; also checks the trace
    arithmetic."""
    from layers import CALL_METRICS, COLD_METRICS, LAYERS, call_metrics
    from tracer import coverage

    ok = True
    per_call = []
    for i, c in enumerate(run.calls):
        if not c["traced"] or c["result"] is None:
            continue
        spans = c["spans"]
        m = call_metrics(spans, c["result"].timer.times, c["jobs"])
        per_call.append((c["cold"], m))
        cover = coverage(spans, c["wall"])
        if abs(1 - cover) > 0.03:
            ok = False
            print(f"  FAIL trace arithmetic: call {i} covers {cover:.4f} of its wall")
    cold = [m for is_cold, m in per_call if is_cold]
    warm = [m for is_cold, m in per_call if not is_cold]
    untraced = [c for c in run.calls if not (c["traced"] or c["cold"])]
    traced = [c for c in run.calls if c["traced"] and not c["cold"]]
    metrics = {k: median_or_zero([m[k] for m in cold]) for k in COLD_METRICS}
    metrics["trace_overhead_s"] = (
        median_or_zero([c["wall"] for c in traced])
        - median_or_zero([c["wall"] for c in untraced])
    )
    metrics["spark.jobs_untraced"] = median_or_zero([c["jobs"] for c in untraced])
    for k in CALL_METRICS:
        metrics[k] = median_or_zero([m[k] for m in warm])
    if metrics["spark.jobs"] != metrics["spark.jobs_untraced"]:
        print("  NOTE traced and untraced calls ran different job counts")

    print("per-layer (medians over traced warm calls; catalog over the cold calls):")
    for layer, names, moves, where in LAYERS:
        print(f"  {layer}: should move {moves} on {where}")
        for name in names.split():
            if name in metrics:
                print(f"    {name} = {metrics[name]:.4f}")
    print("  jobs by layer: " + ", ".join(
        f"{k}={v:g}" for k, v in metrics.items() if k.endswith(".spark_jobs")))
    print("  steps: " + ", ".join(
        f"{k}={v:.3f}" for k, v in metrics.items() if k.startswith("step.")))

    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"trace-{args.workload}-seed{seed}.json"
    with open(path, "w") as f:
        json.dump([
            {"call": i, "wall": c["wall"], "jobs": c["jobs"],
             "spans": [[s.name, s.start - c["spans"][0].start,
                        s.end - c["spans"][0].start, s.parent, s.jobs, s.n]
                       for s in c["spans"]]}
            for i, c in enumerate(run.calls) if c["spans"]
        ], f)
    print(f"spans written to {path.relative_to(ROOT)}")
    return metrics, ok


if __name__ == "__main__":
    sys.exit(main())
