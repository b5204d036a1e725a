"""In-memory span tracer that times the pipeline's layers from outside.

The program under test is not edited: :class:`Tracer` wraps the public
functions of each layer at the module where the caller looks them up
(``repro.core.explain.mine_apt``, ``repro.core.mine.materialize_apt``, ...)
and the three pyspark actions the pipeline uses (``DataFrame.count``,
``collect`` and ``toPandas``). Wrappers are installed only for the duration
of one traced call (:meth:`Tracer.installed`), so untraced calls run the
original code.

A span is (name, start, end, parent). Spark jobs are counted per action as
the change in the highest job id the status tracker knows, read after the
listener bus has drained; each action's jobs are billed to the span that was
open when it was called. Spans stay in memory until the caller aggregates
them.
"""
from __future__ import annotations

import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass

# (module, attribute, span name). ``Class.method`` attributes wrap a method.
# Each entry is the place its caller resolves the name at call time.
LAYER_FUNCS = (
    ("repro.substrate.catalog", "Database.n_rows", "catalog.stats"),
    ("repro.substrate.catalog", "Database.n_distinct", "catalog.stats"),
    ("repro.core.explain", "compute_pt", "provenance.compute_pt"),
    ("repro.core.explain", "enumerate_join_graphs", "join_graph.enumerate"),
    ("repro.core.explain", "is_valid", "join_graph.is_valid"),
    ("repro.core.explain", "mine_apt", "mine.mine_apt"),
    ("repro.core.mine", "materialize_apt", "apt.materialize"),
    ("repro.core.mine", "filter_attrs", "feature_selection.filter_attrs"),
    ("repro.core.mine", "lca_candidates", "lca.candidates"),
    ("repro.core.mine", "compute_support", "metrics.compute_support"),
    ("repro.core.mine", "numeric_fragments", "refine.fragments"),
    ("repro.core.mine", "refinements", "refine.refinements"),
    ("repro.core.mine", "diverse_topk", "topk.diverse_topk"),
    ("repro.core.metrics", "SupportEvaluator.__init__", "metrics.evaluator_build"),
    ("repro.core.metrics", "SupportEvaluator.supports", "metrics.supports"),
    ("repro.core.metrics", "pt_sizes", "metrics.pt_sizes"),
)
ACTIONS = ("count", "collect", "toPandas")
# The APT is materialised by an action on the frame ``materialize_apt``
# returned (mine_apt caches and counts it); such actions are billed to apt.
APT_ACTION = "apt.action"


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    jobs: int = 0   # Spark jobs started by this span's own action
    n: int = 0      # items the call produced or consumed (rows, patterns)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children of one span may in principle overlap, so the covered part is
    the length of the union of their intervals clipped to the parent."""
    kids: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            kids.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered, hi = 0.0, s.start
        for a, b in sorted(kids.get(i, ())):
            a, b = max(a, hi), min(b, s.end)
            if b > a:
                covered += b - a
                hi = b
        out.append(s.duration - covered)
    return out


def coverage(spans: list[Span], wall: float) -> float:
    """Share of ``wall`` that the root span's children plus its self time
    account for; 1 when the trace arithmetic holds and no time escaped the
    root span."""
    kids = sum(s.duration for s in spans if s.parent == 0)
    return (kids + self_times(spans)[0]) / wall


class JobCounter:
    """Highest Spark job id the status tracker has seen, after the listener
    bus has delivered every pending event. Jobs are counted as the change
    in this id: the tracker retains only ``spark.ui.retainedJobs`` jobs, so
    the length of its id list stops growing while the ids keep rising."""

    def __init__(self, sc) -> None:
        self._tracker = sc.statusTracker()
        self._bus = sc._jsc.sc().listenerBus()

    def last_job_id(self) -> int:
        self._bus.waitUntilEmpty()
        return max(self._tracker.getJobIdsForGroup(None) or [-1])


def _resolve(module: str, attr: str):
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for p in path:
        owner = getattr(owner, p)
    return owner, name


class Tracer:
    """Records spans for calls made while :meth:`installed` is active."""

    def __init__(self, jobs: JobCounter, dataframe_cls: type) -> None:
        self.jobs = jobs
        self.df_cls = dataframe_cls
        self.spans: list[Span] = []
        self._stack: list[int] = []
        # APT frames by id, held so that no other frame can reuse an id.
        self._apt_frames: dict[int, object] = {}
        self._in_action = False

    # -- recording --------------------------------------------------------
    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent=parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield self.spans[idx]
        finally:
            self.spans[idx].end = time.perf_counter()
            self._stack.pop()

    def _wrap_layer(self, fn, name: str):
        tracer = self

        def wrapped(*args, **kwargs):
            with tracer.span(name) as s:
                out = fn(*args, **kwargs)
                s.n = _produced(name, args, out)
                if name == "apt.materialize":
                    tracer._apt_frames[id(out.df)] = out.df
                return out

        wrapped.__wrapped__ = fn
        return wrapped

    def _wrap_action(self, fn, method: str):
        tracer = self

        def wrapped(df, *args, **kwargs):
            if tracer._in_action:  # e.g. toPandas falling back to collect
                return fn(df, *args, **kwargs)
            name = (
                APT_ACTION if id(df) in tracer._apt_frames
                else f"spark.{method}"
            )
            before = tracer.jobs.last_job_id()
            tracer._in_action = True
            try:
                with tracer.span(name) as s:
                    out = fn(df, *args, **kwargs)
                    s.n = out if method == "count" else len(out)
            finally:
                tracer._in_action = False
                s.jobs = tracer.jobs.last_job_id() - before
            return out

        wrapped.__wrapped__ = fn
        return wrapped

    @contextmanager
    def installed(self):
        """Swap every wrapper in, and restore the originals on exit."""
        saved = []
        try:
            for module, attr, name in LAYER_FUNCS:
                owner, key = _resolve(module, attr)
                saved.append((owner, key, owner.__dict__[key]))
                setattr(owner, key, self._wrap_layer(getattr(owner, key), name))
            for method in ACTIONS:
                orig = self.df_cls.__dict__[method]
                saved.append((self.df_cls, method, orig))
                setattr(self.df_cls, method, self._wrap_action(orig, method))
            yield self
        finally:
            for owner, key, orig in reversed(saved):
                setattr(owner, key, orig)
            self._apt_frames.clear()


def _produced(name: str, args: tuple, out) -> int:
    """The count a layer span carries: rows, graphs, patterns or calls."""
    if name == "provenance.compute_pt":
        return out.n_rows
    if name == "join_graph.enumerate":
        return len(out)
    if name == "join_graph.is_valid":
        return int(bool(out))
    if name == "mine.mine_apt":
        return out.apt_rows
    if name == "metrics.evaluator_build":
        return args[0].n_rows  # args[0] is the SupportEvaluator (self)
    if name == "metrics.supports":
        return len(args[1])
    if name == "metrics.compute_support":
        return len(args[2])
    if name in ("lca.candidates", "refine.refinements"):
        return len(out)
    return 0
