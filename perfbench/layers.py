"""Per-layer timing for the benchmark's traced run.

Two sources of spans are merged on one clock (``time.perf_counter``,
which is also the program tracer's default clock):

* the spans ``repro.obs`` already emits when a pipeline is built with
  ``Observability.enable()`` (``ingest``, ``adapter:<fmt>``,
  ``linegraph.build``, ``snapshot.*``, ``mklgp``, ``retrieve``,
  ``mcc.graph``, ``mcc.node``, ``generate``);
* spans recorded here, by wrappers that :class:`Wrappers` installs on
  public entry points that have no span of their own, and by the
  benchmark around each operation it times (``phase.<name>``).

Everything runs on one thread, so the intervals nest.  :func:`forest`
rebuilds the nesting from start and end times alone, which also places
the spans a worker view recorded on its own tracer under the benchmark's
``phase.query`` interval.  A span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator

from repro.adapters.base import ADAPTER_REGISTRY
from repro.adapters.fusion import DataFusionEngine
from repro.confidence.history import HistoryStore
from repro.confidence.node_level import NodeScorer
from repro.core import MultiRAG
from repro.kg.graph import KnowledgeGraph
from repro.linegraph.mlg import MultiSourceLineGraph
from repro.llm.extraction import SchemaFreeExtractor
from repro.obs.trace import Tracer
from repro.retrieval.retriever import MultiSourceRetriever

#: slack when deciding whether one interval lies inside another: a
#: program span's end is rebuilt as ``start_s + duration_s``, which can
#: differ from the clock reading it came from in the last bits.
EPS = 1e-9


@dataclass(slots=True)
class Interval:
    """One closed span of work: ``[start, end]`` on the shared clock."""

    name: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(slots=True)
class Node:
    """An interval placed in the nesting forest."""

    name: str
    self_time: float
    root: str


def forest(intervals: Iterable[Interval]) -> list[Node]:
    """Nest ``intervals`` by containment and compute each one's self time.

    Intervals must be laminar (any two are disjoint or one contains the
    other), as single-threaded spans are.  The outermost interval of each
    tree names its ``root``, which is how a span is attributed to the
    benchmark phase it ran in.
    """
    ordered = sorted(intervals, key=lambda iv: (iv.start, -iv.end))
    nodes: list[Node] = []
    stack: list[tuple[Interval, Node]] = []
    for iv in ordered:
        while stack and iv.end > stack[-1][0].end + EPS:
            stack.pop()
        parent = stack[-1][1] if stack else None
        node = Node(
            name=iv.name,
            self_time=iv.duration,
            root=parent.root if parent is not None else iv.name,
        )
        if parent is not None:
            parent.self_time -= iv.duration
        nodes.append(node)
        stack.append((iv, node))
    return nodes


@dataclass
class Totals:
    """Self seconds and call counts per ``(root, span name)``."""

    seconds: dict[tuple[str, str], float]
    calls: Counter[tuple[str, str]]

    def self_s(self, root: str, name: str) -> float:
        return self.seconds.get((root, name), 0.0)

    def count(self, root: str, name: str) -> int:
        return self.calls[(root, name)]


def totals(nodes: Iterable[Node]) -> Totals:
    seconds: dict[tuple[str, str], float] = defaultdict(float)
    calls: Counter[tuple[str, str]] = Counter()
    for node in nodes:
        seconds[(node.root, node.name)] += node.self_time
        calls[(node.root, node.name)] += 1
    return Totals(dict(seconds), calls)


class Recorder:
    """Spans and counts kept in memory until the run ends.

    Counts are keyed by ``(phase, name)``; the benchmark sets
    :attr:`phase` around the operations it times.
    """

    def __init__(self) -> None:
        self.intervals: list[Interval] = []
        self.counts: Counter[tuple[str, str]] = Counter()
        self.phase = ""

    def count(self, name: str, n: int = 1) -> None:
        self.counts[(self.phase, name)] += n

    def add(self, name: str, start: float, end: float) -> None:
        self.intervals.append(Interval(name, start, end))

    def adopt(self, tracer: Tracer) -> None:
        """Move a program tracer's closed spans here."""
        for span in tracer.spans:
            self.add(span.name, span.start_s, span.start_s + span.duration_s)
        tracer.clear()

    def to_jsonl(self) -> Iterator[str]:
        for iv in sorted(self.intervals, key=lambda iv: (iv.start, -iv.end)):
            yield (
                f'{{"name": "{iv.name}", "start_s": {iv.start!r}, '
                f'"duration_s": {iv.duration!r}}}'
            )


def _timed(recorder: Recorder, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.add(name, start, time.perf_counter())
    return wrapper


def _parse(recorder: Recorder, fn: Callable[..., Any]) -> Callable[..., Any]:
    @functools.wraps(fn)
    def wrapper(self: Any, raw: Any) -> Any:
        start = time.perf_counter()
        try:
            return fn(self, raw)
        finally:
            recorder.add(f"adapters.parse.{raw.fmt}", start, time.perf_counter())
    return wrapper


def _by_source(recorder: Recorder, fn: Callable[..., Any]) -> Callable[..., Any]:
    @functools.wraps(fn)
    def wrapper(self: Any, source_id: str) -> Any:
        start = time.perf_counter()
        triples = fn(self, source_id)
        recorder.add("kg.by_source", start, time.perf_counter())
        recorder.count("kg.by_source_triples", len(triples))
        return triples
    return wrapper


def _counted(recorder: Recorder, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        recorder.count(name)
        return fn(*args, **kwargs)
    return wrapper


_MISSING = object()


class Wrappers:
    """Benchmark-side spans on entry points the program does not trace.

    :meth:`install` replaces each target attribute on its class and
    :meth:`restore` puts back exactly what was there before (deleting
    the attribute again where the class only inherited it), so untraced
    runs measure the unmodified program.
    """

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self._saved: list[tuple[type, str, object]] = []

    def targets(self) -> list[tuple[type, str, Callable[[Callable[..., Any]], Callable[..., Any]]]]:
        rec = self.recorder

        def span(name: str) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
            return lambda fn: _timed(rec, name, fn)

        found = [
            (MultiRAG, "worker_view", span("exec.view")),
            (MultiRAG, "absorb_view", span("exec.absorb")),
            (NodeScorer, "__init__", span("confidence.scorer_init")),
            (KnowledgeGraph, "by_source", lambda fn: _by_source(rec, fn)),
            (MultiSourceLineGraph, "candidates", span("linegraph.candidates")),
            (MultiSourceRetriever, "build", span("retrieval.build")),
            (HistoryStore, "update",
             lambda fn: _counted(rec, "confidence.history_updates", fn)),
            (DataFusionEngine, "fuse", span("adapters.fuse")),
            (SchemaFreeExtractor, "extract", span("adapters.extract")),
        ]
        adapter_classes = sorted(
            {type(a) for a in ADAPTER_REGISTRY.values()}, key=lambda c: c.__name__
        )
        found += [(cls, "parse", lambda fn: _parse(rec, fn)) for cls in adapter_classes]
        return found

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("wrappers are already installed")
        for owner, attr, wrap in self.targets():
            self._saved.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
            setattr(owner, attr, wrap(getattr(owner, attr)))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
