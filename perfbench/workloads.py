"""The benchmark's three workloads and the measurements they share.

Every workload runs compute-only: the default ``SimulatedLLM`` with
``wall_latency_scale=0``, so no simulated sleep is timed, and simulated
LLM time is reported separately as ``llm_sim_s_per_query``.  Load comes
from one closed-loop client in one process (``jobs=1``).

A run has two parts:

* set-up: several cold ``MultiRAG.ingest`` calls of the base corpus,
  each into an empty snapshot store (``setup_s`` is their median);
* the measured part, which lasts ``--seconds``: a sequence of episodes,
  each starting from a fresh pipeline warm-loaded from the store.  The
  machine's speed drifts from one second to the next, so many short
  episodes spread over the run give each timed phase many samples.

Answers are checked outside every timed region against a reference path
the repository pins as identical: ``run_batch`` against a plain ``run``
loop, and the layered warm load (base + delta layers) against the
in-memory pipeline that made the adds.  Every mismatch is a failed
operation.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Sequence

import layers
import stats
from repro.adapters.base import RawSource
from repro.core import MultiRAG, MultiRAGConfig
from repro.datasets.movies import make_movies
from repro.datasets.multihop import make_hotpotqa_like
from repro.errors import ReproError
from repro.exec import Query
from repro.llm.base import StageUsage
from repro.metrics import f1_score
from repro.obs.context import Observability
from repro.snapshot import SnapshotStore

#: cold ingests per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: episodes per run however short ``--seconds`` is.
MIN_EPISODES = 4
#: generator arguments.  The corpus is the same for every run, so a
#: run-to-run difference comes from the program and the host, not from
#: a corpus whose sources happen to agree more or less; ``--seed``
#: draws the query stream from the generated question pool.
HOTPOT_ARGS = {"n_queries": 1200, "corpus_scale": 20, "seed": 7}
MOVIES_ARGS = {"scale": 10, "n_queries": 1200, "seed": 7}
#: queries drawn per run: ``hotpot_chain_batch``, ``hotpot_text`` and
#: ``movies_feedback``.  Each keeps at least 100 distinct queries, so a
#: p90 has ten or more beyond it.
CHAIN_QUERIES = 480
TEXT_QUERIES = 240
MOVIES_QUERIES = 600
#: the ``hotpot_*`` query stream is cut into this many segments; episode
#: ``i`` runs segment ``i mod HOTPOT_SEGMENTS``.  Few segments mean many
#: repetitions of each within ``--seconds``.
HOTPOT_SEGMENTS = 2
#: timed layered warm loads per ``movies_feedback`` episode.
MOVIES_LOADS = 2
#: ``movies_feedback`` holds out the last source of each of these formats.
MOVIES_HELD_OUT = ("json", "kg", "csv")
#: ``movies_feedback`` key queries re-run on both pipelines after the adds.
MOVIES_PROBE = 200

LLM_STAGES_INGEST = ("ner", "triple", "std")
LLM_STAGES_QUERY = ("relevance", "authority", "synthesis")
PARSE_FORMATS = ("text", "json", "kg", "csv")

#: per-query self time of these spans, in ms unless a scale is given.
QUERY_LAYERS = {
    "exec.view_ms": "exec.view",
    "exec.absorb_ms": "exec.absorb",
    "confidence.scorer_init_ms": "confidence.scorer_init",
    "kg.by_source_ms": "kg.by_source",
    "core.mklgp_self_ms": "mklgp",
    "core.generate_ms": "generate",
    "retrieval.retrieve_ms": "retrieve",
    "confidence.mcc_graph_ms": "mcc.graph",
    "confidence.mcc_node_ms": "mcc.node",
    "linegraph.candidates_us": "linegraph.candidates",
}
#: call counts per query of these spans.
QUERY_CALLS = {
    "exec.view_calls_per_query": "exec.view",
    "exec.absorb_calls_per_query": "exec.absorb",
    "confidence.scorer_init_calls_per_query": "confidence.scorer_init",
}


def peak_rss_mb() -> float:
    """Peak resident set of this process without its file-backed pages.

    The peak (``VmHWM``) also counts mapped interpreter and library pages,
    whose residency follows the host's page cache: huge file pages moved
    it by 11 MB between otherwise identical runs.  Subtracting the
    file-backed and shared resident sets leaves the program's own memory.
    """
    kb: dict[str, int] = {}
    with open("/proc/self/status") as status:
        for line in status:
            key, _, value = line.partition(":")
            if key in ("VmHWM", "RssFile", "RssShmem"):
                kb[key] = int(value.split()[0])
    return (kb["VmHWM"] - kb["RssFile"] - kb["RssShmem"]) / 1024.0


def answer_key(result: Any) -> tuple[Any, ...] | None:
    """Everything a caller sees of an answer: ranked values with their
    confidence and sources, and the generated text."""
    if result is None:
        return None
    return (
        tuple((a.value, a.confidence, a.sources) for a in result.answers),
        result.generated_text,
    )


def reference(rag: MultiRAG, queries: Sequence[Query]) -> list[Any]:
    """Answer keys of the reference path: a plain ``run`` loop."""
    return [answer_key(rag.run(q)) for q in queries]


@dataclass
class Inputs:
    """One workload's generated inputs: the program sees only these."""

    config: MultiRAGConfig
    base: list[RawSource]
    held_out: list[RawSource]
    queries: list[Query]
    #: gold answers per query, for ``mean_f1``.
    gold: list[frozenset[str]]
    #: latency is read from the quietest windows of ``window`` consecutive
    #: queries that together hold ``keep`` queries; ``None`` keeps all.
    window: int = 50
    keep: int | None = None
    #: send each query as a batch of one through ``run_batch``.
    batched: bool = False

    @property
    def everything(self) -> list[RawSource]:
        return self.base + self.held_out

    def sizes(self) -> dict[str, int]:
        return {"sources": len(self.everything), "queries": len(self.queries)}


def hotpot_inputs(seed: int, text: bool) -> Inputs:
    data = make_hotpotqa_like(**HOTPOT_ARGS)
    bridge = [q for q in data.queries if q.qtype == "bridge"]
    rng = random.Random(seed)
    if text:
        # Free text parses to the ``open`` intent, which answers the first
        # hop only, so the gold is that hop's value.
        picked = rng.sample(bridge, TEXT_QUERIES)
        return Inputs(
            config=MultiRAGConfig(),
            base=data.sources[:-1],
            held_out=data.sources[-1:],
            queries=[Query.text(q.text, qid=q.qid) for q in picked],
            gold=[q.gold_hops[0] for q in picked],
            window=10,
            keep=300,
        )
    picked = rng.sample(bridge, CHAIN_QUERIES)
    return Inputs(
        config=MultiRAGConfig(update_history=False),
        base=data.sources[:-1],
        held_out=data.sources[-1:],
        queries=[Query.chain(q.hops, qid=q.qid) for q in picked],
        gold=[q.answers for q in picked],
        window=50,
        keep=100,
        batched=True,
    )


def movies_inputs(seed: int) -> Inputs:
    data = make_movies(**MOVIES_ARGS)
    picked = random.Random(seed).sample(data.queries, MOVIES_QUERIES)
    sources = data.raw_sources()
    held = [max(i for i, s in enumerate(sources) if s.fmt == fmt)
            for fmt in MOVIES_HELD_OUT]
    return Inputs(
        config=MultiRAGConfig(),
        base=[s for i, s in enumerate(sources) if i not in held],
        held_out=[sources[i] for i in held],
        queries=[Query.key(q.entity, q.attribute, qid=q.qid) for q in picked],
        gold=[q.answers for q in picked],
    )


@dataclass
class Bench:
    """Measurements and bookkeeping shared by the workloads."""

    workdir: Path
    seconds: float
    trace: bool
    recorder: layers.Recorder = field(default_factory=layers.Recorder)
    samples: dict[str, list[float]] = field(
        default_factory=lambda: defaultdict(list)
    )
    #: per-query wall seconds of each query loop, keyed by whether the
    #: episode was traced.
    loops: dict[bool, list[list[float]]] = field(
        default_factory=lambda: {False: [], True: []}
    )
    attempted: int = 0
    failed: int = 0
    #: per-stage LLM usage of all query loops, and how many queries ran.
    query_llm: dict[str, StageUsage] = field(default_factory=dict)
    llm_queries: int = 0
    #: per-stage LLM usage of one cold ingest.
    ingest_llm: dict[str, StageUsage] = field(default_factory=dict)
    sizes: dict[str, int] = field(default_factory=dict)
    snapshot_bytes: int = 0
    #: F1 of each query's first answer, by query index.
    f1: dict[int, float] = field(default_factory=dict)
    traced: bool = False
    _stores: int = 0

    def __post_init__(self) -> None:
        self.wrappers = layers.Wrappers(self.recorder)

    # -- plumbing -------------------------------------------------------
    def fresh_store(self) -> SnapshotStore:
        self._stores += 1
        return SnapshotStore(self.workdir / f"store-{self._stores}")

    def pipeline(self, inputs: Inputs, store: SnapshotStore) -> MultiRAG:
        obs = Observability.enable() if self.traced else None
        return MultiRAG.from_config(inputs.config, obs=obs, snapshot=store)

    def set_traced(self, traced: bool) -> None:
        """Switch tracing (program spans and wrappers) on or off."""
        traced = traced and self.trace
        if traced and not self.traced:
            self.wrappers.install()
        elif self.traced and not traced:
            self.wrappers.restore()
        self.traced = traced

    def op(self, phase: str, fn: Callable[[], Any]) -> tuple[Any, float]:
        """Run one timed operation after a garbage collection."""
        gc.collect()
        self.attempted += 1
        self.recorder.phase = phase
        start = time.perf_counter()
        out = fn()
        end = time.perf_counter()
        self.recorder.phase = ""
        if self.traced:
            self.recorder.add(f"phase.{phase}", start, end)
        return out, end - start

    def harvest(self, *rags: MultiRAG) -> None:
        if self.traced:
            for rag in rags:
                self.recorder.adopt(rag.obs.tracer)

    def episodes(self, cycle: int = 1) -> Any:
        """Episode indexes until ``--seconds`` have passed.

        A workload whose episodes rotate through ``cycle`` query segments
        runs at least two whole cycles.  In a traced run, every other
        cycle is traced, so each segment runs both ways.
        """
        deadline = time.perf_counter() + self.seconds
        index = 0
        while (index < max(MIN_EPISODES, 2 * cycle)
               or time.perf_counter() < deadline):
            self.set_traced((index // cycle) % 2 == 1)
            yield index
            index += 1
        self.set_traced(False)

    # -- timed operations -----------------------------------------------
    def setup(self, inputs: Inputs) -> SnapshotStore:
        """Cold-ingest the base corpus into empty stores; return the last."""
        self.set_traced(True)
        for _ in range(SETUP_REPEATS):
            store = self.fresh_store()
            rag = self.pipeline(inputs, store)
            report, seconds = self.op("setup", lambda: rag.ingest(inputs.base))
            self.samples["setup_s"].append(seconds)
            self.harvest(rag)
        self.set_traced(False)
        self.ingest_llm = dict(rag.llm.meter.by_stage)
        self.snapshot_bytes = store.size_of(report.snapshot_fingerprint)
        self.sizes["base_triples"] = report.num_triples
        return store

    def load(self, inputs: Inputs, store: SnapshotStore, sources: list[RawSource],
             n_layers: int, timed: bool = True) -> MultiRAG:
        """A fresh pipeline warm-loaded from ``store``.  A load that misses
        the fingerprint or restores another chain length is a failure."""
        rag = self.pipeline(inputs, store)
        report, seconds = self.op(
            "load" if timed else "base_load", lambda: rag.ingest(sources)
        )
        if timed:
            self.samples["warm_load_s"].append(seconds)
            self.sizes.update(
                triples=report.num_triples,
                entities=report.num_entities,
                chunks=report.num_chunks,
            )
        if (not report.loaded_from_snapshot
                or report.snapshot_layers != n_layers):
            self.failed += 1
        return rag

    def add(self, rag: MultiRAG, raw: RawSource) -> None:
        _, seconds = self.op("add", lambda: rag.add_source(raw))
        self.samples["add_source_s"].append(seconds)

    def queries(self, rag: MultiRAG, inputs: Inputs,
                picked: Sequence[int]) -> list[tuple[Any, ...] | None]:
        """Answer the ``picked`` queries in order, one closed-loop request
        at a time; return their answer keys."""
        queries = [inputs.queries[i] for i in picked]
        if inputs.batched:
            def call(q: Query) -> Any:
                return rag.run_batch([q], jobs=1)[0]
        else:
            call = rag.run
        latency: list[float] = []
        record = self.recorder.add if self.traced else None
        results: list[Any] = []
        meter = rag.llm.meter
        before = meter.checkpoint()
        gc.collect()
        self.recorder.phase = "query"
        for q in queries:
            start = time.perf_counter()
            try:
                result = call(q)
            except ReproError:
                result = None
            end = time.perf_counter()
            latency.append(end - start)
            if record is not None:
                record("phase.query", start, end)
            results.append(result)
        self.recorder.phase = ""
        self.loops[self.traced].append(latency)
        self.attempted += len(queries)
        self.failed += sum(1 for r in results if r is None)
        for stage, usage in meter.stage_delta(before).items():
            self.query_llm[stage] = self.query_llm.get(stage, StageUsage()).merged(usage)
        self.llm_queries += len(queries)
        for i, r in zip(picked, results):
            if i not in self.f1:
                predicted = {a.value for a in r.answers} if r is not None else set()
                self.f1[i] = f1_score(predicted, inputs.gold[i])
        return [answer_key(r) for r in results]

    def check(self, got: list[Any], want: list[Any]) -> None:
        """Count each answer that differs from the reference as failed."""
        self.failed += sum(1 for g, w in zip(got, want) if g != w)
        self.failed += abs(len(got) - len(want))

    # -- results --------------------------------------------------------
    def quiet(self, traced: bool, inputs: Inputs) -> list[float]:
        """The per-query seconds the latency metrics are read from."""
        loops = self.loops[traced]
        if inputs.keep is None:
            return [s for loop in loops for s in loop]
        return stats.quiet_samples(loops, inputs.window, inputs.keep)

    def end_to_end(self, inputs: Inputs) -> dict[str, tuple[float, str]]:
        quiet = self.quiet(False, inputs)
        lat_ms = [s * 1e3 for s in quiet]
        return {
            "setup_s": (statistics.median(self.samples["setup_s"]), "s"),
            "warm_load_s": (stats.quartiles(self.samples["warm_load_s"])[0], "s"),
            "add_source_s": (stats.quartiles(self.samples["add_source_s"])[0], "s"),
            "query_p50_ms": (stats.percentile(lat_ms, 50), "ms"),
            "query_p90_ms": (stats.percentile(lat_ms, 90), "ms"),
            "query_qps": (len(quiet) / sum(quiet), "1/s"),
            "mean_f1": (100.0 * sum(self.f1.values()) / len(self.f1), "%"),
            "llm_sim_s_per_query": (
                sum(u.simulated_latency_s for u in self.query_llm.values())
                / self.llm_queries, "sim_s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }

    def per_layer(self, inputs: Inputs) -> dict[str, tuple[float, str]]:
        tot = layers.totals(layers.forest(self.recorder.intervals))
        counts = self.recorder.counts
        n_query = tot.count("phase.query", "phase.query")
        query_wall = sum(s for loop in self.loops[True] for s in loop)
        n_setup = tot.count("phase.setup", "phase.setup")
        n_load = tot.count("phase.load", "phase.load")
        n_add = tot.count("phase.add", "phase.add")
        build_calls = sum(n for (_, name), n in tot.calls.items()
                          if name == "retrieval.build")
        build_s = sum(s for (_, name), s in tot.seconds.items()
                      if name == "retrieval.build")
        fuse_s = sum(s for (root, name), s in tot.seconds.items()
                     if root == "phase.setup"
                     and (name == "adapters.fuse" or name.startswith("adapter:")))

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        out: dict[str, tuple[float, str]] = {}
        for metric, span in QUERY_LAYERS.items():
            scale, unit = (1e6, "us") if metric.endswith("_us") else (1e3, "ms")
            out[metric] = (
                ratio(tot.self_s("phase.query", span) * scale, n_query), unit)
        for metric, span in QUERY_CALLS.items():
            out[metric] = (ratio(tot.count("phase.query", span), n_query), "count")
        out.update({
            "kg.by_source_triples_per_query": (
                ratio(counts[("query", "kg.by_source_triples")], n_query), "count"),
            "confidence.history_updates": (
                ratio(counts[("query", "confidence.history_updates")], n_query),
                "count"),
            "core.query_ms": (ratio(query_wall * 1e3, n_query), "ms"),
            "core.untraced_share": (
                ratio(tot.self_s("phase.query", "phase.query"), query_wall),
                "ratio"),
            "obs.overhead_ratio": (
                statistics.median(self.quiet(True, inputs))
                / statistics.median(self.quiet(False, inputs)), "ratio"),
            "adapters.fuse_s": (ratio(fuse_s, n_setup), "s"),
            "adapters.extract_s": (
                ratio(tot.self_s("phase.setup", "adapters.extract"), n_setup), "s"),
            "linegraph.build_s": (
                ratio(tot.self_s("phase.setup", "linegraph.build"), n_setup), "s"),
            "retrieval.build_s": (ratio(build_s, build_calls), "s"),
            "snapshot.save_s": (
                ratio(tot.self_s("phase.setup", "snapshot.save"), n_setup), "s"),
            "snapshot.load_s": (
                ratio(tot.self_s("phase.load", "ingest.snapshot_load"), n_load), "s"),
            "snapshot.save_layer_s": (
                ratio(tot.self_s("phase.add", "snapshot.save_layer"), n_add), "s"),
            "snapshot.bytes_written": (float(self.snapshot_bytes), "B"),
            "snapshot.bytes_per_triple": (
                ratio(self.snapshot_bytes, self.sizes["base_triples"]), "B"),
        })
        for fmt in PARSE_FORMATS:
            out[f"adapters.parse_s.{fmt}"] = (
                ratio(tot.self_s("phase.setup", f"adapters.parse.{fmt}"), n_setup),
                "s")
        for stages, usage, per in (
            (LLM_STAGES_INGEST, self.ingest_llm, 1),
            (LLM_STAGES_QUERY, self.query_llm, self.llm_queries),
        ):
            for stage in stages:
                u = usage.get(stage, StageUsage())
                out[f"llm.calls.{stage}"] = (ratio(u.calls, per), "count")
                out[f"llm.tokens.{stage}"] = (ratio(u.total_tokens, per), "count")
                out[f"llm.sim_s.{stage}"] = (
                    ratio(u.simulated_latency_s, per), "sim_s")
        return out


# -- workloads ---------------------------------------------------------
def hotpot(bench: Bench, inputs: Inputs) -> None:
    """Shared flow of ``hotpot_chain_batch`` and ``hotpot_text``.

    Each episode: a fresh base load; ``add_source`` of the held-out
    source, which writes a delta layer; a fresh layered warm load (base +
    that layer); then one segment of the query list, in order.  The
    answers must match those of the in-memory pipeline that made the add,
    from a plain ``run`` loop over the same segment.
    """
    store = bench.setup(inputs)
    size = -(-len(inputs.queries) // HOTPOT_SEGMENTS)
    segments = [range(k, min(k + size, len(inputs.queries)))
                for k in range(0, len(inputs.queries), size)]
    want: dict[int, list[Any]] = {}
    for index in bench.episodes(cycle=len(segments)):
        k = index % len(segments)
        in_memory = bench.load(inputs, store, inputs.base, 0, timed=False)
        bench.add(in_memory, inputs.held_out[0])
        rag = bench.load(inputs, store, inputs.everything, 1)
        got = bench.queries(rag, inputs, segments[k])
        bench.harvest(in_memory, rag)
        bench.set_traced(False)
        if k not in want:
            want[k] = reference(in_memory, [inputs.queries[i] for i in segments[k]])
        bench.check(got, want[k])
        del in_memory, rag


def movies(bench: Bench, inputs: Inputs) -> None:
    """``movies_feedback``: each episode starts from a fresh base load,
    runs three segments of key queries with ``update_history=True`` and
    adds one held-out source after each, then warm-loads base + the three
    layers, twice.  Checks: every episode answers exactly like the first,
    and the layered load answers a probe exactly like the in-memory
    pipeline.
    """
    store = bench.setup(inputs)
    n = len(inputs.queries) // len(inputs.held_out)
    segments = [range(k * n, (k + 1) * n) for k in range(len(inputs.held_out))]
    probe = inputs.queries[:MOVIES_PROBE]
    first: list[Any] | None = None
    for _ in bench.episodes():
        rag = bench.load(inputs, store, inputs.base, 0, timed=False)
        got: list[Any] = []
        for segment, raw in zip(segments, inputs.held_out):
            got += bench.queries(rag, inputs, segment)
            bench.add(rag, raw)
        for _ in range(MOVIES_LOADS):
            layered = bench.load(
                inputs, store, inputs.everything, len(inputs.held_out)
            )
            bench.harvest(layered)
        bench.harvest(rag)
        bench.set_traced(False)
        if first is None:
            first = got
        else:
            bench.check(got, first)
        bench.check([answer_key(layered.run(q)) for q in probe],
                    reference(rag, probe))
        del rag, layered


WORKLOADS: dict[str, tuple[Callable[[int], Inputs], Callable[[Bench, Inputs], None]]] = {
    "hotpot_chain_batch": (lambda seed: hotpot_inputs(seed, text=False), hotpot),
    "hotpot_text": (lambda seed: hotpot_inputs(seed, text=True), hotpot),
    "movies_feedback": (movies_inputs, movies),
}
