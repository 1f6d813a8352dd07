"""Runs one generated workload through the program and measures it.

The program is driven the way its command line drives it: ingest is
``load_triples`` + ``save_graph`` (``build-graph``), set-up is the
``evaluate`` path from the artifact on disk to a ready ``Pipeline``, and the
items go through ``run_evaluation`` in full mode. The load is a closed loop:
each ``run_evaluation`` worker takes the next item when its last one ends.
"""

from __future__ import annotations

import gc
import hashlib
import json
import logging
import math
import random
import resource
import statistics
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

# Program functions are called through their modules, so the traced run's
# wrappers (installed on the modules) see these calls too.
from causalrag import causal, graph as kg, harness, linker, retrieval
from causalrag.config import default_config
from causalrag.errors import TransportError
from causalrag.harness import Mode, Pipeline
from causalrag.llm import EndpointConfig, LlmGateway, LlmResponse, MockTranscript, ModelAssignment

import checks
from instrument import Instrumentation
from layers import layer_metrics
from spans import Recorder
from speed import Region, Speed, cpu_clock

# Set-up slots run before the evaluation pass, at its thirds and after it.
# A slot ingests and sets up a fixed number of times per workload, more
# often on smaller graphs, so a run's sequence of work, and with it its
# memory, depends only on the seed.
SLOTS = 4
INGEST_EDGES_PER_SLOT = 80_000  # ingests per slot: this over the graph's edges, 1 to 5
SETUP_EDGES_PER_SLOT = 80_000  # set-ups per slot: this over the graph's edges, 2 to 5
PROBE_REVISIONS = 30  # revisions replayed per slot when items never see one
ORACLE_SEARCHES = 12
SLOW_PASS = 1.6
SELF_SUM_TOLERANCE = 0.05  # layer self times must add up to the traced wall time
BACKOFF_S = 0.005
LIVE_MODEL = "bench-llm"

clock = time.perf_counter


class ContentKeyedTransport:
    """Fake live endpoint: replies are looked up by (stage, question).

    Every attempt sleeps ``latency_s``. A seeded share of calls fails once
    with a transient error and succeeds on the retry, so no call runs out
    of attempts. Draws depend only on the seed, the key and how many calls
    the key has had.
    """

    def __init__(self, replies: dict[tuple[str, str], str], latency_s: float, transient_share: float, seed: int):
        self._replies = replies
        self._latency_s = latency_s
        self._transient_share = transient_share
        self._seed = seed
        self._calls: dict[tuple[str, str], list] = {}
        self._lock = threading.Lock()

    def reset(self) -> None:
        """Forget call counts, so a replayed pass sees the same failures."""
        with self._lock:
            self._calls.clear()

    def __call__(self, request, endpoint) -> LlmResponse:
        prompt = request.messages[-1][1]
        key = (request.stage, _question_of(prompt))
        with self._lock:
            done, failed_last = self._calls.setdefault(key, [0, False])
            fail = not failed_last and _unit_draw(self._seed, key, done) < self._transient_share
            self._calls[key] = [done, True] if fail else [done + 1, False]
        if self._latency_s:
            time.sleep(self._latency_s)
        if fail:
            error = TransportError("synthetic transient failure")
            error.transient = True
            raise error
        text = self._replies.get(key)
        if text is None:
            error = TransportError(f"no canned reply for stage {key[0]!r} of this question")
            error.transient = False
            raise error
        return LlmResponse(
            text=text,
            prompt_tokens=len(prompt) // 4,
            completion_tokens=len(text) // 4,
            latency_seconds=self._latency_s,
        )


def _question_of(prompt: str) -> str:
    for line in prompt.splitlines():
        if line.startswith("Question: "):
            return line[len("Question: "):].strip()
    return ""


def _unit_draw(seed: int, key: tuple[str, str], n: int) -> float:
    digest = hashlib.sha256(f"{seed}|{key[0]}|{key[1]}|{n}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


class ItemTimer:
    """The region of each ``Pipeline.answer`` call by item id, while ``enabled``.

    Items run on the evaluation's worker threads, so the CPU time is the
    answering thread's own.
    """

    def __init__(self):
        self.current: dict[str, float] = {}
        self.enabled = True
        self._original = None

    def install(self) -> None:
        original = self._original = Pipeline.answer
        timer = self

        def answer(pipeline, item, mode, strict=False):
            start, cpu = clock(), time.thread_time()
            try:
                return original(pipeline, item, mode, strict)
            finally:
                if timer.enabled:
                    timer.current[item.id] = Region(start, clock(), time.thread_time() - cpu)

        Pipeline.answer = answer

    def uninstall(self) -> None:
        Pipeline.answer = self._original


def _keep(regions: list[list[Region]], k: int, region: Region) -> None:
    """Record one slot's ``region`` of probe revision ``k``."""
    if k == len(regions):
        regions.append([])
    regions[k].append(region)


def tail(samples: list[float]) -> tuple[float, int, int]:
    """(value, percentile, n) for the highest whole percentile with ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    for pct in range(99, 0, -1):
        rank = math.ceil(pct * n / 100)
        if n - rank >= 10:
            return ordered[rank - 1], pct, n
    return ordered[-1], 100, n


@dataclass
class Inputs:
    """The generated files of one workload, parsed."""

    directory: Path
    workload: str
    seed: int
    spec: dict
    expected: dict
    replies: list[dict]
    batches: list[dict]

    @classmethod
    def load(cls, directory: Path) -> "Inputs":
        meta = json.loads((directory / "workload.json").read_text(encoding="utf-8"))
        expected = json.loads((directory / "expected.json").read_text(encoding="utf-8"))["items"]
        with open(directory / "replies.jsonl", encoding="utf-8") as fh:
            replies = [json.loads(line) for line in fh if line.strip()]
        batches: list[list[str]] = []
        with open(directory / "updates.tsv", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("# batch"):
                    batches.append([])
                elif batches:
                    batches[-1].append(line)
        return cls(
            directory=directory,
            workload=meta["workload"],
            seed=meta["seed"],
            spec=meta["spec"],
            expected=expected,
            replies=replies,
            batches=[causal.parse_strength_updates(lines) for lines in batches],
        )


@dataclass
class Outcome:
    """Everything one run measured and checked."""

    metrics: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def fail(self, message: str) -> None:
        if len(self.errors) < 20:
            self.errors.append(message)


class Run:
    """One workload run: set-up, checks, then the timed evaluation loop."""

    def __init__(self, inputs: Inputs, work_dir: Path, seconds: float, trace: bool):
        self.inputs = inputs
        self.spec = inputs.spec
        self.work_dir = work_dir
        self.seconds = seconds
        self.trace = trace
        self.out = Outcome()
        live = self.spec["transport"] != "mock"
        assignment = ModelAssignment(LIVE_MODEL, LIVE_MODEL, LIVE_MODEL) if live else ModelAssignment()
        self.config = replace(default_config(), assignment=assignment, workers=self.spec["workers"])
        self.instrumentation = Instrumentation(transport_types=[ContentKeyedTransport])
        self.setup_rec = Recorder()
        self.eval_rec = Recorder()
        self.speed = Speed()
        self._ingests: list[list[Region]] = []  # per ingest, one region per program call
        self._setups: list[list[Region]] = []  # per set-up, likewise
        self._probes: list[list[Region]] = []  # per probe revision, one region per slot
        self._eval_pipeline = None
        self._final_view = None
        self._slots = 0
        self._transport: ContentKeyedTransport | None = None

    # -- phases ---------------------------------------------------------------------
    #
    # The machine may be shared. Every timed region sits between reference
    # slices and is reported at the reference host's speed (see speed.py).
    # Set-up samples are spread over the whole run, in SLOTS slots.

    def execute(self) -> Outcome:
        items = harness.load_dataset(self.inputs.directory / "dataset.jsonl")
        pipeline = self._setup_slot()
        self._evaluate(pipeline, items)
        scaled = self.speed.scaled
        self.out.metrics["ingest_s"] = statistics.median(sum(map(scaled, parts)) for parts in self._ingests)
        self.out.metrics["setup_s"] = statistics.median(sum(map(scaled, parts)) for parts in self._setups)
        if self._probes:
            self._report_updates([min(map(scaled, regions)) for regions in self._probes])
        self._oracle(pipeline, self._final_view)
        self.out.metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return self.out

    def _setup_slot(self) -> Pipeline:
        """Ingests, set-ups and, where items never see a revision, a replay
        of the revision probe."""
        if self.trace:
            self.instrumentation.install(self.setup_rec)
        try:
            artifact = self.work_dir / "graph.crag"
            edges = self.spec["edges"]
            for _ in range(min(5, max(1, round(INGEST_EDGES_PER_SLOT / edges)))):
                self._ingests.append(self._ingest_once(artifact))
            for _ in range(min(5, max(2, round(SETUP_EDGES_PER_SLOT / edges)))):
                graph = view = pipeline = None  # one set-up's objects alive at a time
                graph, view, pipeline, parts = self._set_up_once(artifact)
                self._setups.append(parts)
            if self._slots == 0:
                self.out.notes.append(
                    f"graph: {graph.node_count} nodes, {graph.edge_count} edges; causal view: {view.edge_count} edges"
                )
            self._slots += 1
            if not self.spec["items_per_revision"]:
                self._probe_revisions(self._eval_pipeline or pipeline)
        finally:
            self.instrumentation.uninstall()
        return pipeline

    # Ingest and set-up are timed one program call at a time, so the host's
    # speed is sampled between the calls and not only around the whole. Each
    # starts from a collected heap, as a fresh command would: otherwise
    # whether a full collection of the run's earlier garbage lands inside
    # it depends on what ran before.

    def _ingest_once(self, artifact: Path) -> list[Region]:
        """TSV to artifact, as ``build-graph`` does it."""
        gc.collect()
        measure = self.speed.measure
        graph, loading = measure(kg.load_triples, self.inputs.directory / "triples.tsv", self.config.causality.weight)
        _, saving = measure(kg.save_graph, graph, artifact)
        return [loading, saving]

    def _set_up_once(self, artifact: Path) -> tuple:
        """Artifact on disk to a ready ``Pipeline``, as ``evaluate`` does it."""
        gc.collect()
        measure = self.speed.measure
        graph, loading = measure(kg.load_graph, artifact)
        view, viewing = measure(causal.build_causal_view, graph, self.config.causality, self.config.theta)
        index, indexing = measure(linker.build_index, graph)
        pipeline, constructing = measure(
            lambda: Pipeline(graph=graph, causal_view=view, linker=index, gateway=self._gateway(), config=self.config)
        )
        return graph, view, pipeline, [loading, viewing, indexing, constructing]

    def _gateway(self) -> LlmGateway:
        directory = self.inputs.directory
        if self.spec["transport"] == "mock":
            return LlmGateway(transcript=MockTranscript.load(directory / "transcript.jsonl"))
        replies = {}
        with open(directory / "replies.jsonl", encoding="utf-8") as fh:
            for line in fh:
                record = json.loads(line)
                replies[(record["stage"], record["question"])] = record["text"]
        transport = self._transport = ContentKeyedTransport(
            replies, self.spec["latency_s"], self.spec["transient_share"], self.inputs.seed
        )
        return LlmGateway(
            endpoint=EndpointConfig(url="bench://content-keyed"), transport=transport, backoff_seconds=BACKOFF_S
        )

    def _revise(self, pipeline: Pipeline, view, batch) -> tuple:
        """One view revision: fold a batch in, rebuild the pipeline on the result."""
        start, cpu = clock(), cpu_clock()
        revised = causal.apply_strength_updates(view, batch)
        rebuilt = Pipeline(
            graph=pipeline.graph, causal_view=revised, linker=pipeline.linker,
            gateway=pipeline.gateway, config=self.config,
        )
        return revised, rebuilt, Region(start, clock(), cpu_clock() - cpu)

    def _check_revision(self, before, after, batch) -> None:
        self.out.attempted += 1
        want = checks.expected_members(before.member_edges, before.base, batch, before.theta)
        if after.member_edges != want:
            self.out.failed += 1
            self.out.fail(
                f"revision membership: {len(after.member_edges)} edges, expected {len(want)} "
                f"({len(after.member_edges - want)} extra, {len(want - after.member_edges)} missing)"
            )

    def _probe_revisions(self, pipeline: Pipeline) -> None:
        """Revisions timed on workloads whose items never see one.

        Each slot replays the same revisions from the starting view; every
        revision keeps its fastest time over the slots.
        """
        view = pipeline.causal_view
        for k in range(PROBE_REVISIONS):
            batch = self.inputs.batches[k % len(self.inputs.batches)]
            self.speed.sample()
            revised, _, region = self._revise(pipeline, view, batch)
            _keep(self._probes, k, region)
            self._check_revision(view, revised, batch)
            view = revised
        self.speed.sample()

    def _report_updates(self, samples: list[float]) -> None:
        value, pct, n = tail(samples)
        self.out.metrics["update_ms.p50"] = statistics.median(samples) * 1e3
        self.out.metrics["update_ms.tail"] = value * 1e3
        self.out.notes.append(f"update_ms.tail is p{pct} of {n} revisions")

    def _chunk_transcripts(self, chunks) -> list[MockTranscript] | None:
        """Per-chunk ordinal transcripts, so any chunk can be replayed alone."""
        if self.spec["transport"] != "mock":
            return None
        by_item: dict[str, list[tuple[str, str]]] = {}
        for reply in self.inputs.replies:
            by_item.setdefault(reply["item_id"], []).append((reply["stage"], reply["text"]))
        transcripts = []
        for chunk in chunks:
            ordinals = {"cot": 0, "enhance": 0, "infer": 0}
            entries = []
            for item in chunk:
                for stage, text in by_item.get(item.id, ()):
                    entries.append((stage, ordinals[stage], text))
                    ordinals[stage] += 1
            transcripts.append(MockTranscript(entries))
        return transcripts

    def _step(self, k: int, pipeline: Pipeline, view, chunks, transcripts):
        """Step ``k``: a view revision when the workload has them, then one chunk of items.

        Returns the revision's regions (none, or two) and the items' region.
        A revision is pure (views are immutable), so it runs twice from the
        same view and keeps its faster time: a stall of the host during one
        revision cannot set ``update_ms.tail`` alone.
        """
        revision: list[Region] = []
        if self.spec["items_per_revision"]:
            batch = self.inputs.batches[k % len(self.inputs.batches)]
            self.speed.sample()
            revised, rebuilt, first = self._revise(pipeline, view, batch)
            self.speed.sample()
            _, _, second = self._revise(pipeline, view, batch)
            revision, pipeline = [first, second], rebuilt
        if transcripts is not None:
            transcript = transcripts[k % len(chunks)]
            transcript.reset()
            pipeline.gateway.transcript = transcript
        self.speed.sample()
        start, cpu = clock(), cpu_clock()
        report = harness.run_evaluation(pipeline, chunks[k % len(chunks)], Mode.FULL)
        items = Region(start, clock(), cpu_clock() - cpu)
        if revision:
            self._check_revision(view, revised, batch)
            view = revised
        self._account(report)
        return pipeline, view, report, revision, items

    def _evaluate(self, start_pipeline: Pipeline, items) -> None:
        size = self.spec["items_per_revision"] or self.spec["chunk"]
        chunks = [items[i : i + size] for i in range(0, len(items), size)]
        transcripts = self._chunk_transcripts(chunks)
        self._eval_pipeline = start_pipeline
        transport = self._transport  # the one built for start_pipeline, before later slots
        kinds = (False, True) if self.trace else (False,)
        # The same seed and --seconds give the same steps, so two runs (or two
        # commits) answer the same items. The count is sized so a pass takes
        # its share of --seconds at the spec's nominal step time; a pass that
        # runs past SLOW_PASS times its share stops early, bounding run time.
        # A traced run replays the untraced pass's steps with tracing on.
        budget = self.seconds / len(kinds)
        planned = max(1, round(budget / self.spec["step_s"]))
        mid_slots = {planned * i // (SLOTS - 1) for i in range(1, SLOTS - 1)}
        timer = ItemTimer()
        step_regions: dict[bool, list[tuple[list[Region], Region]]] = {kind: [] for kind in kinds}
        item_regions: list[Region] = []
        update_regions: list[list[Region]] = []
        steps = None
        digest = None
        traced_wall = 0.0
        timer.install()
        try:
            for traced in kinds:
                if transport is not None:
                    transport.reset()
                if traced:
                    self.instrumentation.install(self.eval_rec)
                timer.enabled = not traced
                pipeline, view = start_pipeline, start_pipeline.causal_view
                began = clock()
                k = 0
                while k < (planned if steps is None else steps):
                    if steps is None and k and clock() - began > SLOW_PASS * budget:
                        break
                    if not traced and k in mid_slots:
                        paused = clock()
                        self._setup_slot()
                        began += clock() - paused  # slots do not count against the pass
                    timer.current = {}
                    pipeline, view, report, revision, items = self._step(k, pipeline, view, chunks, transcripts)
                    step_regions[traced].append((revision, items))
                    if traced:
                        traced_wall += items.wall + sum(region.wall for region in revision)
                    else:
                        item_regions += timer.current.values()
                        if revision:
                            update_regions.append(revision)
                    if digest is None and transcripts is not None:
                        digest = hashlib.sha256(harness.render_report(report).encode("utf-8")).hexdigest()
                    k += 1
                self.speed.sample()
                self.instrumentation.uninstall()
                steps = k
            self._final_view = view
            self._setup_slot()
        finally:
            timer.uninstall()
            self.instrumentation.uninstall()

        scaled = self.speed.scaled
        def fastest(regions: list[Region]) -> float:
            return min(map(scaled, regions)) if regions else 0.0

        step_times = {
            kind: [fastest(revision) + scaled(items) for revision, items in step_regions[kind]] for kind in kinds
        }
        step_items = [len(chunks[k % len(chunks)]) for k in range(steps)]
        samples = [scaled(region) for region in item_regions]
        m = self.out.metrics
        m["items_per_s"] = sum(step_items) / sum(step_times[False])
        m["item_ms.p50"] = statistics.median(samples) * 1e3
        value, pct, n = tail(samples)
        m["item_ms.tail"] = value * 1e3
        self.out.notes.append(f"item_ms.tail is p{pct} of {n} items")
        self.out.notes.append(
            f"closed loop: {self.spec['workers']} worker(s), {sum(step_items)} items in {steps} steps, "
            f"{sum(step_times[False]):.2f} s at reference speed; "
            f"{self.speed.slices} reference slices"
        )
        if digest is not None:
            self.out.notes.append(f"report_digest sha256:{digest} (first chunk, {len(chunks[0])} items)")
        if update_regions:
            self._report_updates([fastest(regions) for regions in update_regions])
        if self.trace:
            m.update(
                layer_metrics(
                    self.setup_rec, self.eval_rec, wall_s=traced_wall, workers=self.spec["workers"],
                    untraced_items_per_s=m["items_per_s"],
                    traced_items_per_s=sum(step_items) / sum(step_times[True]),
                )
            )
            if abs(m["trace.self_sum_share"] - 1) > SELF_SUM_TOLERANCE:
                self.out.fail(
                    f"layer self times cover {m['trace.self_sum_share']:.3f} of the traced "
                    f"worker time, outside 1 +- {SELF_SUM_TOLERANCE}"
                )

    def _account(self, report) -> None:
        for record in report["records"]:
            self.out.attempted += 1
            want = self.inputs.expected[record["item_id"]]
            if record["error"] or record["predicted"] != want["expected"] or record["unmapped"] == want["mapped"]:
                self.out.failed += 1
                self.out.fail(
                    f"item {record['item_id']}: predicted {record['predicted']!r} "
                    f"(unmapped={record['unmapped']}, error={record['error']!r}), "
                    f"expected {want['expected']!r} (mapped={want['mapped']})"
                )
        for problem in checks.metrics_errors(report):
            self.out.fail(problem)

    def _oracle(self, pipeline: Pipeline, view) -> None:
        """Compare a seeded sample of segment searches with the benchmark's enumerator."""
        graph = pipeline.graph
        tiers = [
            ("causal", checks.adjacency(graph, view.member_edges)),
            ("fallback", checks.adjacency(graph, range(graph.edge_count))),
        ]
        rng = random.Random(f"oracle:{self.inputs.workload}:{self.inputs.seed}")
        pairs = []
        for item_id in sorted(self.inputs.expected):
            segments = self.inputs.expected[item_id]["segments"]
            pairs.extend(
                (a, b) for a, b in zip(segments, segments[1:]) if a[1] and b[1]
            )
        sample = rng.sample(pairs, min(ORACLE_SEARCHES, len(pairs)))
        matched = 0
        for (source_text, source_ids), (target_text, target_ids) in sample:
            for text, ids in ((source_text, source_ids), (target_text, target_ids)):
                if pipeline.linker.link(text) != frozenset(ids):
                    self.out.fail(f"linker: {text!r} linked to {sorted(pipeline.linker.link(text))}, expected {ids}")
            found = checks.found_search(retrieval.find_paths(view, graph, source_ids, target_ids, self.config.retrieval))
            want = checks.expected_search(tiers, source_ids, target_ids, self.config.retrieval.max_hops)
            if found == want:
                matched += 1
            else:
                self.out.fail(
                    f"search {source_ids} -> {target_ids}: {len(found)} paths, enumerator "
                    f"{len(want)} ({len(found - want)} extra, {len(want - found)} missing)"
                )
        self.out.notes.append(f"oracle: {matched} of {len(sample)} sampled segment searches match")


def measure(inputs_dir: Path, work_dir: Path, seconds: float, trace: bool) -> tuple[Inputs, Outcome]:
    # As the command line does by default: warnings go to stderr.
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    inputs = Inputs.load(inputs_dir)
    return inputs, Run(inputs, work_dir, seconds, trace).execute()
