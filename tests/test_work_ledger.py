"""The work ledger: exact counts of the work one seeded run does.

``tests/fixtures/work_ledger.json`` holds the counts for a small seed-11
``cot-retrieval`` input written by perfbench's generator, in three phases:
a cold pass over every item, a warm pass over the same items, and a few
view revisions, each followed by a handful of items on the revised view.
Per phase it counts the path listings the search makes and the paths they
list, the ``GraphPath``s retrieval builds and the paths it keeps, the
trace's ``candidates``, the ``successors`` and ``edges_into`` reads the
containers serve, how the lineage stores serve the reads that miss a
stamped slot (a grouping, a re-stamp or a patch), the slots the stores hold
at the end of the phase, and the linker's ``link`` calls.

Wall-time pairs on a shared host cannot resolve small gains; these counts
are exact, so a change to the work shows in the ledger's diff. A change
that alters the work rewrites the ledger in the same commit::

    PYTHONPATH=src python -m tests.test_work_ledger
"""

from __future__ import annotations

import importlib.util
import json
import sys
import tempfile
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from causalrag import graph as kg
from causalrag import retrieval
from causalrag.causal import apply_strength_updates, build_causal_view, parse_strength_updates
from causalrag.config import default_config
from causalrag.harness import Mode, Pipeline, load_dataset
from causalrag.linker import LinkerIndex, build_index
from causalrag.llm import LlmGateway, MockTranscript

LEDGER = Path(__file__).parent / "fixtures" / "work_ledger.json"
GENERATOR = Path(__file__).resolve().parents[1] / "perfbench" / "generate.py"

WORKLOAD = "cot-retrieval"
SEED = 11
# A quarter of the benchmark's graph, and fewer items and update rows.
SIZE = {"nodes": 2500, "edges": 10_000, "items": 400, "batches": 3, "batch_size": 50}
ITEMS_PER_REVISION = 4


def generate_inputs(out: Path, **size) -> None:
    """Write the ledger's input files into ``out``; ``size`` overrides ``SIZE``."""
    spec = importlib.util.spec_from_file_location("_ledger_generate", GENERATOR)
    generator = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = generator  # dataclasses resolve annotations through it
    try:
        spec.loader.exec_module(generator)
    finally:
        del sys.modules[spec.name]
    generator.WORKLOADS = {WORKLOAD: replace(generator.WORKLOADS[WORKLOAD], **{**SIZE, **size})}
    generator.generate(WORKLOAD, SEED, out)


def _item_transcripts(directory: Path) -> dict[str, MockTranscript]:
    """Each item's canned replies as a transcript of its own, so any item runs alone."""
    by_item: dict[str, list[tuple[str, int, str]]] = {}
    with open(directory / "replies.jsonl", encoding="utf-8") as fh:
        for line in fh:
            reply = json.loads(line)
            entries = by_item.setdefault(reply["item_id"], [])
            entries.append((reply["stage"], sum(stage == reply["stage"] for stage, _, _ in entries), reply["text"]))
    return {item_id: MockTranscript(entries) for item_id, entries in by_item.items()}


def count_work(directory: Path) -> dict:
    """The ledger of the inputs in ``directory``: the module docstring's counts per phase."""
    counts: Counter[str] = Counter()

    def counting(name, function):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)

        return wrapper

    enumerate_paths = retrieval._enumerate_simple_paths

    def listing(*args):
        counts["listings"] += 1
        found = enumerate_paths(*args)
        counts["listed paths"] += len(found)
        return found

    lineage_entry = kg._lineage_entry

    def lineage(store, slot, token, node_id, edges, flags, *rest):
        kind = "groupings" if slot is None else "re-stamps" if slot[1] == flags else "patches"
        counts[f"lineage {kind}"] += 1
        return lineage_entry(store, slot, token, node_id, edges, flags, *rest)

    def answer(pipeline, item):
        for entry in pipeline.answer(item, Mode.FULL).trace.get("retrieval", ()):
            counts["trace candidates"] += entry["candidates"]
            counts["kept paths"] += entry["kept"]

    def phase(view):
        slots = {}
        for owner, container in (("view", view), ("graph", graph)):
            for direction, store in zip(("successors", "edges_into"), container._lineage):
                slots[f"{owner} {direction} slots"] = len(store)
        return dict(sorted({**counts, **slots}.items()))

    config = default_config()
    graph = kg.load_triples(directory / "triples.tsv", config.causality.weight)
    view = build_causal_view(graph, config.causality, config.theta)
    index = build_index(graph)
    items = load_dataset(directory / "dataset.jsonl")
    transcript = MockTranscript.load(directory / "transcript.jsonl")
    gateway = LlmGateway(transcript=transcript)
    with open(directory / "updates.tsv", encoding="utf-8") as fh:
        batches = [parse_strength_updates(text.splitlines()[1:]) for text in fh.read().split("# batch")[1:]]

    ledger = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(retrieval, "_enumerate_simple_paths", listing)
        mp.setattr(retrieval, "GraphPath", counting("GraphPaths built", retrieval.GraphPath))
        mp.setattr(kg, "_lineage_entry", lineage)
        for name in ("successors", "edges_into"):
            mp.setattr(kg.SearchReads, name, counting(f"{name} reads", getattr(kg.SearchReads, name)))
        mp.setattr(LinkerIndex, "link", counting("link calls", LinkerIndex.link))

        pipeline = Pipeline(graph, view, index, gateway, config)
        for name in ("cold", "warm"):
            counts.clear()
            transcript.reset()
            for item in items:
                answer(pipeline, item)
            ledger[f"{name} pass"] = phase(view)

        counts.clear()
        transcripts = _item_transcripts(directory)
        queue = iter(items)
        for batch in batches:
            view = apply_strength_updates(view, batch)
            pipeline = Pipeline(graph, view, index, gateway, config)
            for _, item in zip(range(ITEMS_PER_REVISION), queue):
                gateway.transcript = transcripts[item.id]
                answer(pipeline, item)
        ledger["revisions"] = phase(view)
    return ledger


def test_a_seeded_run_does_the_work_the_ledger_records(tmp_path):
    generate_inputs(tmp_path)
    assert count_work(tmp_path) == json.loads(LEDGER.read_text(encoding="utf-8"))


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        generate_inputs(Path(scratch))
        LEDGER.write_text(json.dumps(count_work(Path(scratch)), indent=1) + "\n", encoding="utf-8")
