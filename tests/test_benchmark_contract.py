"""The traced benchmark wraps program functions and methods by name.

``perfbench/instrument.py`` replaces them on install and restores them on
uninstall; this test fails when a name it wraps is renamed or deleted,
instead of only a ``--trace 1`` benchmark run crashing. The pipeline must
also call the wrapped prompt builders, or their spans go missing from a
traced run without any error.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import causalrag.cli  # noqa: F401  (loads every causalrag module)
from causalrag import harness
from causalrag.causal import build_causal_view
from causalrag.config import load_config
from causalrag.graph import load_triples
from causalrag.linker import build_index
from causalrag.llm import LlmGateway, MockTranscript

from .conftest import FIXTURES

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _bindings() -> dict:
    """Every module attribute and class attribute of the loaded causalrag modules."""
    state = {}
    for name, module in list(sys.modules.items()):
        if name != "causalrag" and not name.startswith("causalrag."):
            continue
        for attr, value in vars(module).items():
            state[(name, attr)] = value
            if isinstance(value, type) and value.__module__ == name:
                for member, member_value in vars(value).items():
                    state[(name, attr, member)] = member_value
    return state


def test_benchmark_instrumentation_installs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    instrument = importlib.import_module("instrument")
    spans = importlib.import_module("spans")

    before = _bindings()
    inst = instrument.Instrumentation()
    try:
        inst.install(spans.Recorder())
        during = _bindings()
        replaced = {key for key, value in before.items() if during[key] is not value}
        assert ("causalrag.retrieval", "find_paths") in replaced
        assert ("causalrag.causal", "CausalGraphView", "out_edges") in replaced
        assert ("causalrag.linker", "LinkerIndex", "link") in replaced
        assert ("causalrag.graph", "shortest_path_length") in replaced
        assert ("causalrag.causal", "CausalGraphView", "member_node_ids") in replaced
    finally:
        inst.uninstall()

    after = _bindings()
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []


def test_a_traced_full_run_spans_each_prompt_builder(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    instrument = importlib.import_module("instrument")
    spans = importlib.import_module("spans")

    config = load_config(FIXTURES / "config.yaml")
    graph = load_triples(FIXTURES / "triples.tsv", config.causality.weight)
    rec = spans.Recorder()
    inst = instrument.Instrumentation()
    inst.install(rec)
    try:
        pipeline = harness.Pipeline(
            graph=graph,
            causal_view=build_causal_view(graph, config.causality, config.theta),
            linker=build_index(graph),
            gateway=LlmGateway(transcript=MockTranscript.load(FIXTURES / "transcript_full.jsonl")),
            config=config,
        )
        report = harness.run_evaluation(pipeline, harness.load_dataset(FIXTURES / "dataset.jsonl"), harness.Mode.FULL)
    finally:
        inst.uninstall()

    mapped = {record["item_id"] for record in report["records"] if not record["unmapped"]}
    assert len(mapped) == report["n_items"] == 10
    children: dict = {}
    for span in rec.spans:
        children.setdefault(span.parent, []).append(span)
    answers = [span for span in rec.spans if span.name == "harness.answer"]
    assert sorted(span.item_id for span in answers) == sorted(mapped)
    for answer in answers:
        names = [span.name for span in children.get(answer.sid, [])]
        assert names.count("cot.prompt") == 1, answer.item_id
        # The enhancement fill is one render span; the chain and the paths block it renders nest inside.
        (fill,) = [span for span in children[answer.sid] if span.name == "enhancer.render"]
        nested = sorted(span.name for span in children.get(fill.sid, []))
        assert nested == ["cot.render", "enhancer.render"], answer.item_id
