from __future__ import annotations

import ast
import inspect
import json
import logging
import threading
import time
from collections import Counter
from dataclasses import replace

import pytest

from causalrag.causal import build_causal_view
from causalrag.config import load_config
from causalrag.errors import DatasetError, TransportError, ValidationError
from causalrag.graph import KnowledgeGraph, ingest_triples, load_graph, load_triples, save_graph
from causalrag.harness import (
    _PLANS,
    Mode,
    Pipeline,
    QAItem,
    load_dataset,
    render_report,
    run_evaluation,
    summarize_report,
)
from causalrag.linker import build_index
from causalrag.llm import EndpointConfig, LlmGateway, LlmResponse, MockTranscript, ModelAssignment

from .conftest import FIXTURES, RecordingLinker, make_graph

EXPECTED_CALLS = {
    Mode.FULL: {"cot": 1, "enhance": 1, "infer": 1},
    Mode.KG_ONLY: {"cot": 0, "enhance": 0, "infer": 1},
    Mode.NO_LLM_ENHANCED: {"cot": 1, "enhance": 0, "infer": 1},
    Mode.NO_ENHANCER: {"cot": 1, "enhance": 0, "infer": 1},
}

TRANSCRIPTS = {
    Mode.FULL: "transcript_full.jsonl",
    Mode.KG_ONLY: "transcript_kg_only.jsonl",
    Mode.NO_LLM_ENHANCED: "transcript_no_llm_enhanced.jsonl",
    Mode.NO_ENHANCER: "transcript_no_enhancer.jsonl",
}


def build_fixture_pipeline(
    mode: Mode, gateway: LlmGateway | None = None, graph: KnowledgeGraph | None = None
) -> Pipeline:
    config = load_config(FIXTURES / "config.yaml")
    if graph is None:
        graph = load_triples(FIXTURES / "triples.tsv", config.causality.weight)
    view = build_causal_view(graph, config.causality, config.theta)
    linker = build_index(graph)
    if gateway is None:
        transcript = MockTranscript.load(FIXTURES / TRANSCRIPTS[mode])
        gateway = LlmGateway(transcript=transcript)
    return Pipeline(graph=graph, causal_view=view, linker=linker, gateway=gateway, config=config)


def _stage_counts(record) -> Counter:
    counts = Counter({"cot": 0, "enhance": 0, "infer": 0})
    counts.update(call["stage"] for call in record.trace["llm_calls"])
    return counts


# -- datasets --------------------------------------------------------------------


def test_load_dataset_fixture():
    items = load_dataset(FIXTURES / "dataset.jsonl")
    assert len(items) == 10
    assert items[0].id == "q01"
    assert items[0].gold == "A"


def test_dataset_parse_failure_cites_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    lines = [
        '{"id": "a", "question": "q?", "options": {"A": "x", "B": "y"}, "answer": "A"}',
        "{this is not json}",
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(DatasetError, match="line 2"):
        load_dataset(path)


def test_dataset_duplicate_id_rejected(tmp_path):
    path = tmp_path / "dup.jsonl"
    line = '{"id": "a", "question": "q?", "options": {"A": "x", "B": "y"}, "answer": "A"}'
    path.write_text(line + "\n" + line + "\n", encoding="utf-8")
    with pytest.raises(DatasetError, match="duplicate"):
        load_dataset(path)


_OPTIONS = '"options": {"A": "x", "B": "y"}'


@pytest.mark.parametrize(
    "line, message",
    [
        (f'{{"id": "a", "question": null, {_OPTIONS}, "answer": "A"}}', "question must be a string, not null"),
        (f'{{"id": "a", "question": 5, {_OPTIONS}, "answer": "A"}}', "question must be a string, not 5"),
        ('{"id": "a", "question": "q?", "options": {"A": "x", "B": ["x"]}, "answer": "A"}',
         'option \'B\' must be a string, not ["x"]'),
        ('{"id": "a", "question": "q?", "options": {"A": "x", "B": 2}, "answer": "A"}',
         "option 'B' must be a string, not 2"),
        (f'{{"id": "a", "question": "q?", {_OPTIONS}, "answer": 1}}', "answer must be a string, not 1"),
        (f'{{"id": true, "question": "q?", {_OPTIONS}, "answer": "A"}}',
         "id must be a string or an integer, not true"),
        (f'{{"id": 1.5, "question": "q?", {_OPTIONS}, "answer": "A"}}',
         "id must be a string or an integer, not 1.5"),
        ('{"id": "a", "question": "q?", "options": {"A": "x", "B": "y", "A": "z"}, "answer": "A"}',
         "duplicate key 'A'"),
        (f'{{"id": "a", "question": "q?", {_OPTIONS}, "answer": "A", "id": "b"}}', "duplicate key 'id'"),
        ('{"id": "a", "question": "q?", "options": {"A": "x", "a": "y"}, "answer": "A"}',
         "item a: option labels 'A' and 'a' differ only in case"),
    ],
    ids=[
        "null-question", "int-question", "list-option", "int-option", "int-answer", "bool-id", "float-id",
        "repeated-label", "repeated-field", "case-twin-labels",
    ],
)
def test_dataset_rejects_non_string_fields_and_repeated_keys(tmp_path, line, message):
    path = tmp_path / "bad.jsonl"
    good = f'{{"id": "ok", "question": "q?", {_OPTIONS}, "answer": "A"}}'
    path.write_text(good + "\n" + line + "\n", encoding="utf-8")
    with pytest.raises(DatasetError) as info:
        load_dataset(path)
    assert str(info.value) == f"{path}: line 2: {message}"


def test_dataset_takes_an_integer_id_as_its_text(tmp_path):
    path = tmp_path / "ints.jsonl"
    path.write_text(f'{{"id": 7, "question": "q?", {_OPTIONS}, "answer": "B"}}\n', encoding="utf-8")
    (item,) = load_dataset(path)
    assert (item.id, item.question, item.options, item.gold) == ("7", "q?", {"A": "x", "B": "y"}, "B")


def test_qa_item_validation():
    with pytest.raises(ValidationError, match="item x: need at least 2 options, got 1"):
        QAItem(id="x", question="q?", options={"A": "only"}, gold="A")
    with pytest.raises(Exception):
        QAItem(id="x", question="q?", options={"A": "x", "B": "y"}, gold="Z")
    with pytest.raises(ValidationError, match="item x: option 'B' has empty text"):
        QAItem(id="x", question="q?", options={"A": "x", "B": "  "}, gold="A")
    with pytest.raises(ValidationError, match="item x: option label must be non-empty"):
        QAItem(id="x", question="q?", options={"A": "x", "": "y"}, gold="A")
    with pytest.raises(ValidationError, match="item x: option labels 'A' and 'a' differ only in case"):
        QAItem(id="x", question="q?", options={"A": "x", "a": "y"}, gold="A")
    item = QAItem(id="x", question="q?", options={"A": "x", "B": "y"}, gold="A")
    assert item.options_block == "A. x\nB. y"
    assert "options_block" not in repr(item)
    assert item == QAItem(id="x", question="q?", options={"A": "x", "B": "y"}, gold="A")


# -- per-mode stage wiring ---------------------------------------------------------


def _mode_members_named(source: str) -> list[str]:
    return [
        f"{node.lineno}: Mode.{node.attr}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "Mode" and node.attr in Mode.__members__
    ]


def test_pipeline_methods_name_no_mode_member():
    """Modes differ only by their row in ``_PLANS``: a new ablation adds a
    row there, not a branch in the evidence path."""
    assert set(_PLANS) == set(Mode)
    assert _mode_members_named("if mode is Mode.KG_ONLY:\n    pass") == ["1: Mode.KG_ONLY"]
    assert _mode_members_named(inspect.getsource(Pipeline)) == []


@pytest.mark.parametrize("mode", list(Mode))
def test_stage_call_counts_match_mode(mode):
    pipeline = build_fixture_pipeline(mode)
    items = load_dataset(FIXTURES / "dataset.jsonl")
    for item in items:
        record = pipeline.answer(item, mode)
        assert _stage_counts(record) == EXPECTED_CALLS[mode], (mode, item.id)


def test_full_mode_stage_order_is_cot_enhance_infer():
    pipeline = build_fixture_pipeline(Mode.FULL)
    items = load_dataset(FIXTURES / "dataset.jsonl")
    record = pipeline.answer(items[0], Mode.FULL)
    assert [call["stage"] for call in record.trace["llm_calls"]] == ["cot", "enhance", "infer"]


def test_parallel_live_evaluation_matches_sequential_results():
    def transport(request, endpoint):
        if request.stage == "cot":
            return LlmResponse(text="hypertension strains vessels → stroke risk rises → 80")
        if request.stage == "enhance":
            return LlmResponse(text="Paths support a vascular mechanism.")
        return LlmResponse(text="Answer: A")

    items = load_dataset(FIXTURES / "dataset.jsonl")

    def run(workers):
        gateway = LlmGateway(endpoint=EndpointConfig(url="http://example/llm"), transport=transport)
        pipeline = build_fixture_pipeline(Mode.FULL, gateway=gateway)
        pipeline.config = replace(
            pipeline.config,
            assignment=ModelAssignment(cot="live-a", enhance="live-a", infer="live-a"),
            workers=workers,
        )
        report = run_evaluation(pipeline, items, Mode.FULL)
        return [(r["item_id"], r["predicted"]) for r in report["records"]]

    assert run(1) == run(4)


def test_live_calls_in_flight_reach_the_worker_count():
    workers = 6
    barrier = threading.Barrier(workers, timeout=3)

    def transport(request, endpoint):
        if request.stage == "cot":
            barrier.wait()  # passes only once every worker is inside a call
            return LlmResponse(text="hypertension strains vessels → stroke risk rises → 80")
        return LlmResponse(text="Answer: A")

    template = load_dataset(FIXTURES / "dataset.jsonl")[0]
    items = [replace(template, id=f"q{n}") for n in range(workers)]
    gateway = LlmGateway(endpoint=EndpointConfig(url="http://example/llm"), transport=transport)
    pipeline = build_fixture_pipeline(Mode.NO_LLM_ENHANCED, gateway=gateway)
    pipeline.config = replace(
        pipeline.config, assignment=ModelAssignment(cot="live-a", infer="live-a"), workers=workers
    )
    report = run_evaluation(pipeline, items, Mode.NO_LLM_ENHANCED)
    assert report["error_count"] == 0
    assert [r["predicted"] for r in report["records"]] == ["A"] * workers


def test_mixed_mock_and_live_stages_give_each_item_its_own_transcript_entry():
    items = load_dataset(FIXTURES / "dataset.jsonl")

    class SlowFirstItemLinker:
        def __init__(self, index):
            self.index = index

        def link(self, text):
            if items[0].question in text:
                time.sleep(0.2)  # the other worker reaches the transcript first
            return self.index.link(text)

    gateway = LlmGateway(
        endpoint=EndpointConfig(url="http://example/llm"),
        transcript=MockTranscript.load(FIXTURES / TRANSCRIPTS[Mode.NO_LLM_ENHANCED]),
        transport=lambda request, endpoint: LlmResponse(text="Answer: A"),
    )
    pipeline = build_fixture_pipeline(Mode.NO_LLM_ENHANCED, gateway=gateway)
    pipeline.linker = SlowFirstItemLinker(pipeline.linker)
    pipeline.config = replace(pipeline.config, assignment=ModelAssignment(cot="mock", infer="live-a"), workers=2)
    report = run_evaluation(pipeline, items, Mode.NO_LLM_ENHANCED)
    cot_ordinals = {
        record["item_id"]: [call["ordinal"] for call in record["trace"]["llm_calls"] if call["stage"] == "cot"]
        for record in report["records"]
    }
    assert cot_ordinals == {item.id: [ordinal] for ordinal, item in enumerate(items)}
    assert report["timing_seconds"] is not None  # omitted only when every stage is mock


def test_full_mode_uses_causal_paths_everywhere():
    pipeline = build_fixture_pipeline(Mode.FULL)
    items = load_dataset(FIXTURES / "dataset.jsonl")
    for item in items:
        record = pipeline.answer(item, Mode.FULL)
        assert record.predicted == item.gold
        retrievals = record.trace["retrieval"]
        assert retrievals
        for entry in retrievals:
            assert entry["tier"] == "causal"
            assert entry["kept"] >= 1
        assert record.trace["final_path_count"] >= 1


@pytest.mark.parametrize("mode", list(Mode))
def test_each_text_is_linked_once_per_item(mode):
    pipeline = build_fixture_pipeline(mode)
    linker = pipeline.linker = RecordingLinker(pipeline.linker)
    for item in load_dataset(FIXTURES / "dataset.jsonl"):
        linker.texts.clear()
        record = pipeline.answer(item, mode)
        options_text = " ".join(item.options.values())
        if mode is Mode.KG_ONLY:
            segments = [item.question, options_text]
        else:
            segments = record.trace["cot"]["segments"]
        # The query text first, then each segment once, in chain order.
        assert linker.texts == [f"{item.question} {options_text}", *segments], item.id


def test_kg_only_retrieval_entry_has_the_keys_of_a_full_mode_entry():
    item = load_dataset(FIXTURES / "dataset.jsonl")[0]
    full, kg_only = (
        build_fixture_pipeline(mode).answer(item, mode).trace["retrieval"]
        for mode in (Mode.FULL, Mode.KG_ONLY)
    )
    assert len(kg_only) == 1
    assert kg_only[0].keys() == full[0].keys()


def test_kg_only_reports_no_paths_for_a_linked_pair_without_one():
    graph = make_graph([("Alpha", "CAUSES", "Beta", 0.9), ("Omega", "CAUSES", "Delta", 0.9)])
    config = load_config(FIXTURES / "config.yaml")
    pipeline = Pipeline(
        graph=graph,
        causal_view=build_causal_view(graph, config.causality, config.theta),
        linker=build_index(graph),
        gateway=LlmGateway(transcript=MockTranscript([("infer", 0, "Answer: A")])),
        config=config,
    )
    item = QAItem(id="q", question="Does alpha matter?", options={"A": "omega", "B": "delta"}, gold="A")
    record = pipeline.answer(item, Mode.KG_ONLY)
    assert record.trace["retrieval"] == [
        {
            "segment_index": 0,
            "source_entities": ["Alpha"],
            "target_entities": ["Delta", "Omega"],
            "tier": None,
            "candidates": 0,
            "kept": 0,
            "reason": "no-paths",
        }
    ]


def test_full_mode_fuses_parallel_edges_and_renders_the_lower_edge_index():
    """Two parallel edges of equal strength give two equal paths; fusion keeps
    the one with the lower edge index, which is the lower predicate int (first
    appearance), not the predicate that sorts first by name."""
    graph = make_graph([("Alpha", "PREVENTS", "Beta", 0.8), ("Alpha", "CAUSES", "Beta", 0.8)])
    assert [graph.edge(idx).predicate for idx in range(graph.edge_count)] == ["PREVENTS", "CAUSES"]
    config = load_config(FIXTURES / "config.yaml")
    transcript = MockTranscript(
        [("cot", 0, "alpha → beta → 80"), ("enhance", 0, "Alpha prevents beta."), ("infer", 0, "Answer: A")]
    )
    pipeline = Pipeline(
        graph=graph,
        causal_view=build_causal_view(graph, config.causality, config.theta),
        linker=build_index(graph),
        gateway=LlmGateway(transcript=transcript),
        config=config,
    )
    item = QAItem(id="q", question="What does alpha do to beta?", options={"A": "beta", "B": "nothing"}, gold="A")
    record = pipeline.answer(item, Mode.FULL, strict=True)
    assert [(entry["tier"], entry["candidates"], entry["kept"]) for entry in record.trace["retrieval"]] == [
        ("causal", 2, 2)
    ]
    assert record.trace["fused_count"] == 1
    (final,) = record.trace["final_paths"]
    assert (final["nodes"], final["merge_count"]) == (["Alpha", "Beta"], 2)
    enhance_prompt = record.trace["prompts"]["enhance"]
    assert "Alpha --[PREVENTS (0.80)]--> Beta" in enhance_prompt
    assert "CAUSES" not in enhance_prompt
    assert record.predicted == "A"


def test_pipeline_refuses_a_causal_view_of_another_graph():
    """The search reads edge indices from the view and renders them through
    the graph, so a view of any other graph is refused up front."""
    config = load_config(FIXTURES / "config.yaml")
    graph = load_triples(FIXTURES / "triples.tsv", config.causality.weight)
    rows = (FIXTURES / "triples.tsv").read_text(encoding="utf-8").splitlines(keepends=True)
    other = ingest_triples(rows[: len(rows) // 2], config.causality.weight)
    gateway = LlmGateway(transcript=MockTranscript.load(FIXTURES / TRANSCRIPTS[Mode.FULL]))
    for view_graph in (other, load_triples(FIXTURES / "triples.tsv", config.causality.weight)):
        with pytest.raises(ValidationError, match="^causal_view must be a view of graph$"):
            Pipeline(
                graph=graph,
                causal_view=build_causal_view(view_graph, config.causality, config.theta),
                linker=build_index(graph),
                gateway=gateway,
                config=config,
            )


def test_pipeline_refuses_a_linker_built_from_another_graph():
    """A linker of the full fixture graph links ids that a half-fixture graph
    lacks, which aborted ``run_evaluation`` outside the stage-error guard."""
    config = load_config(FIXTURES / "config.yaml")
    rows = (FIXTURES / "triples.tsv").read_text(encoding="utf-8").splitlines(keepends=True)
    graph = ingest_triples(rows[: len(rows) // 2], config.causality.weight)
    gateway = LlmGateway(transcript=MockTranscript.load(FIXTURES / TRANSCRIPTS[Mode.FULL]))
    with pytest.raises(ValidationError, match="^linker must be built from graph$"):
        Pipeline(
            graph=graph,
            causal_view=build_causal_view(graph, config.causality, config.theta),
            linker=build_index(load_triples(FIXTURES / "triples.tsv", config.causality.weight)),
            gateway=gateway,
            config=config,
        )


def test_no_enhancer_keeps_raw_segment_paths():
    pipeline = build_fixture_pipeline(Mode.NO_ENHANCER)
    items = load_dataset(FIXTURES / "dataset.jsonl")
    record = pipeline.answer(items[0], Mode.NO_ENHANCER)
    assert "fused_count" not in record.trace
    assert record.trace["final_path_count"] >= 1


def test_kg_only_has_no_cot_trace():
    pipeline = build_fixture_pipeline(Mode.KG_ONLY)
    items = load_dataset(FIXTURES / "dataset.jsonl")
    record = pipeline.answer(items[0], Mode.KG_ONLY)
    assert "cot" not in record.trace
    assert _stage_counts(record)["cot"] == 0


def test_unmapped_item_short_circuits():
    pipeline = build_fixture_pipeline(Mode.FULL)
    item = QAItem(
        id="offtopic",
        question="Which planet is largest?",
        options={"A": "Jupiter", "B": "Mars"},
        gold="A",
    )
    record = pipeline.answer(item, Mode.FULL)
    assert {k: v for k, v in record.to_dict().items() if k != "trace"} == {
        "item_id": "offtopic",
        "gold": "A",
        "predicted": "abstain",
        "unmapped": True,
        "error": None,
    }
    assert record.predicted is None
    assert record.trace["llm_calls"] == []


def test_transcript_failure_degrades_to_abstain():
    transcript = MockTranscript([])  # nothing recorded
    pipeline = build_fixture_pipeline(Mode.FULL, gateway=LlmGateway(transcript=transcript))
    items = load_dataset(FIXTURES / "dataset.jsonl")
    record = pipeline.answer(items[0], Mode.FULL)
    assert record.predicted is None
    assert {k: v for k, v in record.to_dict().items() if k != "trace"} == {
        "item_id": items[0].id,
        "gold": items[0].gold,
        "predicted": "abstain",
        "unmapped": False,
        "error": "TranscriptError: transcript exhausted: no entry for stage 'cot' ordinal 0",
    }


def test_flaky_endpoint_warns_once_per_degraded_item(caplog):
    def transport(request, endpoint):
        error = TransportError("status 503")
        error.transient = True
        raise error

    gateway = LlmGateway(
        endpoint=EndpointConfig(url="http://example/llm"),
        transport=transport,
        backoff_seconds=0.0,
    )
    pipeline = build_fixture_pipeline(Mode.FULL, gateway=gateway)
    pipeline.config = replace(
        pipeline.config, assignment=ModelAssignment(cot="live-a", enhance="live-a", infer="live-a")
    )
    item = load_dataset(FIXTURES / "dataset.jsonl")[0]
    with caplog.at_level(logging.DEBUG, logger="causalrag"):
        record = pipeline.answer(item, Mode.FULL)
    assert record.error and "3 attempts" in record.error
    warnings = [r for r in caplog.records if r.levelno >= logging.WARNING]
    assert [(r.name, r.getMessage().split(":")[0]) for r in warnings] == [
        ("causalrag.harness", f"item {item.id} degraded to abstain")
    ]
    assert sum(r.name == "causalrag.llm" for r in caplog.records) == 2


def test_cross_model_stage_routing():
    calls = []

    def transport(request, endpoint):
        calls.append((request.stage, request.model))
        if request.stage == "cot":
            return LlmResponse(text="hypertension strains vessels → stroke risk rises → 80")
        if request.stage == "enhance":
            return LlmResponse(text="The path supports a vascular mechanism.")
        return LlmResponse(text="Answer: A")

    gateway = LlmGateway(endpoint=EndpointConfig(url="http://example/llm"), transport=transport)
    pipeline = build_fixture_pipeline(Mode.FULL, gateway=gateway)
    # wire stage models like the cross-model protocol: small CoT, big rest
    pipeline.config = replace(
        pipeline.config,
        assignment=ModelAssignment(cot="small-model", enhance="big-model", infer="big-model"),
    )
    items = load_dataset(FIXTURES / "dataset.jsonl")
    record = pipeline.answer(items[0], Mode.FULL)
    assert record.predicted == "A"
    assert calls == [
        ("cot", "small-model"),
        ("enhance", "big-model"),
        ("infer", "big-model"),
    ]


# -- evaluation runs -----------------------------------------------------------------


def test_full_evaluation_all_correct():
    pipeline = build_fixture_pipeline(Mode.FULL)
    items = load_dataset(FIXTURES / "dataset.jsonl")
    report = run_evaluation(pipeline, items, Mode.FULL)
    assert report["n_items"] == 10
    assert report["n_unmapped"] == 0
    assert report["abstain_count"] == 0
    assert report["metrics"]["accuracy"] == 1.0
    assert report["metrics"]["macro_f1"] == 1.0
    assert report["timing_seconds"] is None  # deterministic mock run


def test_kg_only_evaluation_metrics():
    pipeline = build_fixture_pipeline(Mode.KG_ONLY)
    items = load_dataset(FIXTURES / "dataset.jsonl")
    report = run_evaluation(pipeline, items, Mode.KG_ONLY)
    assert report["metrics"]["accuracy"] == pytest.approx(0.8)
    by_id = {record["item_id"]: record for record in report["records"]}
    assert by_id["q03"]["predicted"] != by_id["q03"]["gold"]


def test_mock_reports_byte_identical(tmp_path):
    """The full-mode report is the same byte for byte whether the graph is
    ingested or, as ``evaluate`` reads it, saved and loaded as an artifact."""
    items = load_dataset(FIXTURES / "dataset.jsonl")
    ingested = build_fixture_pipeline(Mode.FULL)
    save_graph(ingested.graph, tmp_path / "graph.crag")
    loaded = build_fixture_pipeline(Mode.FULL, graph=load_graph(tmp_path / "graph.crag"))
    rendered = [render_report(run_evaluation(pipeline, items, Mode.FULL)) for pipeline in (ingested, loaded)]
    assert rendered[0] == rendered[1]


GOLDEN_REPORTS = FIXTURES / "reports"


@pytest.mark.parametrize("mode", list(Mode), ids=lambda mode: mode.value)
def test_fixture_reports_match_the_golden_files(mode):
    """Each mode's fixture report, byte for byte. A deliberate output change
    rewrites ``tests/fixtures/reports/<mode>.json`` in the same commit."""
    items = load_dataset(FIXTURES / "dataset.jsonl")
    rendered = render_report(run_evaluation(build_fixture_pipeline(mode), items, mode))
    golden = (GOLDEN_REPORTS / f"{mode.value}.json").read_text(encoding="utf-8")
    assert rendered == golden, f"{mode.value} report differs from {GOLDEN_REPORTS / mode.value}.json"


def test_report_echoes_config():
    pipeline = build_fixture_pipeline(Mode.FULL)
    items = load_dataset(FIXTURES / "dataset.jsonl")
    report = run_evaluation(pipeline, items, Mode.FULL)
    echo = report["config"]
    assert echo["theta"] == 0.5
    assert echo["alpha"] == 0.4
    assert echo["keep_ratio"] == 0.4
    assert echo["models"] == {"cot": "mock", "enhance": "mock", "infer": "mock"}
    assert report["mode"] == "full"


def test_unmapped_items_excluded_from_metrics():
    pipeline = build_fixture_pipeline(Mode.FULL)
    items = load_dataset(FIXTURES / "dataset.jsonl")
    offtopic = QAItem(
        id="q99",
        question="Which planet is largest?",
        options={"A": "Jupiter", "B": "Mars"},
        gold="A",
    )
    report = run_evaluation(pipeline, items + [offtopic], Mode.FULL)
    assert report["n_items"] == 11
    assert report["n_unmapped"] == 1
    assert report["n_scored"] == 10
    assert report["metrics"]["n"] == 10


def test_records_sorted_by_item_id():
    pipeline = build_fixture_pipeline(Mode.FULL)
    items = load_dataset(FIXTURES / "dataset.jsonl")
    report = run_evaluation(pipeline, list(reversed(items)), Mode.FULL)
    ids = [record["item_id"] for record in report["records"]]
    assert ids == sorted(ids)
    # reversal changes transcript pairing, not the report structure
    assert report["n_items"] == 10


def test_summary_renders_percent_table():
    pipeline = build_fixture_pipeline(Mode.FULL)
    items = load_dataset(FIXTURES / "dataset.jsonl")
    report = run_evaluation(pipeline, items, Mode.FULL)
    summary = summarize_report(report)
    assert "macro precision=100.00%" in summary
    assert "unmapped=0" in summary


def test_mock_mode_prompts_recorded_in_trace():
    pipeline = build_fixture_pipeline(Mode.FULL)
    items = load_dataset(FIXTURES / "dataset.jsonl")
    record = pipeline.answer(items[0], Mode.FULL)
    prompts = record.trace["prompts"]
    assert set(prompts) == {"cot", "enhance", "infer"}
    assert items[0].question in prompts["cot"]


def test_report_round_trips_as_json():
    pipeline = build_fixture_pipeline(Mode.FULL)
    items = load_dataset(FIXTURES / "dataset.jsonl")
    report = run_evaluation(pipeline, items, Mode.FULL)
    assert json.loads(render_report(report)) == report
