"""End-to-end pipeline execution and multiple-choice evaluation.

Four run modes share one orchestrator: the full three-stage pipeline
(chain-of-thought, retrieval and enhancement, inference), a correlation-only
variant that skips chain-of-thought entirely, and two ablations that drop
the enhancement LLM pass or the whole enhancement stage. Per-item failures
degrade to abstentions so long evaluations survive transient faults.
"""

from __future__ import annotations

import json
import logging
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Mapping

from .causal import CausalGraphView
from .config import PipelineConfig
from .cot import ChainOfThought, build_cot_prompt, format_options, normalize_options, parse_cot, render_cot
from .enhancer import (
    build_enhancement_prompt,
    fuse_paths,
    render_paths_block,
    score_paths,
    select_final,
)
from .errors import STAGE_ERRORS, DatasetError, ValidationError, naming_undecodable
from .graph import KnowledgeGraph
from .llm import LlmGateway, LlmRequest, extract_answer_label
from .metrics import compute_metrics
from .retrieval import retrieve_for_cot
from .templates import NO_EVIDENCE_MARKER, fill_template, load_template

logger = logging.getLogger(__name__)

REPORT_SCHEMA = "causalrag-report-v1"


class Mode(str, Enum):
    """Ablation modes from the evaluation protocol."""

    FULL = "full"
    KG_ONLY = "kg_only"
    NO_LLM_ENHANCED = "no_llm_enhanced"
    NO_ENHANCER = "no_enhancer"

    @classmethod
    def from_flag(cls, flag: str) -> "Mode":
        return cls(flag.replace("-", "_"))

    @property
    def flag(self) -> str:
        return self.value.replace("_", "-")


@dataclass(frozen=True)
class QAItem:
    """One multiple-choice question with its gold label."""

    id: str
    question: str
    options: dict[str, str]
    gold: str

    def __post_init__(self):
        if not self.id:
            raise ValidationError("item id must be non-empty")
        if not self.question.strip():
            raise ValidationError(f"item {self.id}: question must be non-empty")
        try:
            normalize_options(self.options)
        except ValidationError as exc:
            raise ValidationError(f"item {self.id}: {exc}") from None
        if self.gold not in self.options:
            raise ValidationError(f"item {self.id}: gold label {self.gold!r} not among options")

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(self.options)


@dataclass
class PredictionRecord:
    item_id: str
    gold: str
    predicted: str | None
    unmapped: bool = False
    error: str | None = None
    trace: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "item_id": self.item_id,
            "gold": self.gold,
            "predicted": self.predicted if self.predicted is not None else "abstain",
            "unmapped": self.unmapped,
            "error": self.error,
            "trace": self.trace,
        }


def load_dataset(path) -> list[QAItem]:
    """Read a line-delimited JSON dataset; any defect is fatal with its line
    number. The question, option texts and answer must be JSON strings, the
    id a string or an integer, and no object may repeat a key."""
    items: list[QAItem] = []
    seen_ids: set[str] = set()
    with naming_undecodable(path), open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                record = json.loads(line, object_pairs_hook=_without_repeated_keys)
                item_id, question, options, answer = (record[k] for k in ("id", "question", "options", "answer"))
                if type(item_id) not in (str, int):
                    raise TypeError(f"id must be a string or an integer, not {json.dumps(item_id)}")
                texts = {"question": question, "answer": answer}
                texts.update((f"option {label!r}", text) for label, text in options.items())
                for name, text in texts.items():
                    if not isinstance(text, str):
                        raise TypeError(f"{name} must be a string, not {json.dumps(text)}")
                item = QAItem(id=str(item_id), question=question, options=options, gold=answer)
            # ValueError covers bad JSON and over-long integers; RecursionError, deep nesting.
            except (ValueError, RecursionError, KeyError, TypeError, AttributeError, ValidationError) as exc:
                raise DatasetError(f"{path}: line {line_no}: {exc}") from None
            if item.id in seen_ids:
                raise DatasetError(f"{path}: line {line_no}: duplicate item id {item.id!r}")
            seen_ids.add(item.id)
            items.append(item)
    if not items:
        raise DatasetError(f"{path}: dataset contains no items")
    return items


def _without_repeated_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's dict, refusing a key that repeats (``json`` keeps the last)."""
    record: dict = {}
    for key, value in pairs:
        if key in record:
            raise ValueError(f"duplicate key {key!r}")
        record[key] = value
    return record


class Pipeline:
    """Everything needed to answer one question: graph, view, linker, gateway."""

    def __init__(
        self,
        graph: KnowledgeGraph,
        causal_view: CausalGraphView,
        linker,
        gateway: LlmGateway,
        config: PipelineConfig,
    ):
        self.graph = graph
        self.causal_view = causal_view
        self.linker = linker
        self.gateway = gateway
        self.config = config
        self._cot_template = load_template("cot_generation.txt", config.cot_template_path)
        self._enhance_template = load_template("path_enhancement.txt", config.enhance_template_path)
        self._infer_template = load_template("answer_inference.txt", config.inference_template_path)

    # -- single item ---------------------------------------------------------

    def answer(self, item: QAItem, mode: Mode, strict: bool = False) -> PredictionRecord:
        """Answer one item. Failures degrade to an abstaining record unless
        ``strict``, in which case they propagate (single-question CLI use)."""
        trace: dict = {"mode": mode.value, "llm_calls": []}
        query_cuis = self._query_entities(item)
        trace["query_entities"] = sorted(query_cuis)

        if not any(self.causal_view.touches(cui) for cui in query_cuis):
            trace["note"] = "no linked entity maps into the causal subgraph"
            return PredictionRecord(
                item_id=item.id, gold=item.gold, predicted=None, unmapped=True, trace=trace
            )

        try:
            evidence = self._evidence(item, mode, query_cuis, trace)
            predicted = self._infer(item, evidence, trace)
            return PredictionRecord(
                item_id=item.id, gold=item.gold, predicted=predicted, trace=trace
            )
        except STAGE_ERRORS as exc:
            if strict:
                raise
            logger.warning("item %s degraded to abstain: %s", item.id, exc)
            return PredictionRecord(
                item_id=item.id,
                gold=item.gold,
                predicted=None,
                error=f"{type(exc).__name__}: {exc}",
                trace=trace,
            )

    # -- stage helpers ---------------------------------------------------------

    def _query_entities(self, item: QAItem) -> frozenset[str]:
        text = " ".join([item.question, *item.options.values()])
        return self.linker.link(text)

    def _call(self, stage: str, prompt: str, trace: dict) -> str:
        model = self.config.assignment.for_stage(stage)
        temperature = {
            "cot": self.config.cot_temperature,
            "enhance": self.config.enhance_temperature,
            "infer": self.config.infer_temperature,
        }[stage]
        request = LlmRequest(
            model=model, messages=(("user", prompt),), stage=stage, temperature=temperature
        )
        response = self.gateway.complete(request)
        call_info: dict = {"stage": stage, "model": model}
        if response.transcript_ordinal is not None:
            call_info["ordinal"] = response.transcript_ordinal
            trace.setdefault("prompts", {})[stage] = prompt
        trace["llm_calls"].append(call_info)
        return response.text

    def _evidence(
        self, item: QAItem, mode: Mode, query_cuis: frozenset[str], trace: dict
    ) -> str:
        if mode is Mode.KG_ONLY:
            # The correlation baseline: the question stands in for the chain
            # of thought and reaches the options over the base graph alone.
            cot = ChainOfThought(raw="", segments=(item.question, " ".join(item.options.values())))
            causal_view = None
        else:
            prompt = build_cot_prompt(item.question, item.options, self._cot_template)
            cot = parse_cot(self._call("cot", prompt, trace))
            trace["cot"] = {
                "segments": list(cot.segments),
                "confidence": cot.confidence,
                "warnings": list(cot.warnings),
            }
            causal_view = self.causal_view

        retrievals = retrieve_for_cot(
            cot, self.linker, causal_view, self.graph, self.config.retrieval
        )
        trace["retrieval"] = [
            {
                "segment_index": entry.segment_index,
                "source_entities": list(entry.source_entities),
                "target_entities": list(entry.target_entities),
                "tier": entry.tier,
                "candidates": entry.candidate_count,
                "kept": len(entry.paths),
                "reason": entry.reason,
            }
            for entry in retrievals.values()
        ]

        if mode in (Mode.KG_ONLY, Mode.NO_ENHANCER):
            raw_paths = [p for entry in retrievals.values() for p in entry.paths]
            trace["final_path_count"] = len(raw_paths)
            if mode is Mode.KG_ONLY:
                return render_paths_block(raw_paths, self.graph)
            return self._paths_and_cot_block(raw_paths, cot)

        fused = fuse_paths([entry.paths for entry in retrievals.values()])
        query_semtypes: set[str] = set()
        for cui in query_cuis:
            query_semtypes |= self.graph.node(cui).semantic_types
        scored = score_paths(fused, query_cuis, query_semtypes, self.graph, self.config.enhancer)
        final = select_final(scored, self.config.enhancer.keep_ratio)
        trace["fused_count"] = len(fused)
        trace["final_path_count"] = len(final)
        trace["final_paths"] = [
            {
                "nodes": list(item_.path.nodes),
                "tier": item_.path.tier,
                "path_score": item_.path.score,
                "total_score": item_.total_score,
                "merge_count": item_.merge_count,
            }
            for item_ in final
        ]

        if mode is Mode.NO_LLM_ENHANCED:
            return self._paths_and_cot_block([s.path for s in final], cot)

        enhance_prompt = build_enhancement_prompt(
            final, cot, item.question, item.options, self.graph, self._enhance_template
        )
        summary = self._call("enhance", enhance_prompt, trace)
        trace["enhanced_summary"] = summary
        return summary

    def _paths_and_cot_block(self, paths, cot: ChainOfThought) -> str:
        block = render_paths_block(paths, self.graph)
        return f"{block}\n\nOriginal chain of thought:\n{render_cot(cot)}"

    def _infer(self, item: QAItem, evidence: str, trace: dict) -> str | None:
        prompt = fill_template(
            self._infer_template,
            question=item.question.strip(),
            options=format_options(item.options),
            evidence=evidence if evidence.strip() else NO_EVIDENCE_MARKER,
        )
        answer_text = self._call("infer", prompt, trace)
        predicted = extract_answer_label(answer_text, item.labels)
        trace["inference_text"] = answer_text
        return predicted


def run_evaluation(pipeline: Pipeline, items: Iterable[QAItem], mode: Mode) -> dict:
    """Evaluate a dataset and assemble the machine-readable report.

    Items whose linked entities never touch the causal subgraph are flagged
    unmapped and excluded from the metrics; failures abstain. In all-mock
    assignments the run is single-worker and the report is a pure function
    of (dataset, config, transcript), so timing is omitted for byte-stable
    output.
    """
    items = list(items)
    deterministic = pipeline.config.assignment.all_mock()
    started = time.perf_counter()

    if deterministic or pipeline.config.workers == 1:
        records = [pipeline.answer(item, mode) for item in items]
    else:
        with ThreadPoolExecutor(max_workers=pipeline.config.workers) as pool:
            records = list(pool.map(lambda it: pipeline.answer(it, mode), items))

    records.sort(key=lambda record: record.item_id)
    scored = [r for r in records if not r.unmapped]
    if scored:
        metrics = compute_metrics(
            [r.gold for r in scored], [r.predicted for r in scored]
        ).to_dict()
    else:
        logger.warning("every item was unmapped; no metrics computed")
        metrics = None

    return {
        "schema": REPORT_SCHEMA,
        "mode": mode.value,
        "config": pipeline.config.echo(),
        "n_items": len(records),
        "n_scored": len(scored),
        "n_unmapped": len(records) - len(scored),
        "abstain_count": sum(1 for r in scored if r.predicted is None),
        "error_count": sum(1 for r in records if r.error),
        "metrics": metrics,
        "records": [r.to_dict() for r in records],
        "timing_seconds": None if deterministic else round(time.perf_counter() - started, 3),
    }


def render_report(report: Mapping) -> str:
    """Serialize a report deterministically (sorted keys, trailing newline)."""
    return json.dumps(report, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def summarize_report(report: Mapping) -> str:
    """Human-readable summary table for stdout."""
    lines = [
        f"mode={report['mode']} items={report['n_items']} scored={report['n_scored']} "
        f"unmapped={report['n_unmapped']} abstain={report['abstain_count']}",
    ]
    metrics = report.get("metrics")
    if metrics:
        lines.append(
            "macro precision={:.2f}%  recall={:.2f}%  F1={:.2f}%  accuracy={:.2f}%".format(
                100 * metrics["macro_precision"],
                100 * metrics["macro_recall"],
                100 * metrics["macro_f1"],
                100 * metrics["accuracy"],
            )
        )
        lines.append("label  precision  recall  f1  support")
        for label, scores in metrics["per_label"].items():
            lines.append(
                f"{label:<6} {scores['precision']:.4f}     {scores['recall']:.4f}  "
                f"{scores['f1']:.4f}  {scores['support']}"
            )
    else:
        lines.append("no metrics (all items unmapped)")
    return "\n".join(lines)
