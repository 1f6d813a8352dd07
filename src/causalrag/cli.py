"""Command-line entry point.

Subcommands: build-graph, answer, evaluate, causal-stats, update-strengths.
Exit codes: 0 success, 1 data error (text that is not UTF-8 included), 2 usage,
config or I/O error, 3 a failed LLM stage (transport, transcript or CoT parse).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import logging
import operator
import sys

from .causal import apply_strength_updates, build_causal_view, parse_strength_updates
from .config import PipelineConfig, load_config
from .errors import STAGE_ERRORS, CausalRagError, ValidationError, open_text
from .graph import load_graph, load_triples, open_replacing, save_graph
from .harness import Mode, Pipeline, QAItem, load_dataset, run_evaluation, summarize_report, write_report
from .linker import build_index, load_alias_file
from .llm import STAGES, EndpointConfig, LlmGateway, MockTranscript

logger = logging.getLogger(__name__)

MODE_FLAGS = [mode.flag for mode in Mode]

# The first class an error is an instance of picks its exit code.
_EXIT_CODES = (
    (ValidationError, 2), (STAGE_ERRORS, 3), (CausalRagError, 1), (UnicodeDecodeError, 1), (OSError, 2)
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="causalrag",
        description="Causal-first graph retrieval for multiple-choice QA.",
    )
    parser.add_argument("--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    build = sub.add_parser("build-graph", help="ingest a triple TSV into a graph artifact")
    build.add_argument("triples", help="predication TSV file")
    build.add_argument("--output", "-o", required=True, help="artifact path to write")
    build.add_argument("--config", help="pipeline config YAML (for causality defaults)")
    build.set_defaults(func=cmd_build_graph)

    answer = sub.add_parser("answer", help="answer a single question")
    answer.add_argument("--graph", required=True, help="graph artifact")
    answer.add_argument("--question", required=True)
    answer.add_argument(
        "--option",
        action="append",
        required=True,
        metavar="LABEL=TEXT",
        help="repeatable; e.g. --option 'A=Stroke'",
    )
    _add_run_flags(answer)
    answer.add_argument("--trace", action="store_true", help="print the full trace")
    answer.set_defaults(func=cmd_answer)

    evaluate = sub.add_parser("evaluate", help="run a dataset and write a report")
    evaluate.add_argument("--graph", required=True, help="graph artifact")
    evaluate.add_argument("--dataset", required=True, help="line-delimited JSON dataset")
    evaluate.add_argument("--report", help="report JSON output path")
    _add_run_flags(evaluate)
    evaluate.set_defaults(func=cmd_evaluate)

    stats = sub.add_parser("causal-stats", help="print causal view size per theta")
    stats.add_argument("--graph", required=True)
    stats.add_argument("--config", help="pipeline config YAML")
    stats.add_argument("--theta", type=float, help="single theta instead of a sweep")
    stats.set_defaults(func=cmd_causal_stats)

    update = sub.add_parser("update-strengths", help="apply a strength-update TSV to the causal view")
    update.add_argument("--graph", required=True)
    update.add_argument("--updates", required=True, help="TSV: subject_cui, predicate, object_cui, s_new")
    update.add_argument("--config", help="pipeline config YAML")
    update.add_argument("--theta", type=float)
    update.set_defaults(func=cmd_update_strengths)

    return parser


def _add_run_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="pipeline config YAML")
    sub.add_argument("--mode", choices=MODE_FLAGS, default="full")
    sub.add_argument("--theta", type=float)
    sub.add_argument("--k", type=int)
    sub.add_argument("--max-hops", type=int)
    sub.add_argument("--keep-ratio", type=float)
    sub.add_argument("--cot-model")
    sub.add_argument("--enhance-model")
    sub.add_argument("--infer-model")
    sub.add_argument("--mock-transcript", help="JSONL transcript for mock models")
    sub.add_argument("--aliases", help="supplementary alias TSV (cui, alias)")
    sub.add_argument("--strength-updates", help="strength-update TSV applied to the causal view")


def _resolve_config(args) -> PipelineConfig:
    """The config file with the given flags laid over it (unset flags are None)."""
    flags = vars(args)
    return load_config(args.config, {
        "theta": args.theta,
        "retrieval": {"k": flags.get("k"), "max_hops": flags.get("max_hops")},
        "enhancer": {"keep_ratio": flags.get("keep_ratio")},
        "models": {stage: flags.get(f"{stage}_model") for stage in STAGES},
    })


def _build_pipeline(args, config: PipelineConfig) -> Pipeline:
    graph = load_graph(args.graph)
    view = build_causal_view(graph, config.causality, config.theta)
    if args.strength_updates:
        view = apply_strength_updates(view, _read_updates(args.strength_updates))
    aliases = load_alias_file(args.aliases) if args.aliases else ()
    linker = build_index(graph, aliases)
    transcript = MockTranscript.load(args.mock_transcript) if args.mock_transcript else None
    gateway = LlmGateway(endpoint=EndpointConfig.from_env(), transcript=transcript)
    return Pipeline(graph=graph, causal_view=view, linker=linker, gateway=gateway, config=config)


def _read_updates(path) -> dict[tuple[str, str, str], float]:
    with open_text(path) as fh:
        return parse_strength_updates(fh)


# -- subcommands ----------------------------------------------------------------


def cmd_build_graph(args) -> int:
    config = load_config(args.config)
    graph = load_triples(args.triples, config.causality.weight)
    save_graph(graph, args.output)
    stats = graph.stats
    print(
        f"nodes={graph.node_count} edges={graph.edge_count} "
        f"malformed={stats.malformed_rows} duplicates={stats.duplicate_triples}"
    )
    for predicate, count in sorted(graph.predicate_counts().items()):
        print(f"  {predicate}: {count}")
    print(f"wrote {args.output}")
    return 0


def cmd_answer(args) -> int:
    config = _resolve_config(args)
    options: dict[str, str] = {}
    for spec in args.option:
        label, sep, text = (part.strip() for part in spec.partition("="))
        if not sep or not label or not text:
            raise ValidationError(f"--option must look like LABEL=TEXT, got {spec!r}")
        if label in options:
            raise ValidationError(f"--option repeats label {label!r}")
        options[label] = text
    # ad-hoc questions carry no gold label; the first option stands in
    item = QAItem(id="cli", question=args.question, options=options, gold=next(iter(options)))

    pipeline = _build_pipeline(args, config)
    with contextlib.closing(pipeline.gateway):
        record = pipeline.answer(item, Mode.from_flag(args.mode), strict=True)
    print(f"predicted: {record.to_dict()['predicted']}")
    if record.unmapped:
        print("note: question does not map into the causal subgraph")
    summary = record.trace.get("enhanced_summary")
    if summary:
        print(f"enhanced summary:\n{summary}")
    if args.trace:
        print(json.dumps(record.trace, indent=2, sort_keys=True, ensure_ascii=False))
    return 0


def cmd_evaluate(args) -> int:
    config = _resolve_config(args)
    items = load_dataset(args.dataset)
    pipeline = _build_pipeline(args, config)
    with contextlib.closing(pipeline.gateway):
        report = run_evaluation(pipeline, items, Mode.from_flag(args.mode))
    if args.report:
        with open_replacing(args.report) as raw, io.TextIOWrapper(raw, encoding="utf-8") as fh:
            write_report(report, fh)
        print(f"wrote {args.report}")
    print(summarize_report(report))
    return 0


def cmd_causal_stats(args) -> int:
    config = load_config(args.config)
    graph = load_graph(args.graph)
    thetas = [args.theta] if args.theta is not None else [round(0.1 * i, 1) for i in range(11)]
    print("theta  edges  nodes")
    for theta in thetas:
        view = build_causal_view(graph, config.causality, theta)
        print(f"{theta:<6} {view.edge_count:<6} {len(view.member_node_ids())}")
    return 0


def cmd_update_strengths(args) -> int:
    config = _resolve_config(args)
    graph = load_graph(args.graph)
    view = build_causal_view(graph, config.causality, config.theta)
    updates = _read_updates(args.updates)

    updated = apply_strength_updates(view, updates)
    before, after = view.mask, updated.mask
    added = sum(map(operator.gt, after, before))
    demoted = sum(map(operator.lt, after, before))
    revised = sum(before[i] & after[i] for i in graph.edge_indices(updates))
    print(
        f"applied {len(updates)} updates at theta={view.theta}: "
        f"added={added} revised={revised} demoted={demoted}"
    )
    print(f"view edges: {view.edge_count} -> {updated.edge_count}")
    return 0


# -- entry point ------------------------------------------------------------------


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except (CausalRagError, UnicodeDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))


if __name__ == "__main__":
    raise SystemExit(main())
