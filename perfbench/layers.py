"""Per-layer metrics of a traced run, derived from its span recorders.

Set-up operations are reported as the median seconds per call. Work done
while answering items is reported per traced item: seconds of span time
(self time where the name says so) and counts. Layer self times
(``self.<layer>_s``) add up to the traced wall time times the worker count,
less any time a worker sat idle.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from spans import Recorder, layer_self_times, self_times

LAYERS = ("graph", "causal", "linker", "cot", "retrieval", "enhancer", "llm", "harness")
OUT_EDGES = ("causal.out_edges", "graph.out_edges")
SECONDS_PER_CALL = {
    "graph.ingest_s",
    "graph.load_s",
    "causal.view_build_s",
    "linker.build_s",
    "harness.pipeline_init_s",
    "causal.update_s",
    "causal.member_nodes_s",
    "trace.wall_s",
}


def unit(name: str) -> str:
    """Unit of a metric returned by ``layer_metrics``."""
    if name.endswith("_share") or name.endswith("_per_expansion") or name == "cot.segments_per_item":
        return "ratio"
    if name in SECONDS_PER_CALL:
        return "s"
    if name.startswith("trace.items_per_s"):
        return "items/s"
    return "s/item" if name.endswith("_s") else "count/item"


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(
    setup: Recorder,
    evaluation: Recorder,
    wall_s: float,
    workers: int,
    untraced_items_per_s: float,
    traced_items_per_s: float,
) -> dict[str, float]:
    every = setup.spans + evaluation.spans

    def per_call(name: str, spans=every) -> float:
        return _median([s.duration for s in spans if s.name == name])

    selfs = self_times(evaluation.spans)
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    for span in evaluation.spans:
        total[span.name] += span.duration
        own[span.name] += selfs[span.sid]
    c = evaluation.counters
    items = c["harness.items"]

    def per_item(value: float) -> float:
        return _ratio(value, items)

    leaf_calls = leaf_returned = leaf_s = dfs_returned = 0.0
    for name in OUT_EDGES:
        for enclosing, (calls, returned, seconds) in evaluation.leaves.get(name, {}).items():
            leaf_calls += calls
            leaf_returned += returned
            leaf_s += seconds
            if enclosing == "retrieval.find_paths":
                dfs_returned += returned

    layers = layer_self_times(evaluation.spans, evaluation.leaves)
    m = {
        # set-up, seconds per call
        "graph.ingest_s": per_call("graph.ingest", setup.spans) + per_call("graph.save", setup.spans),
        "graph.load_s": per_call("graph.load", setup.spans),
        "causal.view_build_s": per_call("causal.view_build", setup.spans),
        "linker.build_s": per_call("linker.build", setup.spans),
        "harness.pipeline_init_s": per_call("harness.pipeline_init"),
        "causal.update_s": per_call("causal.update"),
        "causal.member_nodes_s": per_call("causal.member_nodes"),
        # answering items, per item
        "graph.bfs_calls": per_item(c["graph.bfs_calls"]),
        "graph.bfs_s": per_item(total["graph.bfs"]),
        "causal.out_edges_calls": per_item(leaf_calls),
        "causal.edge_expansions": per_item(leaf_returned),
        "causal.out_edges_s": per_item(leaf_s),
        "linker.link_calls": per_item(c["linker.link_calls"]),
        "linker.link_s": per_item(total["linker.link"]),
        "cot.parse_s": per_item(total["cot.parse"]),
        "cot.segments_per_item": _ratio(c["cot.segments"], c["cot.chains"]),
        "retrieval.find_paths_calls": per_item(c["retrieval.find_paths_calls"]),
        "retrieval.find_paths_s": per_item(own["retrieval.find_paths"]),
        "retrieval.candidates": per_item(c["retrieval.candidates"]),
        "retrieval.candidates_per_expansion": _ratio(c["retrieval.candidates"], dfs_returned),
        "retrieval.prune_s": per_item(own["retrieval.prune"]),
        "retrieval.kept_share": _ratio(c["retrieval.kept"], c["retrieval.prune_in"]),
        "retrieval.fallback_share": _ratio(c["retrieval.fallback_searches"], c["retrieval.find_paths_calls"]),
        "retrieval.no_entity_share": _ratio(c["retrieval.no_entity_pairs"], c["retrieval.segment_pairs"]),
        "enhancer.fuse_s": per_item(total["enhancer.fuse"]),
        "enhancer.score_s": per_item(total["enhancer.score"]),
        "enhancer.select_s": per_item(total["enhancer.select"]),
        "enhancer.render_s": per_item(own["enhancer.render"]),
        "enhancer.fused_share": _ratio(c["enhancer.fused"], c["enhancer.pooled"]),
        "llm.calls": per_item(c["llm.calls"]),
        "llm.attempts": per_item(c["llm.attempts"]),
        "llm.retry_share": _ratio(c["llm.attempts"] - c["llm.calls"], c["llm.attempts"]),
        "llm.failed_calls": per_item(c["llm.failed_calls"]),
        "llm.complete_s": per_item(total["llm.complete"]),
        "llm.transport_s": per_item(total["llm.transport"]),
        "llm.wait_s": per_item(total["llm.complete"] - total["llm.transport"]),
        "harness.answer_s": per_item(total["harness.answer"]),
        "harness.self_s": per_item(own["harness.answer"]),
        "harness.worker_busy_share": _ratio(total["harness.answer"], workers * wall_s),
    }
    for layer in LAYERS:
        m[f"self.{layer}_s"] = per_item(layers.get(layer, 0.0))
    m["trace.wall_s"] = wall_s
    m["trace.self_sum_share"] = _ratio(sum(layers.values()), workers * wall_s)
    m["trace.items_per_s_traced"] = traced_items_per_s
    m["trace.items_per_s_untraced"] = untraced_items_per_s
    m["trace.overhead_share"] = 1 - _ratio(traced_items_per_s, untraced_items_per_s)
    return m
