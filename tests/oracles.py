"""Independent brute-force reference implementations used by the tests.

These deliberately avoid the library's search code: simple paths come from
filtering node permutations rather than DFS, and metrics come from an
explicit confusion-matrix table, and causal-view membership is recounted
edge by edge from the stated rule. Keep them slow and obvious.
"""

from __future__ import annotations

from itertools import permutations, product


def recount_view_members(graph, table, theta, overrides):
    """Causal-view members by the rule: an override alone decides its edge;
    any other edge needs label weight >= theta and strength >= theta."""
    members = set()
    for idx, edge in enumerate(graph.edges):
        if idx in overrides:
            if overrides[idx] >= theta:
                members.add(idx)
        elif table.weight(edge.predicate) >= theta and edge.strength >= theta:
            members.add(idx)
    return members


def brute_force_simple_paths(graph, allowed_edges, start, goal, max_hops):
    """All loop-free directed paths start -> goal using only ``allowed_edges``.

    Enumerates candidate node sequences from permutations of intermediate
    nodes, then expands every combination of parallel edges.
    """
    if start == goal:
        return []
    other_nodes = [n for n in graph.node_ids() if n not in (start, goal)]
    found = []
    for length in range(1, max_hops + 1):
        for intermediates in permutations(other_nodes, length - 1):
            sequence = (start, *intermediates, goal)
            hop_choices = []
            for u, v in zip(sequence, sequence[1:]):
                choices = [
                    idx
                    for idx in allowed_edges
                    if graph.edge(idx).subject == u and graph.edge(idx).object == v
                ]
                if not choices:
                    break
                hop_choices.append(choices)
            else:
                for combo in product(*hop_choices):
                    found.append((sequence, tuple(combo)))
    return found


def brute_force_find_paths(graph, view, from_set, to_set, max_hops):
    """Reference for find_paths: per-pair forward-else-reverse, causal tier
    first with all-or-nothing fallback, first-occurrence dedup.

    Returns a dict keyed by (nodes, edges) with value
    (tier, reversed, score) for set comparison.
    """

    def run_tier(allowed, strength_of, tier):
        results: dict[tuple, tuple[str, bool, float]] = {}
        reversed_pairs = []
        for a in sorted(set(from_set)):
            for b in sorted(set(to_set)):
                if a == b:
                    continue
                forward = brute_force_simple_paths(graph, allowed, a, b, max_hops)
                if forward:
                    for nodes, edges in forward:
                        key = (nodes, edges)
                        if key not in results:
                            score = sum(strength_of(i) for i in edges) / len(edges)
                            results[key] = (tier, False, score)
                else:
                    reversed_pairs.append((a, b))
        for a, b in reversed_pairs:
            for nodes, edges in brute_force_simple_paths(graph, allowed, b, a, max_hops):
                key = (nodes, edges)
                if key not in results:
                    score = sum(strength_of(i) for i in edges) / len(edges)
                    results[key] = (tier, True, score)
        return results

    if view is not None:
        causal = run_tier(sorted(view.member_edges), view.effective_strength, "causal")
        if causal:
            return causal
    all_edges = range(graph.edge_count)
    return run_tier(all_edges, graph.effective_strength, "fallback")


def brute_force_metrics(golds, predictions):
    """Confusion-matrix metrics computed with explicit per-cell tallies."""
    labels = sorted(set(golds))
    table: dict[tuple[str, object], int] = {}
    for gold, predicted in zip(golds, predictions):
        table[(gold, predicted)] = table.get((gold, predicted), 0) + 1

    def cell_sum(want_gold=None, want_pred=None):
        total = 0
        for (gold, predicted), count in table.items():
            if want_gold is not None and gold != want_gold:
                continue
            if want_pred is not None and predicted != want_pred:
                continue
            total += count
        return total

    per_label = {}
    for label in labels:
        tp = table.get((label, label), 0)
        predicted_as = cell_sum(want_pred=label)
        gold_count = cell_sum(want_gold=label)
        precision = tp / predicted_as if predicted_as else 0.0
        recall = tp / gold_count if gold_count else 0.0
        f1 = (2 * precision * recall / (precision + recall)) if precision + recall else 0.0
        per_label[label] = (precision, recall, f1)

    n_labels = len(labels)
    macro_precision = sum(v[0] for v in per_label.values()) / n_labels
    macro_recall = sum(v[1] for v in per_label.values()) / n_labels
    macro_f1 = sum(v[2] for v in per_label.values()) / n_labels
    correct = sum(count for (gold, predicted), count in table.items() if gold == predicted)
    accuracy = correct / len(golds)
    return per_label, macro_precision, macro_recall, macro_f1, accuracy
