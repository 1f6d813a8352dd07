"""Output checks the benchmark applies to the program's results.

Each check reimplements what it verifies in the plainest way it can, and
shares no code with the program beyond reading the objects it returns.
"""

from __future__ import annotations

from collections import defaultdict


def adjacency(graph, edge_indices) -> dict[str, list[tuple[int, str]]]:
    """subject -> [(edge index, object)] over the given edges, ascending index."""
    adj: dict[str, list[tuple[int, str]]] = defaultdict(list)
    for idx in sorted(edge_indices):
        edge = graph.edge(idx)
        adj[edge.subject].append((idx, edge.object))
    return adj


def simple_paths(adj, start: str, goal: str, max_hops: int) -> list[tuple[tuple, tuple]]:
    """Loop-free paths start -> goal of 1..max_hops edges, grown a level at a time."""
    if start == goal:
        return []
    found = []
    frontier = [((start,), ())]
    for depth in range(1, max_hops + 1):
        grown = []
        for nodes, edges in frontier:
            for idx, target in adj.get(nodes[-1], ()):
                if target in nodes:
                    continue
                if target == goal:
                    found.append((nodes + (target,), edges + (idx,)))
                elif depth < max_hops:
                    grown.append((nodes + (target,), edges + (idx,)))
        frontier = grown
    return found


def expected_search(tiers, from_ids, to_ids, max_hops: int) -> set[tuple]:
    """The causal-first search contract, as a set of (nodes, edges, tier, reversed).

    ``tiers`` is [(tier name, adjacency)] in the order they are tried. Within
    a tier every ordered pair is tried forward; pairs with no forward path
    are then tried backward, and a backward path already found forward
    counts as forward. The first tier with any path is the answer.
    """
    froms, tos = sorted(set(from_ids)), sorted(set(to_ids))
    for tier, adj in tiers:
        forward: set[tuple] = set()
        empty = []
        for a in froms:
            for b in tos:
                if a == b:
                    continue
                paths = simple_paths(adj, a, b, max_hops)
                forward.update(paths)
                if not paths:
                    empty.append((a, b))
        result = {(nodes, edges, tier, False) for nodes, edges in forward}
        for a, b in empty:
            for nodes, edges in simple_paths(adj, b, a, max_hops):
                if (nodes, edges) not in forward:
                    result.add((nodes, edges, tier, True))
        if result:
            return result
    return set()


def found_search(paths) -> set[tuple]:
    return {(p.nodes, p.edges, p.tier, p.reversed) for p in paths}


def expected_members(previous, graph, updates, theta: float) -> frozenset[int]:
    """View membership after folding ``updates`` in at the view's own theta."""
    members = set(previous)
    for triple, strength in updates.items():
        idx = graph.edge_index(*triple)
        if strength >= theta:
            members.add(idx)
        else:
            members.discard(idx)
    return frozenset(members)


def metrics_errors(report) -> list[str]:
    """Differences between the report's metrics and a confusion-table recount."""
    scored = [r for r in report["records"] if not r["unmapped"]]
    metrics = report["metrics"]
    if not scored:
        return [] if metrics is None else ["metrics present although every item was unmapped"]
    golds = [r["gold"] for r in scored]
    preds = [r["predicted"] for r in scored]
    table: dict[tuple[str, str], int] = defaultdict(int)
    for gold, pred in zip(golds, preds):
        table[(gold, pred)] += 1
    labels = sorted(set(golds))
    f1s = []
    for label in labels:
        tp = table[(label, label)]
        predicted = sum(n for (g, p), n in table.items() if p == label)
        actual = sum(n for (g, p), n in table.items() if g == label)
        precision = tp / predicted if predicted else 0.0
        recall = tp / actual if actual else 0.0
        f1s.append(2 * precision * recall / (precision + recall) if precision + recall else 0.0)
    want = {
        "n": len(scored),
        "accuracy": sum(n for (g, p), n in table.items() if g == p) / len(scored),
        "abstain_count": preds.count("abstain"),
        "macro_f1": sum(f1s) / len(f1s),
    }
    return [
        f"metrics.{key}: report {metrics[key]!r}, recount {value!r}"
        for key, value in want.items()
        if abs(metrics[key] - value) > 1e-9
    ]
