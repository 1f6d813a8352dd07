"""Independent brute-force reference implementations used by the tests.

These deliberately avoid the library's search code: simple paths come from
filtering node permutations rather than DFS, metrics come from an
explicit confusion-matrix table, causal-view membership is recounted
edge by edge from the stated rule, and ``ReferenceGraph`` keeps the
dict-of-lists adjacency that the columnar graph core replaced. The one
library call is the detour reference's BFS, ``graph.shortest_path_length``, which the graph tests check
against their own BFS. The exception is ``reference_find_paths``: it keeps
the unpruned DFS that ``find_paths`` used before its goal-directed search,
as the slow reference that search must match path for path, in order.
``reference_ingest_triples`` keeps the string-keyed ingest that the
interning one replaced, building through ``graph_from_edges``: the
``KgEdge`` front that interns ids and predicates for the int-column
constructor, as tests build their graphs. Keep them slow and obvious.
"""

from __future__ import annotations

import logging
from array import array
from collections import Counter
from itertools import permutations, product
from typing import Iterator

from causalrag.errors import IngestionError, ValidationError
from causalrag.graph import (
    STRENGTH_COLUMN,
    TRIPLE_HEADER,
    ConceptNode,
    IngestStats,
    KgEdge,
    KnowledgeGraph,
    shortest_path_length,
)

_logger = logging.getLogger(__name__)


def graph_from_edges(nodes, edges, stats=IngestStats()) -> KnowledgeGraph:
    """The graph of ``KgEdge`` rows over ``nodes``: ids and predicates are
    interned, in order of first use, into the constructor's int columns,
    and the rows sorted into the constructor's key order."""
    nodes, edges = tuple(nodes), tuple(edges)
    index = {node.id: position for position, node in enumerate(nodes)}
    predicate_index: dict[str, int] = {}
    rows = []
    for edge in edges:
        s, p, o = edge.subject, edge.predicate, edge.object
        if s not in index:
            raise ValidationError(f"edge {(s, p, o)} references unknown subject")
        if o not in index:
            raise ValidationError(f"edge {(s, p, o)} references unknown object")
        rows.append((index[s], predicate_index.setdefault(p, len(predicate_index)), index[o], edge.strength))
    rows.sort(key=lambda row: row[:3])
    columns = [array(code, [row[k] for row in rows]) for k, code in enumerate("iiid")]
    return KnowledgeGraph(nodes, tuple(predicate_index), *columns, stats)


def edges_of(graph) -> tuple[KgEdge, ...]:
    """Every edge of ``graph`` as a ``KgEdge``, in edge order."""
    return tuple(map(graph.edge, range(graph.edge_count)))


class ReferenceGraph:
    """The graph's adjacency as it was stored before the columnar core.

    One ``KgEdge`` per edge, dict-of-lists forward and reverse indexes and a
    triple map, answering the reads ``KnowledgeGraph`` answers from its
    columns and CSR arrays. Unknown ids and triples raise ``KeyError``.
    Edges are held in the order ``graph_from_edges`` gives them: by subject
    position in ``nodes``, then predicate by first use in ``edges``, then
    object position.
    """

    def __init__(self, nodes, edges):
        self.nodes = {node.id: node for node in nodes}
        position = {node_id: i for i, node_id in enumerate(self.nodes)}
        first_use: dict[str, int] = {}
        for edge in edges:
            first_use.setdefault(edge.predicate, len(first_use))
        self.edges = tuple(
            sorted(edges, key=lambda e: (position[e.subject], first_use[e.predicate], position[e.object]))
        )
        self.forward = {node_id: [] for node_id in self.nodes}
        self.reverse = {node_id: [] for node_id in self.nodes}
        self.by_triple = {}
        for idx, edge in enumerate(self.edges):
            self.by_triple[(edge.subject, edge.predicate, edge.object)] = idx
            self.forward[edge.subject].append(idx)
            self.reverse[edge.object].append(idx)

    def node_ids(self):
        return tuple(self.nodes)

    @property
    def edge_count(self):
        return len(self.edges)

    def edge(self, idx):
        return self.edges[idx]

    def edge_index(self, subject, predicate, object_):
        return self.by_triple[(subject, predicate, object_)]

    def predicate_counts(self):
        return Counter(edge.predicate for edge in self.edges)

    def out_edges(self, node_id):
        return tuple(self.forward[node_id])

    def in_edges(self, node_id):
        return tuple(self.reverse[node_id])

    def successors(self, node_id):
        grouped = {}
        for idx in self.forward[node_id]:
            grouped.setdefault(self.edges[idx].object, []).append(idx)
        return {target: tuple(idxs) for target, idxs in grouped.items()}

    def edges_into(self, goal):
        grouped = {}
        for idx in self.reverse[goal]:
            grouped.setdefault(self.edges[idx].subject, []).append(idx)
        return {subject: tuple(idxs) for subject, idxs in grouped.items()}


def recount_view_members(graph, table, theta, overrides):
    """Causal-view members by the rule: an override alone decides its edge;
    any other edge needs label weight >= theta and strength >= theta."""
    members = set()
    for idx, edge in enumerate(edges_of(graph)):
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


def enumerate_simple_paths_unpruned(
    source, start: str, goal: str, max_hops: int
) -> Iterator[tuple[tuple[str, ...], tuple[int, ...]]]:
    """Depth-first enumeration of loop-free directed paths start -> goal.

    Neighbors expand in ascending edge-index order, which makes the yield
    order (and everything built on it) deterministic.

    This is ``retrieval._enumerate_simple_paths`` as it was before the
    goal-directed pruning: it scans every out-edge of every node it enters.
    """
    if start == goal:
        return
    node_stack = [start]
    edge_stack: list[int] = []
    on_path = {start}

    def walk(node: str) -> Iterator[tuple[tuple[str, ...], tuple[int, ...]]]:
        for idx in source.out_edges(node):
            target = source.base.edge(idx).object
            if target in on_path:
                continue
            node_stack.append(target)
            edge_stack.append(idx)
            if target == goal:
                yield tuple(node_stack), tuple(edge_stack)
            elif len(edge_stack) < max_hops:
                on_path.add(target)
                yield from walk(target)
                on_path.discard(target)
            node_stack.pop()
            edge_stack.pop()

    yield from walk(start)


def reference_find_paths(causal_view, base, from_set, to_set, max_hops):
    """``find_paths`` on the unpruned DFS, as an ordered list of
    (nodes, edges, strengths, tier, reversed) tuples. It drops a path
    already listed, where ``find_paths`` never searches for one twice."""

    def run_tier(source, tier):
        results, seen, reversed_pairs = [], set(), []

        def emit(nodes, edges, is_reversed):
            if (nodes, edges) not in seen:
                seen.add((nodes, edges))
                strengths = tuple(source.effective_strength(i) for i in edges)
                results.append((nodes, edges, strengths, tier, is_reversed))

        for a in sorted(set(from_set)):
            for b in sorted(set(to_set)):
                if a == b:
                    continue
                forward = list(enumerate_simple_paths_unpruned(source, a, b, max_hops))
                for nodes, edges in forward:
                    emit(nodes, edges, False)
                if not forward:
                    reversed_pairs.append((a, b))
        for a, b in reversed_pairs:
            for nodes, edges in enumerate_simple_paths_unpruned(source, b, a, max_hops):
                emit(nodes, edges, True)
        return results

    if not from_set or not to_set:
        return []
    if causal_view is not None:
        causal = run_tier(causal_view, "causal")
        if causal:
            return causal
    return run_tier(base, "fallback")


def prune_with_bfs_distances(candidates, config, container):
    """Reference for prune_and_select: each path's detour is measured against
    a fresh BFS distance between its endpoints in ``container`` (the view
    for causal-tier candidates, the base graph otherwise), then the kept
    paths are ordered by score, length, node string, direction and edges."""
    kept = []
    for path in candidates:
        start, goal = path.nodes[0], path.nodes[-1]
        shortest = shortest_path_length(container, start, goal, config.max_hops)
        if shortest is not None and len(path.edges) <= shortest + config.distance_slack:
            kept.append(path)
    kept.sort(key=lambda p: (-p.score, len(p.edges), "->".join(p.nodes), p.reversed, p.edges))
    return kept[: config.k]


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


def reference_ingest_triples(lines, strength_for_predicate):
    """``ingest_triples`` as it was before interning: string-keyed triples,
    per-node field sets, and one ``KgEdge`` per edge into the constructor."""
    node_names: dict[str, str] = {}
    node_fields: dict[str, set[str]] = {}
    node_aliases: dict[str, set[str]] = {}
    edge_strengths: dict[tuple[str, str, str], float] = {}

    def note_node(cui: str, name: str, semtypes: str) -> None:
        known = node_names.get(cui)
        if known is None:
            node_names[cui] = name or cui
            node_fields[cui] = {semtypes}
            return
        if name and name != known:
            node_aliases.setdefault(cui, set()).add(name)
        node_fields[cui].add(semtypes)

    header_seen = False
    rows_total = 0
    malformed = 0
    duplicates = 0

    for line_no, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n").rstrip("\r")
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if not header_seen:
            header = tuple(col.strip().lower() for col in line.split("\t"))
            if header[: len(TRIPLE_HEADER)] != TRIPLE_HEADER or (
                len(header) > len(TRIPLE_HEADER)
                and header[len(TRIPLE_HEADER) :] != (STRENGTH_COLUMN,)
            ):
                raise IngestionError(
                    f"line {line_no}: missing or invalid header row (expected "
                    f"{', '.join(TRIPLE_HEADER)}[, {STRENGTH_COLUMN}])"
                )
            header_seen = True
            continue

        rows_total += 1
        fields = list(map(str.strip, line.split("\t")))
        if len(fields) not in (7, 8):
            malformed += 1
            continue
        subj_cui, subj_name, subj_types, predicate, obj_cui, obj_name, obj_types = fields[:7]
        if not subj_cui or not predicate or not obj_cui:
            malformed += 1
            continue

        if len(fields) == 8 and fields[7]:
            try:
                strength = float(fields[7])
            except ValueError:
                malformed += 1
                continue
            if not 0.0 <= strength <= 1.0:
                malformed += 1
                continue
        else:
            strength = strength_for_predicate(predicate)

        note_node(subj_cui, subj_name, subj_types)
        note_node(obj_cui, obj_name, obj_types)

        triple = (subj_cui, predicate, obj_cui)
        if triple in edge_strengths:
            duplicates += 1
            edge_strengths[triple] = max(edge_strengths[triple], strength)
        else:
            edge_strengths[triple] = strength

    if not header_seen:
        raise IngestionError("empty triple stream")
    if rows_total == 0:
        raise IngestionError("triple stream contained a header but no data rows")
    if not edge_strengths:
        raise IngestionError(f"all {rows_total} data rows were malformed")
    if malformed:
        _logger.warning("skipped %d malformed triple rows", malformed)
    if duplicates:
        _logger.warning(
            "collapsed %d duplicate triple rows, keeping each triple's max strength", duplicates
        )

    def parse(field):
        return {t.strip() for t in field.split(",") if t.strip()}

    nodes = [
        ConceptNode(
            id=cui,
            name=name,
            semantic_types=frozenset().union(*map(parse, node_fields[cui])),
            aliases=frozenset(node_aliases.get(cui, ())),
        )
        for cui, name in node_names.items()
    ]
    edges = [KgEdge(s, p, o, strength) for (s, p, o), strength in edge_strengths.items()]
    return graph_from_edges(nodes, edges, IngestStats(rows_total, malformed, duplicates))
