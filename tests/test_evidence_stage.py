"""The evidence stage against its formulas, applied one path at a time.

``score_paths``, ``render_path``/``render_paths_block``, ``fuse_paths`` and
``extract_answer_label`` each do their per-item work once (the query's
sets, each node's types, the answer patterns of a label set). These seeded
tests check them against slow references that redo that work for every path or
call, comparing every float with ``==``, and count the work they do.
"""

from __future__ import annotations

import random
import re
from collections import Counter

import pytest

from causalrag import llm
from causalrag.enhancer import (
    EnhancerConfig,
    FusedPath,
    cui_overlap,
    fuse_paths,
    length_score,
    render_path,
    render_paths_block,
    score_paths,
    semantic_overlap,
    total_score,
)
from causalrag.errors import ValidationError
from causalrag.graph import KgEdge, KnowledgeGraph
from causalrag.harness import Mode, load_dataset, render_report, run_evaluation
from causalrag.llm import extract_answer_label
from causalrag.retrieval import TIER_CAUSAL, TIER_FALLBACK, GraphPath, _selection_key
from causalrag.templates import NO_EVIDENCE_MARKER

from .conftest import FIXTURES
from .oracles import ConceptNode, graph_from_edges
from .test_harness import build_fixture_pipeline

TYPES = ("dsyn", "phsu", "sosy", "gngm", "orch")
PREDICATES = ("CAUSES", "TREATS", "PREDISPOSES", "ASSOCIATED_WITH", "AFFECTS")
NAMES = ("Hypertension", "Schlaganfall", "Diabète", "腦中風", "Ωmega-3", "naïve T cell", "Müller cell", "x")


def _random_graph(rng: random.Random, n: int = 14) -> KnowledgeGraph:
    """Nodes with zero to three types (an empty set on some) and non-ASCII
    names; node pairs joined by up to three parallel edges."""
    nodes = [
        ConceptNode(
            id=f"C{i:03d}",
            name=f"{rng.choice(NAMES)} {i}",
            semantic_types=frozenset(rng.sample(TYPES, rng.choice((0, 0, 1, 2, 3)))),
        )
        for i in range(n)
    ]
    edges = []
    for _ in range(3 * n):
        s, o = rng.sample(range(n), 2)
        for predicate in rng.sample(PREDICATES, rng.choice((1, 1, 2, 3))):
            edges.append(KgEdge(nodes[s].id, predicate, nodes[o].id, round(rng.random(), 3)))
    unique = {(e.subject, e.predicate, e.object): e for e in edges}
    return graph_from_edges(nodes, unique.values())


def _random_path(rng: random.Random, graph: KnowledgeGraph) -> GraphPath | None:
    """A walk of one to three hops along the graph's edges, picking one of the
    parallel edges of each hop, with strengths from the graph or overridden."""
    node = rng.choice(graph.node_ids())
    nodes, edges = [node], []
    for _ in range(rng.randint(1, 3)):
        steps = [(target, group) for target, group in graph.successors(node).items() if target not in nodes]
        if not steps:
            break
        node, group = rng.choice(steps)
        nodes.append(node)
        edges.append(rng.choice(group))
    if not edges:
        return None
    if rng.random() < 0.5:
        strengths = tuple(graph.effective_strength(idx) for idx in edges)
    else:
        strengths = tuple(round(rng.random(), 4) for _ in edges)
    return GraphPath(
        tuple(nodes), tuple(edges), strengths, rng.choice((TIER_CAUSAL, TIER_FALLBACK)), rng.random() < 0.2
    )


def _random_pools(rng: random.Random, graph: KnowledgeGraph) -> list[list[GraphPath]]:
    """Segment pools whose paths share nodes, with repeats across pools and
    same-node walks over other parallel edges, so groups of several form."""
    made = [path for path in (_random_path(rng, graph) for _ in range(rng.randint(0, 12))) if path]
    pools = [[] for _ in range(rng.randint(1, 4))]
    for path in made:
        for _ in range(rng.choice((1, 1, 2, 3))):
            rng.choice(pools).append(path)
    return pools


def _query(rng: random.Random, graph: KnowledgeGraph, pools) -> set[str]:
    """Some path nodes and some nodes on no path; at times only untyped nodes."""
    on_paths = sorted({node for pool in pools for path in pool for node in path.nodes})
    ids = list(graph.node_ids())
    query = set(rng.sample(on_paths, min(len(on_paths), rng.randint(0, 3))))
    query |= set(rng.sample(ids, rng.randint(0 if query else 1, 3)))
    if rng.random() < 0.15:
        untyped = [node_id for node_id in ids if not graph.semantic_types(node_id)]
        query = set(rng.sample(untyped, min(len(untyped), rng.randint(1, 3)))) or query
    return query


def _reference_scores(fused, query, graph, config):
    """The public formulas, applied path by path."""
    semtypes = set().union(*(graph.semantic_types(node_id) for node_id in query))
    rows = []
    for item in fused:
        cui = cui_overlap(query, item.path)
        semantic = semantic_overlap(semtypes, item.path, graph) if semtypes else 0.0
        length = length_score(item.path)
        rows.append((item.path, cui, semantic, length, total_score(cui, semantic, length, config), item.merge_count))
    return rows


# -- score_paths -------------------------------------------------------------------


def test_score_paths_matches_the_formulas_path_by_path():
    rng = random.Random(3011)
    configs = [EnhancerConfig(), EnhancerConfig(alpha=0.2, beta=0.5, gamma=0.3), EnhancerConfig(1.0, 0.0, 0.0)]
    cases = Counter()
    for _ in range(200):
        graph = _random_graph(rng)
        pools = _random_pools(rng, graph)
        fused = fuse_paths(pools)
        query = _query(rng, graph, pools)
        config = rng.choice(configs)
        got = [
            (s.path, s.cui_overlap, s.semantic_overlap, s.length_score, s.total_score, s.merge_count)
            for s in score_paths(fused, query, graph, config)
        ]
        assert got == _reference_scores(fused, query, graph, config)
        path_nodes = {node for item in fused for node in item.path.nodes}
        cases["paths"] += bool(fused)
        cases["shared nodes"] += len(path_nodes) < sum(len(item.path.nodes) for item in fused)
        cases["query off every path"] += bool(query - path_nodes)
        cases["query without types"] += not any(graph.semantic_types(cui) for cui in query)
        cases["untyped path node"] += any(not graph.semantic_types(node) for node in path_nodes)
    assert min(cases.values()) >= 10, cases


def test_score_paths_refuses_an_empty_query():
    graph = _random_graph(random.Random(5))
    pools = _random_pools(random.Random(6), graph)
    for fused in (fuse_paths(pools), []):
        with pytest.raises(ValidationError, match="query CUI set must be non-empty"):
            score_paths(fused, [], graph, EnhancerConfig())


def test_score_paths_reads_each_distinct_node_once(monkeypatch):
    rng = random.Random(77)
    graph = _random_graph(rng, n=20)
    pools = _random_pools(rng, graph)
    while sum(map(len, pools)) < 6:
        pools = _random_pools(rng, graph)
    query = {node_id for node_id in graph.node_ids() if graph.semantic_types(node_id)}
    reads: Counter[str] = Counter()
    semantic_types = KnowledgeGraph.semantic_types
    monkeypatch.setattr(
        KnowledgeGraph, "semantic_types", lambda self, node_id: reads.update([node_id]) or semantic_types(self, node_id)
    )
    score_paths(fuse_paths(pools), query, graph, EnhancerConfig())
    path_nodes = {node_id for pool in pools for path in pool for node_id in path.nodes}
    assert reads == Counter(query | path_nodes)


# -- render_path -------------------------------------------------------------------


def _reference_render(path: GraphPath, graph: KnowledgeGraph) -> str:
    parts = [graph.name(path.nodes[0])]
    for edge_idx, strength in zip(path.edges, path.strengths):
        edge = graph.edge(edge_idx)
        parts.append(f" --[{edge.predicate} ({strength:.2f})]--> ")
        parts.append(graph.name(edge.object))
    return "".join(parts)


def test_render_matches_the_edge_based_rendering():
    rng = random.Random(4242)
    parallel = 0
    for _ in range(200):
        graph = _random_graph(rng)
        paths = [path for pool in _random_pools(rng, graph) for path in pool]
        for path in paths:
            assert render_path(path, graph) == _reference_render(path, graph)
            parallel += any(len(graph.successors(a)[b]) > 1 for a, b in zip(path.nodes, path.nodes[1:]))
        expected = "\n".join(_reference_render(path, graph) for path in paths) if paths else NO_EVIDENCE_MARKER
        assert render_paths_block(paths, graph) == expected
        assert render_paths_block(iter(paths), graph) == expected
    assert parallel >= 50


# -- fuse_paths --------------------------------------------------------------------


def test_fuse_paths_takes_each_groups_best_member():
    rng = random.Random(909)
    sizes = Counter()
    for _ in range(200):
        graph = _random_graph(rng, n=8)
        pools = _random_pools(rng, graph)
        groups: dict = {}
        for path in (path for pool in pools for path in pool):
            groups.setdefault((path.nodes[0], path.nodes[-1], frozenset(path.nodes[1:-1])), []).append(path)
        fused = fuse_paths(pools)
        assert fused == [FusedPath(min(members, key=_selection_key), len(members)) for members in groups.values()]
        for item, members in zip(fused, groups.values()):
            if len(members) == 1:
                assert item.path is members[0]
            sizes["several" if len({*members}) > 1 else "one"] += 1
    assert sizes["several"] >= 20 and sizes["one"] >= 20, sizes


# -- extract_answer_label ------------------------------------------------------------


def _reference_extract(text, valid_labels):
    """The rule chain as written before its patterns were kept per label set."""
    if not valid_labels:
        raise ValidationError("valid_labels must be non-empty")
    canonical = {label.lower(): label for label in valid_labels}
    alternation = "|".join(re.escape(label) for label in valid_labels)

    answer_re = re.compile(rf"^\s*answer\s*[:\-]\s*\(?({alternation})\)?\b", re.IGNORECASE)
    for line in text.splitlines():
        match = answer_re.match(line)
        if match:
            return canonical[match.group(1).lower()]

    inline_re = re.compile(rf"\(({alternation})\)|\boption\s+({alternation})\b", re.IGNORECASE)
    match = inline_re.search(text)
    if match:
        label = match.group(1) or match.group(2)
        return canonical[label.lower()]

    lone_re = re.compile(rf"^\s*({alternation})\s*[.)]?\s*$", re.IGNORECASE)
    for line in text.splitlines():
        match = lone_re.match(line)
        if match:
            return canonical[match.group(1).lower()]

    return None


LABEL_SETS = [
    ("A", "B", "C", "D"),
    ("A", "B", "C", "D", "E"),
    ("1", "2"),
    ("A", "AB"),
    ("A+", "(b)"),
]


def _answer_text(rng: random.Random) -> str:
    """Model output built from the rules' cues, with labels drawn from every set."""
    label = rng.choice(rng.choice(LABEL_SETS))
    label = rng.choice((label, label.lower(), label.upper()))
    cues = [
        f"Answer: {label}",
        f"answer - ({label})",
        f"the best pick is ({label}).",
        f"I would choose option {label} here",
        f"{label}.",
        f"  {label} )",
        label,
        "Reasoning about the paths...",
        "none of these fit",
        "",
    ]
    return "\n".join(rng.choice(cues) for _ in range(rng.randint(0, 4)))


def test_extract_answer_label_matches_the_rule_chain_over_interleaved_label_sets():
    rng = random.Random(1234)
    found = Counter()
    for _ in range(3000):
        labels = rng.choice(LABEL_SETS)
        labels = rng.choice((labels, list(labels)))
        text = _answer_text(rng)
        expected = _reference_extract(text, labels)
        assert extract_answer_label(text, labels) == expected, (text, labels)
        found[expected is not None] += 1
    assert found[True] >= 500 and found[False] >= 500, found


@pytest.mark.parametrize("labels", [[], ()])
def test_extract_answer_label_refuses_empty_labels(labels):
    with pytest.raises(ValidationError, match="valid_labels must be non-empty"):
        extract_answer_label("Answer: A", labels)


# -- work counts over the fixture --------------------------------------------------


def test_full_mode_answers_build_no_edge(monkeypatch):
    def no_edge(self, index):
        raise AssertionError(f"KnowledgeGraph.edge({index}) called while answering")

    monkeypatch.setattr(KnowledgeGraph, "edge", no_edge)
    report = run_evaluation(build_fixture_pipeline(Mode.FULL), load_dataset(FIXTURES / "dataset.jsonl"), Mode.FULL)
    assert render_report(report) == (FIXTURES / "reports" / "full.json").read_text(encoding="utf-8")


def test_an_evaluation_builds_each_label_sets_patterns_once(monkeypatch):
    items = load_dataset(FIXTURES / "dataset.jsonl")
    pipeline = build_fixture_pipeline(Mode.FULL)
    compiled: Counter[str] = Counter()
    compile_ = re.compile
    monkeypatch.setattr(re, "compile", lambda pattern, flags=0: compiled.update([pattern]) or compile_(pattern, flags))
    llm._label_patterns.cache_clear()
    for _ in range(2):
        run_evaluation(pipeline, items, Mode.FULL)
        pipeline.gateway.transcript.reset()
    assert len({item.labels for item in items}) == 1
    assert len(compiled) == 3 and set(compiled.values()) == {1}, compiled
