from __future__ import annotations

import math
import random
from itertools import permutations

import pytest

from causalrag.cot import ChainOfThought, QAItem
from causalrag.enhancer import (
    EnhancerConfig,
    ScoredPath,
    build_enhancement_prompt,
    cui_overlap,
    fuse_paths,
    length_score,
    render_path,
    score_paths,
    select_final,
    semantic_overlap,
    total_score,
)
from causalrag.errors import ValidationError
from causalrag.graph import KgEdge
from causalrag.retrieval import GraphPath
from causalrag.templates import NO_EVIDENCE_MARKER, load_template

from .oracles import ConceptNode, graph_from_edges

ENHANCE_TEMPLATE = load_template("path_enhancement.txt")


def _path(nodes, strengths, edges, tier="causal"):
    return GraphPath(
        nodes=tuple(nodes),
        edges=tuple(edges),
        strengths=tuple(strengths),
        tier=tier,
    )


def _typed_graph():
    nodes = [
        ConceptNode(id="C1", name="Hypertension", semantic_types=frozenset({"dsyn"})),
        ConceptNode(id="C2", name="Stroke", semantic_types=frozenset({"dsyn"})),
        ConceptNode(id="C9", name="Aspirin", semantic_types=frozenset({"phsu"})),
        ConceptNode(id="C4", name="Untyped"),
    ]
    # Listed in edge (key) order: edge i is the i-th row.
    edges = [
        KgEdge(subject="C1", predicate="CAUSES", object="C2", strength=0.9),
        KgEdge(subject="C1", predicate="PREDISPOSES", object="C2", strength=0.8),
        KgEdge(subject="C1", predicate="AFFECTS", object="C4", strength=0.6),
        KgEdge(subject="C9", predicate="TREATS", object="C2", strength=0.7),
        KgEdge(subject="C4", predicate="CAUSES", object="C2", strength=0.9),
    ]
    return graph_from_edges(nodes, edges)


# -- fusion --------------------------------------------------------------------


def test_fusion_merges_same_endpoints_and_intermediates():
    causes = _path(["C1", "C2"], [0.9], [0])
    predisposes = _path(["C1", "C2"], [0.8], [1])
    fused = fuse_paths([[causes], [predisposes]])
    assert len(fused) == 1
    assert fused[0].merge_count == 2
    assert fused[0].path == causes  # higher-scored representative


def test_fusion_keeps_distinct_intermediate_sets_apart():
    direct = _path(["C1", "C2"], [0.9], [0])
    via = _path(["C1", "C4", "C2"], [0.6, 0.9], [2, 4])
    fused = fuse_paths([[direct, via]])
    assert len(fused) == 2
    assert all(f.merge_count == 1 for f in fused)


def test_fusion_empty_input():
    assert fuse_paths([]) == []
    assert fuse_paths([[], []]) == []


def test_fusion_preserves_path_sequences_and_counts():
    rng = random.Random(5)
    node_pool = [f"C{i}" for i in range(8)]
    pools = []
    total = 0
    for segment in range(4):
        pool = []
        for _ in range(rng.randint(0, 6)):
            length = rng.randint(1, 3)
            nodes = rng.sample(node_pool, length + 1)
            pool.append(
                _path(
                    nodes,
                    [round(rng.random(), 2)] * length,
                    rng.sample(range(100), length),
                )
            )
        total += len(pool)
        pools.append(pool)
    flattened = [p for pool in pools for p in pool]
    fused = fuse_paths(pools)

    keys = [(f.path.nodes[0], f.path.nodes[-1], frozenset(f.path.nodes[1:-1])) for f in fused]
    assert len(keys) == len(set(keys))  # pairwise-distinct merge keys
    assert sum(f.merge_count for f in fused) == total
    assert all(f.path in flattened for f in fused)  # sequences untouched


def test_fusion_representative_is_group_maximum():
    worse = _path(["C1", "C2"], [0.7], [1])
    better = _path(["C1", "C2"], [0.9], [0])
    fused = fuse_paths([[worse], [better]])
    assert fused[0].path == better


# -- component scores --------------------------------------------------------------


def test_cui_overlap_half():
    path = _path(["C1", "C2", "C9"], [0.9, 0.7], [0, 3])
    assert cui_overlap({"C1", "C2", "C3", "C4"}, path) == pytest.approx(0.5)


def test_cui_overlap_disjoint_and_complete():
    path = _path(["C1", "C2"], [0.9], [0])
    assert cui_overlap({"X", "Y"}, path) == 0.0
    assert cui_overlap({"C1", "C2"}, path) == 1.0


def test_cui_overlap_empty_query_rejected():
    path = _path(["C1", "C2"], [0.9], [0])
    with pytest.raises(ValidationError):
        cui_overlap(set(), path)


def test_semantic_overlap_values():
    graph = _typed_graph()
    path = _path(["C1", "C2"], [0.9], [0])
    assert semantic_overlap({"dsyn", "phsu"}, path, graph) == pytest.approx(0.5)
    assert semantic_overlap({"dsyn"}, path, graph) == 1.0
    untyped = _path(["C1", "C4"], [0.6], [2])
    assert semantic_overlap({"neop"}, untyped, graph) == 0.0


def test_semantic_overlap_empty_query_warns_and_returns_zero(caplog):
    graph = _typed_graph()
    path = _path(["C1", "C2"], [0.9], [0])
    with caplog.at_level("WARNING"):
        assert semantic_overlap(set(), path, graph) == 0.0
    assert any("empty query type set" in message for message in caplog.messages)


def test_length_score_values():
    assert length_score(_path(["C1", "C2"], [0.9], [0])) == pytest.approx(0.5)
    assert length_score(_path(["C1", "C4", "C2", "C9"], [0.6, 0.9, 0.7], [2, 4, 3])) == pytest.approx(0.25)
    # formula fixed point: a zero-length path would score 1/(1+0) = 1.0, but the
    # path type forbids constructing one
    assert 1.0 / (1.0 + 0) == 1.0


def test_total_score_linear_combination():
    config = EnhancerConfig(alpha=0.4, beta=0.3, gamma=0.3)
    assert total_score(0.5, 1.0, 0.25, config) == pytest.approx(0.575)
    assert total_score(0.0, 0.0, 0.0, config) == 0.0


def test_total_score_degenerate_weights():
    config = EnhancerConfig(alpha=1.0, beta=0.0, gamma=0.0)
    assert total_score(0.37, 0.9, 0.1, config) == pytest.approx(0.37)


def test_total_score_component_range_checked():
    config = EnhancerConfig()
    with pytest.raises(ValidationError):
        total_score(1.2, 0.0, 0.0, config)


def test_weights_must_sum_to_one():
    with pytest.raises(ValidationError):
        EnhancerConfig(alpha=0.5, beta=0.3, gamma=0.3)
    with pytest.raises(ValidationError):
        EnhancerConfig(alpha=-0.1, beta=0.6, gamma=0.5)
    with pytest.raises(ValidationError):
        EnhancerConfig(keep_ratio=0.0)
    with pytest.raises(ValidationError):
        EnhancerConfig(keep_ratio=1.5)


@pytest.mark.parametrize("name", ["alpha", "beta", "gamma"])
def test_nan_weight_is_rejected(name):
    weights = {"alpha": 0.4, "beta": 0.3, "gamma": 0.3, name: math.nan}
    with pytest.raises(ValidationError, match=name):
        EnhancerConfig(**weights)


def test_total_score_monotone_in_each_component():
    config = EnhancerConfig(alpha=0.4, beta=0.3, gamma=0.3)
    base = total_score(0.4, 0.4, 0.4, config)
    assert total_score(0.6, 0.4, 0.4, config) >= base
    assert total_score(0.4, 0.6, 0.4, config) >= base
    assert total_score(0.4, 0.4, 0.6, config) >= base


def test_total_score_symmetric_under_weight_permutation():
    components = (0.7, 0.2, 0.5)
    weights = (0.5, 0.3, 0.2)
    reference = sum(w * c for w, c in zip(weights, components))
    for order in permutations(range(3)):
        permuted_weights = tuple(weights[i] for i in order)
        permuted_components = tuple(components[i] for i in order)
        config = EnhancerConfig(
            alpha=permuted_weights[0], beta=permuted_weights[1], gamma=permuted_weights[2]
        )
        assert total_score(*permuted_components, config) == pytest.approx(reference)


# -- final selection ---------------------------------------------------------------


def _scored(path, total, merge_count=1):
    return ScoredPath(
        path=path,
        cui_overlap=0.0,
        semantic_overlap=0.0,
        length_score=0.0,
        total_score=total,
        merge_count=merge_count,
    )


def test_select_final_ceiling_rule():
    paths = [
        _scored(_path([f"C{i}", f"C{i + 20}"], [0.5], [i]), total=i / 10)
        for i in range(10)
    ]
    kept = select_final(paths, 0.3)
    assert len(kept) == 3
    assert [round(s.total_score, 1) for s in kept] == [0.9, 0.8, 0.7]


def test_select_final_floor_of_one():
    only = _scored(_path(["C1", "C2"], [0.9], [0]), total=0.2)
    assert select_final([only], 0.1) == [only]
    assert select_final([], 0.5) == []


def test_select_final_keep_ratio_validated():
    with pytest.raises(ValidationError):
        select_final([], 0.0)
    with pytest.raises(ValidationError):
        select_final([], 1.2)


def test_select_final_matches_full_sort_oracle():
    rng = random.Random(77)
    node_pool = [f"C{i}" for i in range(10)]
    for _ in range(50):
        scored = []
        for _ in range(rng.randint(1, 12)):
            length = rng.randint(1, 3)
            nodes = rng.sample(node_pool, length + 1)
            path = _path(
                nodes,
                [round(rng.random(), 2)] * length,
                rng.sample(range(100), length),
            )
            scored.append(_scored(path, total=round(rng.random(), 2)))
        keep_ratio = rng.choice([0.1, 0.3, 0.5, 1.0])
        kept = select_final(scored, keep_ratio)
        expected_size = max(1, math.ceil(keep_ratio * len(scored)))
        assert len(kept) == expected_size

        full_order = sorted(
            scored,
            key=lambda s: (
                -s.total_score,
                -s.path.score,
                s.path.length,
                s.path.node_key(),
                s.path.reversed,
                s.path.edges,
            ),
        )
        assert kept == full_order[:expected_size]


def test_scored_paths_satisfy_total_identity():
    graph = _typed_graph()
    config = EnhancerConfig(alpha=0.4, beta=0.3, gamma=0.3)
    pools = [
        [_path(["C1", "C2"], [0.9], [0]), _path(["C1", "C4", "C2"], [0.6, 0.9], [2, 4])],
        [_path(["C9", "C2"], [0.7], [3])],
    ]
    scored = score_paths(fuse_paths(pools), {"C1", "C2"}, graph, config)
    assert scored
    for item in scored:
        expected = (
            config.alpha * item.cui_overlap
            + config.beta * item.semantic_overlap
            + config.gamma * item.length_score
        )
        assert abs(item.total_score - expected) <= 1e-12


# -- prompt construction --------------------------------------------------------------


def test_enhancement_prompt_lists_paths_in_score_order():
    graph = _typed_graph()
    config = EnhancerConfig()
    cot = ChainOfThought(segments=("high blood pressure", "stroke risk"), confidence=80)
    pools = [
        [_path(["C1", "C2"], [0.9], [0])],
        [_path(["C9", "C2"], [0.7], [3])],
    ]
    scored = score_paths(fuse_paths(pools), {"C1", "C2"}, graph, config)
    final = select_final(scored, 1.0)
    item = QAItem(id="q", question="What follows hypertension?", options={"A": "Stroke", "B": "Nothing"}, gold="A")
    prompt = build_enhancement_prompt(final, cot, item, graph, ENHANCE_TEMPLATE)
    first = prompt.find("Hypertension --[CAUSES (0.90)]--> Stroke")
    second = prompt.find("Aspirin --[TREATS (0.70)]--> Stroke")
    assert 0 < first < second
    assert "high blood pressure → stroke risk → 80" in prompt
    assert "What follows hypertension?" in prompt
    assert "A. Stroke" in prompt


def test_enhancement_prompt_no_evidence_marker():
    graph = _typed_graph()
    cot = ChainOfThought(segments=("step",))
    item = QAItem(id="q", question="Question?", options={"A": "x", "B": "y"}, gold="A")
    prompt = build_enhancement_prompt([], cot, item, graph, ENHANCE_TEMPLATE)
    assert NO_EVIDENCE_MARKER in prompt


@pytest.mark.parametrize("options", [{"A": "only one"}, {"A": "x", "B": " "}, {"A": "x", "a": "y"}])
def test_enhancement_prompt_validates_its_options(options):
    # The prompt's options come only from a QAItem, which rejects bad ones when built,
    # and the old (question, options) call no longer matches the signature.
    cot = ChainOfThought(segments=("step",))
    with pytest.raises(ValidationError):
        build_enhancement_prompt(
            [], cot, QAItem(id="q", question="Question?", options=options, gold="A"), _typed_graph(), ENHANCE_TEMPLATE
        )
    with pytest.raises(TypeError):
        build_enhancement_prompt([], cot, "Question?", options, _typed_graph(), ENHANCE_TEMPLATE)


def test_path_rendering_two_decimal_strengths():
    graph = _typed_graph()
    path = _path(["C1", "C2"], [0.8], [1])  # override-style strength
    assert render_path(path, graph) == "Hypertension --[PREDISPOSES (0.80)]--> Stroke"
