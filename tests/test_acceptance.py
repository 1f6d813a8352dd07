"""Acceptance suite: one test per exit criterion, each printing a PASS line.

These are deliberately end-to-end and oracle-backed; unit-level variants of
the same behavior live in the per-module test files.
"""

from __future__ import annotations

import math
import random
import time
from collections import Counter
from itertools import product

import pytest

from causalrag.causal import (
    CausalityTable,
    apply_strength_updates,
    build_causal_view,
    default_causality_table,
)
from causalrag.config import config_from_mapping
from causalrag.cot import ChainOfThought, parse_cot, render_cot
from causalrag.enhancer import (
    EnhancerConfig,
    cui_overlap,
    fuse_paths,
    length_score,
    select_final,
    total_score,
)
from causalrag.errors import NotFoundError, ValidationError
from causalrag.harness import Mode, load_dataset, render_report, run_evaluation
from causalrag.metrics import compute_metrics
from causalrag.retrieval import GraphPath, RetrievalConfig, find_paths

from .conftest import FIXTURES, make_graph
from .oracles import brute_force_find_paths, brute_force_metrics
from .test_harness import EXPECTED_CALLS, build_fixture_pipeline


def _pass(name: str) -> None:
    print(f"ACCEPTANCE PASS: {name}")


# 1 ------------------------------------------------------------------------------


def test_causal_view_monotonicity_sweep():
    started = time.perf_counter()
    rng = random.Random(1)
    predicates = list(default_causality_table().weights) + ["RELATED_TO"]
    edge_specs = []
    seen = set()
    while len(edge_specs) < 50:
        subject = f"N{rng.randint(0, 19)}"
        object_ = f"N{rng.randint(0, 19)}"
        predicate = rng.choice(predicates)
        if (subject, predicate, object_) in seen:
            continue
        seen.add((subject, predicate, object_))
        table = default_causality_table()
        edge_specs.append((subject, predicate, object_, table.weight(predicate)))
    graph = make_graph(edge_specs)
    assert graph.edge_count == 50

    table = default_causality_table()
    thetas = [0.0, 0.3, 0.5, 0.7, 1.0]
    views = [build_causal_view(graph, table, theta) for theta in thetas]
    all_edges = frozenset(range(graph.edge_count))
    assert views[0].member_edges == all_edges  # theta 0 keeps everything
    for lower, higher in zip(views, views[1:]):
        assert higher.member_edges <= lower.member_edges
        assert lower.member_edges <= all_edges

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"monotonicity sweep took {elapsed:.2f}s"
    _pass("causal-view monotonicity across theta sweep")


# 2 ------------------------------------------------------------------------------


def _random_case(rng: random.Random):
    node_count = rng.randint(2, 12)
    names = [f"N{i}" for i in range(node_count)]
    weights = {}
    edge_specs = []
    seen = set()
    for edge_idx in range(rng.randint(1, 30)):
        subject, object_ = rng.choice(names), rng.choice(names)
        predicate = f"R{edge_idx}"
        if (subject, predicate, object_) in seen:
            continue
        seen.add((subject, predicate, object_))
        strength = round(rng.random(), 6)
        weights[predicate] = strength
        edge_specs.append((subject, predicate, object_, strength))
    graph = make_graph(edge_specs)
    table = CausalityTable(weights=weights, default_weight=0.0)
    theta = rng.choice([0.0, 0.2, 0.4, 0.6, 0.8])
    max_hops = rng.randint(1, 4)
    node_ids = list(graph.node_ids())
    from_set = set(rng.sample(node_ids, k=min(len(node_ids), rng.randint(1, 2))))
    to_set = set(rng.sample(node_ids, k=min(len(node_ids), rng.randint(1, 2))))
    return graph, table, theta, max_hops, from_set, to_set


def test_path_search_matches_bruteforce_on_200_random_graphs():
    started = time.perf_counter()
    rng = random.Random(20240817)
    for case_index in range(200):
        graph, table, theta, max_hops, from_set, to_set = _random_case(rng)
        view = build_causal_view(graph, table, theta)
        config = RetrievalConfig(max_hops=max_hops)

        actual = {
            (p.nodes, p.edges): (p.tier, p.reversed, p.score)
            for p in find_paths(view, graph, from_set, to_set, config)
        }
        expected = brute_force_find_paths(graph, view, from_set, to_set, max_hops)

        assert actual.keys() == expected.keys(), f"case {case_index}: path sets differ"
        for key, (tier, is_reversed, score) in expected.items():
            got_tier, got_reversed, got_score = actual[key]
            assert got_tier == tier, f"case {case_index}: tier mismatch for {key}"
            assert got_reversed == is_reversed, f"case {case_index}: direction mismatch"
            assert abs(got_score - score) <= 1e-12, f"case {case_index}: score mismatch"

    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"oracle equivalence took {elapsed:.1f}s"
    _pass(f"path search equals brute-force oracle on 200 random graphs ({elapsed:.1f}s)")


# 3 ------------------------------------------------------------------------------


def test_causal_first_guarantee():
    theta = 0.5
    config = RetrievalConfig()
    table = default_causality_table()

    causal_graph = make_graph(
        [
            ("A", "CAUSES", "B", 0.9),
            ("B", "CAUSES", "C", 0.8),
            ("A", "ASSOCIATED_WITH", "C", 0.2),
        ]
    )
    causal_view = build_causal_view(causal_graph, table, theta)
    connected = find_paths(causal_view, causal_graph, {"A"}, {"C"}, config)
    assert connected
    assert all(p.tier == "causal" for p in connected)
    assert all(p.score >= theta for p in connected)

    weak_graph = make_graph(
        [
            ("A", "CAUSES", "B", 0.9),
            ("A", "ASSOCIATED_WITH", "D", 0.2),
            ("D", "COEXISTS_WITH", "E", 0.15),
        ]
    )
    weak_view = build_causal_view(weak_graph, table, theta)
    fallback = find_paths(weak_view, weak_graph, {"A"}, {"D", "E"}, config)
    assert fallback
    assert all(p.tier == "fallback" for p in fallback)

    # fallback never appears when the causal tier produced anything
    mixed = find_paths(causal_view, causal_graph, {"A"}, {"B", "C"}, config)
    assert mixed and all(p.tier == "causal" for p in mixed)
    _pass("causal-first tiering with fallback only on causal miss; causal scores >= theta")


# 4 ------------------------------------------------------------------------------


def test_scoring_identities():
    path3 = GraphPath(
        nodes=("C1", "C2", "C9"),
        edges=(0, 1),
        strengths=(0.9, 0.7),
        tier="causal",
    )
    assert cui_overlap({"C1", "C2", "C3", "C4"}, path3) == 0.5

    one_hop = GraphPath(nodes=("A", "B"), edges=(0,), strengths=(0.9,), tier="causal")
    three_hop = GraphPath(
        nodes=("A", "B", "C", "D"),
        edges=(0, 1, 2),
        strengths=(0.9, 0.9, 0.9),
        tier="causal",
    )
    assert length_score(one_hop) == 0.5
    assert length_score(three_hop) == 0.25

    config = EnhancerConfig(alpha=0.4, beta=0.3, gamma=0.3)
    assert total_score(0.5, 1.0, 0.25, config) == pytest.approx(0.575, abs=1e-12)

    def scored(total, idx):
        return _scored_with_total(total, idx)

    ten = [scored(total=i / 10, idx=i) for i in range(10)]
    assert len(select_final(ten, 0.3)) == math.ceil(0.3 * 10) == 3
    assert len(select_final(ten[:1], 0.1)) == 1  # floor of one

    with pytest.raises(ValidationError):
        config_from_mapping({"enhancer": {"alpha": 0.5, "beta": 0.3, "gamma": 0.3}})
    _pass("overlap, length, total-score and keep-ratio identities hold exactly")


def _scored_with_total(total, idx):
    from causalrag.enhancer import ScoredPath

    path = GraphPath(
        nodes=(f"S{idx}", f"T{idx}"), edges=(idx,), strengths=(0.5,), tier="causal"
    )
    return ScoredPath(
        path=path,
        cui_overlap=0.0,
        semantic_overlap=0.0,
        length_score=0.0,
        total_score=total,
        merge_count=1,
    )


# 5 ------------------------------------------------------------------------------


def test_fusion_correctness_property():
    rng = random.Random(909)
    node_pool = [f"C{i}" for i in range(9)]
    for _ in range(80):
        pools = []
        total_paths = 0
        for segment in range(rng.randint(1, 5)):
            pool = []
            for _ in range(rng.randint(0, 7)):
                length = rng.randint(1, 3)
                nodes = rng.sample(node_pool, length + 1)
                pool.append(
                    GraphPath(
                        nodes=tuple(nodes),
                        edges=tuple(rng.sample(range(200), length)),
                        strengths=tuple(round(rng.random(), 3) for _ in range(length)),
                        tier=rng.choice(["causal", "fallback"]),
                    )
                )
            total_paths += len(pool)
            pools.append(pool)

        flattened = [p for pool in pools for p in pool]
        fused = fuse_paths(pools)

        keys = [
            (f.path.nodes[0], f.path.nodes[-1], frozenset(f.path.nodes[1:-1]))
            for f in fused
        ]
        assert len(keys) == len(set(keys))
        assert sum(f.merge_count for f in fused) == total_paths

        groups: dict = {}
        for path in flattened:
            key = (path.nodes[0], path.nodes[-1], frozenset(path.nodes[1:-1]))
            groups.setdefault(key, []).append(path)
        for fused_item, key in zip(fused, keys):
            best = min(
                groups[key],
                key=lambda p: (-p.score, p.length, p.node_key(), p.reversed, p.edges),
            )
            assert fused_item.path == best
            assert fused_item.merge_count == len(groups[key])
    _pass("fusion: distinct merge keys, conserved counts, max-by-order representatives")


# 6 ------------------------------------------------------------------------------


def test_cot_round_trip_both_encodings():
    rng = random.Random(7)
    words = ["fever", "plaque", "risk", "enzyme", "lesion", "flow", "signal", "uptake"]
    for _ in range(300):
        segments = tuple(
            " ".join(rng.choice(words) for _ in range(rng.randint(1, 4)))
            for _ in range(rng.randint(1, 8))
        )
        confidence = rng.randint(0, 100) if rng.random() < 0.75 else None
        original = ChainOfThought(raw="", segments=segments, confidence=confidence)
        ascii_text = " -> ".join([*segments, *([] if confidence is None else [str(confidence)])])
        for text in (render_cot(original), ascii_text):
            reparsed = parse_cot(text)
            assert reparsed.segments == segments
            assert reparsed.confidence == confidence
    _pass("chain-of-thought render/parse round trip, and a parse of the ascii encoding")


# 7 ------------------------------------------------------------------------------


def test_mock_end_to_end_all_modes():
    started = time.perf_counter()
    items = load_dataset(FIXTURES / "dataset.jsonl")

    for mode in Mode:
        pipeline = build_fixture_pipeline(mode)
        report = run_evaluation(pipeline, items, mode)
        assert report["n_items"] == 10
        assert report["n_unmapped"] == 0
        for record in report["records"]:
            counts = Counter({"cot": 0, "enhance": 0, "infer": 0})
            counts.update(call["stage"] for call in record["trace"]["llm_calls"])
            assert counts == EXPECTED_CALLS[mode], (mode, record["item_id"])

        if mode is Mode.FULL:
            assert report["metrics"]["accuracy"] == 1.0
            assert report["abstain_count"] == 0
            for record in report["records"]:
                for entry in record["trace"]["retrieval"]:
                    assert entry["tier"] == "causal"
                    assert entry["kept"] >= 1

        # consecutive runs are byte-identical
        again = run_evaluation(build_fixture_pipeline(mode), items, mode)
        assert render_report(report) == render_report(again)

    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"mock end-to-end took {elapsed:.1f}s"
    _pass(f"mock end-to-end: stage counts per mode, 10/10 full mode, byte-identical reports ({elapsed:.1f}s)")


# 8 ------------------------------------------------------------------------------


def test_metrics_match_independent_oracle():
    golds = ["A", "A", "B", "B"]
    predictions = ["A", "B", "B", "B"]
    metrics = compute_metrics(golds, predictions)
    assert metrics.macro_precision == pytest.approx(5 / 6, abs=1e-12)
    assert metrics.macro_recall == pytest.approx(0.75, abs=1e-12)
    assert metrics.macro_f1 == pytest.approx(11 / 15, abs=1e-12)

    gold_alphabet = ("A", "B", "C")
    pred_alphabet = ("A", "B", "C", None)

    def check(gold_vector, pred_vector):
        ours = compute_metrics(list(gold_vector), list(pred_vector))
        per_label, macro_p, macro_r, macro_f1, accuracy = brute_force_metrics(
            list(gold_vector), list(pred_vector)
        )
        assert ours.macro_precision == pytest.approx(macro_p, abs=1e-12)
        assert ours.macro_recall == pytest.approx(macro_r, abs=1e-12)
        assert ours.macro_f1 == pytest.approx(macro_f1, abs=1e-12)
        assert ours.accuracy == pytest.approx(accuracy, abs=1e-12)
        for label, (precision, recall, f1) in per_label.items():
            assert ours.per_label[label].precision == pytest.approx(precision, abs=1e-12)
            assert ours.per_label[label].recall == pytest.approx(recall, abs=1e-12)
            assert ours.per_label[label].f1 == pytest.approx(f1, abs=1e-12)

    # exhaustive over every (gold, prediction) combination up to length 3
    for n in range(1, 4):
        for gold_vector in product(gold_alphabet, repeat=n):
            for pred_vector in product(pred_alphabet, repeat=n):
                check(gold_vector, pred_vector)

    # the full cross-product for lengths 4..8 is ~5e8 cases; sample it densely
    rng = random.Random(314159)
    for _ in range(4000):
        n = rng.randint(4, 8)
        check(
            [rng.choice(gold_alphabet) for _ in range(n)],
            [rng.choice(pred_alphabet) for _ in range(n)],
        )
    _pass("metrics equal the confusion-matrix oracle (exhaustive <=3, dense sample 4..8)")


# 9 ------------------------------------------------------------------------------


def test_strength_update_semantics():
    graph = make_graph(
        [
            ("A", "CAUSES", "B", 0.9),
            ("B", "CAUSES", "C", 0.8),
            ("A", "ASSOCIATED_WITH", "C", 0.1),
        ]
    )
    theta = 0.5
    view = build_causal_view(graph, default_causality_table(), theta)
    weak = graph.edge_index("A", "ASSOCIATED_WITH", "C")
    strong = graph.edge_index("A", "CAUSES", "B")

    promoted = apply_strength_updates(view, {("A", "ASSOCIATED_WITH", "C"): 0.8})
    assert weak in promoted.member_edges
    assert promoted.effective_strength(weak) == 0.8

    revised = apply_strength_updates(promoted, {("A", "CAUSES", "B"): 0.95})
    assert strong in revised.member_edges
    assert revised.effective_strength(strong) == 0.95

    demoted = apply_strength_updates(revised, {("A", "CAUSES", "B"): 0.3})
    assert strong not in demoted.member_edges
    assert graph.edge(strong).strength == 0.9  # base untouched

    with pytest.raises(NotFoundError):
        apply_strength_updates(view, {("A", "CAUSES", "Z"): 0.7})

    updates = {("A", "ASSOCIATED_WITH", "C"): 0.8, ("B", "CAUSES", "C"): 0.2}
    once = apply_strength_updates(view, updates)
    twice = apply_strength_updates(once, updates)
    assert once.member_edges == twice.member_edges
    assert once.strengths == twice.strengths
    for idx in twice.member_edges:
        assert twice.effective_strength(idx) >= theta
    _pass("strength updates: add, revise, demote, unknown-triple, idempotence")
