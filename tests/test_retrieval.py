from __future__ import annotations

import gc
import random
import weakref
from dataclasses import replace

import pytest

from causalrag.causal import (
    CausalityTable,
    apply_strength_updates,
    build_causal_view,
    default_causality_table,
)
from causalrag.cot import ChainOfThought
from causalrag.errors import NotFoundError, ValidationError
from causalrag.graph import ConceptNode, KgEdge
from causalrag.linker import build_index
from causalrag.retrieval import (
    REASON_NO_ENTITIES,
    REASON_NO_PATHS,
    GraphPath,
    RetrievalConfig,
    find_paths,
    path_score,
    prune_and_select,
    retrieve_for_cot,
)

from .conftest import RecordingLinker, make_graph
from .oracles import (
    brute_force_find_paths,
    edges_of,
    enumerate_simple_paths_unpruned,
    graph_from_edges,
    prune_with_bfs_distances,
    reference_find_paths,
)


def _path(nodes, strengths, tier="causal", edges=None, reversed_=False):
    return GraphPath(
        nodes=tuple(nodes),
        edges=tuple(edges if edges is not None else range(len(nodes) - 1)),
        strengths=tuple(strengths),
        tier=tier,
        reversed=reversed_,
    )


# -- path type and scoring -------------------------------------------------------


def test_path_score_is_mean_strength():
    assert path_score(_path(["A", "B", "C"], [0.9, 0.7])) == pytest.approx(0.8)
    assert path_score(_path(["A", "B"], [0.6])) == 0.6


def test_empty_path_rejected():
    with pytest.raises(ValidationError):
        GraphPath(nodes=("A",), edges=(), strengths=(), tier="causal")


def test_loopy_path_rejected():
    with pytest.raises(ValidationError, match="repeated"):
        _path(["A", "B", "A"], [0.9, 0.9])


# -- find_paths ------------------------------------------------------------------


def test_causal_path_found_over_weak_shortcut(chain_graph, chain_view):
    paths = find_paths(chain_view, chain_graph, {"A"}, {"C"}, RetrievalConfig())
    assert len(paths) == 1
    assert paths[0].nodes == ("A", "B", "C")
    assert paths[0].tier == "causal"
    assert paths[0].score == pytest.approx(0.85)


def test_fallback_used_when_causal_tier_empty():
    graph = make_graph(
        [
            ("A", "ASSOCIATED_WITH", "D", 0.2),
            ("A", "CAUSES", "B", 0.9),
        ]
    )
    view = build_causal_view(graph, default_causality_table(), 0.5)
    paths = find_paths(view, graph, {"A"}, {"D"}, RetrievalConfig())
    assert paths
    assert all(p.tier == "fallback" for p in paths)


def test_empty_entity_sets_give_empty_result(chain_graph, chain_view):
    assert find_paths(chain_view, chain_graph, set(), {"A"}, RetrievalConfig()) == []
    assert find_paths(chain_view, chain_graph, {"A"}, set(), RetrievalConfig()) == []


def test_unknown_node_raises(chain_graph, chain_view):
    with pytest.raises(NotFoundError):
        find_paths(chain_view, chain_graph, {"A"}, {"nope"}, RetrievalConfig())


def test_reverse_direction_flagged(chain_graph, chain_view):
    paths = find_paths(chain_view, chain_graph, {"B"}, {"A"}, RetrievalConfig())
    assert paths
    assert all(p.reversed for p in paths)
    assert paths[0].nodes == ("A", "B")


def test_forward_paths_win_dedup_over_reversed(chain_graph, chain_view):
    # A appears on both sides: pair (B, A) has no forward path, and its flip
    # (A, B) is a forward pair, so it is not searched flipped; the edge is
    # listed once, forward.
    paths = find_paths(chain_view, chain_graph, {"A", "B"}, {"A", "B"}, RetrievalConfig())
    edge_ab = [p for p in paths if p.nodes == ("A", "B")]
    assert len(edge_ab) == 1
    assert edge_ab[0].reversed is False


def test_causal_first_guarantee_and_score_floor():
    graph = make_graph(
        [
            ("A", "CAUSES", "B", 0.9),
            ("B", "CAUSES", "C", 0.8),
            ("A", "ASSOCIATED_WITH", "Z", 0.2),
            ("Z", "ASSOCIATED_WITH", "C", 0.2),
        ]
    )
    theta = 0.5
    view = build_causal_view(graph, default_causality_table(), theta)
    config = RetrievalConfig()

    connected = find_paths(view, graph, {"A"}, {"C"}, config)
    assert connected and all(p.tier == "causal" for p in connected)
    assert all(p.score >= theta for p in connected)

    # D unreachable causally: only sub-threshold edges lead there
    graph2 = make_graph(
        [
            ("A", "CAUSES", "B", 0.9),
            ("A", "ASSOCIATED_WITH", "D", 0.2),
        ]
    )
    view2 = build_causal_view(graph2, default_causality_table(), theta)
    fallback = find_paths(view2, graph2, {"A"}, {"D"}, config)
    assert fallback and all(p.tier == "fallback" for p in fallback)


@pytest.mark.parametrize("max_hops", [1, 2, 3])
def test_finished_search_leaves_no_cycle_holding_the_view(chain_graph, max_hops):
    # With the cycle collector off, only reference counting can free the view:
    # a search that left a reference cycle through its frames would pin it.
    view = build_causal_view(chain_graph, default_causality_table(), 0.5)
    config = RetrievalConfig(max_hops=max_hops)
    gc.collect()
    gc.disable()
    try:
        for from_set, to_set in (({"A"}, {"C"}), ({"C"}, {"A"}), ({"A", "B"}, {"A", "B", "C"})):
            assert find_paths(view, chain_graph, from_set, to_set, config)
        freed = weakref.ref(view)
        del view
        assert freed() is None
    finally:
        gc.enable()


def test_find_paths_uses_view_override_strengths(chain_graph, chain_view):
    updated = apply_strength_updates(chain_view, {("A", "CAUSES", "B"): 0.95})
    paths = find_paths(updated, chain_graph, {"A"}, {"B"}, RetrievalConfig())
    assert paths[0].strengths == (0.95,)


def test_find_paths_deterministic(chain_graph, chain_view):
    config = RetrievalConfig()
    first = find_paths(chain_view, chain_graph, {"A"}, {"B", "C"}, config)
    second = find_paths(chain_view, chain_graph, {"A"}, {"B", "C"}, config)
    assert first == second


def test_parallel_predicates_yield_distinct_paths():
    graph = make_graph(
        [("A", "CAUSES", "B", 0.9), ("A", "PREDISPOSES", "B", 0.8)]
    )
    view = build_causal_view(graph, default_causality_table(), 0.5)
    paths = find_paths(view, graph, {"A"}, {"B"}, RetrievalConfig())
    assert len(paths) == 2
    assert {p.edges for p in paths} == {(0,), (1,)}


# -- pruning and selection ----------------------------------------------------------


def test_top_k_by_score():
    paths = [
        _path(["A", "B"], [0.9], edges=[0]),
        _path(["B", "C"], [0.8], edges=[1]),
        _path(["A", "C"], [0.7], edges=[2]),
    ]
    config = RetrievalConfig(k=2)
    kept = prune_and_select(paths, config)
    assert [p.score for p in kept] == [0.9, 0.8]


def test_detour_beyond_slack_pruned():
    graph = make_graph(
        [
            ("A", "CAUSES", "B", 0.9),
            ("A", "CAUSES", "X", 0.9),
            ("X", "CAUSES", "Y", 0.9),
            ("Y", "CAUSES", "B", 0.9),
        ]
    )
    short = _path(["A", "B"], [0.9], edges=[0])
    long = _path(["A", "X", "Y", "B"], [0.9, 0.9, 0.9], edges=[1, 2, 3])
    kept = prune_and_select([short, long], RetrievalConfig(distance_slack=1))
    assert kept == [short]
    kept_slack2 = prune_and_select([short, long], RetrievalConfig(distance_slack=2))
    assert long in kept_slack2


def test_selection_tie_breaks_are_deterministic():
    same_score = [
        _path(["B", "C"], [0.8], edges=[1]),
        _path(["A", "B"], [0.8], edges=[0]),
    ]
    kept = prune_and_select(same_score, RetrievalConfig(k=2))
    assert [p.nodes for p in kept] == [("A", "B"), ("B", "C")]  # canonical string order


def test_selected_paths_bounded_by_max_hops(chain_graph, chain_view):
    config = RetrievalConfig(max_hops=1)
    paths = find_paths(chain_view, chain_graph, {"A"}, {"C"}, config)
    selected = prune_and_select(paths, config) if paths else []
    assert all(p.length <= config.max_hops for p in selected)


# -- retrieve_for_cot -----------------------------------------------------------------


def _toy_linker_graph():
    nodes = [
        ConceptNode(id="C1", name="Hypertension"),
        ConceptNode(id="C2", name="Stroke"),
        ConceptNode(id="C3", name="Kidney Disease"),
    ]
    edges = [
        KgEdge(subject="C1", predicate="CAUSES", object="C2", strength=0.9),
        KgEdge(subject="C2", predicate="CAUSES", object="C3", strength=0.8),
    ]
    return graph_from_edges(nodes, edges)


def test_retrieve_for_cot_causal_throughout():
    graph = _toy_linker_graph()
    view = build_causal_view(graph, default_causality_table(), 0.5)
    index = build_index(graph)
    cot = ChainOfThought(
        raw="",
        segments=(
            "chronic hypertension strains vessels",
            "stroke risk increases sharply",
            "kidney disease can follow",
        ),
    )
    results = retrieve_for_cot(cot, index, view, graph, RetrievalConfig())
    assert sorted(results) == [0, 1]
    for entry in results.values():
        assert entry.tier == "causal"
        assert entry.paths
        assert entry.reason is None


def test_retrieve_for_cot_records_missing_entities():
    graph = _toy_linker_graph()
    view = build_causal_view(graph, default_causality_table(), 0.5)
    index = build_index(graph)
    cot = ChainOfThought(
        raw="", segments=("hypertension noted", "nothing linkable here", "stroke occurs")
    )
    results = retrieve_for_cot(cot, index, view, graph, RetrievalConfig())
    assert results[0].reason == REASON_NO_ENTITIES
    assert results[0].paths == ()
    assert results[1].reason == REASON_NO_ENTITIES


def test_retrieve_for_cot_links_each_segment_once():
    graph = _toy_linker_graph()
    view = build_causal_view(graph, default_causality_table(), 0.5)
    linker = RecordingLinker(build_index(graph))
    segments = (
        "chronic hypertension strains vessels",
        "stroke risk increases sharply",
        "kidney disease can follow",
        "hypertension worsens",
    )
    cot = ChainOfThought(raw="", segments=segments)
    results = retrieve_for_cot(cot, linker, view, graph, RetrievalConfig())
    assert sorted(results) == [0, 1, 2]
    assert sorted(linker.texts) == sorted(segments)


def test_retrieve_for_cot_single_segment_empty():
    graph = _toy_linker_graph()
    view = build_causal_view(graph, default_causality_table(), 0.5)
    index = build_index(graph)
    cot = ChainOfThought(raw="", segments=("hypertension",))
    assert retrieve_for_cot(cot, index, view, graph, RetrievalConfig()) == {}


def test_retrieve_for_cot_no_paths_reason():
    # two islands: Alpha and Omega are never connected
    island = graph_from_edges(
        [
            ConceptNode(id="C1", name="Alpha"),
            ConceptNode(id="C2", name="Omega"),
            ConceptNode(id="C3", name="Bridgeless"),
        ],
        [KgEdge(subject="C1", predicate="CAUSES", object="C3", strength=0.9)],
    )
    view = build_causal_view(island, default_causality_table(), 0.5)
    index = build_index(island)
    cot = ChainOfThought(raw="", segments=("alpha present", "omega suspected"))
    results = retrieve_for_cot(cot, index, view, island, RetrievalConfig())
    assert results[0].reason == REASON_NO_PATHS
    assert results[0].paths == ()


# -- oracle equivalence (small-scale here; the full 200-graph run lives in acceptance)


def _random_graph(rng: random.Random):
    node_count = rng.randint(2, 12)
    names = [f"N{i}" for i in range(node_count)]
    table_weights = {}
    edge_specs = []
    seen = set()
    for edge_idx in range(rng.randint(1, 30)):
        subject, object_ = rng.choice(names), rng.choice(names)
        predicate = f"R{edge_idx}"
        if (subject, predicate, object_) in seen:
            continue
        seen.add((subject, predicate, object_))
        strength = round(rng.random(), 3)
        table_weights[predicate] = strength
        edge_specs.append((subject, predicate, object_, strength))
    graph = make_graph(edge_specs)
    table = CausalityTable(weights=table_weights, default_weight=0.0)
    return graph, table


def _paths_as_dict(paths):
    return {
        (p.nodes, p.edges): (p.tier, p.reversed, p.score)
        for p in paths
    }


def test_find_paths_matches_bruteforce_oracle_sample():
    rng = random.Random(424242)
    for _ in range(25):
        graph, table = _random_graph(rng)
        theta = rng.choice([0.0, 0.3, 0.5, 0.8])
        view = build_causal_view(graph, table, theta)
        max_hops = rng.randint(1, 4)
        config = RetrievalConfig(max_hops=max_hops)
        node_ids = list(graph.node_ids())
        from_set = set(rng.sample(node_ids, k=min(len(node_ids), rng.randint(1, 2))))
        to_set = set(rng.sample(node_ids, k=min(len(node_ids), rng.randint(1, 2))))

        actual = _paths_as_dict(find_paths(view, graph, from_set, to_set, config))
        expected = brute_force_find_paths(graph, view, from_set, to_set, max_hops)
        assert actual.keys() == expected.keys()
        for key, (tier, is_reversed, score) in expected.items():
            got_tier, got_reversed, got_score = actual[key]
            assert got_tier == tier
            assert got_reversed == is_reversed
            assert got_score == pytest.approx(score, abs=1e-12)


def test_prune_matches_bfs_detour_reference_on_random_searches():
    rng = random.Random(20250411)
    tiers = {"causal": 0, "fallback": 0, "no-view": 0}
    pruned = 0
    for _ in range(220):
        graph, table = _random_graph(rng)
        view = build_causal_view(graph, table, rng.choice([0.0, 0.3, 0.5, 0.8]))
        config = RetrievalConfig(
            max_hops=rng.randint(1, 4), k=rng.randint(1, 6), distance_slack=rng.randint(0, 2)
        )
        node_ids = list(graph.node_ids())
        from_set = set(rng.sample(node_ids, k=min(len(node_ids), rng.randint(1, 3))))
        to_set = set(rng.sample(node_ids, k=min(len(node_ids), rng.randint(1, 3))))
        for causal_view in (view, None):
            candidates = find_paths(causal_view, graph, from_set, to_set, config)
            if not candidates:
                continue
            tier = candidates[0].tier
            tiers["no-view" if causal_view is None else tier] += 1
            container = view if tier == "causal" else graph
            expected = prune_with_bfs_distances(candidates, config, container)
            assert prune_and_select(candidates, config) == expected
            unlimited = replace(config, k=len(candidates))
            pruned += len(candidates) - len(prune_and_select(candidates, unlimited))
    assert all(tiers.values()), tiers
    assert pruned


# -- goal-directed search against the unpruned DFS ------------------------------------


def _as_rows(paths):
    return [(p.nodes, p.edges, p.strengths, p.tier, p.reversed) for p in paths]


def _flip_repeats_a_listing(source, from_set, to_set, max_hops):
    """Whether a pair with no forward path has a flip that is itself a
    forward pair with paths: the flipped search would list those again."""
    return any(
        b in from_set
        and a in to_set
        and not any(enumerate_simple_paths_unpruned(source, a, b, max_hops))
        and any(enumerate_simple_paths_unpruned(source, b, a, max_hops))
        for a in from_set
        for b in to_set
        if a != b
    )


def test_find_paths_equals_the_unpruned_reference_in_order():
    rng = random.Random(20251018)
    seen = {
        "causal": 0, "fallback": 0, "no-view": 0, "reversed": 0, "self-loop": 0, "parallel": 0,
        "flip-is-forward": 0,
    }
    paths_by_hops = dict.fromkeys(range(1, 6), 0)
    for graph_no in range(1000):
        graph, table = _random_graph(rng)
        seen["self-loop"] += any(e.subject == e.object for e in edges_of(graph))
        seen["parallel"] += len({(e.subject, e.object) for e in edges_of(graph)}) < graph.edge_count
        view = build_causal_view(graph, table, rng.choice([0.0, 0.3, 0.5, 0.8]))
        max_hops = 1 + graph_no % 5
        config = RetrievalConfig(max_hops=max_hops)
        node_ids = list(graph.node_ids())
        from_set = set(rng.sample(node_ids, k=min(len(node_ids), rng.randint(1, 3))))
        to_set = set(rng.sample(node_ids, k=min(len(node_ids), rng.randint(1, 3))))
        rng.randint(0, 3)  # the old segment-index draw, kept so the seeded graphs stay the same
        for causal_view in (view, None):
            actual = _as_rows(find_paths(causal_view, graph, from_set, to_set, config))
            expected = reference_find_paths(causal_view, graph, from_set, to_set, max_hops)
            assert actual == expected
            if actual:
                tier = actual[0][3]
                seen["no-view" if causal_view is None else tier] += 1
                seen["reversed"] += any(row[4] for row in actual)
                source = view if tier == "causal" else graph
                seen["flip-is-forward"] += _flip_repeats_a_listing(source, from_set, to_set, max_hops)
                paths_by_hops[max_hops] += len(actual)
    assert all(seen.values()), seen
    assert all(paths_by_hops.values()), paths_by_hops


class _OutEdgeRecorder:
    """A container that records every node whose out-edges are read, through
    ``successors`` (the search) or ``out_edges`` (the unpruned reference), and
    every node that takes its last hop from a goal's ``edges_into``."""

    def __init__(self, graph):
        self.graph = graph
        self.out_calls: list[str] = []
        self.entered: list[str] = []

    def __getattr__(self, name):
        return getattr(self.graph, name)

    def out_edges(self, node_id):
        self.out_calls.append(node_id)
        return self.graph.out_edges(node_id)

    def successors(self, node_id):
        self.out_calls.append(node_id)
        return self.graph.successors(node_id)

    def edges_into(self, goal):
        return _RecordingLookups(self.graph.edges_into(goal), self.entered)


class _RecordingLookups(dict):
    """``edges_into`` that records which nodes take their last hop from it."""

    def __init__(self, mapping, log):
        super().__init__(mapping)
        self.log = log

    def get(self, key, default=None):
        self.log.append(key)
        return super().get(key, default)

    def __getitem__(self, key):
        self.log.append(key)
        return super().__getitem__(key)


def _fan(max_hops: int):
    """A tree of fan-out 3 from S, ``max_hops - 1`` levels deep, so each
    node's DFS depth is its level. Every third node of the deepest level has
    two parallel edges into G; every deepest node also has two dead-end
    edges; the first node of each shallower level has an edge into G."""
    specs, depth, level = [], {"S": 0}, ["S"]
    for d in range(1, max_hops):
        nxt = []
        for parent in level:
            for k in range(3):
                child = f"{parent}.{k}"
                specs.append((parent, "CAUSES", child, 0.9))
                depth[child] = d
                nxt.append(child)
        specs.append((level[0], "CAUSES", "G", 0.9))
        level = nxt
    into_goal = set()
    for k, node in enumerate(level):
        if k % 3 == 0:
            specs += [(node, "CAUSES", "G", 0.9), (node, "TREATS", "G", 0.7)]
            into_goal.add(node)
        specs += [(node, "CAUSES", f"{node}.x{j}", 0.9) for j in range(2)]
    return make_graph(specs), depth, into_goal


@pytest.mark.parametrize("max_hops", [1, 2, 3, 4])
def test_goal_directed_search_reads_no_out_edges_one_hop_short(max_hops):
    graph, depth, into_goal = _fan(max_hops)
    recorder = _OutEdgeRecorder(graph)
    config = RetrievalConfig(max_hops=max_hops)

    paths = find_paths(None, recorder, {"S"}, {"G"}, config)

    assert _as_rows(paths) == reference_find_paths(None, graph, {"S"}, {"G"}, max_hops)
    assert len(paths) == 2 * len(into_goal) + max_hops - 1
    assert all(depth[node] <= max_hops - 2 for node in recorder.out_calls)
    assert sorted(recorder.out_calls) == sorted(n for n, d in depth.items() if d <= max_hops - 2)
    # The level before the last enters only the nodes with an edge into G.
    assert sorted(recorder.entered) == sorted(into_goal)

    unpruned = _OutEdgeRecorder(graph)
    list(enumerate_simple_paths_unpruned(unpruned, "S", "G", max_hops))
    assert sorted(unpruned.out_calls) == sorted(depth)
