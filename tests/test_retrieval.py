from __future__ import annotations

import gc
import random
import weakref
from collections import Counter
from dataclasses import FrozenInstanceError, replace

import pytest

from causalrag import retrieval
from causalrag.causal import (
    CausalityTable,
    apply_strength_updates,
    build_causal_view,
    default_causality_table,
)
from causalrag.config import default_config
from causalrag.cot import ChainOfThought
from causalrag.errors import NotFoundError, ValidationError
from causalrag.graph import KgEdge
from causalrag.harness import Mode, Pipeline, QAItem
from causalrag.linker import build_index
from causalrag.llm import EndpointConfig, LlmGateway, LlmResponse, ModelAssignment
from causalrag.retrieval import (
    REASON_NO_ENTITIES,
    REASON_NO_PATHS,
    GraphPath,
    RetrievalConfig,
    SegmentRetrieval,
    _enumerate_simple_paths,
    _search,
    find_paths,
    path_score,
    prune_and_select,
    retrieve_for_cot,
)

from .conftest import RecordingLinker, make_graph
from .oracles import (
    ConceptNode,
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


def test_path_is_a_frozen_slotted_value():
    path = _path(["A", "B", "C"], [0.9, 0.7], edges=[3, 5])
    with pytest.raises(FrozenInstanceError):
        path.tier = "fallback"
    assert not hasattr(path, "__dict__")
    twin = _path(["A", "B", "C"], [0.9, 0.7], edges=[3, 5])
    assert twin == path and twin is not path and hash(twin) == hash(path)
    assert replace(path, reversed=True) != path


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


@pytest.mark.parametrize("max_hops", [1, 2, 3, 4])
def test_finished_search_leaves_no_cycle_holding_the_view(max_hops):
    # With the cycle collector off, only reference counting can free the view:
    # a search that left a reference cycle through its frames would pin it.
    # The chain graph plus A -> D: C is the thinner end of (A, C), so that
    # search walks into C.
    graph = make_graph(
        [
            ("A", "CAUSES", "B", 0.9),
            ("B", "CAUSES", "C", 0.8),
            ("A", "ASSOCIATED_WITH", "C", 0.1),
            ("A", "CAUSES", "D", 0.9),
        ]
    )
    view = build_causal_view(graph, default_causality_table(), 0.5)
    assert len(view.edges_into("C")) < len(view.successors("A"))
    config = RetrievalConfig(max_hops=max_hops)
    gc.collect()
    gc.disable()
    try:
        for from_set, to_set in (({"A"}, {"C"}), ({"C"}, {"A"}), ({"A", "B"}, {"A", "B", "C"})):
            assert find_paths(view, graph, from_set, to_set, config)
        freed = weakref.ref(view)
        del view
        assert freed() is None
    finally:
        gc.enable()


def test_search_depth_is_not_bounded_by_the_recursion_limit():
    ids = [f"N{i}" for i in range(1500)]
    graph = make_graph([(a, "CAUSES", b, 0.9) for a, b in zip(ids, ids[1:])])
    found = _enumerate_simple_paths(graph, ids[0], ids[-1], 1500)
    assert [nodes for nodes, _ in found] == [tuple(ids)]


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
    cot = ChainOfThought(segments=("hypertension noted", "nothing linkable here", "stroke occurs"))
    results = retrieve_for_cot(cot, index, view, graph, RetrievalConfig())
    assert results[0].reason == REASON_NO_ENTITIES
    assert results[0].paths == ()
    assert results[1].reason == REASON_NO_ENTITIES


def test_segment_retrieval_derives_its_tier_and_reason():
    for tier in ("causal", "fallback"):
        entry = SegmentRetrieval(("A",), ("B",), 3, (_path(["A", "B"], [0.9], tier=tier),))
        assert (entry.tier, entry.reason) == (tier, None)
    entry = SegmentRetrieval(("A",), ("B",), 0, ())
    assert (entry.tier, entry.reason) == (None, REASON_NO_PATHS)
    for source, target in ((), ("B",)), (("A",), ()), ((), ()):
        entry = SegmentRetrieval(source, target, 0, ())
        assert (entry.tier, entry.reason) == (None, REASON_NO_ENTITIES)
    # Neither fact can be stored beside the paths it is read from.
    for field in ("tier", "reason"):
        with pytest.raises(TypeError):
            SegmentRetrieval(("A",), ("B",), 0, (), **{field: None})


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
    cot = ChainOfThought(segments=segments)
    results = retrieve_for_cot(cot, linker, view, graph, RetrievalConfig())
    assert sorted(results) == [0, 1, 2]
    assert sorted(linker.texts) == sorted(segments)


def test_retrieve_for_cot_single_segment_empty():
    graph = _toy_linker_graph()
    view = build_causal_view(graph, default_causality_table(), 0.5)
    index = build_index(graph)
    cot = ChainOfThought(segments=("hypertension",))
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
    cot = ChainOfThought(segments=("alpha present", "omega suspected"))
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


def _mirror(graph):
    """``graph`` with every edge reversed. Searched with its endpoints swapped,
    it has the same paths reversed, and each end's map swaps sides: a listing
    that walks out of its start in one walks into its goal in the other."""
    return make_graph([(e.object, e.predicate, e.subject, e.strength) for e in edges_of(graph)])


@pytest.fixture
def walk_ends(monkeypatch):
    """Counts each listing of ``retrieval._enumerate_simple_paths`` under
    ``(max_hops, end)``, where ``end`` is ``"goal"`` when the goal's in-edge map
    is the smaller, ``"start"`` when the start's successor map is, and ``"tie"``
    (walked from the start) when they are the same size. A one-hop listing
    walks from neither end; its count says which end is the thinner."""
    ends = Counter()
    enumerate_paths = retrieval._enumerate_simple_paths

    def counting(source, start, goal, max_hops, distance_slack=None):
        if start != goal:
            into, out = len(source.edges_into(goal)), len(source.successors(start))
            ends[max_hops, "goal" if into < out else "start" if out < into else "tie"] += 1
        return enumerate_paths(source, start, goal, max_hops, distance_slack)

    monkeypatch.setattr(retrieval, "_enumerate_simple_paths", counting)
    return ends


def test_find_paths_matches_bruteforce_oracle_sample(walk_ends):
    rng = random.Random(424242)
    for _ in range(25):
        graph, table = _random_graph(rng)
        theta = rng.choice([0.0, 0.3, 0.5, 0.8])
        max_hops = rng.randint(1, 4)
        config = RetrievalConfig(max_hops=max_hops)
        node_ids = list(graph.node_ids())
        from_set = set(rng.sample(node_ids, k=min(len(node_ids), rng.randint(1, 2))))
        to_set = set(rng.sample(node_ids, k=min(len(node_ids), rng.randint(1, 2))))

        for source, froms, tos in ((graph, from_set, to_set), (_mirror(graph), to_set, from_set)):
            view = build_causal_view(source, table, theta)
            actual = _paths_as_dict(find_paths(view, source, froms, tos, config))
            expected = brute_force_find_paths(source, view, froms, tos, max_hops)
            assert actual.keys() == expected.keys()
            for key, (tier, is_reversed, score) in expected.items():
                got_tier, got_reversed, got_score = actual[key]
                assert got_tier == tier
                assert got_reversed == is_reversed
                assert got_score == pytest.approx(score, abs=1e-12)
    assert all(walk_ends[h, end] for h in range(2, 5) for end in ("start", "goal", "tie")), walk_ends


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


def test_find_paths_equals_the_unpruned_reference_in_order(walk_ends):
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
        mirror = _mirror(graph)
        mirror_view = build_causal_view(mirror, table, view.theta)
        for base, built, froms, tos in ((graph, view, from_set, to_set), (mirror, mirror_view, to_set, from_set)):
            for causal_view in (built, None):
                actual = _as_rows(find_paths(causal_view, base, froms, tos, config))
                expected = reference_find_paths(causal_view, base, froms, tos, max_hops)
                assert actual == expected
                if actual:
                    tier = actual[0][3]
                    seen["no-view" if causal_view is None else tier] += 1
                    seen["reversed"] += any(row[4] for row in actual)
                    source = built if tier == "causal" else base
                    seen["flip-is-forward"] += _flip_repeats_a_listing(source, froms, tos, max_hops)
                    paths_by_hops[max_hops] += len(actual)
    assert all(seen.values()), seen
    assert all(paths_by_hops.values()), paths_by_hops
    assert all(walk_ends[h, end] for h in range(1, 6) for end in ("start", "goal", "tie")), walk_ends


class _ReadRecorder:
    """A container that records every node whose out-edges are read, through
    ``successors`` (the search) or ``out_edges`` (the unpruned reference), in
    ``out_calls``, and every node whose in-edges are read, through
    ``edges_into``, in ``into_calls``. The maps it hands out, each node's in
    ``maps`` (successors) and ``into_maps`` (in-edges), record how they are
    read."""

    def __init__(self, graph):
        self.graph = graph
        self.out_calls: list[str] = []
        self.into_calls: list[str] = []
        self.maps: dict[str, _RecordingMap] = {}
        self.into_maps: dict[str, _RecordingMap] = {}

    def __getattr__(self, name):
        return getattr(self.graph, name)

    def out_edges(self, node_id):
        self.out_calls.append(node_id)
        return self.graph.out_edges(node_id)

    def successors(self, node_id):
        self.out_calls.append(node_id)
        self.maps[node_id] = _RecordingMap(self.graph.successors(node_id))
        return self.maps[node_id]

    def edges_into(self, node_id):
        self.into_calls.append(node_id)
        self.into_maps[node_id] = _RecordingMap(self.graph.edges_into(node_id))
        return self.into_maps[node_id]


class _RecordingMap(dict):
    """A search map that logs each key looked up in it and counts each way
    it is iterated. A key join or an ``in`` test reads the dict itself, past
    these methods: of those, only the ``keys`` call shows."""

    def __init__(self, mapping):
        super().__init__(mapping)
        self.looked_up: list[str] = []
        self.reads: Counter[str] = Counter()

    def get(self, key, default=None):
        self.looked_up.append(key)
        return super().get(key, default)

    def __getitem__(self, key):
        self.looked_up.append(key)
        return super().__getitem__(key)

    def keys(self):
        self.reads["keys"] += 1
        return super().keys()

    def __iter__(self):
        self.reads["iter"] += 1
        return super().__iter__()

    def items(self):
        self.reads["items"] += 1
        return super().items()

    def values(self):
        self.reads["values"] += 1
        return super().values()


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


def _within(read, origin, end, hops):
    """The nodes at most ``hops`` steps from ``origin`` through ``read``'s keys, never through ``end``."""
    seen = frontier = {origin}
    for _ in range(hops):
        frontier = {node for at in frontier for node in read(at) if node != end} - seen
        seen = seen | frontier
    return sorted(seen)


@pytest.mark.parametrize("max_hops", [1, 2, 3, 4, 5])
def test_goal_directed_search_reads_no_out_edges_one_hop_short(max_hops):
    """The search walks from the end with fewer neighbours and reads only the
    nodes it walks: ``_fan`` from S to G, and its mirror from G to S, walk
    the same tree, one out of S and the other into S."""
    fan, depth, into_goal = _fan(max_hops)
    backward = []
    for graph, start, goal in ((fan, "S", "G"), (_mirror(fan), "G", "S")):
        recorder = _ReadRecorder(graph)
        paths = find_paths(None, recorder, {start}, {goal}, RetrievalConfig(max_hops=max_hops))

        assert _as_rows(paths) == reference_find_paths(None, graph, {start}, {goal}, max_hops)
        assert len(paths) == 2 * len(into_goal) + max_hops - 1
        if max_hops == 1:
            # One hop is read off the goal's in-edges alone.
            assert (recorder.out_calls, recorder.into_calls) == ([], [goal])
            assert recorder.into_maps[goal].looked_up == [start]
            continue
        backward.append(len(graph.edges_into(goal)) < len(graph.successors(start)))
        if backward[-1]:
            # The start is the thicker end: read its successors once, and the
            # in-edges of each node within max_hops - 2 hops of the goal.
            assert recorder.out_calls == [start]
            assert sorted(recorder.into_calls) == _within(graph.edges_into, goal, start, max_hops - 2)
            far = recorder.maps[start]
        else:
            assert sorted(recorder.out_calls) == _within(graph.successors, start, goal, max_hops - 2)
            assert recorder.into_calls == [goal]
            far = recorder.into_maps[goal]
        # The level before the last enters the far end's map only at the nodes
        # next to G, through the key join; no node one hop short is walked.
        assert sorted(far.looked_up) == sorted(into_goal)
    if max_hops > 1:
        # The mirror swaps the two ends' map sizes, so each end is walked once;
        # either way, the nodes walked are the tree's down to max_hops - 2.
        assert sorted(backward) == [False, True]
        tree = sorted(node for node, level in depth.items() if level <= max_hops - 2)
        assert _within(fan.successors, "S", "G", max_hops - 2) == tree

    unpruned = _ReadRecorder(fan)
    list(enumerate_simple_paths_unpruned(unpruned, "S", "G", max_hops))
    assert sorted(unpruned.out_calls) == sorted(depth)


def test_a_tie_walks_out_of_the_start():
    """S and G have two neighbours each, so the search walks out of S, as a
    search that always walks forward does."""
    pairs = (("S", "A"), ("S", "B"), ("A", "C"), ("B", "C"), ("C", "G"), ("D", "G"))
    graph = make_graph([(s, "CAUSES", o, 0.9) for s, o in pairs])
    recorder = _ReadRecorder(graph)
    found = _enumerate_simple_paths(recorder, "S", "G", 3)
    assert found == list(enumerate_simple_paths_unpruned(graph, "S", "G", 3))
    assert [nodes for nodes, _ in found] == [("S", "A", "C", "G"), ("S", "B", "C", "G")]
    assert sorted(recorder.out_calls) == ["A", "B", "S"] and recorder.into_calls == ["G"]


# -- key join two hops short, against the unpruned DFS ----------------------------------

_HUB_PREDICATES = ("CAUSES", "TREATS", "PREVENTS", "AFFECTS", "ASSOCIATED_WITH", "RELATED_TO")
_HUB_GRID = (0.0, 0.2, 0.5, 0.7, 0.9, 1.0)


def _hub_multigraph(rng: random.Random):
    """10-14 nodes, one hub with at least 50 out-edges, and random edges:
    parallel edges differ by predicate, and self-loops occur."""
    ids = [f"N{i}" for i in range(rng.randint(10, 14))]
    hub = rng.choice(ids)
    triples: dict[tuple[str, str, str], None] = {}
    while sum(s == hub for s, _, _ in triples) < 50:
        target = rng.choice(ids)
        for predicate in rng.sample(_HUB_PREDICATES, rng.randint(1, 4)):
            triples.setdefault((hub, predicate, target))
    for _ in range(rng.randint(0, 30)):
        subject = hub if rng.random() < 0.2 else rng.choice(ids)
        object_ = hub if rng.random() < 0.2 else rng.choice(ids)
        for predicate in rng.sample(_HUB_PREDICATES, rng.choice((1, 1, 2, 3))):
            triples.setdefault((subject, predicate, object_))
    graph = make_graph([(*triple, rng.choice(_HUB_GRID)) for triple in triples])
    table = CausalityTable(weights={p: rng.choice(_HUB_GRID) for p in _HUB_PREDICATES[:4]}, default_weight=0.5)
    return graph, table, hub


def test_key_joined_search_equals_the_unpruned_dfs_as_ordered_lists(walk_ends):
    """Every listing, with each ``distance_slack``, is the unpruned DFS's cut at
    its edge limit; on the graph and its mirror."""
    rng = random.Random(20261019)
    seen = Counter()
    for graph_no in range(300):
        graph, table, hub = _hub_multigraph(rng)
        edges = edges_of(graph)
        seen["self-loop"] += any(e.subject == e.object for e in edges)
        seen["parallel"] += len({(e.subject, e.object) for e in edges}) < len(edges)
        theta = rng.choice(_HUB_GRID)
        batch = {(e.subject, e.predicate, e.object): rng.choice(_HUB_GRID) for e in rng.sample(edges, 10)}
        max_hops = 1 + graph_no % 4
        node_ids = graph.node_ids()
        endpoints = [
            (hub, rng.choice(node_ids)), (rng.choice(node_ids), hub), (rng.choice(node_ids), rng.choice(node_ids))
        ]
        flipped = {(o, p, s): strength for (s, p, o), strength in batch.items()}
        swapped = [(goal, start) for start, goal in endpoints]
        for base, updates, pairs in ((graph, batch, endpoints), (_mirror(graph), flipped, swapped)):
            view = build_causal_view(base, table, theta)
            revised = apply_strength_updates(view, updates)
            for name, source in (("graph", base), ("view", view), ("revised", revised)):
                for start, goal in pairs:
                    unpruned = list(enumerate_simple_paths_unpruned(source, start, goal, max_hops))
                    direct = any(len(edges) == 1 for _, edges in unpruned)
                    for slack in (None, 0, 1, 2, 3):
                        limit = min(max_hops, 1 + slack) if slack is not None and direct else max_hops
                        listed = [row for row in unpruned if len(row[1]) <= limit]
                        found = retrieval._enumerate_simple_paths(source, start, goal, max_hops, slack)
                        assert found == listed, (graph_no, name, start, goal, slack)
                        if len(listed) < len(unpruned):
                            seen[f"slack {slack} cut"] += 1
                    seen[name] += bool(unpruned)
                    seen[f"{max_hops} hops"] += bool(unpruned)
                    seen["parallel path"] += any(p[0] == q[0] for p, q in zip(unpruned, unpruned[1:]))
    assert min(seen.values()) >= 10, seen
    assert seen.keys() >= {"slack 0 cut", "slack 1 cut", "slack 2 cut"}, seen
    assert "slack 3 cut" not in seen, seen
    assert min(walk_ends[h, end] for h in range(1, 5) for end in ("start", "goal", "tie")) >= 10, walk_ends


def test_a_hub_two_hops_short_is_key_joined_not_walked():
    """S -> H -> 200 fan nodes, two of which have an edge into G; each fan
    node also has dead-end edges. H sits two hops short of ``max_hops=3``."""
    fan = [f"X{i:03d}" for i in range(200)]
    specs = [("S", "CAUSES", "H", 0.9)]
    specs += [("H", "CAUSES", x, 0.9) for x in fan]
    specs += [(x, "CAUSES", f"{x}.end", 0.9) for x in fan]
    specs += [("X017", "CAUSES", "G", 0.9), ("X150", "TREATS", "G", 0.7)]
    graph = make_graph(specs)
    recorder = _ReadRecorder(graph)

    found = _enumerate_simple_paths(recorder, "S", "G", 3)
    assert found == list(enumerate_simple_paths_unpruned(graph, "S", "G", 3))
    assert [nodes for nodes, _ in found] == [("S", "H", "X017", "G"), ("S", "H", "X150", "G")]
    assert len(graph.successors("H")) == 200 and len(graph.edges_into("G")) == 2
    # Only S and H are read; S is walked, H is key-joined and never iterated.
    assert recorder.out_calls == ["S", "H"]
    assert recorder.maps["S"].reads["items"] == 1
    hub = recorder.maps["H"]
    assert hub.reads["keys"] >= 1 and hub.reads["iter"] == hub.reads["items"] == hub.reads["values"] == 0
    # One lookup in H's map and one in G's in-edges per three-hop path.
    three_hop = sum(len(edges) == 3 for _, edges in found)
    assert recorder.into_calls == ["G"]
    assert len(hub.looked_up) == len(recorder.into_maps["G"].looked_up) == three_hop == 2


# -- the detour-bounded listing of retrieve_for_cot, against find_paths ----------------


def _small_multigraph(rng: random.Random):
    """4-8 nodes and 3-20 node pairs, each joined by 1-3 edges that differ by
    predicate; a pair may be a self-loop."""
    ids = [f"N{i}" for i in range(rng.randint(4, 8))]
    triples: dict[tuple[str, str, str], None] = {}
    for _ in range(rng.randint(3, 20)):
        subject, object_ = rng.choice(ids), rng.choice(ids)
        for predicate in rng.sample(_HUB_PREDICATES[:4], rng.choice((1, 1, 2, 3))):
            triples.setdefault((subject, predicate, object_))
    graph = make_graph([(*triple, rng.choice(_HUB_GRID)) for triple in triples])
    table = CausalityTable(weights={p: rng.choice(_HUB_GRID) for p in _HUB_PREDICATES[:4]}, default_weight=0.5)
    return graph, table


class _SetLinker:
    """Links a segment's text, a space-separated list of node ids, to those ids."""

    def link(self, text):
        return frozenset(text.split())


def test_retrieve_for_cot_lists_and_counts_only_what_prune_can_keep():
    rng = random.Random(20261020)
    seen = Counter()
    for _ in range(300):
        graph, table = _small_multigraph(rng)
        edges = edges_of(graph)
        seen["self-loop"] += any(e.subject == e.object for e in edges)
        seen["parallel"] += len({(e.subject, e.object) for e in edges}) < len(edges)
        view = build_causal_view(graph, table, rng.choice(_HUB_GRID))
        node_ids = graph.node_ids()
        from_set = rng.sample(node_ids, rng.randint(1, 2))
        to_set = rng.sample(node_ids, rng.randint(1, 2))
        cot = ChainOfThought(segments=(" ".join(from_set), " ".join(to_set)))
        for max_hops in range(1, 5):
            for slack in range(4):
                config = RetrievalConfig(max_hops=max_hops, k=rng.randint(1, 6), distance_slack=slack)
                for causal_view in (view, None):
                    full = find_paths(causal_view, graph, from_set, to_set, config)
                    listed = _search(causal_view, graph, from_set, to_set, config, slack)
                    entry = retrieve_for_cot(cot, _SetLinker(), causal_view, graph, config)[0]
                    assert entry.candidate_count == len(listed)
                    assert entry.paths == tuple(prune_and_select(full, config))
                    assert entry.tier == (full[0].tier if full else None)
                    assert entry.reason == (None if full else REASON_NO_PATHS)

                    # Pruning the listing gives find_paths' selection, and the listing is
                    # find_paths' paths, in order, cut at 1 + slack edges between
                    # endpoints joined by a direct edge.
                    assert prune_and_select(listed, config) == prune_and_select(full, config)
                    direct = {(p.nodes[0], p.nodes[-1]) for p in full if len(p.edges) == 1}
                    limit = min(max_hops, 1 + slack)
                    assert listed == [
                        p for p in full if (p.nodes[0], p.nodes[-1]) not in direct or len(p.edges) <= limit
                    ]
                    seen[f"hops {max_hops} slack {slack} cut"] += len(full) > len(listed)
                    seen["reversed"] += any(p.reversed for p in listed)
    # Every config whose bound can fall below max_hops lists fewer paths than
    # find_paths, max_hops 2 with slack 0 among them.
    assert all(seen[f"hops {h} slack {s} cut"] for h in range(2, 5) for s in range(h - 1)), seen
    assert not any(seen[f"hops {h} slack {s} cut"] for h in range(1, 5) for s in range(h - 1, 4)), seen
    assert min(seen["self-loop"], seen["parallel"], seen["reversed"]) >= 10, seen


def _hub_detours():
    """hub -> goal directly, hub -> mid -> goal, and 36 three-hop detours
    hub -> x -> y -> goal through parallel edges: with the default config
    the detours are one hop past the shortest distance plus the slack."""
    specs = [("hub", "CAUSES", "goal", 0.9), ("hub", "CAUSES", "mid", 0.9), ("mid", "CAUSES", "goal", 0.9)]
    for i in range(4):
        specs.append(("hub", "CAUSES", f"x{i}", 0.9))
        if i % 2:
            specs.append(("hub", "TREATS", f"x{i}", 0.7))
        specs += [(f"x{i}", "CAUSES", f"y{j}", 0.9) for j in range(3)]
    for j in range(3):
        specs += [(f"y{j}", "CAUSES", "goal", 0.9), (f"y{j}", "PREVENTS", "goal", 0.8)]
    return make_graph(specs)


def test_hub_detours_are_neither_counted_in_the_trace_nor_built(monkeypatch):
    graph = _hub_detours()
    config = replace(default_config(), assignment=ModelAssignment(cot="live", enhance="live", infer="live"))
    view = build_causal_view(graph, config.causality, config.theta)

    def transport(request, endpoint):
        replies = {"cot": "the hub → reaches the goal → 80", "enhance": "Direct.", "infer": "Answer: A"}
        return LlmResponse(text=replies[request.stage])

    gateway = LlmGateway(endpoint=EndpointConfig(url="http://example/llm"), transport=transport)
    pipeline = Pipeline(graph, view, build_index(graph), gateway, config)
    full = find_paths(view, graph, {"hub"}, {"goal"}, config.retrieval)
    assert len(full) == 1 + 1 + (1 + 2 + 1 + 2) * 3 * 2 == 38
    built: list[int] = []

    def graph_path(nodes, edges, *rest):
        built.append(len(edges))
        return GraphPath(nodes, edges, *rest)

    monkeypatch.setattr(retrieval, "GraphPath", graph_path)
    item = QAItem(id="hub", question="Where does the hub lead?", options={"A": "goal", "B": "y0"}, gold="A")
    record = pipeline.answer(item, Mode.FULL)

    assert record.trace["retrieval"] == [
        {
            "segment_index": 0,
            "source_entities": ["hub"],
            "target_entities": ["goal"],
            "tier": "causal",
            "candidates": 2,
            "kept": 2,
            "reason": None,
        }
    ]
    assert sorted(built) == [1, 2]


def test_a_direct_edge_bounds_the_walk_and_what_it_reads():
    """Between endpoints joined by a direct edge, the default config walks two
    hops and reads no map of a detour node; slack 0 reads the goal's in-edges
    alone. The mirror walks the other way, out of its start."""
    config = default_config().retrieval
    graph = _hub_detours()
    for source, start, goal in ((graph, "hub", "goal"), (_mirror(graph), "goal", "hub")):
        unpruned = list(enumerate_simple_paths_unpruned(source, start, goal, config.max_hops))
        assert len(unpruned) == 38

        recorder = _ReadRecorder(source)
        found = _enumerate_simple_paths(recorder, start, goal, config.max_hops, config.distance_slack)
        assert found == [row for row in unpruned if len(row[1]) <= 1 + config.distance_slack]
        assert len(found) == 2
        # Only the endpoints' maps are read: none of a detour's x or y nodes.
        assert sorted(recorder.out_calls + recorder.into_calls) == ["goal", "hub"]

        recorder = _ReadRecorder(source)
        found = _enumerate_simple_paths(recorder, start, goal, config.max_hops, 0)
        assert found == [row for row in unpruned if len(row[1]) == 1] and len(found) == 1
        assert (recorder.out_calls, recorder.into_calls) == ([], [goal])
