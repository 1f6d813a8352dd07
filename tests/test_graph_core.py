"""The columnar graph core and the byte-mask views against slow references.

Seeded random graphs with self-loops, parallel edges that differ by
predicate, isolated nodes and a hub are built through ``graph_from_edges``
and through an artifact round trip. Every read is compared with
``oracles.ReferenceGraph``, the dict-of-lists adjacency the columns
replaced, and every view along an update chain with a recount of the
membership rule.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from causalrag.causal import CausalityTable, apply_strength_updates, build_causal_view
from causalrag.errors import NotFoundError
from causalrag.graph import ConceptNode, KgEdge, KnowledgeGraph, load_graph, save_graph

from .oracles import ReferenceGraph, graph_from_edges, recount_view_members

_PREDICATES = ("CAUSES", "TREATS", "ASSOCIATED_WITH", "RELATED_TO")
_GRID = (0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0)


def _random_graph(rng: random.Random):
    """Nodes and edges with a hub; self-loops, parallel edges and isolated nodes occur."""
    ids = [f"N{i}" for i in range(rng.randint(1, 12))]
    rng.shuffle(ids)
    hub = rng.choice(ids)
    nodes = [
        ConceptNode(
            id=node_id,
            name=node_id.lower(),
            semantic_types=frozenset(rng.sample(("dsyn", "patf", "sosy"), rng.randint(0, 2))),
            aliases=frozenset(rng.sample((f"{node_id} alias", f"{node_id} other"), rng.randint(0, 1))),
        )
        for node_id in ids
    ]
    triples: dict[tuple[str, str, str], None] = {}
    for _ in range(rng.randint(0, 40)):
        subject = hub if rng.random() < 0.4 else rng.choice(ids)
        object_ = hub if rng.random() < 0.4 else rng.choice(ids)
        # Often repeat a pair under every predicate, for parallel edges.
        for predicate in rng.sample(_PREDICATES, rng.choice((1, 1, 2, 4))):
            triples.setdefault((subject, predicate, object_))
    edges = [KgEdge(s, p, o, rng.choice(_GRID)) for s, p, o in triples]
    return nodes, edges


def _assert_same_core(graph: KnowledgeGraph, ref: ReferenceGraph, rng: random.Random) -> None:
    assert graph.node_ids() == ref.node_ids()
    assert list(graph.nodes()) == list(ref.nodes.values())
    assert graph.node_count == len(ref.nodes) and graph.edge_count == len(ref.edges)
    assert graph.predicate_counts() == ref.predicate_counts()
    assert list(graph.predicate_counts()) == list(ref.predicate_counts())
    for idx, edge in enumerate(ref.edges):
        assert graph.edge(idx) == edge
        assert graph.effective_strength(idx) == edge.strength
        assert graph.edge_index(edge.subject, edge.predicate, edge.object) == idx
    ids = ref.node_ids()
    for _ in range(3):
        absent = (rng.choice(ids), rng.choice(_PREDICATES + ("UNSEEN",)), rng.choice(ids))
        if absent not in ref.by_triple:
            with pytest.raises(NotFoundError):
                graph.edge_index(*absent)
    for node_id in ref.node_ids():
        assert graph.node(node_id) is graph.node(node_id) == ref.nodes[node_id]
        assert tuple(graph.out_edges(node_id)) == ref.out_edges(node_id), node_id
        for read in ("in_edges", "successors", "edges_into"):
            assert getattr(graph, read)(node_id) == getattr(ref, read)(node_id), (read, node_id)
    for read in (graph.out_edges, graph.in_edges, graph.successors, graph.edges_into, graph.node):
        with pytest.raises(NotFoundError):
            read("missing")


def _assert_view_matches_recount(view, ref: ReferenceGraph, table, overrides) -> None:
    members = recount_view_members(ref, table, view.theta, overrides)
    assert view.member_edges == members
    assert view.mask == bytes(idx in members for idx in range(len(ref.edges)))
    assert view.edge_count == len(members)
    ends = {ref.edges[idx].subject for idx in members} | {ref.edges[idx].object for idx in members}
    assert view.member_node_ids() == ends
    for node_id in ref.node_ids():
        assert view.touches(node_id) == (node_id in ends)
        assert view.out_edges(node_id) == tuple(i for i in ref.out_edges(node_id) if i in members)
        for read in ("successors", "edges_into"):
            kept = {end: tuple(i for i in idxs if i in members) for end, idxs in getattr(ref, read)(node_id).items()}
            want = {end: idxs for end, idxs in kept.items() if idxs}
            assert getattr(view, read)(node_id) == want, (read, node_id)
    for idx, edge in enumerate(ref.edges):
        assert view.effective_strength(idx) == overrides.get(idx, edge.strength)


def test_columnar_core_and_mask_views_match_the_references(tmp_path):
    rng = random.Random(909)
    seen = Counter()
    for case in range(500):
        nodes, edges = _random_graph(rng)
        ref = ReferenceGraph(nodes, edges)
        graph = graph_from_edges(nodes, edges)
        artifact = tmp_path / "g.crag"
        save_graph(graph, artifact)
        for built in (graph, load_graph(artifact)):
            _assert_same_core(built, ref, rng)

        table = CausalityTable(
            weights={p: rng.choice(_GRID) for p in _PREDICATES[:3]}, default_weight=rng.choice(_GRID)
        )
        view = build_causal_view(graph, table, rng.choice(_GRID))
        overrides: dict[int, float] = {}
        for _ in range(rng.randint(1, 5)):
            _assert_view_matches_recount(view, ref, table, overrides)
            chosen = rng.sample(ref.edges, rng.randint(0, len(ref.edges)))
            batch = {(e.subject, e.predicate, e.object): rng.choice(_GRID) for e in chosen}
            view = apply_strength_updates(view, batch)
            overrides.update({ref.by_triple[triple]: strength for triple, strength in batch.items()})
            seen["demoted"] += any(not view.mask[i] for i in overrides)
        _assert_view_matches_recount(view, ref, table, overrides)

        seen["self-loop"] += any(e.subject == e.object for e in edges)
        seen["parallel"] += len({(e.subject, e.object) for e in edges}) < len(edges)
        seen["isolated"] += any(not ref.forward[n] and not ref.reverse[n] for n in ref.nodes)
        seen["no edges"] += not edges
    assert min(seen.values()) >= 5, seen


def _absent_triple(rng: random.Random, ref: ReferenceGraph) -> tuple[str, str, str]:
    """A triple not in ``ref``: an unknown subject, predicate or object, or three known parts."""
    ids = ref.node_ids()
    while True:
        triple = [rng.choice(ids), rng.choice(_PREDICATES), rng.choice(ids)]
        part = rng.randrange(4)
        if part < 3:
            triple[part] = ("missing", "UNSEEN", "missing")[part]
        if tuple(triple) not in ref.by_triple:
            return tuple(triple)


def test_edge_indices_match_the_reference_lookup_in_batch_order():
    rng = random.Random(4242)
    seen = Counter()
    for _ in range(300):
        nodes, edges = _random_graph(rng)
        ref = ReferenceGraph(nodes, edges)
        graph = graph_from_edges(nodes, edges)
        assert graph.edge_indices([]) == [] and graph._by_key is None  # an empty batch builds no map

        batch = list(ref.by_triple)
        rng.shuffle(batch)
        if batch:
            repeated = rng.choice(batch)
            batch.insert(rng.randint(0, len(batch)), repeated)
            seen["repeated"] += 1
        want = [ref.edge_index(*triple) for triple in batch]
        assert graph.edge_indices(batch) == want

        first = _absent_triple(rng, ref)
        position = rng.choice((0, rng.randint(0, len(batch)), len(batch)))
        seen["first" if position == 0 else "last" if position == len(batch) else "middle"] += 1
        planted = batch[:position] + [first] + batch[position:]
        if rng.random() < 0.5:
            planted.insert(rng.randint(position + 1, len(planted)), _absent_triple(rng, ref))
            seen["second absent"] += 1
        subject, predicate, object_ = first
        message = f"triple ({subject!r}, {predicate!r}, {object_!r}) not in graph"
        with pytest.raises(NotFoundError) as raised:
            graph.edge_indices(planted)
        assert str(raised.value) == message
        with pytest.raises(NotFoundError) as raised:
            graph.edge_index(*first)
        assert str(raised.value) == message
    assert min(seen.values()) >= 20, seen
