from __future__ import annotations

import dataclasses
import gc
import itertools
import random
import sys
import threading
import weakref

import pytest

from causalrag import graph as graph_module
from causalrag.causal import (
    _LOW,
    CausalityTable,
    apply_strength_updates,
    build_causal_view,
    default_causality_table,
    parse_strength_updates,
)
from causalrag.errors import NotFoundError, ValidationError

from .conftest import make_graph
from .oracles import edges_of, recount_view_members


# -- causality table -----------------------------------------------------------


def test_listed_predicate_weight():
    table = CausalityTable(weights={"CAUSES": 0.9})
    assert table.weight("CAUSES") == 0.9


def test_unlisted_predicate_uses_default():
    table = CausalityTable(weights={"CAUSES": 0.9}, default_weight=0.05)
    assert table.weight("ASSOCIATED_WITH") == 0.05


def test_out_of_range_weight_rejected():
    with pytest.raises(ValidationError):
        CausalityTable(weights={"CAUSES": 1.3})
    with pytest.raises(ValidationError):
        CausalityTable(weights={"CAUSES": 0.9}, default_weight=-0.1)
    with pytest.raises(ValidationError):
        CausalityTable(weights={})


# -- view construction -----------------------------------------------------------


def test_threshold_keeps_only_strong_edges():
    graph = make_graph(
        [("A", "CAUSES", "B", 0.9), ("A", "ASSOCIATED_WITH", "C", 0.4)]
    )
    table = CausalityTable(weights={"CAUSES": 0.9, "ASSOCIATED_WITH": 0.4})
    view = build_causal_view(graph, table, 0.5)
    assert view.member_edges == {0}


def test_theta_zero_keeps_everything():
    graph = make_graph(
        [("A", "CAUSES", "B", 0.9), ("A", "ASSOCIATED_WITH", "C", 0.1)]
    )
    view = build_causal_view(graph, default_causality_table(), 0.0)
    assert view.member_edges == {0, 1}


def test_theta_one_empty_view_warns(caplog):
    graph = make_graph([("A", "CAUSES", "B", 0.9)])
    with caplog.at_level("WARNING"):
        view = build_causal_view(graph, default_causality_table(), 1.0)
    assert view.member_edges == frozenset()
    assert any("empty" in message for message in caplog.messages)


def test_theta_outside_range_rejected():
    graph = make_graph([("A", "CAUSES", "B", 0.9)])
    with pytest.raises(ValidationError):
        build_causal_view(graph, default_causality_table(), 1.2)


def test_threshold_monotonicity():
    graph = make_graph(
        [
            ("A", "CAUSES", "B", 0.9),
            ("B", "PREDISPOSES", "C", 0.8),
            ("C", "TREATS", "D", 0.7),
            ("D", "AFFECTS", "E", 0.6),
            ("E", "ASSOCIATED_WITH", "F", 0.2),
        ]
    )
    table = default_causality_table()
    thetas = [0.0, 0.3, 0.5, 0.7, 1.0]
    views = [build_causal_view(graph, table, theta) for theta in thetas]
    all_edges = set(range(graph.edge_count))
    for lower, higher in zip(views, views[1:]):
        assert higher.member_edges <= lower.member_edges
        assert lower.member_edges <= all_edges


# -- strength updates --------------------------------------------------------------


def test_update_adds_edge_above_theta(chain_graph, chain_view):
    weak = chain_graph.edge_index("A", "ASSOCIATED_WITH", "C")
    assert weak not in chain_view.member_edges
    updated = apply_strength_updates(chain_view, {("A", "ASSOCIATED_WITH", "C"): 0.8})
    assert weak in updated.member_edges
    assert updated.effective_strength(weak) == 0.8
    # base untouched
    assert chain_graph.edge(weak).strength == 0.1


def test_update_demotes_edge_below_theta(chain_graph, chain_view):
    strong = chain_graph.edge_index("A", "CAUSES", "B")
    assert strong in chain_view.member_edges
    updated = apply_strength_updates(chain_view, {("A", "CAUSES", "B"): 0.3})
    assert strong not in updated.member_edges
    assert chain_graph.edge(strong).strength == 0.9
    # the original view object is unchanged
    assert strong in chain_view.member_edges


def test_update_revises_member_strength(chain_view, chain_graph):
    strong = chain_graph.edge_index("A", "CAUSES", "B")
    updated = apply_strength_updates(chain_view, {("A", "CAUSES", "B"): 0.95})
    assert strong in updated.member_edges
    assert updated.effective_strength(strong) == 0.95


def test_update_unknown_triple_is_not_found(chain_view):
    with pytest.raises(NotFoundError):
        apply_strength_updates(chain_view, {("A", "CAUSES", "Z"): 0.8})


def test_update_strength_out_of_range_rejected(chain_view):
    with pytest.raises(ValidationError):
        apply_strength_updates(chain_view, {("A", "CAUSES", "B"): 1.4})


_DEFECT_GRAPH = [(f"N{i}", "CAUSES", f"N{i + 1}", 0.6) for i in range(6)]
# Each defect: its batch entry, then the error class and message it raises.
_DEFECTS = {
    "high": ((("N3", "CAUSES", "N4"), 1.4), ValidationError,
             "update strength 1.4 for ('N3', 'CAUSES', 'N4') outside [0, 1]"),
    "low": ((("N4", "CAUSES", "N5"), -0.2), ValidationError,
            "update strength -0.2 for ('N4', 'CAUSES', 'N5') outside [0, 1]"),
    "nan": ((("N5", "CAUSES", "N6"), float("nan")), ValidationError,
            "update strength nan for ('N5', 'CAUSES', 'N6') outside [0, 1]"),
    "absent": ((("N0", "CAUSES", "Z"), 0.7), NotFoundError, "triple ('N0', 'CAUSES', 'Z') not in graph"),
    "absent-and-high": ((("Z", "CAUSES", "N0"), 2.0), ValidationError,
                        "update strength 2.0 for ('Z', 'CAUSES', 'N0') outside [0, 1]"),
}


@pytest.mark.parametrize("first, second", list(itertools.permutations(_DEFECTS, 2)))
def test_update_names_the_first_defect_in_batch_order_and_changes_nothing(first, second):
    view = build_causal_view(make_graph(_DEFECT_GRAPH), default_causality_table(), 0.5)
    mask, strengths = view.mask, [block.tobytes() for block in view.strengths]
    valid = [(("N0", "CAUSES", "N1"), 0.2), (("N1", "CAUSES", "N2"), 0.9), (("N2", "CAUSES", "N3"), 0.1)]
    _, kind, message = _DEFECTS[first]
    for at, later in itertools.combinations_with_replacement(range(len(valid) + 1), 2):
        rows = valid[:later] + [_DEFECTS[second][0]] + valid[later:]
        rows.insert(at, _DEFECTS[first][0])
        with pytest.raises(kind) as raised:
            apply_strength_updates(view, dict(rows))
        assert str(raised.value) == message
        assert view.mask == mask
        assert [block.tobytes() for block in view.strengths] == strengths


def test_update_idempotent(chain_view):
    updates = {("A", "ASSOCIATED_WITH", "C"): 0.8, ("A", "CAUSES", "B"): 0.2}
    once = apply_strength_updates(chain_view, updates)
    twice = apply_strength_updates(once, updates)
    assert once.member_edges == twice.member_edges
    assert once.strengths == twice.strengths


def test_member_strengths_stay_above_theta_after_update_sequences(chain_view):
    view = chain_view
    for updates in (
        {("A", "ASSOCIATED_WITH", "C"): 0.8},
        {("A", "CAUSES", "B"): 0.1},
        {("A", "ASSOCIATED_WITH", "C"): 0.55},
        {("B", "CAUSES", "C"): 0.9},
    ):
        view = apply_strength_updates(view, updates)
        for idx in view.member_edges:
            assert view.effective_strength(idx) >= view.theta


_GRID = (0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0)


_PREDICATES = ("CAUSES", "TREATS", "ASSOCIATED_WITH", "RELATED_TO")


def _random_graph_and_table(rng: random.Random):
    node_count = rng.randint(2, 8)
    specs, seen = [], set()
    for _ in range(rng.randint(1, 20)):
        subject, object_ = rng.sample(range(node_count), 2)
        triple = (f"N{subject}", rng.choice(_PREDICATES), f"N{object_}")
        if triple not in seen:
            seen.add(triple)
            specs.append((*triple, rng.choice(_GRID)))
    table = CausalityTable(
        weights={p: rng.choice(_GRID) for p in _PREDICATES[:3]},
        default_weight=rng.choice(_GRID),
    )
    return make_graph(specs), specs, table


def _random_batch(rng: random.Random, specs):
    chosen = rng.sample(specs, rng.randint(0, len(specs)))
    return {spec[:3]: rng.choice(_GRID) for spec in chosen}


def test_updates_keep_members_equal_to_a_recount_of_the_rule():
    rng = random.Random(2501)
    for _ in range(250):
        graph, specs, table = _random_graph_and_table(rng)
        theta = rng.choice(_GRID)
        view = build_causal_view(graph, table, theta)
        overrides = {}
        assert view.member_edges == recount_view_members(graph, table, theta, overrides)
        for _ in range(rng.randint(1, 6)):
            batch = _random_batch(rng, specs)
            view = apply_strength_updates(view, batch)
            overrides.update({graph.edge_index(*t): s for t, s in batch.items()})
            assert view.theta == theta
            assert view.member_edges == recount_view_members(graph, table, theta, overrides)
            for idx, edge in enumerate(edges_of(graph)):
                assert view.effective_strength(idx) == overrides.get(idx, edge.strength)
            unchanged = apply_strength_updates(view, {})
            assert unchanged.member_edges == view.member_edges
            assert unchanged.strengths == view.strengths


def test_effective_strengths_match_a_model_across_blocks():
    rng = random.Random(2503)
    specs = [(f"N{i}", "CAUSES", f"N{i + 1}", rng.choice(_GRID)) for i in range(3 * (_LOW + 1) + 17)]
    graph = make_graph(specs)
    view = build_causal_view(graph, default_causality_table(), 0.5)
    model = [spec[3] for spec in specs]
    for _ in range(20):
        batch = {spec[:3]: rng.choice(_GRID) for spec in rng.sample(specs, rng.randint(0, 60))}
        before, snapshot = view, list(model)
        view = apply_strength_updates(view, batch)
        for triple, strength in batch.items():
            model[graph.edge_index(*triple)] = strength
        assert [view.effective_strength(idx) for idx in range(len(specs))] == model
        assert [before.effective_strength(idx) for idx in range(len(specs))] == snapshot
        assert len(view.strengths) == 4
        assert all(len(block) <= _LOW + 1 for block in view.strengths)


def test_an_update_equal_to_the_stored_strength_still_decides_its_edge():
    graph = make_graph([("A", "ASSOCIATED_WITH", "B", 0.8), ("B", "CAUSES", "C", 0.9)])
    view = build_causal_view(graph, CausalityTable(weights={"ASSOCIATED_WITH": 0.2, "CAUSES": 0.9}), 0.5)
    weak = graph.edge_index("A", "ASSOCIATED_WITH", "B")
    assert weak not in view.member_edges
    promoted = apply_strength_updates(view, {("A", "ASSOCIATED_WITH", "B"): 0.8})
    assert weak in promoted.member_edges
    assert promoted.strengths == view.strengths
    later = apply_strength_updates(promoted, {("B", "CAUSES", "C"): 0.6})
    assert later.member_edges == {0, 1}
    assert later.effective_strength(weak) == 0.8


def test_touches_agrees_with_member_node_ids_across_updates():
    rng = random.Random(2502)
    touched = untouched = 0
    for _ in range(200):
        graph, specs, table = _random_graph_and_table(rng)
        view = build_causal_view(graph, table, rng.choice(_GRID))
        for _ in range(rng.randint(1, 4)):
            member_nodes = view.member_node_ids()
            for node_id in graph.node_ids():
                assert view.touches(node_id) == (node_id in member_nodes)
            touched += len(member_nodes)
            untouched += graph.node_count - len(member_nodes)
            view = apply_strength_updates(view, _random_batch(rng, specs))
        with pytest.raises(NotFoundError):
            view.touches("missing")
    assert touched and untouched


def test_reads_keep_nothing_on_the_view(chain_view):
    """A kept member set would be walked by every collection of its generation."""
    revised = apply_strength_updates(chain_view, {("A", "ASSOCIATED_WITH", "C"): 0.9})
    fields = {field.name for field in dataclasses.fields(chain_view)}
    for view in (chain_view, revised):
        view.edge_count, view.touches("A"), view.member_node_ids()
        assert view.member_edges == view.member_edges
        assert vars(view).keys() == fields


def _recount_search_reads(graph, members, node_id):
    """``successors`` and ``edges_into`` of ``node_id`` over ``members``, from the edge list."""
    successors: dict[str, tuple[int, ...]] = {}
    into: dict[str, tuple[int, ...]] = {}
    for i, e in enumerate(edges_of(graph)):
        if e.subject == node_id and i in members:
            successors[e.object] = successors.get(e.object, ()) + (i,)
        if e.object == node_id and i in members:
            into[e.subject] = into.get(e.subject, ()) + (i,)
    return successors, into


def _check_search_memo(container, graph, members, rng, share=1.0):
    """Read ``share`` of the nodes, in random order and twice each (the first
    read may fill the memo, the second reads it), against a recount of
    ``members``."""
    node_ids = list(graph.node_ids())
    rng.shuffle(node_ids)
    for node_id in node_ids[: round(share * len(node_ids))]:
        successors, into = _recount_search_reads(graph, members, node_id)
        base_stores = tuple(map(dict, graph._lineage))
        for _ in range(2):
            assert container.successors(node_id) == successors
            assert container.edges_into(node_id) == into
        if container is not graph:
            # A view builds its entries from the base graph's columns, not from its store.
            assert graph._lineage == base_stores
    for read in (container.successors, container.edges_into):
        with pytest.raises(NotFoundError):
            read("missing")


def test_search_memo_equals_a_recount_across_update_chains():
    rng = random.Random(2504)
    checked_views = kept = dropped = 0
    for _ in range(200):
        graph, specs, table = _random_graph_and_table(rng)
        all_edges = frozenset(range(graph.edge_count))
        _check_search_memo(graph, graph, all_edges, rng, share=rng.random())
        view = build_causal_view(graph, table, rng.choice(_GRID))
        for _ in range(rng.randint(1, 4)):
            # Warm part of the parent, derive two siblings from it, then read
            # all three: no entry may leak between a parent and its revisions.
            _check_search_memo(view, graph, view.member_edges, rng, share=rng.random())
            siblings = [apply_strength_updates(view, _random_batch(rng, specs)) for _ in range(2)]
            for sibling in siblings:
                _check_search_memo(sibling, graph, sibling.member_edges, rng)
            _check_search_memo(view, graph, view.member_edges, rng)
            checked_views += 3
            kept += len(view.member_edges)
            dropped += graph.edge_count - len(view.member_edges)
            view = rng.choice(siblings)
        _check_search_memo(graph, graph, all_edges, rng)
    assert checked_views and kept and dropped


def test_search_memo_fills_race_benignly_across_threads():
    rng = random.Random(2505)
    specs = {(f"N{rng.randrange(40)}", rng.choice(_PREDICATES), f"N{rng.randrange(40)}") for _ in range(400)}
    graph = make_graph([(*triple, rng.choice(_GRID)) for triple in sorted(specs) if triple[0] != triple[2]])
    view = build_causal_view(graph, default_causality_table(), 0.5)
    node_ids = list(graph.node_ids())
    expected = [
        (container, {n: _recount_search_reads(graph, members, n) for n in node_ids})
        for container, members in ((graph, range(graph.edge_count)), (view, view.member_edges))
    ]
    mismatches: list[str] = []

    def reader(seed: int) -> None:
        # Every thread fills the same entries, in its own order.
        order = random.Random(seed).sample(node_ids, len(node_ids))
        for container, want in expected:
            for node_id in order:
                if (container.successors(node_id), container.edges_into(node_id)) != want[node_id]:
                    mismatches.append(node_id)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=reader, args=(seed,)) for seed in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert mismatches == []
    assert len(view._lineage[0]) == len(view._lineage[1]) == len(node_ids)


def _flags(view, edges):
    return bytes(view.mask[i] for i in edges)


def test_a_revision_reuses_the_parent_entry_of_every_node_its_batch_left_alone():
    rng = random.Random(2506)
    reused = patched = 0
    for _ in range(200):
        graph, specs, table = _random_graph_and_table(rng)
        view = build_causal_view(graph, table, rng.choice(_GRID))
        parent = {n: (view.successors(n), view.edges_into(n)) for n in graph.node_ids()}
        revised = apply_strength_updates(view, _random_batch(rng, specs))
        for node_id, entries in parent.items():
            reads = (revised.successors, revised.edges_into)
            edges = (graph.out_edges(node_id), graph.in_edges(node_id))
            recount = _recount_search_reads(graph, revised.member_edges, node_id)
            for read, entry, own, want in zip(reads, entries, edges, recount):
                if _flags(view, own) == _flags(revised, own):
                    assert read(node_id) is entry
                    reused += 1
                else:
                    assert read(node_id) == want
                    patched += 1
    assert reused and patched


def test_a_flipped_in_edge_of_a_hub_is_patched_without_regrouping(monkeypatch):
    # Each source reaches the hub by a member, a non-member and a member edge, in edge order.
    weights = (("CAUSES", 0.9), ("ASSOCIATED_WITH", 0.2), ("TREATS", 0.8))
    graph = make_graph([(f"S{i:02d}", p, "HUB", s) for i in range(40) for p, s in weights])
    view = build_causal_view(graph, default_causality_table(), 0.5)
    into, out = view.edges_into("HUB"), view.successors("S07")
    assert len(into) == 40 and all(len(edges) == 2 for edges in into.values())

    fills = []
    group_edges = graph_module._group_edges
    monkeypatch.setattr(graph_module, "_group_edges", lambda *args: fills.append(args) or group_edges(*args))
    promoted = apply_strength_updates(view, {("S07", "ASSOCIATED_WITH", "HUB"): 0.9})
    demoted = apply_strength_updates(promoted, {("S07", p, "HUB"): 0.1 for p, _ in weights})
    for revised, s07 in ((promoted, 3), (demoted, 0)):
        for read, node_id, want in (
            (revised.edges_into, "HUB", _recount_search_reads(graph, revised.member_edges, "HUB")[1]),
            (revised.successors, "S07", _recount_search_reads(graph, revised.member_edges, "S07")[0]),
        ):
            entry = read(node_id)
            assert entry == want
            assert all(list(edges) == sorted(edges) for edges in entry.values())
        assert len(revised.edges_into("HUB").get("S07", ())) == s07
    assert fills == []
    assert view._lineage[1]["HUB"][1] == _flags(demoted, graph.in_edges("HUB"))
    # The patches copied the stored entries; the parent's stay as they were,
    # and the parent, whose slots the revisions took, patches its own back.
    assert into == _recount_search_reads(graph, view.member_edges, "HUB")[1] == view.edges_into("HUB")
    assert len(out["HUB"]) == 2 and view.successors("S07") == out


def test_in_edge_flags_gathered_in_one_call_equal_a_byte_by_byte_gather():
    # HUB has 120 in-edges, S00 one (from HUB) and S01 none; the revision
    # promotes one in-edge of HUB and demotes the one of S00.
    weights = (("CAUSES", 0.9), ("ASSOCIATED_WITH", 0.2), ("TREATS", 0.8))
    specs = [(f"S{i:02d}", p, "HUB", s) for i in range(40) for p, s in weights]
    graph = make_graph([*specs, ("HUB", "CAUSES", "S00", 0.9)])
    view = build_causal_view(graph, default_causality_table(), 0.5)
    revised = apply_strength_updates(view, {("S07", "ASSOCIATED_WITH", "HUB"): 0.9, ("HUB", "CAUSES", "S00"): 0.1})
    for container in (view, revised):
        for node_id, count in (("S01", 0), ("S00", 1), ("HUB", 120)):
            in_edges = graph.in_edges(node_id)
            assert len(in_edges) == count
            entry = container.edges_into(node_id)
            assert container._lineage[1][node_id][1] == _flags(container, in_edges)
            assert entry == _recount_search_reads(graph, container.member_edges, node_id)[1]
    assert revised.edges_into("S00") == {} and len(revised.edges_into("HUB")["S07"]) == 3


def test_a_stamped_slot_is_read_without_adjacency_and_alternating_siblings_keep_their_own(monkeypatch):
    weights = (("CAUSES", 0.9), ("ASSOCIATED_WITH", 0.2), ("TREATS", 0.8))
    graph = make_graph([(f"S{i:02d}", p, "HUB", s) for i in range(40) for p, s in weights])
    adjacency_reads = []

    def counted(read):
        def wrapper(self, node_id):
            adjacency_reads.append(node_id)
            return read(self, node_id)

        return wrapper

    for name in ("out_edges", "in_edges"):
        monkeypatch.setattr(graph_module.KnowledgeGraph, name, counted(getattr(graph_module.KnowledgeGraph, name)))
    view = build_causal_view(graph, default_causality_table(), 0.5)
    revised = apply_strength_updates(view, {("S07", "ASSOCIATED_WITH", "HUB"): 0.9})
    reads = (("successors", "S03"), ("edges_into", "S03"), ("successors", "S07"), ("edges_into", "HUB"))
    first_reads = {}
    for name, container in (("graph", graph), ("view", view), ("revised", revised)):
        for read, node_id in reads:
            first_reads[name, read, node_id] = entry = getattr(container, read)(node_id)
            adjacency_reads.clear()
            assert getattr(container, read)(node_id) is entry
            assert adjacency_reads == []
    # The batch left S03 alone, so the revision's first reads took the parent's entries.
    for read in ("successors", "edges_into"):
        assert first_reads["revised", read, "S03"] is first_reads["view", read, "S03"]
    assert first_reads["revised", "edges_into", "HUB"] != first_reads["view", "edges_into", "HUB"]

    # Two siblings disagree on one hub edge, so each read takes the slot from the other.
    siblings = [
        apply_strength_updates(view, {("S07", "ASSOCIATED_WITH", "HUB"): 0.9}),
        apply_strength_updates(view, {("S07", "CAUSES", "HUB"): 0.1}),
    ]
    wants = [_recount_search_reads(graph, sibling.member_edges, "HUB")[1] for sibling in siblings]
    successor_wants = [_recount_search_reads(graph, sibling.member_edges, "S07")[0] for sibling in siblings]
    assert wants[0] != wants[1] and successor_wants[0] != successor_wants[1]
    for _ in range(3):
        for sibling, want, successor_want in zip(siblings, wants, successor_wants):
            assert sibling.edges_into("HUB") == want
            assert sibling.successors("S07") == successor_want


def test_lineage_reads_race_benignly_across_sibling_revisions_and_thetas():
    rng = random.Random(2507)
    triples = sorted({(f"N{rng.randrange(40)}", rng.choice(_PREDICATES), f"N{rng.randrange(40)}") for _ in range(400)})
    triples = [triple for triple in triples if triple[0] != triple[2]]
    graph = make_graph([(*triple, rng.choice(_GRID)) for triple in triples])
    table = default_causality_table()
    node_ids = list(graph.node_ids())
    view = build_causal_view(graph, table, 0.5)
    for node_id in rng.sample(node_ids, len(node_ids) // 2):
        view.successors(node_id)
        view.edges_into(node_id)
    siblings = [
        apply_strength_updates(view, {triple: rng.choice(_GRID) for triple in rng.sample(triples, 60)})
        for _ in range(2)
    ]
    containers = (*siblings, build_causal_view(graph, table, 0.3))
    expected = [{n: _recount_search_reads(graph, c.member_edges, n) for n in node_ids} for c in containers]
    mismatches: list[tuple[int, str]] = []

    def reader(seed: int) -> None:
        # Every thread reads each node from all three views in turn, so the
        # siblings keep taking and replacing each other's slots.
        for node_id in random.Random(seed).sample(node_ids, len(node_ids)):
            for k, (container, want) in enumerate(zip(containers, expected)):
                if (container.successors(node_id), container.edges_into(node_id)) != want[node_id]:
                    mismatches.append((k, node_id))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=reader, args=(seed,)) for seed in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert mismatches == []
    assert siblings[0]._lineage is siblings[1]._lineage is view._lineage
    assert containers[2]._lineage is not view._lineage


def test_a_lineage_store_keeps_one_slot_per_node_and_no_view():
    rng = random.Random(2508)
    triples = sorted({(f"N{rng.randrange(60)}", rng.choice(_PREDICATES), f"N{rng.randrange(60)}") for _ in range(300)})
    graph = make_graph([(*triple, rng.choice(_GRID)) for triple in triples])
    table = default_causality_table()
    node_ids = list(graph.node_ids())
    view = build_causal_view(graph, table, 0.5)
    store = view._lineage
    dropped = []
    for _ in range(60):
        for node_id in rng.sample(node_ids, 20):
            view.successors(node_id)
            view.edges_into(node_id)
        dropped.append(weakref.ref(view))
        view = apply_strength_updates(view, {triple: rng.choice(_GRID) for triple in rng.sample(triples, 30)})
        assert view._lineage is store
    gc.collect()
    assert [ref() for ref in dropped] == [None] * len(dropped)
    for slots, edges_of_node, direction in ((store[0], graph.out_edges, 0), (store[1], graph.in_edges, 1)):
        assert len(slots) <= graph.node_count and set(slots) <= set(node_ids)
        for node_id, slot in slots.items():
            # Each slot holds a bare token, bytes and an entry, and the entry is its flags' grouping.
            token, flags, entry = slot
            assert type(slot) is tuple and type(token) is object and type(flags) is bytes and type(entry) is dict
            members = {i for i, flag in zip(edges_of_node(node_id), flags) if flag}
            assert entry == _recount_search_reads(graph, members, node_id)[direction]
    stores = (store, build_causal_view(graph, table, 0.3)._lineage, build_causal_view(graph, table, 0.5)._lineage)
    assert len({id(slots) for lineage in (*stores, graph._lineage) for slots in lineage}) == 8


def test_the_graph_store_keeps_one_slot_per_node_read_and_none_for_a_view():
    rng = random.Random(2509)
    triples = sorted({(f"N{rng.randrange(30)}", rng.choice(_PREDICATES), f"N{rng.randrange(30)}") for _ in range(200)})
    graph = make_graph([(*triple, rng.choice(_GRID)) for triple in triples])
    view = build_causal_view(graph, default_causality_table(), 0.5)
    every_edge = set(range(graph.edge_count))
    read = rng.sample(graph.node_ids(), graph.node_count // 2)
    for _ in range(2):
        for node_id in read:
            assert (graph.successors(node_id), graph.edges_into(node_id)) == _recount_search_reads(
                graph, every_edge, node_id
            )
        for node_id in graph.node_ids():
            view.successors(node_id)
            view.edges_into(node_id)
    assert [set(slots) for slots in graph._lineage] == [set(read)] * 2
    assert all(slot[0] is graph._token for slots in graph._lineage for slot in slots.values())
    assert [len(slots) for slots in view._lineage] == [graph.node_count] * 2


def test_view_never_contains_foreign_edges(chain_graph):
    view = build_causal_view(chain_graph, default_causality_table(), 0.3)
    assert all(0 <= idx < chain_graph.edge_count for idx in view.member_edges)


# -- update file parsing --------------------------------------------------------------


def test_parse_strength_updates_with_header_and_comments():
    updates = parse_strength_updates(
        [
            "subject_cui\tpredicate\tobject_cui\ts_new",
            "# mined offline",
            "C1\tCAUSES\tC2\t0.75",
            "",
            "C3\tTREATS\tC4\t0.15",
        ]
    )
    assert updates == {("C1", "CAUSES", "C2"): 0.75, ("C3", "TREATS", "C4"): 0.15}


def test_parse_strength_updates_takes_the_header_after_leading_comments():
    updates = parse_strength_updates(
        [
            "# mined",
            "",
            "subject_cui\tpredicate\tobject_cui\ts_new",
            "C1\tCAUSES\tC2\t0.75",
        ]
    )
    assert updates == {("C1", "CAUSES", "C2"): 0.75}
    # Only the first row may be the header.
    with pytest.raises(ValidationError, match="update line 3: strength 's_new' is not a number"):
        parse_strength_updates(
            ["C1\tCAUSES\tC2\t0.75", "# late", "subject_cui\tpredicate\tobject_cui\ts_new"]
        )


def test_a_repeated_triple_takes_its_last_rows_strength(chain_graph, chain_view):
    """Repeats are not an error: the later row wins, and membership follows it."""
    updates = parse_strength_updates(
        [
            "A\tCAUSES\tB\t0.3",
            "A\tASSOCIATED_WITH\tC\t0.8",
            "A\tCAUSES\tB\t0.95",
            "A\tASSOCIATED_WITH\tC\t0.2",
        ]
    )
    assert updates == {("A", "CAUSES", "B"): 0.95, ("A", "ASSOCIATED_WITH", "C"): 0.2}
    updated = apply_strength_updates(chain_view, updates)
    strong = chain_graph.edge_index("A", "CAUSES", "B")
    assert strong in updated.member_edges
    assert updated.effective_strength(strong) == 0.95
    assert chain_graph.edge_index("A", "ASSOCIATED_WITH", "C") not in updated.member_edges


def test_parse_strength_updates_rejects_bad_rows():
    with pytest.raises(ValidationError):
        parse_strength_updates(["C1\tCAUSES\tC2"])
    with pytest.raises(ValidationError):
        parse_strength_updates(["C1\tCAUSES\tC2\tnot-a-number"])
    with pytest.raises(ValidationError):
        parse_strength_updates(["C1\tCAUSES\tC2\t1.5"])
