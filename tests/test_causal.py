from __future__ import annotations

import random
import sys
import threading

import pytest

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


def _recount_search_reads(graph, members, node_id):
    """``successors`` and ``edges_into`` of ``node_id`` over ``members``, from the edge list."""
    edges = edges_of(graph)
    successors = tuple((i, e.object) for i, e in enumerate(edges) if e.subject == node_id and i in members)
    into: dict[str, tuple[int, ...]] = {}
    for i, e in enumerate(edges):
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
        for _ in range(2):
            assert container.successors(node_id) == successors
            assert container.edges_into(node_id) == into
        # A view shares the base graph's (edge, target) pairs instead of copying them.
        base_pairs = {id(pair) for pair in graph.successors(node_id)}
        assert {id(pair) for pair in container.successors(node_id)} <= base_pairs
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
    assert len(view._successors) == len(view._edges_into) == len(node_ids)


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


def test_parse_strength_updates_rejects_bad_rows():
    with pytest.raises(ValidationError):
        parse_strength_updates(["C1\tCAUSES\tC2"])
    with pytest.raises(ValidationError):
        parse_strength_updates(["C1\tCAUSES\tC2\tnot-a-number"])
    with pytest.raises(ValidationError):
        parse_strength_updates(["C1\tCAUSES\tC2\t1.5"])
