from __future__ import annotations

import random

import pytest

from causalrag.causal import (
    CausalityTable,
    apply_strength_updates,
    build_causal_view,
    default_causality_table,
    parse_strength_updates,
)
from causalrag.errors import NotFoundError, ValidationError

from .conftest import make_graph
from .oracles import recount_view_members


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
    assert chain_graph.edges[weak].strength == 0.1


def test_update_demotes_edge_below_theta(chain_graph, chain_view):
    strong = chain_graph.edge_index("A", "CAUSES", "B")
    assert strong in chain_view.member_edges
    updated = apply_strength_updates(chain_view, {("A", "CAUSES", "B"): 0.3})
    assert strong not in updated.member_edges
    assert chain_graph.edges[strong].strength == 0.9
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
    assert once.overrides == twice.overrides


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


def test_updates_keep_members_equal_to_a_recount_of_the_rule():
    rng = random.Random(2501)
    predicates = ("CAUSES", "TREATS", "ASSOCIATED_WITH", "RELATED_TO")
    for _ in range(250):
        node_count = rng.randint(2, 8)
        specs, seen = [], set()
        for _ in range(rng.randint(1, 20)):
            subject, object_ = rng.sample(range(node_count), 2)
            triple = (f"N{subject}", rng.choice(predicates), f"N{object_}")
            if triple not in seen:
                seen.add(triple)
                specs.append((*triple, rng.choice(_GRID)))
        graph = make_graph(specs)
        table = CausalityTable(
            weights={p: rng.choice(_GRID) for p in predicates[:3]},
            default_weight=rng.choice(_GRID),
        )
        theta = rng.choice(_GRID)
        view = build_causal_view(graph, table, theta)
        overrides = {}
        assert view.member_edges == recount_view_members(graph, table, theta, overrides)
        for _ in range(rng.randint(1, 6)):
            chosen = rng.sample(specs, rng.randint(0, len(specs)))
            batch = {spec[:3]: rng.choice(_GRID) for spec in chosen}
            view = apply_strength_updates(view, batch)
            overrides.update({graph.edge_index(*t): s for t, s in batch.items()})
            assert view.theta == theta
            assert view.overrides == overrides
            assert view.member_edges == recount_view_members(graph, table, theta, overrides)
            unchanged = apply_strength_updates(view, {})
            assert unchanged.member_edges == view.member_edges
            assert unchanged.overrides == view.overrides


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


def test_parse_strength_updates_rejects_bad_rows():
    with pytest.raises(ValidationError):
        parse_strength_updates(["C1\tCAUSES\tC2"])
    with pytest.raises(ValidationError):
        parse_strength_updates(["C1\tCAUSES\tC2\tnot-a-number"])
    with pytest.raises(ValidationError):
        parse_strength_updates(["C1\tCAUSES\tC2\t1.5"])
