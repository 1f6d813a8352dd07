"""Causality weighting of relation labels and thresholded causal graph views.

A causality table maps each relation label to a cause-effect weight in
[0, 1]; labels it does not list fall back to a configured default. A causal
view keeps only the base-graph edges clearing a threshold theta, and can be
revised edge-by-edge with externally mined strengths without ever touching
the base graph.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .errors import ValidationError
from .graph import KgEdge, KnowledgeGraph

logger = logging.getLogger(__name__)

DEFAULT_CAUSALITY_WEIGHTS: dict[str, float] = {
    "CAUSES": 0.9,
    "PREDISPOSES": 0.8,
    "PREVENTS": 0.8,
    "TREATS": 0.7,
    "MANIFESTATION_OF": 0.7,
    "AFFECTS": 0.6,
    "ASSOCIATED_WITH": 0.2,
    "COEXISTS_WITH": 0.15,
}
DEFAULT_UNLISTED_WEIGHT = 0.05
DEFAULT_THETA = 0.5


@dataclass(frozen=True)
class CausalityTable:
    """Relation label -> cause-effect weight, with a default for unlisted labels."""

    weights: Mapping[str, float]
    default_weight: float = DEFAULT_UNLISTED_WEIGHT

    def __post_init__(self):
        if not self.weights:
            raise ValidationError("causality table must list at least one predicate")
        for label, weight in self.weights.items():
            if not 0.0 <= weight <= 1.0:
                raise ValidationError(
                    f"causality weight for {label!r} is {weight}, outside [0, 1]"
                )
        if not 0.0 <= self.default_weight <= 1.0:
            raise ValidationError(
                f"default causality weight {self.default_weight} outside [0, 1]"
            )
        object.__setattr__(self, "weights", dict(self.weights))

    def weight(self, predicate: str) -> float:
        return self.weights.get(predicate, self.default_weight)


def default_causality_table() -> CausalityTable:
    return CausalityTable(weights=dict(DEFAULT_CAUSALITY_WEIGHTS))


@dataclass(frozen=True)
class CausalGraphView:
    """Thresholded subview of a knowledge graph.

    Membership and per-edge strength overrides live here; the base graph is
    shared and never mutated. Views are immutable value objects, so revised
    views can be created freely while readers keep using old ones.

    The membership rule, at the view's ``theta``: an edge with a mined
    override is a member when the override is >= theta; any other edge is a
    member when its label weight and its stored strength are both >= theta.
    ``build_causal_view`` and ``apply_strength_updates`` both decide through
    ``_is_member``, so a revised view equals a fresh count of the rule.
    """

    base: KnowledgeGraph
    theta: float
    member_edges: frozenset[int]
    overrides: Mapping[int, float] = field(default_factory=dict)

    # Traversal protocol shared with KnowledgeGraph -------------------------

    def has_node(self, node_id: str) -> bool:
        return self.base.has_node(node_id)

    def edge(self, index: int) -> KgEdge:
        return self.base.edge(index)

    def out_edges(self, node_id: str) -> tuple[int, ...]:
        return tuple(i for i in self.base.out_edges(node_id) if i in self.member_edges)

    def effective_strength(self, index: int) -> float:
        override = self.overrides.get(index)
        return override if override is not None else self.base.edge(index).strength

    # Introspection ----------------------------------------------------------

    @property
    def edge_count(self) -> int:
        return len(self.member_edges)

    def member_node_ids(self) -> frozenset[str]:
        ids: set[str] = set()
        for idx in self.member_edges:
            edge = self.base.edge(idx)
            ids.add(edge.subject)
            ids.add(edge.object)
        return frozenset(ids)


def _is_member(
    theta: float,
    override: float | None,
    label_weight: float | None = None,
    strength: float | None = None,
) -> bool:
    """The membership rule stated on ``CausalGraphView``."""
    if override is not None:
        return override >= theta
    return label_weight >= theta and strength >= theta


def build_causal_view(
    graph: KnowledgeGraph, table: CausalityTable, theta: float
) -> CausalGraphView:
    """The view of ``graph`` at ``theta``, before any strength update.

    This is the only way to get a view at a given theta. With
    table-defaulted strengths (the normal case) the label and strength
    tests coincide. An empty view is legal and only warned about.
    """
    if not 0.0 <= theta <= 1.0:
        raise ValidationError(f"theta must be in [0, 1], got {theta}")
    members = frozenset(
        idx
        for idx, edge in enumerate(graph.edges)
        if _is_member(theta, None, table.weight(edge.predicate), edge.strength)
    )
    if not members:
        logger.warning("causal view is empty at theta=%s", theta)
    return CausalGraphView(base=graph, theta=theta, member_edges=members)


def apply_strength_updates(
    view: CausalGraphView, updates: Mapping[tuple[str, str, str], float]
) -> CausalGraphView:
    """Fold externally mined strengths into a view at its own theta.

    Each updated triple gets an override and joins or leaves the view by the
    membership rule; every other edge keeps its membership. Returns a new
    view; the base graph is untouched. Every updated triple must exist in
    the base graph.
    """
    members = set(view.member_edges)
    overrides = dict(view.overrides)
    for triple, strength in updates.items():
        if not 0.0 <= strength <= 1.0:
            raise ValidationError(f"update strength {strength} for {triple} outside [0, 1]")
        idx = view.base.edge_index(*triple)
        overrides[idx] = strength
        if _is_member(view.theta, strength):
            members.add(idx)
        else:
            members.discard(idx)
    return CausalGraphView(
        base=view.base, theta=view.theta, member_edges=frozenset(members), overrides=overrides
    )


def parse_strength_updates(lines: Iterable[str]) -> dict[tuple[str, str, str], float]:
    """Parse an update TSV: subject_cui, predicate, object_cui, new strength.

    Blank lines and '#' comments are skipped; an optional header row naming
    the columns is tolerated. Malformed rows are an error, not a warning:
    update files are small and hand-curated.
    """
    updates: dict[tuple[str, str, str], float] = {}
    for line_no, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n").rstrip("\r")
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        fields = [f.strip() for f in line.split("\t")]
        if line_no == 1 and fields and fields[0].lower() == "subject_cui":
            continue
        if len(fields) != 4 or not all(fields[:3]):
            raise ValidationError(f"update line {line_no}: expected 4 tab-separated fields")
        try:
            strength = float(fields[3])
        except ValueError:
            raise ValidationError(
                f"update line {line_no}: strength {fields[3]!r} is not a number"
            ) from None
        if not 0.0 <= strength <= 1.0:
            raise ValidationError(f"update line {line_no}: strength {strength} outside [0, 1]")
        updates[(fields[0], fields[1], fields[2])] = strength
    return updates
