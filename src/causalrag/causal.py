"""Causality weighting of relation labels and thresholded causal graph views.

A causality table maps each relation label to a cause-effect weight in
[0, 1]; labels it does not list fall back to a configured default. A causal
view keeps only the base-graph edges clearing a threshold theta, and can be
revised edge-by-edge with externally mined strengths without ever touching
the base graph.
"""

from __future__ import annotations

import logging
from array import array
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress
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


# Strengths are stored in blocks of 2**_SHIFT edges: 8 KiB of doubles. A
# revision copies every block, but no copy is big enough for the C allocator
# to hand it back to the OS on free and fault it in again on the next
# revision. So a revision's cost does not depend on the state of the heap, as
# it would with one flat array or dict of strengths.
_SHIFT = 10
_LOW = (1 << _SHIFT) - 1


@dataclass(frozen=True)
class CausalGraphView:
    """Thresholded subview of a knowledge graph.

    Membership and per-edge effective strengths live here; the base graph
    is shared and never mutated. Views are immutable value objects, so
    revised views can be created freely while readers keep using old ones.

    Membership is one byte per base edge: ``mask[i]`` is 1 when edge ``i``
    is a member. ``member_edges`` is the same set as a frozenset, derived
    from the mask on first read and cached; a revision copies the mask
    instead of rebuilding a hash set. ``strengths`` holds every edge's
    effective strength: block ``i >> _SHIFT`` holds edge ``i`` at
    ``i & _LOW``, the base strength until an update sets it.

    The membership rule, at the view's ``theta``: ``build_causal_view``
    admits an edge when its label weight and its stored strength are both
    >= theta; ``apply_strength_updates`` decides each updated edge by its
    new strength alone and leaves every other edge's byte as it was. The
    mask, not the strength column, remembers that an update decided an
    edge, so a revised view equals a fresh count of the rule.

    The path search reads ``successors`` and ``edges_into``. Each view
    memoises them per node on first read, by filtering the base graph's
    memo entries through the mask. An entry, like ``member_edges``, is a
    pure function of the immutable view, so concurrent fills race benignly.
    A revised view starts with an empty memo, so no entry can outlive a
    membership change.
    """

    base: KnowledgeGraph
    theta: float
    mask: bytes = field(repr=False)
    strengths: tuple[array, ...] = field(repr=False)
    _successors: dict[str, tuple[tuple[int, str], ...]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _edges_into: dict[str, dict[str, tuple[int, ...]]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    # Traversal protocol shared with KnowledgeGraph -------------------------

    def has_node(self, node_id: str) -> bool:
        return self.base.has_node(node_id)

    def edge(self, index: int) -> KgEdge:
        return self.base.edge(index)

    def out_edges(self, node_id: str) -> tuple[int, ...]:
        mask = self.mask
        return tuple(i for i in self.base.out_edges(node_id) if mask[i])

    def successors(self, node_id: str) -> tuple[tuple[int, str], ...]:
        """The base graph's ``successors`` entry, member edges only (pairs shared)."""
        try:
            return self._successors[node_id]
        except KeyError:
            pass
        mask = self.mask
        pairs = tuple(pair for pair in self.base.successors(node_id) if mask[pair[0]])
        self._successors[node_id] = pairs
        return pairs

    def edges_into(self, goal: str) -> dict[str, tuple[int, ...]]:
        """The base graph's ``edges_into`` entry, member edges only; do not change it."""
        try:
            return self._edges_into[goal]
        except KeyError:
            pass
        mask = self.mask
        into = {}
        for subject, idxs in self.base.edges_into(goal).items():
            kept = tuple(idx for idx in idxs if mask[idx])
            if kept:
                into[subject] = kept
        self._edges_into[goal] = into
        return into

    def effective_strength(self, index: int) -> float:
        return self.strengths[index >> _SHIFT][index & _LOW]

    # Introspection ----------------------------------------------------------

    @cached_property
    def member_edges(self) -> frozenset[int]:
        return frozenset(compress(range(len(self.mask)), self.mask))

    @property
    def edge_count(self) -> int:
        return self.mask.count(1)

    def touches(self, node_id: str) -> bool:
        """Whether a member edge starts or ends at ``node_id``; unknown ids raise."""
        base, mask = self.base, self.mask
        return any(mask[i] for i in base.out_edges(node_id) + base.in_edges(node_id))

    def member_node_ids(self) -> frozenset[str]:
        columns, ids = self.base.columns, self.base.node_ids()
        ends = set(compress(columns.subjects, self.mask))
        ends.update(compress(columns.objects, self.mask))
        return frozenset(ids[i] for i in ends)


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
    weights = [table.weight(predicate) for predicate in graph.predicate_names]
    columns = graph.columns
    mask = bytes(weights[p] >= theta and s >= theta for p, s in zip(columns.predicates, columns.strengths))
    if 1 not in mask:
        logger.warning("causal view is empty at theta=%s", theta)
    flat = array("d", columns.strengths.tobytes())
    strengths = tuple(flat[i : i + _LOW + 1] for i in range(0, len(flat), _LOW + 1))
    return CausalGraphView(base=graph, theta=theta, mask=mask, strengths=strengths)


def apply_strength_updates(
    view: CausalGraphView, updates: Mapping[tuple[str, str, str], float]
) -> CausalGraphView:
    """Fold externally mined strengths into a view at its own theta.

    Each updated triple takes its new strength and is a member exactly when
    that strength is >= the view's theta; every other edge keeps its
    membership. Returns a new view; the base graph is untouched. Every
    updated triple must exist in the base graph.
    """
    mask = bytearray(view.mask)
    strengths = [block[:] for block in view.strengths]
    for triple, strength in updates.items():
        if not 0.0 <= strength <= 1.0:
            raise ValidationError(f"update strength {strength} for {triple} outside [0, 1]")
        idx = view.base.edge_index(*triple)
        strengths[idx >> _SHIFT][idx & _LOW] = strength
        mask[idx] = strength >= view.theta
    return CausalGraphView(base=view.base, theta=view.theta, mask=bytes(mask), strengths=tuple(strengths))


def parse_strength_updates(lines: Iterable[str]) -> dict[tuple[str, str, str], float]:
    """Parse an update TSV: subject_cui, predicate, object_cui, new strength.

    Blank lines and '#' comments are skipped; an optional header row naming
    the columns is tolerated as the first row that is neither. Malformed
    rows are an error, not a warning: update files are small and
    hand-curated.
    """
    updates: dict[tuple[str, str, str], float] = {}
    rows = 0
    for line_no, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n").rstrip("\r")
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        fields = [f.strip() for f in line.split("\t")]
        rows += 1
        if rows == 1 and fields[0].lower() == "subject_cui":
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
