"""Multi-hop path retrieval between consecutive chain-of-thought segments.

Search runs causal-first: simple directed paths are enumerated inside the
thresholded causal view, and the full base graph is consulted only when an
entire segment's entity pair set yields nothing causal. Each ordered entity
pair is tried forward, then (only if the forward direction is empty)
backward with a reversed flag. Every listing has its own endpoint pair, so
no path is listed twice, and the order is deterministic: identical inputs
always produce identical output. ``find_paths`` lists every path of at most
``max_hops`` edges; ``retrieve_for_cot`` walks, between two endpoints joined
by a direct edge, only as far as the detour pruning keeps, and its trace
counts the paths it lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from operator import itemgetter
from typing import Iterable

from .cot import ChainOfThought
from .errors import NotFoundError, ValidationError

TIER_CAUSAL = "causal"
TIER_FALLBACK = "fallback"

REASON_NO_ENTITIES = "no-entities"
REASON_NO_PATHS = "no-paths"


@dataclass(frozen=True)
class RetrievalConfig:
    """Knobs for per-segment path search and selection."""

    max_hops: int = 3
    k: int = 5
    distance_slack: int = 1

    def __post_init__(self):
        if self.max_hops < 1:
            raise ValidationError(f"max_hops must be >= 1, got {self.max_hops}")
        if self.k < 1:
            raise ValidationError(f"k must be >= 1, got {self.k}")
        if self.distance_slack < 0:
            raise ValidationError(f"distance_slack must be >= 0, got {self.distance_slack}")


@dataclass(frozen=True, slots=True)
class GraphPath:
    """A loop-free directed path with its per-edge strengths resolved.

    ``edges`` are indices into the base graph's edge list; ``strengths``
    were read from the container (view or base graph) the path was found in,
    so causal-tier paths carry the view's effective strengths.
    """

    nodes: tuple[str, ...]
    edges: tuple[int, ...]
    strengths: tuple[float, ...]
    tier: str
    reversed: bool = False

    def __post_init__(self):
        if not self.edges:
            raise ValidationError("a path must contain at least one edge")
        if len(self.nodes) != len(self.edges) + 1:
            raise ValidationError("node and edge sequences are inconsistent")
        if len(self.strengths) != len(self.edges):
            raise ValidationError("strength sequence does not match edge sequence")
        if len(set(self.nodes)) != len(self.nodes):
            raise ValidationError("path contains a repeated node")
        if self.tier not in (TIER_CAUSAL, TIER_FALLBACK):
            raise ValidationError(f"unknown tier {self.tier!r}")

    @property
    def length(self) -> int:
        return len(self.edges)

    @property
    def score(self) -> float:
        return path_score(self)

    def node_key(self) -> str:
        return "->".join(self.nodes)


def path_score(path: GraphPath) -> float:
    """Mean edge strength along the path."""
    return sum(path.strengths) / len(path.edges)


def _enumerate_simple_paths(
    source,
    start: str,
    goal: str,
    max_hops: int,
    distance_slack: int | None = None,
) -> list[tuple[tuple[str, ...], tuple[int, ...]]]:
    """The loop-free directed paths start -> goal of at most ``max_hops``
    edges, as ``(nodes, edges)`` sorted by edge tuple.

    With a ``distance_slack``, a pair joined by a direct edge is walked to
    at most ``1 + distance_slack`` edges: its shortest distance is 1, so no
    longer path survives ``prune_and_select``, and none is walked. With
    slack 0 that is the direct edges alone, read off the goal's in-edges. A pair with no direct edge lists up to ``max_hops``;
    with ``max_hops`` at most ``distance_slack + 2``, as in the default
    config, it has no detour to drop.

    ``source.successors`` and ``source.edges_into`` map each node to its
    parallel edges, which ``itertools.product`` expands. The walk starts at
    the end whose map has fewer keys, ``start``'s successors (``first``) or
    ``goal``'s in-edges (``into_goal``); a tie walks forward. Backward, it
    steps through ``edges_into`` and its last two hops join with ``first``.
    A pending entry is a path, its hops' parallel edges, its last node's map
    and how many more nodes may be walked. One with none left is never
    walked: one key join of its map with the far end's and one test for an
    edge to the far end finish its last two hops, and it is pushed only if
    one can succeed. Neither the direction nor the order entries run in
    shows: backward rows are reversed, then all are sorted by edge tuple, the
    order a walk of out-edges by ascending index yields, as no path's edges
    are a prefix of another's. A plain work list, not a closure or
    recursion, leaves no reference cycle holding ``source`` and no depth limit.
    """
    if start == goal:
        return []
    into_goal = source.edges_into(goal)
    if distance_slack is not None and start in into_goal:
        max_hops = min(max_hops, 1 + distance_slack)
    if max_hops == 1:
        return [((start, goal), (idx,)) for idx in into_goal.get(start, ())]
    first = source.successors(start)
    backward = len(into_goal) < len(first)
    origin, end, step, near, far = (
        (goal, start, source.edges_into, into_goal, first)
        if backward
        else (start, goal, source.successors, first, into_goal)
    )
    found: list[tuple[tuple[str, ...], tuple[int, ...]]] = []
    far_keys = far.keys()
    pending = [((origin,), (), near, max_hops - 2)]
    while pending:
        path, hops, adjacent, walks = pending.pop()
        if end in adjacent:
            found.extend(((*path, end), edges) for edges in product(*hops, adjacent[end]))
        if walks == 0:
            for target in adjacent.keys() & far_keys:
                if target not in path and target != end:
                    found.extend(
                        ((*path, target, end), edges) for edges in product(*hops, adjacent[target], far[target])
                    )
            continue
        for target, idxs in adjacent.items():
            if target != end and target not in path:
                ahead = step(target)
                if walks > 1 or end in ahead or not far_keys.isdisjoint(ahead.keys()):
                    pending.append(((*path, target), (*hops, idxs), ahead, walks - 1))
    if backward:
        found = [(nodes[::-1], edges[::-1]) for nodes, edges in found]
    found.sort(key=itemgetter(1))
    return found


def _collect_tier(
    source,
    tier: str,
    froms: list[str],
    tos: list[str],
    config: RetrievalConfig,
    distance_slack: int | None,
) -> list[GraphPath]:
    def listing(start: str, goal: str, is_reversed: bool) -> list[GraphPath]:
        return [
            GraphPath(nodes, edges, tuple(map(source.effective_strength, edges)), tier, is_reversed)
            for nodes, edges in _enumerate_simple_paths(source, start, goal, config.max_hops, distance_slack)
        ]

    paths: list[GraphPath] = []
    needs_reverse: list[tuple[str, str]] = []
    for a in froms:
        for b in tos:
            if a == b:
                continue
            forward = listing(a, b, False)
            paths += forward
            if not forward and not (b in froms and a in tos):
                needs_reverse.append((a, b))

    # Pairs the forward pass left empty are searched flipped, after all forward
    # paths, unless the flip is a forward pair, whose listing is already in.
    for a, b in needs_reverse:
        paths += listing(b, a, True)
    return paths


def _search(
    causal_view,
    base,
    from_set: Iterable[str],
    to_set: Iterable[str],
    config: RetrievalConfig,
    distance_slack: int | None,
) -> list[GraphPath]:
    """``find_paths`` with each listing bounded by ``distance_slack`` (see
    ``_enumerate_simple_paths``)."""
    from_ids = sorted(set(from_set))
    to_ids = sorted(set(to_set))
    if not from_ids or not to_ids:
        return []
    for node_id in from_ids + to_ids:
        if not base.has_node(node_id):
            raise NotFoundError(f"unknown node id {node_id!r}")

    if causal_view is not None:
        causal = _collect_tier(causal_view, TIER_CAUSAL, from_ids, to_ids, config, distance_slack)
        if causal:
            return causal
    return _collect_tier(base, TIER_FALLBACK, from_ids, to_ids, config, distance_slack)


def find_paths(
    causal_view,
    base,
    from_set: Iterable[str],
    to_set: Iterable[str],
    config: RetrievalConfig,
) -> list[GraphPath]:
    """Enumerate candidate paths between two entity sets, causal tier first.

    The base graph is searched only when the causal view produced zero paths
    across the whole pair set. Passing ``causal_view=None`` skips the causal
    tier entirely (correlation-based retrieval). Empty entity sets yield an
    empty result; unknown node ids raise.

    Completeness, which ``prune_and_select`` relies on: for every endpoint
    pair among the returned paths, every simple path of at most ``max_hops``
    edges between them in the returned tier's container is returned too.
    Each pair's forward listing is complete, and a reversed listing is
    complete for the flipped pair. A pair is searched flipped only when its
    flip is not a forward pair, so no two listings share an endpoint pair
    and no path is returned twice. ``retrieve_for_cot`` runs the same search
    but never walks past ``1 + distance_slack`` edges between endpoints
    joined by a direct edge.
    """
    return _search(causal_view, base, from_set, to_set, config, None)


def prune_and_select(candidates: list[GraphPath], config: RetrievalConfig) -> list[GraphPath]:
    """Drop detour paths, then keep the top-k of the rest.

    A path is a detour when its length exceeds the shortest distance between
    its endpoints by more than ``distance_slack``. That distance is the
    length of the shortest candidate with the same endpoints. Any listing
    that holds a pair's shortest path will do: ``find_paths`` lists every
    simple path of at most ``max_hops`` edges for each endpoint pair it
    returns, and ``retrieve_for_cot`` leaves out only paths longer than
    ``1 + distance_slack`` edges between endpoints joined by a direct edge,
    which this drops anyway.
    """
    shortest: dict[tuple[str, str], int] = {}
    for path in candidates:
        ends, hops = (path.nodes[0], path.nodes[-1]), len(path.edges)
        shortest[ends] = min(hops, shortest.get(ends, hops))
    kept = [
        path
        for path in candidates
        if len(path.edges) <= shortest[path.nodes[0], path.nodes[-1]] + config.distance_slack
    ]
    kept.sort(key=_selection_key)
    return kept[: config.k]


def _selection_key(path: GraphPath):
    return (-path_score(path), len(path.edges), path.node_key(), path.reversed, path.edges)


@dataclass(frozen=True)
class SegmentRetrieval:
    """Outcome of retrieval for one consecutive segment pair. ``tier`` and
    ``reason`` are derived: one search's paths share a tier, and
    ``prune_and_select`` keeps at least one path of a non-empty listing."""

    source_entities: tuple[str, ...]
    target_entities: tuple[str, ...]
    candidate_count: int
    paths: tuple[GraphPath, ...]

    @property
    def tier(self) -> str | None:
        """The kept paths' tier, or None when none was kept."""
        return self.paths[0].tier if self.paths else None

    @property
    def reason(self) -> str | None:
        """Why no path was kept: a side linked nothing, or nothing connects."""
        if self.paths:
            return None
        return REASON_NO_PATHS if self.source_entities and self.target_entities else REASON_NO_ENTITIES


def retrieve_for_cot(
    cot: ChainOfThought,
    linker,
    causal_view,
    base,
    config: RetrievalConfig,
) -> dict[int, SegmentRetrieval]:
    """Run entity linking plus path search for every consecutive segment pair,
    keyed by the index of the pair's first segment.

    Pairs whose segments link to no entities, or whose entity sets connect to
    nothing within ``max_hops`` in either tier, contribute empty entries,
    whose ``reason`` says which; the chain as a whole never fails here.
    ``causal_view=None`` searches the base graph alone.

    The search is ``find_paths``', but an endpoint pair joined by a direct
    edge is walked only to ``1 + distance_slack`` edges, so it lists only
    the paths ``prune_and_select`` can keep. An entry's ``candidate_count``
    is the number of paths listed, the candidates ``prune_and_select``
    sees, and its ``paths`` are ``prune_and_select`` of them, which equals
    ``prune_and_select`` of ``find_paths``' paths.
    """
    linked = [tuple(sorted(linker.link(text))) for text in cot.segments] if len(cot.segments) > 1 else []
    results: dict[int, SegmentRetrieval] = {}
    for index, (from_ids, to_ids) in enumerate(zip(linked, linked[1:])):
        candidates = _search(causal_view, base, from_ids, to_ids, config, config.distance_slack)
        selected = prune_and_select(candidates, config) if candidates else []
        results[index] = SegmentRetrieval(from_ids, to_ids, len(candidates), tuple(selected))
    return results
