"""Multi-hop path retrieval between consecutive chain-of-thought segments.

Search runs causal-first: simple directed paths are enumerated inside the
thresholded causal view, and the full base graph is consulted only when an
entire segment's entity pair set yields nothing causal. Each ordered entity
pair is tried forward, then (only if the forward direction is empty)
backward with a reversed flag. Results are deduplicated and deterministically
ordered so identical inputs always produce identical output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .cot import ChainOfThought, segment_pairs
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


@dataclass(frozen=True)
class GraphPath:
    """A loop-free directed path with its per-edge strengths resolved.

    ``edges`` are indices into the base graph's edge list; ``strengths``
    were read from the container (view or base graph) the path was found in,
    so causal-tier paths carry any override strengths.
    """

    nodes: tuple[str, ...]
    edges: tuple[int, ...]
    strengths: tuple[float, ...]
    tier: str
    segment_index: int = 0
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

    @property
    def endpoints(self) -> tuple[str, str]:
        return (self.nodes[0], self.nodes[-1])

    def node_key(self) -> str:
        return "->".join(self.nodes)


def path_score(path: GraphPath) -> float:
    """Mean edge strength along the path."""
    if not path.edges:
        raise ValidationError("cannot score an empty path")
    return sum(path.strengths) / len(path.edges)


def _enumerate_simple_paths(
    source, start: str, goal: str, max_hops: int, into_goal: dict[str, tuple[int, ...]]
) -> Iterator[tuple[tuple[str, ...], tuple[int, ...]]]:
    """Depth-first enumeration of loop-free directed paths start -> goal.

    ``into_goal`` is ``source.edges_into(goal)``. A node one hop short of
    ``max_hops`` takes its last hop from it instead of scanning its
    successors, and the level before enters a non-goal node only if it has
    an edge into the goal: any other node is at least two hops away, so
    the pruning drops no path. Neighbors expand in ascending edge-index
    order, which makes the yield order (and everything built on it)
    deterministic. The stack of successor iterators is explicit, so a
    finished search leaves no reference cycle holding ``source``.
    """
    if start == goal:
        return
    last = max_hops - 1
    if last == 0:
        for idx in into_goal.get(start, ()):
            yield (start, goal), (idx,)
        return
    node_stack = [start]
    edge_stack: list[int] = []
    on_path = {start}
    # frames[d] walks the successors of node_stack[d]; a target enters at depth len(frames).
    frames = [iter(source.successors(start))]
    while frames:
        for idx, target in frames[-1]:
            if target == goal:
                yield (*node_stack, goal), (*edge_stack, idx)
            elif target in on_path:
                continue
            elif len(frames) < last:
                node_stack.append(target)
                edge_stack.append(idx)
                on_path.add(target)
                frames.append(iter(source.successors(target)))
                break
            elif target in into_goal:
                for last_idx in into_goal[target]:
                    yield (*node_stack, target, goal), (*edge_stack, idx, last_idx)
        else:
            frames.pop()
            if frames:
                on_path.discard(node_stack.pop())
                edge_stack.pop()


def _collect_tier(
    source,
    tier: str,
    from_set: Iterable[str],
    to_set: Iterable[str],
    config: RetrievalConfig,
    segment_index: int,
) -> list[GraphPath]:
    froms = sorted(set(from_set))
    tos = sorted(set(to_set))
    seen: set[tuple[tuple[str, ...], tuple[int, ...]]] = set()
    paths: list[GraphPath] = []
    needs_reverse: list[tuple[str, str]] = []

    def emit(nodes: tuple[str, ...], edges: tuple[int, ...], is_reversed: bool) -> None:
        key = (nodes, edges)
        if key in seen:
            return
        seen.add(key)
        strengths = tuple(source.effective_strength(i) for i in edges)
        paths.append(
            GraphPath(
                nodes=nodes,
                edges=edges,
                strengths=strengths,
                tier=tier,
                segment_index=segment_index,
                reversed=is_reversed,
            )
        )

    for a in froms:
        for b in tos:
            if a == b:
                continue
            found_any = False
            for nodes, edges in _enumerate_simple_paths(source, a, b, config.max_hops, source.edges_into(b)):
                found_any = True
                emit(nodes, edges, False)
            if not found_any:
                needs_reverse.append((a, b))

    # Direction-flipped search only for pairs the forward pass left empty,
    # after all forward paths, so forward duplicates win the dedup.
    for a, b in needs_reverse:
        for nodes, edges in _enumerate_simple_paths(source, b, a, config.max_hops, source.edges_into(a)):
            emit(nodes, edges, True)

    return paths


def find_paths(
    causal_view,
    base,
    from_set: Iterable[str],
    to_set: Iterable[str],
    config: RetrievalConfig,
    segment_index: int = 0,
) -> list[GraphPath]:
    """Enumerate candidate paths between two entity sets, causal tier first.

    The base graph is searched only when the causal view produced zero paths
    across the whole pair set. Passing ``causal_view=None`` skips the causal
    tier entirely (correlation-based retrieval). Empty entity sets yield an
    empty result; unknown node ids raise.

    Completeness, which ``prune_and_select`` relies on: for every endpoint
    pair among the returned paths, every simple path of at most ``max_hops``
    edges between them in the returned tier's container is returned too.
    Each pair's forward listing is complete, a reversed listing is complete
    for the flipped pair, and deduplication drops only identical paths.
    """
    from_ids = sorted(set(from_set))
    to_ids = sorted(set(to_set))
    if not from_ids or not to_ids:
        return []
    for node_id in from_ids + to_ids:
        if not base.has_node(node_id):
            raise NotFoundError(f"unknown node id {node_id!r}")

    if causal_view is not None:
        causal = _collect_tier(causal_view, TIER_CAUSAL, from_ids, to_ids, config, segment_index)
        if causal:
            return causal
    return _collect_tier(base, TIER_FALLBACK, from_ids, to_ids, config, segment_index)


def prune_and_select(candidates: list[GraphPath], config: RetrievalConfig) -> list[GraphPath]:
    """Drop detour paths, then keep the top-k of the rest.

    A path is a detour when its length exceeds the shortest distance between
    its endpoints by more than ``distance_slack``. That distance is the
    length of the shortest candidate with the same endpoints: ``find_paths``
    lists every simple path of at most ``max_hops`` edges for each endpoint
    pair it returns, and a shortest path is always simple.
    """
    shortest: dict[tuple[str, str], int] = {}
    for path in candidates:
        shortest[path.endpoints] = min(path.length, shortest.get(path.endpoints, path.length))
    kept = [
        path
        for path in candidates
        if path.length <= shortest[path.endpoints] + config.distance_slack
    ]
    kept.sort(key=_selection_key)
    return kept[: config.k]


def _selection_key(path: GraphPath):
    return (-path.score, path.length, path.node_key(), path.reversed, path.edges)


@dataclass(frozen=True)
class SegmentRetrieval:
    """Outcome of retrieval for one consecutive segment pair."""

    segment_index: int
    source_text: str
    target_text: str
    source_entities: tuple[str, ...]
    target_entities: tuple[str, ...]
    tier: str | None
    candidate_count: int
    paths: tuple[GraphPath, ...]
    reason: str | None = None


def retrieve_for_cot(
    cot: ChainOfThought,
    linker,
    causal_view,
    base,
    config: RetrievalConfig,
) -> dict[int, SegmentRetrieval]:
    """Run entity linking plus path search for every consecutive segment pair.

    Pairs whose segments link to no entities, or whose entity sets connect to
    nothing within ``max_hops`` in either tier, contribute empty entries with
    a reason code; the chain as a whole never fails here.
    """
    pairs = segment_pairs(cot)
    linked = [tuple(sorted(linker.link(text))) for text in cot.segments] if pairs else []
    results: dict[int, SegmentRetrieval] = {}
    for index, (source_text, target_text) in enumerate(pairs):
        from_ids, to_ids = linked[index], linked[index + 1]
        tier, candidates, selected = None, [], []
        if not (from_ids and to_ids):
            reason = REASON_NO_ENTITIES
        else:
            candidates = find_paths(causal_view, base, from_ids, to_ids, config, segment_index=index)
            reason = None if candidates else REASON_NO_PATHS
        if candidates:
            tier = candidates[0].tier
            selected = prune_and_select(candidates, config)
        results[index] = SegmentRetrieval(
            segment_index=index,
            source_text=source_text,
            target_text=target_text,
            source_entities=from_ids,
            target_entities=to_ids,
            tier=tier,
            candidate_count=len(candidates),
            paths=tuple(selected),
            reason=reason,
        )
    return results
