"""Path fusion, combined scoring, and the second-stage enhancement prompt.

Segment-level paths are pooled globally, merged when they share start node,
end node, and intermediate node set, and ranked by a weighted combination of
query-CUI overlap, semantic-type overlap, and a length heuristic. The top
fraction survives as final evidence and is rendered into a prompt asking the
model to cross-check its earlier chain of thought.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterable, Iterator, Sequence

from .cot import ChainOfThought, QAItem, render_cot
from .errors import ValidationError
from .graph import KnowledgeGraph
from .retrieval import GraphPath, _selection_key
from .templates import NO_EVIDENCE_MARKER, fill_template

logger = logging.getLogger(__name__)

_WEIGHT_SUM_TOLERANCE = 1e-9


@dataclass(frozen=True)
class EnhancerConfig:
    """Score weights (must sum to 1) and the kept fraction of fused paths."""

    alpha: float = 0.4
    beta: float = 0.3
    gamma: float = 0.3
    keep_ratio: float = 0.4

    def __post_init__(self):
        # written as not (in range) so that NaN fails every check
        for name, value in (("alpha", self.alpha), ("beta", self.beta), ("gamma", self.gamma)):
            if not value >= 0:
                raise ValidationError(f"{name} must be >= 0, got {value}")
        total = self.alpha + self.beta + self.gamma
        if not abs(total - 1.0) <= _WEIGHT_SUM_TOLERANCE:
            raise ValidationError(
                f"alpha + beta + gamma must equal 1, got {total}"
            )
        if not 0.0 < self.keep_ratio <= 1.0:
            raise ValidationError(f"keep_ratio must be in (0, 1], got {self.keep_ratio}")


@dataclass(frozen=True)
class FusedPath:
    """A merged-path representative and how many candidates it absorbed."""

    path: GraphPath
    merge_count: int


@dataclass(frozen=True)
class ScoredPath:
    """A fused path with its component scores and combined total."""

    path: GraphPath
    cui_overlap: float
    semantic_overlap: float
    length_score: float
    total_score: float
    merge_count: int


def _merge_key(path: GraphPath) -> tuple[str, str, frozenset[str]]:
    return (path.nodes[0], path.nodes[-1], frozenset(path.nodes[1:-1]))


def fuse_paths(pools: Iterable[Sequence[GraphPath]]) -> list[FusedPath]:
    """Union segment pools and merge paths sharing (start, end, intermediates).

    Each group keeps its best member (highest score, then shortest, then
    canonical node string) untouched; only duplicates by key are dropped.
    Group order follows first appearance in the flattened input.
    """
    groups: dict[tuple[str, str, frozenset[str]], list[GraphPath]] = {}
    for pool in pools:
        for path in pool:
            groups.setdefault(_merge_key(path), []).append(path)
    # Nearly every group has one member, which needs no ranking key.
    return [
        FusedPath(path=members[0] if len(members) == 1 else min(members, key=_selection_key), merge_count=len(members))
        for members in groups.values()
    ]


def _share(query: set[str], found: Iterable[str]) -> float:
    """Fraction of the non-empty ``query`` that is among ``found``."""
    return len(query.intersection(found)) / len(query)


def _query_set(query_cuis: Iterable[str]) -> set[str]:
    query = set(query_cuis)
    if not query:
        raise ValidationError("query CUI set must be non-empty")
    return query


def _semantic_types(node_ids: Iterable[str], types_of: Callable[[str], frozenset[str]]) -> Iterator[str]:
    """Each type code of each of ``node_ids``, repeats included."""
    return chain.from_iterable(map(types_of, node_ids))


def cui_overlap(query_cuis: Iterable[str], path: GraphPath) -> float:
    """Fraction of query CUIs that appear among the path's nodes."""
    return _share(_query_set(query_cuis), path.nodes)


def semantic_overlap(
    query_semtypes: Iterable[str], path: GraphPath, graph: KnowledgeGraph
) -> float:
    """Fraction of query semantic types covered by the path's node types.

    An empty query type set is tolerated (returns 0 with a warning) since
    sparse graphs may carry no type codes at all.
    """
    query = set(query_semtypes)
    if not query:
        logger.warning("semantic overlap requested with empty query type set; returning 0")
        return 0.0
    return _share(query, _semantic_types(path.nodes, lambda node_id: graph.node(node_id).semantic_types))


def length_score(path: GraphPath) -> float:
    """Length heuristic 1 / (1 + L); shorter paths score higher."""
    return 1.0 / (1.0 + path.length)


def total_score(
    cui: float, semantic: float, length: float, config: EnhancerConfig
) -> float:
    """Weighted combination of the three component scores."""
    for name, value in (("cui", cui), ("semantic", semantic), ("length", length)):
        if not 0.0 <= value <= 1.0:
            raise ValidationError(f"{name} component {value} outside [0, 1]")
    return config.alpha * cui + config.beta * semantic + config.gamma * length


def score_paths(
    fused: Iterable[FusedPath],
    query_cuis: Iterable[str],
    graph: KnowledgeGraph,
    config: EnhancerConfig,
) -> list[ScoredPath]:
    """Attach component and combined scores to every fused path. The query's
    semantic types are its CUIs'; with none, every semantic score is 0.

    The query's sets are built once, and each distinct node's types are read
    once, for all the paths.
    """
    cuis = _query_set(query_cuis)
    fused = list(fused)
    nodes = cuis.union(*(item.path.nodes for item in fused))
    types_of = {node_id: graph.node(node_id).semantic_types for node_id in nodes}.__getitem__
    semtypes = set(_semantic_types(cuis, types_of))
    scored = []
    for item in fused:
        path = item.path
        cui = _share(cuis, path.nodes)
        semantic = _share(semtypes, _semantic_types(path.nodes, types_of)) if semtypes else 0.0
        length = length_score(path)
        scored.append(
            ScoredPath(
                path=path,
                cui_overlap=cui,
                semantic_overlap=semantic,
                length_score=length,
                total_score=total_score(cui, semantic, length, config),
                merge_count=item.merge_count,
            )
        )
    return scored


def _final_key(item: ScoredPath):
    return (-item.total_score, *_selection_key(item.path))


def select_final(scored: Sequence[ScoredPath], keep_ratio: float) -> list[ScoredPath]:
    """Keep the top ceil(keep_ratio * n) paths, never fewer than one when any exist."""
    if not 0.0 < keep_ratio <= 1.0:
        raise ValidationError(f"keep_ratio must be in (0, 1], got {keep_ratio}")
    if not scored:
        return []
    ordered = sorted(scored, key=_final_key)
    keep = max(1, math.ceil(keep_ratio * len(ordered)))
    return ordered[:keep]


def render_path(path: GraphPath, graph: KnowledgeGraph) -> str:
    """One-line rendering: NAME --[PREDICATE (strength)]--> NAME ...

    Each hop's predicate is read from the graph's predicate column, and the
    node it reaches is the path's next node.
    """
    predicates, predicate_names, node = graph.columns.predicates, graph.predicate_names, graph.node
    parts = [node(path.nodes[0]).name]
    for edge_idx, strength, target in zip(path.edges, path.strengths, path.nodes[1:]):
        parts.append(f" --[{predicate_names[predicates[edge_idx]]} ({strength:.2f})]--> {node(target).name}")
    return "".join(parts)


def render_paths_block(paths: Iterable[GraphPath], graph: KnowledgeGraph) -> str:
    lines = [render_path(path, graph) for path in paths]
    return "\n".join(lines) if lines else NO_EVIDENCE_MARKER


def build_enhancement_prompt(
    final: Sequence[ScoredPath],
    cot: ChainOfThought,
    item: QAItem,
    graph: KnowledgeGraph,
    template: str,
) -> str:
    """Fill the consistency-check template with CoT and rendered evidence paths."""
    return fill_template(
        template,
        question=item.question.strip(),
        options=item.options_block,
        cot=render_cot(cot),
        paths=render_paths_block([scored.path for scored in final], graph),
    )
