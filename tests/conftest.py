from __future__ import annotations

from pathlib import Path

import pytest

from causalrag.causal import build_causal_view, default_causality_table
from causalrag.graph import KgEdge, KnowledgeGraph

from .oracles import ConceptNode, graph_from_edges

FIXTURES = Path(__file__).parent / "fixtures"


def make_graph(edge_specs, node_types=None, aliases=None) -> KnowledgeGraph:
    """Build a small graph from (subject, predicate, object, strength) tuples.

    Nodes are created on demand with their id as name unless ``node_types``
    or ``aliases`` add detail.
    """
    node_types = node_types or {}
    aliases = aliases or {}
    node_ids: dict[str, None] = {}
    for subject, _, object_, _ in edge_specs:
        node_ids.setdefault(subject)
        node_ids.setdefault(object_)
    nodes = [
        ConceptNode(
            id=node_id,
            name=node_id,
            semantic_types=frozenset(node_types.get(node_id, ())),
            aliases=frozenset(aliases.get(node_id, ())),
        )
        for node_id in node_ids
    ]
    edges = [
        KgEdge(subject=s, predicate=p, object=o, strength=w) for s, p, o, w in edge_specs
    ]
    return graph_from_edges(nodes, edges)


class RecordingLinker:
    """Delegates to a real linker and records every text it is asked to link."""

    def __init__(self, index):
        self.index = index
        self.texts: list[str] = []

    def link(self, text: str) -> frozenset[str]:
        self.texts.append(text)
        return self.index.link(text)


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture
def chain_graph() -> KnowledgeGraph:
    """A -> B -> C causal chain with a weak direct A -> C shortcut."""
    return make_graph(
        [
            ("A", "CAUSES", "B", 0.9),
            ("B", "CAUSES", "C", 0.8),
            ("A", "ASSOCIATED_WITH", "C", 0.1),
        ]
    )


@pytest.fixture
def chain_view(chain_graph):
    return build_causal_view(chain_graph, default_causality_table(), 0.5)
