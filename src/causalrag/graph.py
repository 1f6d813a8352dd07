"""In-memory knowledge graph built from predication triple files.

Concept nodes are keyed by CUI; edges carry a relation label and a numeric
strength in [0, 1]. Ingestion merges node surface forms across rows,
resolves missing strengths through a label-to-weight callable (normally the
causality table), and produces an immutable adjacency-indexed graph that is
safe for concurrent readers. Thresholded filtering lives in views built on
top of this store (see the causal module); the base graph never mutates
after construction.
"""

from __future__ import annotations

import io
import logging
import pickle
import struct
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from .errors import ArtifactError, IngestionError, NotFoundError, ValidationError

logger = logging.getLogger(__name__)

TRIPLE_HEADER = (
    "subject_cui",
    "subject_name",
    "subject_semtypes",
    "predicate",
    "object_cui",
    "object_name",
    "object_semtypes",
)
STRENGTH_COLUMN = "strength"

_ARTIFACT_MAGIC = b"CRAG"
_ARTIFACT_VERSION = 1

@dataclass(frozen=True)
class ConceptNode:
    """A concept identified by CUI, with its surface forms and type codes."""

    id: str
    name: str
    semantic_types: frozenset[str] = frozenset()
    aliases: frozenset[str] = frozenset()


@dataclass(frozen=True)
class KgEdge:
    """One directed predication: subject --predicate--> object."""

    subject: str
    predicate: str
    object: str
    strength: float

    @property
    def triple(self) -> tuple[str, str, str]:
        return (self.subject, self.predicate, self.object)


@dataclass(frozen=True)
class IngestStats:
    rows_total: int = 0
    malformed_rows: int = 0
    duplicate_triples: int = 0


class KnowledgeGraph:
    """Immutable directed labeled multigraph with per-node adjacency indexes.

    Edges keep their ingestion order, which downstream code relies on for
    reproducible tie-breaking. Parallel edges between the same node pair are
    allowed as long as their predicates differ.
    """

    def __init__(
        self,
        nodes: Iterable[ConceptNode],
        edges: Iterable[KgEdge],
        stats: IngestStats | None = None,
    ):
        self._nodes: dict[str, ConceptNode] = {}
        for node in nodes:
            if not node.id:
                raise ValidationError("node id must be non-empty")
            if not node.name:
                raise ValidationError(f"node {node.id!r} has an empty name")
            if node.id in self._nodes:
                raise ValidationError(f"duplicate node id {node.id!r}")
            self._nodes[node.id] = node

        self._edges: tuple[KgEdge, ...] = tuple(edges)
        self._forward: dict[str, list[int]] = {nid: [] for nid in self._nodes}
        self._reverse: dict[str, list[int]] = {nid: [] for nid in self._nodes}
        self._by_triple: dict[tuple[str, str, str], int] = {}
        for idx, edge in enumerate(self._edges):
            if edge.subject not in self._nodes:
                raise ValidationError(f"edge {edge.triple} references unknown subject")
            if edge.object not in self._nodes:
                raise ValidationError(f"edge {edge.triple} references unknown object")
            if not 0.0 <= edge.strength <= 1.0:
                raise ValidationError(
                    f"edge {edge.triple} strength {edge.strength} outside [0, 1]"
                )
            if edge.triple in self._by_triple:
                raise ValidationError(f"duplicate triple {edge.triple}")
            self._by_triple[edge.triple] = idx
            self._forward[edge.subject].append(idx)
            self._reverse[edge.object].append(idx)

        self.stats = stats or IngestStats()
        # Search memos, filled per node on first read (see ``successors``).
        self._successors: dict[str, tuple[tuple[int, str], ...]] = {}
        self._edges_into: dict[str, dict[str, tuple[int, ...]]] = {}

    # -- lookups -------------------------------------------------------------

    def has_node(self, node_id: str) -> bool:
        return node_id in self._nodes

    def node(self, node_id: str) -> ConceptNode:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise NotFoundError(f"unknown node id {node_id!r}") from None

    def nodes(self) -> Iterator[ConceptNode]:
        return iter(self._nodes.values())

    def node_ids(self) -> tuple[str, ...]:
        return tuple(self._nodes)

    @property
    def edges(self) -> tuple[KgEdge, ...]:
        return self._edges

    def edge(self, index: int) -> KgEdge:
        return self._edges[index]

    def edge_index(self, subject: str, predicate: str, object_: str) -> int:
        try:
            return self._by_triple[(subject, predicate, object_)]
        except KeyError:
            raise NotFoundError(
                f"triple ({subject!r}, {predicate!r}, {object_!r}) not in graph"
            ) from None

    @property
    def node_count(self) -> int:
        return len(self._nodes)

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    def effective_strength(self, index: int) -> float:
        return self._edges[index].strength

    def predicate_counts(self) -> Counter[str]:
        return Counter(edge.predicate for edge in self._edges)

    # -- traversal -----------------------------------------------------------

    def out_edges(self, node_id: str) -> tuple[int, ...]:
        if node_id not in self._nodes:
            raise NotFoundError(f"unknown node id {node_id!r}")
        return tuple(self._forward[node_id])

    def in_edges(self, node_id: str) -> tuple[int, ...]:
        if node_id not in self._nodes:
            raise NotFoundError(f"unknown node id {node_id!r}")
        return tuple(self._reverse[node_id])

    # The path search's two reads. Each entry is built on the node's first
    # read and kept: it is a pure function of the immutable graph, so two
    # threads filling the same entry store equal values and the race is benign.

    def successors(self, node_id: str) -> tuple[tuple[int, str], ...]:
        """``(edge index, object)`` for each out-edge, ascending edge index."""
        try:
            return self._successors[node_id]
        except KeyError:
            pass
        pairs = tuple((idx, self._edges[idx].object) for idx in self.out_edges(node_id))
        self._successors[node_id] = pairs
        return pairs

    def edges_into(self, goal: str) -> dict[str, tuple[int, ...]]:
        """Each node with an edge into ``goal`` -> those edges, ascending index.

        The returned mapping is the memo entry itself; callers must not change it.
        """
        try:
            return self._edges_into[goal]
        except KeyError:
            pass
        grouped: dict[str, list[int]] = {}
        for idx in self.in_edges(goal):
            grouped.setdefault(self._edges[idx].subject, []).append(idx)
        into = {subject: tuple(idxs) for subject, idxs in grouped.items()}
        self._edges_into[goal] = into
        return into


def shortest_path_length(source, start: str, goal: str, max_hops: int) -> int | None:
    """Directed BFS hop count from ``start`` to ``goal``, or None beyond ``max_hops``.

    ``source`` is anything exposing ``has_node``, ``out_edges`` and ``edge``
    (the base graph or a causal view).
    """
    if max_hops < 1:
        raise ValidationError(f"max_hops must be >= 1, got {max_hops}")
    for node_id in (start, goal):
        if not source.has_node(node_id):
            raise NotFoundError(f"unknown node id {node_id!r}")
    if start == goal:
        return 0
    seen = {start}
    frontier = [start]
    for depth in range(1, max_hops + 1):
        next_frontier: list[str] = []
        for node_id in frontier:
            for idx in source.out_edges(node_id):
                target = source.edge(idx).object
                if target == goal:
                    return depth
                if target not in seen:
                    seen.add(target)
                    next_frontier.append(target)
        if not next_frontier:
            return None
        frontier = next_frontier
    return None


# -- ingestion ----------------------------------------------------------------


def ingest_triples(
    lines: Iterable[str],
    strength_for_predicate: Callable[[str], float] | None = None,
) -> KnowledgeGraph:
    """Build a graph from TSV predication rows.

    Expected columns: subject_cui, subject_name, subject_semtypes (comma
    separated), predicate, object_cui, object_name, object_semtypes, plus an
    optional trailing strength in [0, 1]. A header row is required; lines
    starting with '#' and blank lines are skipped. Rows missing required
    fields are counted as malformed and dropped; duplicated triples collapse
    to one edge keeping the maximum strength. Rows without an explicit
    strength fall back to ``strength_for_predicate`` (the default causality
    table when not supplied).
    """
    if strength_for_predicate is None:
        from .causal import default_causality_table

        strength_for_predicate = default_causality_table().weight

    node_names: dict[str, str] = {}
    node_semtypes: dict[str, set[str]] = {}
    node_aliases: dict[str, set[str]] = {}
    edge_strengths: dict[tuple[str, str, str], float] = {}

    def note_node(cui: str, name: str, semtypes: str) -> None:
        surface = name.strip()
        types = {t.strip() for t in semtypes.split(",") if t.strip()}
        if cui not in node_names:
            node_names[cui] = surface or cui
            node_semtypes[cui] = set()
            node_aliases[cui] = set()
        elif surface and surface != node_names[cui]:
            node_aliases[cui].add(surface)
        node_semtypes[cui] |= types

    header_seen = False
    rows_total = 0
    malformed = 0
    duplicates = 0

    for line_no, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n").rstrip("\r")
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if not header_seen:
            header = tuple(col.strip().lower() for col in line.split("\t"))
            if header[: len(TRIPLE_HEADER)] != TRIPLE_HEADER or (
                len(header) > len(TRIPLE_HEADER)
                and header[len(TRIPLE_HEADER) :] != (STRENGTH_COLUMN,)
            ):
                raise IngestionError(
                    f"line {line_no}: missing or invalid header row (expected "
                    f"{', '.join(TRIPLE_HEADER)}[, {STRENGTH_COLUMN}])"
                )
            header_seen = True
            continue

        rows_total += 1
        fields = [f.strip() for f in line.split("\t")]
        if len(fields) not in (7, 8):
            malformed += 1
            continue
        subj_cui, subj_name, subj_types, predicate, obj_cui, obj_name, obj_types = fields[:7]
        if not subj_cui or not predicate or not obj_cui:
            malformed += 1
            continue

        if len(fields) == 8 and fields[7]:
            try:
                strength = float(fields[7])
            except ValueError:
                malformed += 1
                continue
            if not 0.0 <= strength <= 1.0:
                malformed += 1
                continue
        else:
            strength = strength_for_predicate(predicate)

        note_node(subj_cui, subj_name, subj_types)
        note_node(obj_cui, obj_name, obj_types)

        triple = (subj_cui, predicate, obj_cui)
        if triple in edge_strengths:
            duplicates += 1
            edge_strengths[triple] = max(edge_strengths[triple], strength)
        else:
            edge_strengths[triple] = strength

    if not header_seen:
        raise IngestionError("empty triple stream")
    if rows_total == 0:
        raise IngestionError("triple stream contained a header but no data rows")
    if not edge_strengths:
        raise IngestionError(f"all {rows_total} data rows were malformed")
    if malformed:
        logger.warning("skipped %d malformed triple rows", malformed)
    if duplicates:
        logger.warning(
            "collapsed %d duplicate triple rows, keeping each triple's max strength", duplicates
        )

    nodes = [
        ConceptNode(
            id=cui,
            name=node_names[cui],
            semantic_types=frozenset(node_semtypes[cui]),
            aliases=frozenset(node_aliases[cui]),
        )
        for cui in node_names
    ]
    edges = [
        KgEdge(subject=s, predicate=p, object=o, strength=strength)
        for (s, p, o), strength in edge_strengths.items()
    ]
    stats = IngestStats(
        rows_total=rows_total,
        malformed_rows=malformed,
        duplicate_triples=duplicates,
    )
    return KnowledgeGraph(nodes, edges, stats=stats)


def load_triples(path, strength_for_predicate: Callable[[str], float] | None = None) -> KnowledgeGraph:
    with open(path, encoding="utf-8") as fh:
        return ingest_triples(fh, strength_for_predicate)


# -- artifact serialization ----------------------------------------------------


def save_graph(graph: KnowledgeGraph, path) -> None:
    """Write the graph as a versioned binary artifact."""
    payload = {
        "nodes": [
            (n.id, n.name, sorted(n.semantic_types), sorted(n.aliases))
            for n in graph.nodes()
        ],
        "edges": [(e.subject, e.predicate, e.object, e.strength) for e in graph.edges],
        "stats": (
            graph.stats.rows_total,
            graph.stats.malformed_rows,
            graph.stats.duplicate_triples,
        ),
    }
    blob = _ARTIFACT_MAGIC + struct.pack(">H", _ARTIFACT_VERSION) + pickle.dumps(payload, protocol=4)
    with open(path, "wb") as fh:
        fh.write(blob)


def load_graph(path) -> KnowledgeGraph:
    """Load a graph artifact, refusing unknown formats and versions.

    The payload is decoded as plain data only, so an artifact cannot run
    code; a truncated or corrupt one raises ``ArtifactError``.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 6 or blob[:4] != _ARTIFACT_MAGIC:
        raise ArtifactError(f"{path}: not a causalrag graph artifact")
    (version,) = struct.unpack(">H", blob[4:6])
    if version != _ARTIFACT_VERSION:
        raise ArtifactError(
            f"{path}: artifact version {version} unsupported (expected {_ARTIFACT_VERSION})"
        )
    try:
        payload = _PlainDataUnpickler(io.BytesIO(blob[6:])).load()
        nodes = [
            ConceptNode(id=nid, name=name, semantic_types=frozenset(types), aliases=frozenset(aliases))
            for nid, name, types, aliases in payload["nodes"]
        ]
        edges = [
            KgEdge(subject=s, predicate=p, object=o, strength=strength)
            for s, p, o, strength in payload["edges"]
        ]
        return KnowledgeGraph(nodes, edges, stats=IngestStats(*payload["stats"]))
    except _PAYLOAD_ERRORS as exc:
        raise ArtifactError(f"{path}: corrupt graph artifact ({exc})") from exc


class _PlainDataUnpickler(pickle.Unpickler):
    """Decodes only plain data (dicts, lists, tuples, strings, numbers, None).

    Every class or callable reference is refused before it is imported, so
    loading an artifact can never run code named in it.
    """

    def find_class(self, module: str, name: str):
        raise ArtifactError(f"payload references {module}.{name}")


# What a corrupt payload raises, from decoding it or from building the graph.
_PAYLOAD_ERRORS = (
    ArtifactError,
    ValidationError,
    pickle.UnpicklingError,
    EOFError,
    UnicodeDecodeError,
    ValueError,
    OverflowError,
    TypeError,
    KeyError,
    AttributeError,
)
