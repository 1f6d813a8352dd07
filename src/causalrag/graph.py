"""In-memory knowledge graph built from predication triple files.

Concept nodes are keyed by CUI; edges carry a relation label and a numeric
strength in [0, 1]. Ingestion merges node surface forms across rows,
resolves missing strengths through a label-to-weight callable (normally the
causality table), and produces an immutable graph, stored by column, that
is safe for concurrent readers. Thresholded filtering lives in views built on
top of this store (see the causal module); the base graph never mutates
after construction.
"""

from __future__ import annotations

import functools
import io
import logging
import pickle
import struct
from array import array
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .errors import ArtifactError, IngestionError, NotFoundError, ValidationError, naming_undecodable

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

@dataclass(frozen=True, slots=True)
class ConceptNode:
    """A concept identified by CUI, with its surface forms and type codes."""

    id: str
    name: str
    semantic_types: frozenset[str] = frozenset()
    aliases: frozenset[str] = frozenset()


@dataclass(frozen=True, slots=True)
class KgEdge:
    """One directed predication: subject --predicate--> object."""

    subject: str
    predicate: str
    object: str
    strength: float


@dataclass(frozen=True)
class IngestStats:
    rows_total: int = 0
    malformed_rows: int = 0
    duplicate_triples: int = 0


class EdgeColumns(NamedTuple):
    """The graph's edges by column, read-only.

    Edge ``i`` is ``subjects[i] --predicates[i]--> objects[i]`` at
    ``strengths[i]``. Node ints index ``KnowledgeGraph.node_ids()`` and
    predicate ints index ``KnowledgeGraph.predicate_names``.
    """

    subjects: memoryview
    predicates: memoryview
    objects: memoryview
    strengths: memoryview


class KnowledgeGraph:
    """Immutable directed labeled multigraph, stored by column.

    Node ids and predicates are interned to ints; each edge is one slot in
    the subject, predicate, object and strength columns (see
    ``EdgeColumns``), and ``KgEdge`` objects are built only on demand by
    ``edge``. Forward and reverse adjacency are CSR arrays: a node's edges
    sit between two offsets, in ascending edge-index order. Edges keep
    their ingestion order, which downstream code relies on for reproducible
    tie-breaking. Parallel edges between the same node pair are allowed as
    long as their predicates differ.
    """

    def __init__(
        self,
        nodes: Iterable[ConceptNode],
        edges: Iterable[KgEdge],
        stats: IngestStats | None = None,
    ):
        edges = tuple(edges)
        self._build(
            nodes,
            [e.subject for e in edges],
            [e.predicate for e in edges],
            [e.object for e in edges],
            [e.strength for e in edges],
            stats,
        )

    @classmethod
    def _from_columns(cls, nodes, subjects, predicates, objects, strengths, stats) -> KnowledgeGraph:
        """The graph of edge ``i`` = ``(subjects[i], predicates[i], objects[i], strengths[i])``."""
        graph = cls.__new__(cls)
        graph._build(nodes, subjects, predicates, objects, strengths, stats)
        return graph

    def _build(
        self,
        nodes: Iterable[ConceptNode],
        subjects: Sequence[str],
        predicates: Sequence[str],
        objects: Sequence[str],
        strengths: Sequence[float],
        stats: IngestStats | None,
    ) -> None:
        """The one constructor body: checks every node and edge, interns, lays out the columns."""
        by_id: dict[str, ConceptNode] = {}
        for node in nodes:
            if not node.id:
                raise ValidationError("node id must be non-empty")
            if not node.name:
                raise ValidationError(f"node {node.id!r} has an empty name")
            if node.id in by_id:
                raise ValidationError(f"duplicate node id {node.id!r}")
            by_id[node.id] = node
        self._nodes: tuple[ConceptNode, ...] = tuple(by_id.values())
        self._ids: tuple[str, ...] = tuple(by_id)
        self._index = index = {node_id: position for position, node_id in enumerate(self._ids)}

        n = len(self._ids)
        self._predicate_index: dict[str, int] = {}
        subject_ints, predicate_ints, object_ints = array("i"), array("i"), array("i")
        seen: set[int] = set()
        for s, p, o, strength in zip(subjects, predicates, objects, strengths):
            si = index.get(s)
            if si is None:
                raise ValidationError(f"edge {(s, p, o)} references unknown subject")
            oi = index.get(o)
            if oi is None:
                raise ValidationError(f"edge {(s, p, o)} references unknown object")
            if not 0.0 <= strength <= 1.0:
                raise ValidationError(f"edge {(s, p, o)} strength {strength} outside [0, 1]")
            pi = self._predicate_index.setdefault(p, len(self._predicate_index))
            key = _triple_key(si, pi, oi, n)
            if key in seen:
                raise ValidationError(f"duplicate triple {(s, p, o)}")
            seen.add(key)
            subject_ints.append(si)
            predicate_ints.append(pi)
            object_ints.append(oi)
        self._subjects, self._predicates, self._objects = subject_ints, predicate_ints, object_ints
        self._strengths = array("d", strengths)
        self.predicate_names: tuple[str, ...] = tuple(self._predicate_index)
        self.columns = EdgeColumns(
            *(memoryview(c).toreadonly() for c in (subject_ints, predicate_ints, object_ints, self._strengths))
        )
        self._out_offsets, self._out = _csr(subject_ints, n)
        self._in_offsets, self._in = _csr(object_ints, n)

        self.stats = stats or IngestStats()
        # Filled on first read, like the search memos below (see ``edge_index``).
        self._by_key: dict[int, int] | None = None
        # Search memos, filled per node on first read (see ``successors``).
        self._successors: dict[str, tuple[tuple[int, str], ...]] = {}
        self._edges_into: dict[str, dict[str, tuple[int, ...]]] = {}

    # -- lookups -------------------------------------------------------------

    def _position(self, node_id: str) -> int:
        try:
            return self._index[node_id]
        except KeyError:
            raise NotFoundError(f"unknown node id {node_id!r}") from None

    def has_node(self, node_id: str) -> bool:
        return node_id in self._index

    def node(self, node_id: str) -> ConceptNode:
        return self._nodes[self._position(node_id)]

    def nodes(self) -> Iterator[ConceptNode]:
        return iter(self._nodes)

    def node_ids(self) -> tuple[str, ...]:
        return self._ids

    @property
    def edges(self) -> tuple[KgEdge, ...]:
        """Every edge, built afresh on each read: for tests and small graphs."""
        return tuple(map(self.edge, range(self.edge_count)))

    def edge(self, index: int) -> KgEdge:
        ids = self._ids
        return KgEdge(
            subject=ids[self._subjects[index]],
            predicate=self.predicate_names[self._predicates[index]],
            object=ids[self._objects[index]],
            strength=self._strengths[index],
        )

    def edge_index(self, subject: str, predicate: str, object_: str) -> int:
        by_key = self._by_key
        if by_key is None:
            # A pure function of the immutable graph, so two threads racing
            # to fill it build equal maps and either may win.
            n = len(self._ids)
            by_key = self._by_key = {
                _triple_key(s, p, o, n): idx
                for idx, (s, p, o) in enumerate(zip(self._subjects, self._predicates, self._objects))
            }
        s, p, o = self._index.get(subject), self._predicate_index.get(predicate), self._index.get(object_)
        idx = None if None in (s, p, o) else by_key.get(_triple_key(s, p, o, len(self._ids)))
        if idx is None:
            raise NotFoundError(f"triple ({subject!r}, {predicate!r}, {object_!r}) not in graph")
        return idx

    @property
    def node_count(self) -> int:
        return len(self._ids)

    @property
    def edge_count(self) -> int:
        return len(self._strengths)

    def effective_strength(self, index: int) -> float:
        return self._strengths[index]

    def predicate_counts(self) -> Counter[str]:
        names = self.predicate_names
        return Counter({names[p]: count for p, count in Counter(self._predicates).items()})

    # -- traversal -----------------------------------------------------------

    def out_edges(self, node_id: str) -> tuple[int, ...]:
        i = self._position(node_id)
        return tuple(self._out[self._out_offsets[i] : self._out_offsets[i + 1]])

    def in_edges(self, node_id: str) -> tuple[int, ...]:
        i = self._position(node_id)
        return tuple(self._in[self._in_offsets[i] : self._in_offsets[i + 1]])

    # The path search's two reads. Each entry is built on the node's first
    # read and kept: it is a pure function of the immutable graph, so two
    # threads filling the same entry store equal values and the race is benign.

    def successors(self, node_id: str) -> tuple[tuple[int, str], ...]:
        """``(edge index, object)`` for each out-edge, ascending edge index."""
        try:
            return self._successors[node_id]
        except KeyError:
            pass
        ids, objects = self._ids, self._objects
        pairs = tuple((idx, ids[objects[idx]]) for idx in self.out_edges(node_id))
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
        ids, subjects = self._ids, self._subjects
        grouped: dict[str, list[int]] = {}
        for idx in self.in_edges(goal):
            grouped.setdefault(ids[subjects[idx]], []).append(idx)
        into = {subject: tuple(idxs) for subject, idxs in grouped.items()}
        self._edges_into[goal] = into
        return into


def _triple_key(subject: int, predicate: int, object_: int, node_count: int) -> int:
    """One int per interned triple, distinct for distinct triples."""
    return (predicate * node_count + subject) * node_count + object_


def _csr(keys: array, size: int) -> tuple[array, array]:
    """Offsets and edge indices grouping the edges by ``keys`` (ints below ``size``).

    Group ``k`` is ``edges[offsets[k]:offsets[k + 1]]``. The edges are placed
    by a counting sort, which is stable, so each group lists its edges in
    ascending edge index.
    """
    counts = [0] * (size + 1)
    for key in keys:
        counts[key + 1] += 1
    offsets = array("i", accumulate(counts))
    edges = [0] * len(keys)
    free = offsets.tolist()
    for idx, key in enumerate(keys):
        edges[free[key]] = idx
        free[key] += 1
    return offsets, array("i", edges)


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

    # Per node: its name, each distinct semantic-types field and its aliases.
    # Fields are parsed once per node at the end, not once per row.
    node_names: dict[str, str] = {}
    node_fields: dict[str, set[str]] = {}
    node_aliases: dict[str, set[str]] = {}
    edge_strengths: dict[tuple[str, str, str], float] = {}

    def note_node(cui: str, name: str, semtypes: str) -> None:
        known = node_names.get(cui)
        if known is None:
            node_names[cui] = name or cui
            node_fields[cui] = {semtypes}
            return
        if name and name != known:
            node_aliases.setdefault(cui, set()).add(name)
        node_fields[cui].add(semtypes)

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
        fields = list(map(str.strip, line.split("\t")))
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

    share = _frozenset_pool()
    parse = functools.cache(lambda field: frozenset(t.strip() for t in field.split(",") if t.strip()))
    nodes = [
        ConceptNode(
            id=cui,
            name=name,
            semantic_types=share(frozenset().union(*map(parse, node_fields[cui]))),
            aliases=share(node_aliases.get(cui, ())),
        )
        for cui, name in node_names.items()
    ]
    subjects, predicates, objects = zip(*edge_strengths)
    stats = IngestStats(
        rows_total=rows_total,
        malformed_rows=malformed,
        duplicate_triples=duplicates,
    )
    return KnowledgeGraph._from_columns(
        nodes, subjects, predicates, objects, list(edge_strengths.values()), stats
    )


def _frozenset_pool() -> Callable[[Iterable[str]], frozenset[str]]:
    """``share(items)``: the frozenset of ``items``, one object per distinct set."""
    pool: dict[frozenset[str], frozenset[str]] = {}

    def share(items: Iterable[str]) -> frozenset[str]:
        key = frozenset(items)
        return pool.setdefault(key, key)

    return share


def load_triples(path, strength_for_predicate: Callable[[str], float] | None = None) -> KnowledgeGraph:
    with naming_undecodable(path), open(path, encoding="utf-8") as fh:
        return ingest_triples(fh, strength_for_predicate)


# -- artifact serialization ----------------------------------------------------


def save_graph(graph: KnowledgeGraph, path) -> None:
    """Write the graph as a versioned binary artifact."""
    ids, names = graph.node_ids(), graph.predicate_names
    payload = {
        "nodes": [
            (n.id, n.name, sorted(n.semantic_types), sorted(n.aliases))
            for n in graph.nodes()
        ],
        "edges": [(ids[s], names[p], ids[o], strength) for s, p, o, strength in zip(*graph.columns)],
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
        node_ids, names, types, aliases = _columns(payload["nodes"], ({str}, {str}, None, None))
        edges = _columns(payload["edges"], ({str}, {str}, {str}, {float, int}))
        share = _frozenset_pool()
        nodes = [
            ConceptNode(id=nid, name=name, semantic_types=share(node_types), aliases=share(node_aliases))
            for nid, name, node_types, node_aliases in zip(node_ids, names, types, aliases)
        ]
        return KnowledgeGraph._from_columns(nodes, *edges, IngestStats(*payload["stats"]))
    except _PAYLOAD_ERRORS as exc:
        raise ArtifactError(f"{path}: corrupt graph artifact ({exc})") from exc


def _columns(rows: list, kinds: tuple[set[type] | None, ...]) -> tuple[tuple, ...]:
    """Payload rows as columns. Each row must be a tuple of ``len(kinds)``
    fields, each field of a type its column's set allows (``None``: any)."""
    if set(map(type, rows)) - {tuple} or set(map(len, rows)) - {len(kinds)}:
        raise ArtifactError(f"payload rows must be tuples of {len(kinds)} fields")
    columns = tuple(zip(*rows)) if rows else ((),) * len(kinds)
    for position, (column, allowed) in enumerate(zip(columns, kinds)):
        if allowed is not None and set(map(type, column)) - allowed:
            names = " or ".join(sorted(kind.__name__ for kind in allowed))
            raise ArtifactError(f"payload field {position} must be {names}")
    return columns


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
