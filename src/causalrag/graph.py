"""In-memory knowledge graph built from predication triple files.

Concept nodes are keyed by CUI; edges carry a relation label and a numeric
strength in [0, 1]. Ingestion merges node surface forms across rows,
resolves missing strengths through a label-to-weight callable (normally the
causality table), and produces an immutable graph, stored by column, that
is safe for concurrent readers. Thresholded filtering lives in views built on
top of this store (see the causal module); the base graph never mutates
after construction. Every graph, ingested or loaded from an artifact, is
built by the one constructor, from int columns, and passes the same checks.
"""

from __future__ import annotations

import contextlib
import functools
import logging
import math
import os
import struct
import sys
import threading
import zlib
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
_ARTIFACT_VERSION = 2
_VERSION = struct.Struct(">H")
# Node, predicate, set, set-member and edge counts; rows, malformed rows and
# duplicate rows of the ingest; CRC32 of the body.
_HEADER = struct.Struct("<5I3QI")

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

    Node ids and predicates are interned to ints before construction; each
    edge is one slot in the subject, predicate, object and strength columns
    (see ``EdgeColumns``), and ``KgEdge`` objects are built only on demand
    by ``edge``. Forward and reverse adjacency are CSR arrays: a node's edges
    sit between two offsets, in ascending edge-index order. Edges keep
    their ingestion order, which downstream code relies on for reproducible
    tie-breaking. Parallel edges between the same node pair are allowed as
    long as their predicates differ.
    """

    def __init__(self, nodes, predicate_names, subjects, predicates, objects, strengths, stats: IngestStats):
        """The graph of edge ``i`` = ``subjects[i] --predicates[i]--> objects[i]``
        at ``strengths[i]``: ``array('i')`` columns of ints indexing ``nodes``
        and ``predicate_names``, and an ``array('d')`` of strengths. Checks
        every invariant, then lays out the CSR.

        Each invariant is tested over a whole column; only when one fails is
        the first offending node or edge looked for, to name it.
        """
        self._nodes: tuple[ConceptNode, ...] = tuple(nodes)
        self._ids: tuple[str, ...] = tuple(node.id for node in self._nodes)
        self._index = dict(zip(self._ids, range(len(self._ids))))
        if not all(self._ids) or len(self._index) < len(self._ids) or not all(n.name for n in self._nodes):
            raise ValidationError(_first_node_defect(self._nodes))
        self.predicate_names: tuple[str, ...] = tuple(predicate_names)
        self._predicate_index = dict(zip(self.predicate_names, range(len(self.predicate_names))))
        if len(self._predicate_index) < len(self.predicate_names):
            duplicate = next(p for p, count in Counter(self.predicate_names).items() if count > 1)
            raise ValidationError(f"duplicate predicate {duplicate!r}")

        n, columns = len(self._ids), (subjects, predicates, objects, strengths)
        if not _edges_hold(n, len(self.predicate_names), *columns):
            raise ValidationError(_first_edge_defect(self._ids, self.predicate_names, *columns))
        self._subjects, self._predicates, self._objects, self._strengths = subjects, predicates, objects, strengths
        self.columns = EdgeColumns(*(memoryview(c).toreadonly() for c in columns))
        self._out_offsets, self._out = _csr(subjects, n)
        self._in_offsets, self._in = _csr(objects, n)

        self.stats = stats
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

    def edge(self, index: int) -> KgEdge:
        ids = self._ids
        return KgEdge(
            subject=ids[self._subjects[index]],
            predicate=self.predicate_names[self._predicates[index]],
            object=ids[self._objects[index]],
            strength=self._strengths[index],
        )

    def edge_index(self, subject: str, predicate: str, object_: str) -> int:
        # Keyed by one int per interned triple, (p * n + s) * n + o, distinct
        # for distinct triples. The formula is written out twice because a
        # function call per lookup is a measurable share of a strength update.
        n, by_key = len(self._ids), self._by_key
        if by_key is None:
            # A pure function of the immutable graph, so two threads racing
            # to fill it build equal maps and either may win.
            by_key = self._by_key = {
                (p * n + s) * n + o: idx
                for idx, (s, p, o) in enumerate(zip(self._subjects, self._predicates, self._objects))
            }
        s, p, o = self._index.get(subject), self._predicate_index.get(predicate), self._index.get(object_)
        idx = None if None in (s, p, o) else by_key.get((p * n + s) * n + o)
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


def _first_node_defect(nodes: Sequence[ConceptNode]) -> str:
    """The first node, in order, with an empty id or name or a repeated id, and how."""
    seen: set[str] = set()
    for node in nodes:
        if not node.id:
            return "node id must be non-empty"
        if not node.name:
            return f"node {node.id!r} has an empty name"
        if node.id in seen:
            return f"duplicate node id {node.id!r}"
        seen.add(node.id)
    raise AssertionError("no node breaks an invariant")


def _edges_hold(node_count: int, predicate_count: int, subjects, predicates, objects, strengths) -> bool:
    """Whether every node and predicate int is in range, every strength is
    in [0, 1] (NaN is not) and no triple repeats: one test per whole column."""
    if not strengths:
        return True
    bounds = ((subjects, node_count), (predicates, predicate_count), (objects, node_count))
    return (
        all(0 <= min(column) and max(column) < bound for column, bound in bounds)
        and 0.0 <= min(strengths)
        and max(strengths) <= 1.0
        and not math.isnan(sum(strengths))
        and len(set(zip(subjects, predicates, objects))) == len(strengths)
    )


def _first_edge_defect(ids, names, subjects, predicates, objects, strengths) -> str:
    """The first edge, in edge order, that breaks an invariant, and how."""
    seen: set[tuple[int, int, int]] = set()
    for idx, (s, p, o, strength) in enumerate(zip(subjects, predicates, objects, strengths)):
        for role, value, bound in (("subject", s, ids), ("predicate", p, names), ("object", o, ids)):
            if not 0 <= value < len(bound):
                return f"edge {idx} {role} {value} out of range [0, {len(bound)})"
        triple = (ids[s], names[p], ids[o])
        if not 0.0 <= strength <= 1.0:
            return f"edge {triple} strength {strength} outside [0, 1]"
        if (s, p, o) in seen:
            return f"duplicate triple {triple}"
        seen.add((s, p, o))
    raise AssertionError("no edge breaks an invariant")


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

    # Nodes and predicates are interned to ints as rows arrive. Per node int:
    # its name, each distinct semantic-types field and its aliases; fields
    # are parsed once per node at the end, not once per row.
    node_index: dict[str, int] = {}
    node_names: list[str] = []
    node_fields: list[set[str]] = []
    node_aliases: dict[int, set[str]] = {}
    predicate_index: dict[str, int] = {}
    # Each int triple's edge slot; a repeated triple keeps its first slot.
    slots: dict[tuple[int, int, int], int] = {}
    subjects, predicates, objects = array("i"), array("i"), array("i")
    strengths = array("d")

    def note_node(cui: str, name: str, semtypes: str) -> int:
        position = node_index.get(cui)
        if position is None:
            position = node_index[cui] = len(node_names)
            node_names.append(name or cui)
            node_fields.append({semtypes})
            return position
        if name and name != node_names[position]:
            node_aliases.setdefault(position, set()).add(name)
        node_fields[position].add(semtypes)
        return position

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

        triple = (
            note_node(subj_cui, subj_name, subj_types),
            predicate_index.setdefault(predicate, len(predicate_index)),
            note_node(obj_cui, obj_name, obj_types),
        )
        slot = slots.get(triple)
        if slot is None:
            slots[triple] = len(strengths)
            subjects.append(triple[0])
            predicates.append(triple[1])
            objects.append(triple[2])
            strengths.append(strength)
        else:
            duplicates += 1
            strengths[slot] = max(strengths[slot], strength)
    del slots  # freed before the core builds its own set of triples

    if not header_seen:
        raise IngestionError("empty triple stream")
    if rows_total == 0:
        raise IngestionError("triple stream contained a header but no data rows")
    if not strengths:
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
            semantic_types=share(frozenset().union(*map(parse, fields))),
            aliases=share(node_aliases.get(position, ())),
        )
        for position, (cui, name, fields) in enumerate(zip(node_index, node_names, node_fields))
    ]
    stats = IngestStats(rows_total, malformed, duplicates)
    return KnowledgeGraph(nodes, tuple(predicate_index), subjects, predicates, objects, strengths, stats)


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
    """Write the graph as a format-2 artifact (laid out in ``load_graph``).

    The bytes go to a temporary file beside the file ``path`` names (after
    symlinks) that then replaces it, so an interrupted save leaves any
    earlier artifact whole. A device or pipe (say ``/dev/null``) is written
    through instead.
    """
    nodes = tuple(graph.nodes())
    sets: dict[frozenset[str], int] = {}
    node_sets = array("I", [sets.setdefault(node.semantic_types, len(sets)) for node in nodes])
    node_sets.extend([sets.setdefault(node.aliases, len(sets)) for node in nodes])
    set_members = [sorted(members) for members in sets]
    members = [member for group in set_members for member in group]
    encoded = [
        string.encode("utf-8")
        for strings in ([node.id for node in nodes], [node.name for node in nodes], graph.predicate_names, members)
        for string in strings
    ]
    arrays = [
        array("I", map(len, encoded)),
        array("I", map(len, set_members)),
        node_sets,
        *(array(column.format, column.tobytes()) for column in graph.columns),
    ]
    if sys.byteorder == "big":
        for column in arrays:
            column.byteswap()
    body = b"".join([arrays[0], b"".join(encoded), *arrays[1:]])
    stats = graph.stats
    header = _HEADER.pack(
        len(nodes), len(graph.predicate_names), len(sets), len(members), graph.edge_count,
        stats.rows_total, stats.malformed_rows, stats.duplicate_triples, zlib.crc32(body),
    )
    head = _ARTIFACT_MAGIC + _VERSION.pack(_ARTIFACT_VERSION) + header
    target = os.path.realpath(path)
    if os.path.exists(target) and not os.path.isfile(target):
        with open(target, "wb") as fh:
            fh.write(head)
            fh.write(body)
        return
    partial = f"{target}.{os.getpid()}-{threading.get_ident()}.partial"
    try:
        with open(partial, "wb") as fh:
            fh.write(head)
            fh.write(body)
        os.replace(partial, target)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(partial)
        raise


def load_graph(path) -> KnowledgeGraph:
    """Load a graph artifact, refusing unknown formats and versions.

    Format 2 is the magic, a big-endian version word, then the
    little-endian ``_HEADER`` (counts, the ingest stats and the CRC32 of
    the body) and the body: each string's length; the UTF-8 strings (node
    ids, node names, predicate names, then the members of each distinct
    semantic-type or alias set); each set's member count; each node's
    semantic-type set, then each node's alias set; and the subject,
    predicate and object (``int32``) and strength (``float64``) edge
    columns. Every length is checked against the file's size before
    anything is allocated, and the graph is checked in full even when the
    checksum matches: the checksum catches corruption, it does not vouch
    for the writer. Any defect raises ``ArtifactError``.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 6 or blob[:4] != _ARTIFACT_MAGIC:
        raise ArtifactError(f"{path}: not a causalrag graph artifact")
    (version,) = _VERSION.unpack_from(blob, 4)
    if version == 1:
        raise ArtifactError(
            f"{path}: artifact version 1 is no longer read; rebuild it with causalrag build-graph"
        )
    if version != _ARTIFACT_VERSION:
        raise ArtifactError(
            f"{path}: artifact version {version} unsupported (expected {_ARTIFACT_VERSION})"
        )
    try:
        return _decode(memoryview(blob)[6:])
    except (ValidationError, UnicodeDecodeError) as exc:
        raise ArtifactError(f"{path}: corrupt graph artifact ({exc})") from exc


def _decode(data: memoryview) -> KnowledgeGraph:
    """The graph in a format-2 artifact, from its header on."""
    if len(data) < _HEADER.size:
        raise ValidationError(f"header needs {_HEADER.size} bytes, the file holds {len(data)}")
    n, n_predicates, n_sets, n_members, m, *stats, crc = _HEADER.unpack_from(data)
    body = data[_HEADER.size :]
    if zlib.crc32(body) != crc:
        raise ValidationError("body checksum mismatch")
    n_strings = 2 * n + n_predicates + n_members
    fixed = 4 * (n_strings + n_sets + 2 * n) + 20 * m
    if fixed > len(body):
        raise ValidationError(f"counts need {fixed} bytes of columns, the body holds {len(body)}")
    at = 0

    def take(size: int) -> memoryview:
        nonlocal at
        at += size
        return body[at - size : at]

    def column(typecode: str, count: int) -> array:
        values = array(typecode)
        values.frombytes(take(values.itemsize * count))
        if sys.byteorder == "big":
            values.byteswap()
        return values

    lengths = column("I", n_strings)
    ends = list(accumulate(lengths, initial=0))
    if ends[-1] != len(body) - fixed:
        raise ValidationError(f"strings need {ends[-1]} bytes, the body holds {len(body) - fixed}")
    text = take(ends[-1]).tobytes()
    strings = [text[start:end].decode("utf-8") for start, end in zip(ends, ends[1:])]
    set_sizes, node_sets = column("I", n_sets), column("I", 2 * n)
    subjects, predicates, objects, strengths = column("i", m), column("i", m), column("i", m), column("d", m)

    if sum(set_sizes) != n_members:
        raise ValidationError(f"sets hold {sum(set_sizes)} members, the header declares {n_members}")
    if node_sets and max(node_sets) >= n_sets:
        raise ValidationError(f"node set {max(node_sets)} out of range [0, {n_sets})")
    member_ends = list(accumulate(set_sizes, initial=2 * n + n_predicates))
    sets = [frozenset(strings[start:end]) for start, end in zip(member_ends, member_ends[1:])]
    types, aliases = [sets[i] for i in node_sets[:n]], [sets[i] for i in node_sets[n:]]
    nodes = list(map(ConceptNode, strings[:n], strings[n : 2 * n], types, aliases))
    return KnowledgeGraph(
        nodes, strings[2 * n : 2 * n + n_predicates], subjects, predicates, objects, strengths, IngestStats(*stats)
    )
