"""In-memory knowledge graph built from predication triple files.

Concept nodes are keyed by CUI; edges carry a relation label and a numeric
strength in [0, 1]. Ingestion merges node surface forms across rows,
resolves missing strengths through a label-to-weight callable (normally the
causality table), and produces an immutable graph, stored by column, that
is safe for concurrent readers. Thresholded filtering lives in views built on
top of this store (see the causal module); the base graph never mutates
after construction. Every graph, ingested or loaded from an artifact, is
built by the one constructor, from the columns the artifact stores, and
passes the same checks.
"""

from __future__ import annotations

import contextlib
import functools
import logging
import math
import operator
import os
import struct
import sys
import threading
import zlib
from array import array
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, chain, compress, islice
from typing import BinaryIO, Callable, Collection, Iterable, Iterator, NamedTuple, Sequence

from .errors import ArtifactError, IngestionError, NotFoundError, ValidationError, open_text, tsv_rows

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
_ARTIFACT_VERSION = 3
_VERSION = struct.Struct(">H")
# Node, predicate, set, set-member and edge counts; rows, malformed rows and
# duplicate rows of the ingest; CRC32 of the body.
_HEADER = struct.Struct("<5I3QI")

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


class NodeColumns(NamedTuple):
    """The graph's nodes by column, read-only, as the artifact stores them.

    Node ``i`` is ``ids[i]``, named ``names[i]``, with semantic types
    ``sets[node_sets[i]]`` and aliases ``sets[node_sets[n + i]]`` (``n``
    nodes). ``sets`` holds each distinct set once.
    """

    ids: tuple[str, ...]
    names: tuple[str, ...]
    sets: tuple[frozenset[str], ...]
    node_sets: memoryview


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


class SearchReads:
    """The path search's two reads, written once for the graph and its views.

    Both group the member edges of ``self.base``'s columns, where edge ``i``
    is a member when ``self.mask[i]`` is 1, into a map from the far end of
    each edge to those edges, ascending index; so the search can join a
    node's successors with a goal's in-edges on their keys. A graph is the
    view that keeps every edge: its own ``base``, with every byte 1. Each
    entry is memoised on the node's first read in the direction's lineage
    store in ``self._lineage``, the only search memo: the graph keeps a store
    of its own, and a view shares one with its revisions. A node's slot
    carries the ``self._token`` of the container that last read it, which
    no other container shares. A read of a slot with this container's token
    returns its entry; any other read goes through ``_lineage_entry``.
    Callers must not change an entry. An entry is a pure function of its
    node's mask bytes, so any view of a lineage may use any slot, and two
    threads racing on one each get their own view's.
    """

    def successors(self, node_id: str) -> dict[str, tuple[int, ...]]:
        """Each object of a member out-edge of ``node_id`` -> those edges."""
        store = self._lineage[0]
        slot = store.get(node_id)
        if slot is not None and slot[0] is self._token:
            return slot[2]
        base = self.base
        out = base.out_edges(node_id)
        flags = self.mask[out.start : out.stop]
        return _lineage_entry(store, slot, self._token, node_id, out, flags, base.node_ids(), base.columns.objects)

    def edges_into(self, goal: str) -> dict[str, tuple[int, ...]]:
        """Each node with a member edge into ``goal`` -> those edges."""
        store = self._lineage[1]
        slot = store.get(goal)
        if slot is not None and slot[0] is self._token:
            return slot[2]
        base = self.base
        into = base.in_edges(goal)
        mask = self.mask
        # One gather call; ``itemgetter`` returns a bare int for one index and refuses none.
        flags = bytes(operator.itemgetter(*into)(mask)) if len(into) > 1 else bytes(map(mask.__getitem__, into))
        return _lineage_entry(store, slot, self._token, goal, into, flags, base.node_ids(), base.columns.subjects)


class KnowledgeGraph(SearchReads):
    """Immutable directed labeled multigraph, stored by column.

    Nodes are columns (see ``NodeColumns``), with no object per node;
    ``name`` and ``semantic_types`` read one node by id. Node ids and
    predicates are interned to ints before construction; each edge is one
    slot in the subject, predicate, object and strength columns (see
    ``EdgeColumns``), and ``KgEdge`` objects are built only on demand by
    ``edge``. Edges strictly ascend by key ``(s * P + p) * N + o`` (``N``
    nodes, ``P`` predicates), the order downstream code relies on for
    reproducible tie-breaking, so a node's out-edges are one range of edge
    indices; its in-edges sit between two CSR offsets, in ascending order.
    Parallel edges between the same node pair are allowed as long as their
    predicates differ, and order by predicate int.
    """

    def __init__(self, ids, names, sets, node_sets, predicate_names, subjects, predicates, objects, strengths, stats):
        """The graph of the node columns ``ids``, ``names``, ``sets`` and
        ``node_sets`` (an ``array('I')``; see ``NodeColumns``) and of edge
        ``i`` = ``subjects[i] --predicates[i]--> objects[i]`` at
        ``strengths[i]``: ``array('i')`` columns of ints indexing ``ids`` and
        ``predicate_names``, in ascending key order, and an ``array('d')`` of
        strengths. Checks every invariant, then lays out the adjacency.

        Each invariant is tested over a whole column; only when one fails is
        the first offending node or edge looked for, to name it.
        """
        self._ids, self._names, self._sets = tuple(ids), tuple(names), tuple(sets)
        n = len(self._ids)
        if len(self._names) != n or len(node_sets) != 2 * n:
            raise ValidationError(f"{n} nodes with {len(self._names)} names and {len(node_sets)} set ids")
        self._index = dict(zip(self._ids, range(n)))
        if not all(self._ids) or len(self._index) < n or not all(self._names):
            raise ValidationError(_first_node_defect(self._ids, self._names))
        if node_sets and max(node_sets) >= len(self._sets):
            raise ValidationError(f"node set {max(node_sets)} out of range [0, {len(self._sets)})")
        self._node_sets = node_sets
        self.node_columns = NodeColumns(self._ids, self._names, self._sets, memoryview(node_sets).toreadonly())
        self.predicate_names: tuple[str, ...] = tuple(predicate_names)
        self._predicate_index = dict(zip(self.predicate_names, range(len(self.predicate_names))))
        if not all(self.predicate_names):
            raise ValidationError("predicate name must be non-empty")
        if len(self._predicate_index) < len(self.predicate_names):
            duplicate = next(p for p, count in Counter(self.predicate_names).items() if count > 1)
            raise ValidationError(f"duplicate predicate {duplicate!r}")

        columns = (subjects, predicates, objects, strengths)
        if not _edges_clear(self._ids, self.predicate_names, *columns):
            raise ValidationError(_first_edge_defect(self._ids, self.predicate_names, *columns))
        self._subjects, self._predicates, self._objects, self._strengths = subjects, predicates, objects, strengths
        self.columns = EdgeColumns(*(memoryview(c).toreadonly() for c in columns))
        self.mask = b"\x01" * len(strengths)
        self._out_offsets = _offsets(subjects, n)
        self._in_offsets, self._in = _csr(objects, n)

        self.stats = stats
        # Filled on first read, like the search stores below (see ``edge_indices``).
        self._by_key: dict[int, int] | None = None
        # Search stores, filled per node on first read (see ``SearchReads``).
        self._lineage: tuple[dict, dict] = ({}, {})
        self._token = object()

    @property
    def base(self) -> KnowledgeGraph:
        return self

    # -- lookups -------------------------------------------------------------

    def _position(self, node_id: str) -> int:
        try:
            return self._index[node_id]
        except KeyError:
            raise NotFoundError(f"unknown node id {node_id!r}") from None

    def has_node(self, node_id: str) -> bool:
        return node_id in self._index

    def name(self, node_id: str) -> str:
        return self._names[self._position(node_id)]

    def semantic_types(self, node_id: str) -> frozenset[str]:
        return self._sets[self._node_sets[self._position(node_id)]]

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
        return self.edge_indices(((subject, predicate, object_),))[0]

    def edge_indices(self, triples: Collection[tuple[str, str, str]]) -> list[int]:
        """The edge index of each ``(subject, predicate, object)``, in order;
        ``NotFoundError`` names the first triple not in the graph."""
        # Keyed by each triple's sort key (see the class docstring), and
        # resolved in one loop over local names: a method call per triple is
        # a measurable share of a strength update.
        index, predicate_index, by_key = self._index, self._predicate_index, self._by_key
        n, p_count = len(self._ids), len(self.predicate_names)
        if by_key is None and triples:
            # A pure function of the immutable graph, so two threads racing
            # to fill it build equal maps and either may win.
            by_key = self._by_key = {
                (s * p_count + p) * n + o: idx
                for idx, (s, p, o) in enumerate(zip(self._subjects, self._predicates, self._objects))
            }
        found: list[int] = []
        try:
            for subject, predicate, object_ in triples:
                found.append(by_key[(index[subject] * p_count + predicate_index[predicate]) * n + index[object_]])
        except KeyError:
            raise NotFoundError(f"triple ({subject!r}, {predicate!r}, {object_!r}) not in graph") from None
        return found

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

    def out_edges(self, node_id: str) -> range:
        i = self._position(node_id)
        return range(self._out_offsets[i], self._out_offsets[i + 1])

    def in_edges(self, node_id: str) -> tuple[int, ...]:
        i = self._position(node_id)
        return tuple(self._in[self._in_offsets[i] : self._in_offsets[i + 1]])


def _lineage_entry(
    store: dict, slot, token, node_id: str, edges, flags: bytes, ids, ends
) -> dict[str, tuple[int, ...]]:
    """``_group_edges`` of the ``edges`` of ``node_id`` whose mask byte in ``flags`` is 1,
    through ``slot``, the node's ``(token, flags, entry)`` in the lineage ``store`` or
    None: the stored entry for equal flags, a copy with only the flipped edges moved for
    other flags, a fresh grouping with no slot. The result replaces the slot, stamped
    with the reading container's ``token``; no stored entry is changed."""
    if slot is None:
        entry = _group_edges(ids, ends, compress(edges, flags))
    elif slot[1] == flags:
        entry = slot[2]
    else:
        entry = dict(slot[2])
        for at in compress(range(len(flags)), map(operator.ne, slot[1], flags)):
            idx = edges[at]
            end = ids[ends[idx]]
            group = entry.get(end, ())
            if flags[at]:
                entry[end] = tuple(sorted((*group, idx)))
            elif len(group) > 1:
                entry[end] = tuple(i for i in group if i != idx)
            else:
                del entry[end]
    store[node_id] = (token, flags, entry)
    return entry


def _group_edges(ids: Sequence[str], ends, idxs: Iterable[int]) -> dict[str, tuple[int, ...]]:
    """``ids[ends[i]]`` -> the edges ``i`` of ``idxs`` with that end, in the given order.

    ``ends`` is an edge column of node ints: the objects for a node's
    successors, the subjects for a goal's in-edges.
    """
    grouped: dict[str, tuple[int, ...]] = {}
    for idx in idxs:
        end = ids[ends[idx]]
        grouped[end] = grouped.get(end, ()) + (idx,)
    return grouped


def _first_node_defect(ids: Sequence[str], names: Sequence[str]) -> str:
    """The first node, in order, with an empty id or name or a repeated id, and how."""
    seen: set[str] = set()
    for node_id, name in zip(ids, names):
        if not node_id:
            return "node id must be non-empty"
        if not name:
            return f"node {node_id!r} has an empty name"
        if node_id in seen:
            return f"duplicate node id {node_id!r}"
        seen.add(node_id)
    raise AssertionError("no node breaks an invariant")


def _edges_clear(ids, names, subjects, predicates, objects, strengths) -> bool:
    """Whether every node and predicate int is in range, every strength is in
    [0, 1] (NaN is not) and the keys strictly ascend (so no triple repeats).

    Each invariant is tested over a whole column. With ints in range,
    ``(s, p, o)`` tuples order as their keys do; and tuples that ascend put
    the subjects in order, so the subject column's two ends bound it. The
    predicates are bounded by their few distinct values, the objects by
    their min and max, which cost less than a set of them.
    """
    later = islice(zip(subjects, predicates, objects), 1, None)
    return not strengths or (
        all(map(operator.lt, zip(subjects, predicates, objects), later))
        and 0 <= subjects[0]
        and subjects[-1] < len(ids)
        and all(0 <= p < len(names) for p in set(predicates))
        and 0 <= min(objects)
        and max(objects) < len(ids)
        and 0.0 <= min(strengths)
        and max(strengths) <= 1.0
        and not math.isnan(sum(strengths))
    )


def _first_edge_defect(ids, names, subjects, predicates, objects, strengths) -> str:
    """How the first edge, in order, to break an invariant of ``_edges_clear`` does."""
    previous = (-1, -1, -1)
    for idx, (s, p, o, strength) in enumerate(zip(subjects, predicates, objects, strengths)):
        for role, value, bound in (("subject", s, ids), ("predicate", p, names), ("object", o, ids)):
            if not 0 <= value < len(bound):
                return f"edge {idx} {role} {value} out of range [0, {len(bound)})"
        triple = (ids[s], names[p], ids[o])
        if not 0.0 <= strength <= 1.0:
            return f"edge {triple} strength {strength} outside [0, 1]"
        if previous == (s, p, o):
            return f"duplicate triple {triple}"
        if previous > (s, p, o):
            return f"edge {idx} {triple} out of key order"
        previous = (s, p, o)
    raise AssertionError("no edge breaks an invariant")


def _offsets(keys: array, size: int) -> array:
    """``offsets[k]``: how many of ``keys`` (ints below ``size``) are below ``k``, for ``k`` in 0..size."""
    counts = [0] * (size + 1)
    for key in keys:
        counts[key + 1] += 1
    return array("i", accumulate(counts))


def _csr(keys: array, size: int) -> tuple[array, array]:
    """Offsets and edge indices grouping the edges by ``keys`` (ints below ``size``).

    Group ``k`` is ``edges[offsets[k]:offsets[k + 1]]``. The edges are placed
    by a counting sort, which is stable, so each group lists its edges in
    ascending edge index.
    """
    offsets = _offsets(keys, size)
    edges = array("i", [0]) * len(keys)
    free = offsets.tolist()
    for idx, key in enumerate(keys):
        edges[free[key]] = idx
        free[key] += 1
    return offsets, edges


def shortest_path_length(source, start: str, goal: str, max_hops: int) -> int | None:
    """Directed BFS hop count from ``start`` to ``goal``, or None beyond ``max_hops``.

    ``source`` is the base graph or a causal view: anything exposing
    ``base`` and ``successors``. Ids are checked against ``source.base``,
    which is the graph itself when ``source`` is one.
    """
    if max_hops < 1:
        raise ValidationError(f"max_hops must be >= 1, got {max_hops}")
    for node_id in (start, goal):
        if not source.base.has_node(node_id):
            raise NotFoundError(f"unknown node id {node_id!r}")
    if start == goal:
        return 0
    seen = {start}
    frontier = [start]
    for depth in range(1, max_hops + 1):
        next_frontier: list[str] = []
        for node_id in frontier:
            for target in source.successors(node_id):
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
    table when not supplied), called once per distinct predicate that has
    such a row.
    """
    if strength_for_predicate is None:
        from .causal import default_causality_table

        strength_for_predicate = default_causality_table().weight
    # The reader's tables are all freed when it returns, before the graph is built.
    return KnowledgeGraph(*_read_triples(lines, functools.cache(strength_for_predicate)))


def _read_triples(lines: Iterable[str], strength_for_predicate: Callable[[str], float]) -> tuple:
    """``ingest_triples``'s rows as ``KnowledgeGraph``'s arguments."""
    # Nodes and predicates are interned to ints as rows arrive. Per node int:
    # its first name and first semantic-types field, so a later row that
    # agrees costs two compares; only a node whose rows disagree gets a set
    # of its aliases and of its other fields.
    node_index: dict[str, int] = {}
    node_names: list[str] = []
    node_fields: list[str] = []
    node_aliases: dict[int, set[str]] = {}
    other_fields: dict[int, set[str]] = {}
    predicate_index: dict[str, int] = {}
    # Every well-formed row takes a slot; repeated triples collapse below.
    subjects, predicates, objects = array("i"), array("i"), array("i")
    strengths = array("d")

    def note_node(cui: str, name: str, semtypes: str) -> int:
        position = node_index.get(cui)
        if position is None:
            position = node_index[cui] = len(node_names)
            node_names.append(name or cui)
            node_fields.append(semtypes)
            return position
        if name != node_names[position] and name:
            node_aliases.setdefault(position, set()).add(name)
        if semtypes != node_fields[position]:
            other_fields.setdefault(position, set()).add(semtypes)
        return position

    rows = tsv_rows(lines)
    first = next(rows, None)
    if first is None:
        raise IngestionError("empty triple stream")
    line_no, header = first
    if tuple(map(str.lower, header)) not in (TRIPLE_HEADER, (*TRIPLE_HEADER, STRENGTH_COLUMN)):
        raise IngestionError(
            f"line {line_no}: missing or invalid header row (expected "
            f"{', '.join(TRIPLE_HEADER)}[, {STRENGTH_COLUMN}])"
        )

    rows_total = 0
    malformed = 0
    for _, fields in rows:
        rows_total += 1
        if len(fields) not in (7, 8) or not (fields[0] and fields[3] and fields[4]):
            malformed += 1
            continue
        subj_cui, subj_name, subj_types, predicate, obj_cui, obj_name, obj_types = fields[:7]
        if len(fields) == 8 and fields[7]:
            try:
                strength = float(fields[7])
            except ValueError:
                strength = math.nan
            if not 0.0 <= strength <= 1.0:
                malformed += 1
                continue
        else:
            strength = strength_for_predicate(predicate)

        subjects.append(note_node(subj_cui, subj_name, subj_types))
        predicates.append(predicate_index.setdefault(predicate, len(predicate_index)))
        objects.append(note_node(obj_cui, obj_name, obj_types))
        strengths.append(strength)

    if rows_total == 0:
        raise IngestionError("triple stream contained a header but no data rows")
    if not strengths:
        raise IngestionError(f"all {rows_total} data rows were malformed")

    n, p_count = len(node_names), len(predicate_index)
    parse = functools.cache(lambda field: frozenset(t.strip() for t in field.split(",") if t.strip()))
    types = list(map(parse, node_fields))
    for position, fields in other_fields.items():
        types[position] = types[position].union(*map(parse, fields))
    aliases = [frozenset()] * n
    for position, surfaces in node_aliases.items():
        aliases[position] = frozenset(surfaces)
    # Each distinct set once, in order of first use: the type sets in node order, then the alias sets.
    set_ids = {members: i for i, members in enumerate(dict.fromkeys(chain(types, aliases)))}
    node_sets = array("I", map(set_ids.__getitem__, chain(types, aliases)))
    ids, names, sets = tuple(node_index), tuple(node_names), tuple(set_ids)
    # The interning tables go before the sort, whose tables are the peak of an ingest.
    del node_index, node_names, node_fields, node_aliases, other_fields, types, aliases, set_ids

    # The core's edge order: ascending key, each repeated triple collapsed
    # to its row with the maximum strength.
    keys = [(s * p_count + p) * n + o for s, p, o in zip(subjects, predicates, objects)]
    kept: list[int] = []
    for slot in sorted(range(len(keys)), key=keys.__getitem__):
        if not kept or keys[kept[-1]] != keys[slot]:
            kept.append(slot)
        elif strengths[slot] > strengths[kept[-1]]:
            kept[-1] = slot
    duplicates = len(keys) - len(kept)
    del keys
    # One gather call per column; ``itemgetter`` returns a bare value for one index, so one row is a slice.
    gather = operator.itemgetter(*kept) if len(kept) > 1 else operator.itemgetter(slice(kept[0], kept[0] + 1))
    del kept
    subjects, predicates, objects, strengths = (
        array(column.typecode, gather(column)) for column in (subjects, predicates, objects, strengths)
    )
    if malformed:
        logger.warning("skipped %d malformed triple rows", malformed)
    if duplicates:
        logger.warning(
            "collapsed %d duplicate triple rows, keeping each triple's max strength", duplicates
        )
    stats = IngestStats(rows_total, malformed, duplicates)
    return ids, names, sets, node_sets, tuple(predicate_index), subjects, predicates, objects, strengths, stats


def load_triples(path, strength_for_predicate: Callable[[str], float] | None = None) -> KnowledgeGraph:
    with open_text(path) as fh:
        return ingest_triples(fh, strength_for_predicate)


# -- artifact serialization ----------------------------------------------------


def save_graph(graph: KnowledgeGraph, path) -> None:
    """Write the graph's columns as it holds them, as a format-3 artifact (laid out in ``load_graph``).

    The bytes go through ``open_replacing``, so an interrupted save leaves
    any earlier artifact whole; a device or pipe (say ``/dev/null``) is
    written through.
    """
    ids, names, sets, node_sets = graph.node_columns
    set_members = [sorted(members) for members in sets]
    members = [member for group in set_members for member in group]
    encoded = [string.encode("utf-8") for strings in (ids, names, graph.predicate_names, members) for string in strings]
    arrays = [
        array("I", map(len, encoded)),
        array("I", map(len, set_members)),
        *(array(column.format, column.tobytes()) for column in (node_sets, *graph.columns)),
    ]
    if sys.byteorder == "big":
        for column in arrays:
            column.byteswap()
    body = b"".join([arrays[0], b"".join(encoded), *arrays[1:]])
    stats = graph.stats
    header = _HEADER.pack(
        len(ids), len(graph.predicate_names), len(sets), len(members), graph.edge_count,
        stats.rows_total, stats.malformed_rows, stats.duplicate_triples, zlib.crc32(body),
    )
    head = _ARTIFACT_MAGIC + _VERSION.pack(_ARTIFACT_VERSION) + header
    with open_replacing(path) as fh:
        fh.write(head)
        fh.write(body)


@contextlib.contextmanager
def open_replacing(path) -> Iterator[BinaryIO]:
    """A binary file whose bytes replace the file ``path`` names (after
    symlinks) once the ``with`` block ends without an error.

    The bytes go to a temporary file beside the target that then replaces
    it, so a write that fails or is interrupted leaves any earlier file
    whole and no temporary file behind. A device, pipe or socket (say
    ``/dev/null``) is written through instead, and a path that names an
    open descriptor (``/dev/stdout``, ``/dev/fd/N``, ``/proc/self/fd/N``)
    is written through a copy of that descriptor, after what the process
    wrote there before, whatever file it is.
    """
    descriptor = _descriptor(path)
    if descriptor is not None:
        with open(os.dup(descriptor), "wb") as fh:
            yield fh
        return
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "wb") as fh:
            yield fh
        return
    target = os.path.realpath(path)
    partial = f"{target}.{os.getpid()}-{threading.get_ident()}.partial"
    try:
        with open(partial, "wb") as fh:
            yield fh
        os.replace(partial, target)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(partial)
        raise


def _descriptor(path) -> int | None:
    """The descriptor that ``path`` names as ``/dev/fd/N`` or
    ``/proc/self/fd/N``, through any symlinks (``/dev/stdout`` is one), or
    None."""
    link = os.path.abspath(path)
    for _ in range(40):  # as many links as the kernel follows
        folder, name = os.path.split(link)
        if folder in ("/dev/fd", "/proc/self/fd") and name.isdigit():
            return int(name)
        if not os.path.islink(link):
            return None
        link = os.path.normpath(os.path.join(folder, os.readlink(link)))
    return None


def load_graph(path) -> KnowledgeGraph:
    """Load a graph artifact, refusing unknown formats and versions.

    Format 3 is the magic, a big-endian version word, then the
    little-endian ``_HEADER`` (counts, the ingest stats and the CRC32 of
    the body) and the body: each string's length; the UTF-8 strings (node
    ids, node names, predicate names, then the members of each distinct
    semantic-type or alias set); each set's member count; each node's
    semantic-type set, then each node's alias set; and the subject,
    predicate and object (``int32``) and strength (``float64``) edge
    columns, in the graph's ascending key order. Every length is checked
    against the file's size before anything is allocated, and the graph is
    checked in full even when the checksum matches: the checksum catches
    corruption, it does not vouch for the writer. Any defect raises
    ``ArtifactError``. Every other version, such as the pickle-based 1 or
    the row-ordered 2, is refused with a hint to rebuild.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 6 or blob[:4] != _ARTIFACT_MAGIC:
        raise ArtifactError(f"{path}: not a causalrag graph artifact")
    (version,) = _VERSION.unpack_from(blob, 4)
    if version != _ARTIFACT_VERSION:
        raise ArtifactError(
            f"{path}: artifact version {version} unsupported (expected {_ARTIFACT_VERSION});"
            " rebuild it with causalrag build-graph"
        )
    try:
        return _decode(memoryview(blob)[6:])
    except (ValidationError, UnicodeDecodeError) as exc:
        raise ArtifactError(f"{path}: corrupt graph artifact ({exc})") from exc


def _decode(data: memoryview) -> KnowledgeGraph:
    """The graph in a format-3 artifact, from its header on."""
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
    member_ends = list(accumulate(set_sizes, initial=2 * n + n_predicates))
    sets = [frozenset(strings[start:end]) for start, end in zip(member_ends, member_ends[1:])]
    return KnowledgeGraph(
        strings[:n], strings[n : 2 * n], sets, node_sets, strings[2 * n : 2 * n + n_predicates],
        subjects, predicates, objects, strengths, IngestStats(*stats),
    )
