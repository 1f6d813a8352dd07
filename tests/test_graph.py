from __future__ import annotations

import gc
import io
import os
import pickle
import random
import stat
import struct
import threading
import tracemalloc
import zlib
from array import array
from collections import deque
from dataclasses import FrozenInstanceError, fields

import pytest

from causalrag.causal import CausalityTable, build_causal_view
from causalrag.config import load_config
from causalrag.errors import ArtifactError, IngestionError, NotFoundError, ValidationError
from causalrag.graph import (
    ConceptNode,
    IngestStats,
    KgEdge,
    KnowledgeGraph,
    _concept_nodes,
    _edges_clear,
    _first_edge_defect,
    ingest_triples,
    load_graph,
    load_triples,
    save_graph,
    shortest_path_length,
)

from .conftest import make_graph
from .oracles import edges_of

HEADER = "subject_cui\tsubject_name\tsubject_semtypes\tpredicate\tobject_cui\tobject_name\tobject_semtypes"
HEADER_WITH_STRENGTH = HEADER + "\tstrength"


def row(subj, subj_name, predicate, obj, obj_name, subj_types="", obj_types="", strength=None):
    fields = [subj, subj_name, subj_types, predicate, obj, obj_name, obj_types]
    if strength is not None:
        fields.append(str(strength))
    return "\t".join(fields)


# -- ingestion --------------------------------------------------------------


def test_ingest_two_rows_shared_subject():
    graph = ingest_triples(
        [
            HEADER,
            row("C1", "Alpha", "CAUSES", "C2", "Beta"),
            row("C1", "Alpha", "CAUSES", "C3", "Gamma"),
        ]
    )
    assert graph.node_count == 3
    assert graph.edge_count == 2


def test_ingest_missing_object_column_is_malformed_not_fatal():
    graph = ingest_triples(
        [
            HEADER,
            row("C1", "Alpha", "CAUSES", "C2", "Beta"),
            "C1\tAlpha\t\tCAUSES",
        ]
    )
    assert graph.edge_count == 1
    assert graph.stats.malformed_rows == 1


def test_ingest_duplicate_triple_collapses_with_warning(caplog):
    with caplog.at_level("WARNING"):
        graph = ingest_triples(
            [
                HEADER,
                row("C1", "Alpha", "CAUSES", "C2", "Beta"),
                row("C1", "Alpha", "CAUSES", "C2", "Beta"),
                row("C1", "Alpha", "CAUSES", "C2", "Beta"),
                row("C1", "Alpha", "CAUSES", "C2", "Beta"),
            ]
        )
    assert graph.edge_count == 1
    assert graph.stats.duplicate_triples == 3
    duplicate_warnings = [m for m in caplog.messages if "duplicate triple" in m]
    assert len(duplicate_warnings) == 1
    assert "3 duplicate triple rows" in duplicate_warnings[0]


def test_ingest_conflicting_strength_keeps_max():
    graph = ingest_triples(
        [
            HEADER_WITH_STRENGTH,
            row("C1", "Alpha", "CAUSES", "C2", "Beta", strength=0.4),
            row("C1", "Alpha", "CAUSES", "C2", "Beta", strength=0.8),
        ]
    )
    assert graph.edge_count == 1
    assert graph.edge(0).strength == 0.8


def test_ingest_empty_stream_is_error():
    with pytest.raises(IngestionError):
        ingest_triples([])
    with pytest.raises(IngestionError):
        ingest_triples([HEADER])


def test_ingest_all_malformed_is_error():
    with pytest.raises(IngestionError, match="malformed"):
        ingest_triples([HEADER, "only\ttwo", "three\tbad\tfields"])


def test_ingest_requires_header():
    with pytest.raises(IngestionError, match="header"):
        ingest_triples([row("C1", "Alpha", "CAUSES", "C2", "Beta")])


def test_ingest_merges_names_types_and_aliases():
    graph = ingest_triples(
        [
            HEADER,
            row("C1", "Myocardial Infarction", "CAUSES", "C2", "Beta", subj_types="dsyn"),
            row("C1", "Heart Attack", "AFFECTS", "C3", "Gamma", subj_types="fndg,dsyn"),
        ]
    )
    node = graph.node("C1")
    assert node.name == "Myocardial Infarction"
    assert node.aliases == {"Heart Attack"}
    assert node.semantic_types == {"dsyn", "fndg"}


def test_ingest_strength_defaults_to_causality_table():
    graph = ingest_triples(
        [
            HEADER,
            row("C1", "Alpha", "CAUSES", "C2", "Beta"),
            row("C1", "Alpha", "UNHEARD_OF", "C3", "Gamma"),
        ]
    )
    by_predicate = {e.predicate: e.strength for e in edges_of(graph)}
    assert by_predicate["CAUSES"] == 0.9
    assert by_predicate["UNHEARD_OF"] == 0.05


def test_ingest_asks_for_each_default_strength_once_per_predicate():
    calls = []

    def weight(predicate):
        calls.append(predicate)
        return 0.4

    graph = ingest_triples(
        [
            HEADER_WITH_STRENGTH,
            *(row(f"C{i}", f"Name {i}", "TREATS", f"C{i + 1}", f"Name {i + 1}") for i in range(5)),
            row("C1", "Name 1", "CAUSES", "C3", "Name 3", strength=0.7),
            row("C2", "Name 2", "CAUSES", "C4", "Name 4", strength=0.2),
            row("C1", "Name 1", "AFFECTS", "C2", "Name 2", strength=""),
        ],
        weight,
    )
    assert calls == ["TREATS", "AFFECTS"]
    assert {e.predicate: e.strength for e in edges_of(graph) if e.predicate != "CAUSES"} == {
        "TREATS": 0.4,
        "AFFECTS": 0.4,
    }


def test_ingest_skips_comments_and_blank_lines():
    graph = ingest_triples(
        [
            "# comment before the header",
            HEADER,
            "",
            row("C1", "Alpha", "CAUSES", "C2", "Beta"),
            "# trailing comment",
        ]
    )
    assert graph.edge_count == 1
    assert graph.stats.rows_total == 1


def test_ingest_out_of_range_strength_is_malformed():
    graph = ingest_triples(
        [
            HEADER_WITH_STRENGTH,
            row("C1", "Alpha", "CAUSES", "C2", "Beta", strength=0.5),
            row("C1", "Alpha", "CAUSES", "C3", "Gamma", strength=1.3),
        ]
    )
    assert graph.edge_count == 1
    assert graph.stats.malformed_rows == 1


def test_ingest_idempotent():
    lines = [
        HEADER,
        row("C1", "Alpha", "CAUSES", "C2", "Beta", subj_types="dsyn"),
        row("C2", "Beta", "TREATS", "C3", "Gamma"),
    ]
    first = ingest_triples(lines)
    second = ingest_triples(lines)
    assert [(n.id, n.name, n.semantic_types, n.aliases) for n in first.nodes()] == [
        (n.id, n.name, n.semantic_types, n.aliases) for n in second.nodes()
    ]
    assert edges_of(first) == edges_of(second)


# -- structure invariants -----------------------------------------------------


def test_adjacency_covers_every_edge_once_each_direction():
    graph = make_graph(
        [
            ("A", "CAUSES", "B", 0.9),
            ("B", "CAUSES", "C", 0.8),
            ("A", "TREATS", "C", 0.7),
            ("C", "CAUSES", "C", 0.6),
        ]
    )
    forward = [i for node in graph.node_ids() for i in graph.out_edges(node)]
    reverse = [i for node in graph.node_ids() for i in graph.in_edges(node)]
    assert sorted(forward) == list(range(graph.edge_count))
    assert sorted(reverse) == list(range(graph.edge_count))
    # Each node's out-edges are one contiguous ascending run, and the runs
    # tile the edges in node order.
    assert forward == list(range(graph.edge_count))


_ALPHA, _BETA = ConceptNode("A", "Alpha"), ConceptNode("B", "Beta")
_PREDICATES = ("TREATS", "CAUSES")
_TREATS = (0, 0, 1, 0.5)


def _from_int_edges(nodes, edges) -> KnowledgeGraph:
    """The constructor on int ``(subject, predicate, object, strength)`` rows over ``_PREDICATES``."""
    subjects, predicates, objects, strengths = ([edge[k] for edge in edges] for k in range(4))
    return KnowledgeGraph(
        nodes, _PREDICATES, array("i", subjects), array("i", predicates), array("i", objects), array("d", strengths),
        IngestStats(),
    )


def test_graph_rejects_unknown_endpoints_and_bad_strength():
    with pytest.raises(ValidationError):
        _from_int_edges([_ALPHA], [(0, 1, 1, 0.5)])
    with pytest.raises(ValidationError):
        _from_int_edges([_ALPHA], [(1, 1, 0, 0.5)])
    with pytest.raises(ValidationError):
        make_graph([("A", "CAUSES", "B", 1.5)])


@pytest.mark.parametrize(
    "nodes, edges, message",
    [
        ([_ALPHA, ConceptNode("", "x")], [], "node id must be non-empty"),
        ([_ALPHA, ConceptNode("B", "")], [], "node 'B' has an empty name"),
        ([_ALPHA, _ALPHA], [], "duplicate node id 'A'"),
        ([_ALPHA], [(-1, 1, 0, 0.5)], "edge 0 subject -1 out of range [0, 1)"),
        ([_ALPHA], [(0, 1, 0, 0.5), (0, 1, 5, 0.5)], "edge 1 object 5 out of range [0, 1)"),
        ([_ALPHA, _BETA], [_TREATS, (0, 1, 1, -0.1)], "edge ('A', 'CAUSES', 'B') strength -0.1 outside [0, 1]"),
        ([_ALPHA, _BETA], [_TREATS, (0, 1, 1, float("nan"))], "edge ('A', 'CAUSES', 'B') strength nan outside [0, 1]"),
        ([_ALPHA, _BETA], [_TREATS, _TREATS], "duplicate triple ('A', 'TREATS', 'B')"),
        ([_ALPHA], [(0, 2, 0, 0.5)], "edge 0 predicate 2 out of range [0, 2)"),
    ],
)
def test_graph_checks_name_the_bad_node_or_edge(nodes, edges, message):
    with pytest.raises(ValidationError) as info:
        _from_int_edges(nodes, edges)
    assert str(info.value) == message


def _valid_edge_columns(rng: random.Random, n: int, p_count: int, m: int) -> list[list]:
    """``m`` distinct edges over ``n`` nodes and ``p_count`` predicates, in
    ascending key order, with strengths in [0, 1], both ends and -0.0 included."""
    rows = [divmod(divmod(key, n)[0], p_count) + (key % n,) for key in sorted(rng.sample(range(n * p_count * n), m))]
    strengths = [rng.choice((0.0, -0.0, 1.0, rng.random())) for _ in rows]
    return [[row[k] for row in rows] for k in range(3)] + [strengths]


def _edge_defects(rng: random.Random, n: int, p_count: int, m: int):
    """Valid columns with one planted defect each, at the first, a middle and the last edge."""
    at_ends = sorted({0, m // 2, m - 1})
    for at in at_ends:
        for column, bound in ((0, n), (1, p_count), (2, n)):
            for value in (-1, -rng.randint(2, 9), bound, bound + rng.randint(1, 9)):
                columns = _valid_edge_columns(rng, n, p_count, m)
                columns[column][at] = value
                yield columns
        for strength in (float("nan"), -0.1, 1.5):
            columns = _valid_edge_columns(rng, n, p_count, m)
            columns[3][at] = strength
            yield columns
        if at:
            repeated, descending = _valid_edge_columns(rng, n, p_count, m), _valid_edge_columns(rng, n, p_count, m)
            for column in range(3):
                repeated[column][at] = repeated[column][at - 1]
                descending[column][at - 1], descending[column][at] = descending[column][at], descending[column][at - 1]
            yield repeated
            yield descending


def test_column_edge_checks_agree_with_the_per_edge_walk():
    """The whole-column test clears every valid graph, and on each planted
    defect the constructor raises the message the per-edge walk gives."""
    rng = random.Random(2911)
    planted = 0
    for _ in range(40):
        n, p_count = rng.randint(1, 6), rng.randint(1, 3)
        m = rng.randint(1, min(25, n * p_count * n))
        ids, names = tuple(f"N{i}" for i in range(n)), tuple(f"P{i}" for i in range(p_count))
        nodes = [ConceptNode(node_id, f"node {node_id}") for node_id in ids]
        valid = _valid_edge_columns(rng, n, p_count, m)
        arrays = [array(code, column) for code, column in zip("iiid", valid)]
        assert _edges_clear(ids, names, *arrays)
        assert KnowledgeGraph(nodes, names, *arrays, IngestStats()).edge_count == m
        for columns in _edge_defects(rng, n, p_count, m):
            arrays = [array(code, column) for code, column in zip("iiid", columns)]
            walk = _first_edge_defect(ids, names, *arrays)
            with pytest.raises(ValidationError) as info:
                KnowledgeGraph(nodes, names, *arrays, IngestStats())
            assert str(info.value) == walk
            planted += 1
    assert planted > 1000


def _node_columns(rng: random.Random, count: int) -> list[list]:
    """Seeded id, name, type-set and alias-set columns: sets shared between
    nodes, empty sets and non-ASCII names."""
    shared = [frozenset(), frozenset({"dsyn"}), frozenset({"dsyn", "patf"}), frozenset({"Größe", "心"})]
    words = ["alpha", "Ωmega", "naïve café", "心筋梗塞", "ǅemal", "x"]
    ids = [f"C{i:05d}" for i in range(count)]
    names = [f"{rng.choice(words)} {i}" for i in range(count)]
    types = [rng.choice(shared) for _ in range(count)]
    aliases = [rng.choice([*shared, frozenset({rng.choice(words)})]) for _ in range(count)]
    return [ids, names, types, aliases]


def test_column_built_nodes_are_the_nodes_the_constructor_builds():
    columns = _node_columns(random.Random(29), 300)
    built = _concept_nodes(*columns)
    expected = [ConceptNode(*row) for row in zip(*columns)]
    assert [type(node) for node in built] == [ConceptNode] * len(expected)
    assert built == expected
    assert list(map(hash, built)) == list(map(hash, expected))
    assert list(map(repr, built)) == list(map(repr, expected))
    # the set objects are the columns' own, so equal sets stay shared
    assert all(
        node.semantic_types is types and node.aliases is aliases for node, types, aliases in zip(built, *columns[2:])
    )
    for node in built[:5]:
        for name in ConceptNode.__slots__:
            with pytest.raises(FrozenInstanceError):
                setattr(node, name, "changed")
            with pytest.raises(FrozenInstanceError):
                delattr(node, name)
    assert built[:5] == expected[:5]
    # A name that is no field is refused as on a constructed node (a
    # TypeError from the slotted dataclass's ``__setattr__`` on Python 3.11).
    refusals = []
    for node in (built[0], expected[0]):
        with pytest.raises(Exception) as info:
            node.extra = "changed"
        refusals.append(type(info.value))
    assert refusals[0] is refusals[1]
    assert _concept_nodes([], [], [], []) == []


def test_concept_node_keeps_what_the_column_builder_relies_on():
    """``_concept_nodes`` sets each slot and skips ``__init__``: a
    ``__post_init__`` would never run, and a slot missed would stay unset."""
    assert not hasattr(ConceptNode, "__post_init__")
    assert ConceptNode.__slots__ == tuple(field.name for field in fields(ConceptNode))


def test_load_and_ingest_make_no_concept_node_init_call(tmp_path, fixtures_dir, monkeypatch):
    calls = []
    init = ConceptNode.__init__

    def counting_init(self, *args, **kwargs):
        calls.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ConceptNode, "__init__", counting_init)
    assert ConceptNode("A", "Alpha") == _ALPHA and len(calls) == 1
    graph = load_triples(fixtures_dir / "triples.tsv")
    save_graph(graph, tmp_path / "graph.crag")
    loaded = load_graph(tmp_path / "graph.crag")
    assert graph.node_count > 0 and list(loaded.nodes()) == list(graph.nodes())
    assert len(calls) == 1


def test_adjacency_unknown_node():
    graph = make_graph([("A", "CAUSES", "B", 0.9)])
    with pytest.raises(NotFoundError):
        graph.out_edges("missing")
    with pytest.raises(NotFoundError):
        graph.in_edges("missing")


# -- shortest paths -----------------------------------------------------------


def test_shortest_path_identity_and_chain(chain_graph):
    assert shortest_path_length(chain_graph, "A", "A", 4) == 0
    assert shortest_path_length(chain_graph, "A", "C", 4) == 1  # weak direct edge counts here
    assert shortest_path_length(chain_graph, "A", "B", 4) == 1
    assert shortest_path_length(chain_graph, "B", "C", 4) == 1


def test_shortest_path_pure_chain():
    graph = make_graph([("A", "CAUSES", "B", 0.9), ("B", "CAUSES", "C", 0.8)])
    assert shortest_path_length(graph, "A", "C", 4) == 2


def test_shortest_path_disconnected_within_bound():
    graph = make_graph([("A", "CAUSES", "B", 0.9), ("C", "CAUSES", "D", 0.9)])
    assert shortest_path_length(graph, "A", "D", 4) is None


def test_shortest_path_unknown_node():
    graph = make_graph([("A", "CAUSES", "B", 0.9)])
    with pytest.raises(NotFoundError):
        shortest_path_length(graph, "A", "missing", 3)


def _bfs_oracle(graph, start, goal, max_hops):
    if start == goal:
        return 0
    queue = deque([(start, 0)])
    seen = {start}
    while queue:
        node, depth = queue.popleft()
        if depth == max_hops:
            continue
        for idx in graph.out_edges(node):
            target = graph.base.edge(idx).object
            if target == goal:
                return depth + 1
            if target not in seen:
                seen.add(target)
                queue.append((target, depth + 1))
    return None


def test_shortest_path_matches_bruteforce_on_random_graphs():
    """On each random graph and on a view of it at a random theta: the BFS
    reads ``successors``, the oracle the filtered ``out_edges``."""
    rng = random.Random(20250810)
    theta_rng = random.Random(22)
    table = CausalityTable({"REL": 1.0})
    for _ in range(60):
        node_count = rng.randint(2, 12)
        names = [f"N{i}" for i in range(node_count)]
        edges = []
        seen = set()
        for _ in range(rng.randint(1, 30)):
            s, o = rng.choice(names), rng.choice(names)
            triple = (s, "REL", o)
            if triple in seen:
                continue
            seen.add(triple)
            edges.append((s, "REL", o, rng.random()))
        if not edges:
            continue
        graph = make_graph(edges)
        view = build_causal_view(graph, table, theta_rng.random())
        max_hops = rng.randint(1, 4)
        for _ in range(10):
            a, b = rng.choice(names), rng.choice(names)
            if not (graph.has_node(a) and graph.has_node(b)):
                continue
            for source in (graph, view):
                assert shortest_path_length(source, a, b, max_hops) == _bfs_oracle(source, a, b, max_hops)


# -- artifact round trip --------------------------------------------------------


def test_artifact_round_trip(tmp_path):
    graph = ingest_triples(
        [
            HEADER,
            row("C1", "Alpha", "CAUSES", "C2", "Beta", subj_types="dsyn"),
            row("C2", "Beta", "TREATS", "C3", "Gamma"),
        ]
    )
    path = tmp_path / "graph.crag"
    save_graph(graph, path)
    loaded = load_graph(path)
    assert edges_of(loaded) == edges_of(graph)
    assert [n.id for n in loaded.nodes()] == [n.id for n in graph.nodes()]
    assert loaded.node("C1").semantic_types == {"dsyn"}
    assert loaded.stats == graph.stats


def test_version_1_artifact_is_refused_with_a_rebuild_hint(fixtures_dir):
    """``graph_v1.crag`` was written by ``build-graph`` from the fixture TSV
    in the pickled format 1, which is no longer read."""
    with pytest.raises(ArtifactError) as info:
        load_graph(fixtures_dir / "graph_v1.crag")
    message = str(info.value)
    assert "version 1" in message and "rebuild it with causalrag build-graph" in message


_LOAD_CALLS: list[tuple] = []


def _record_load(*args):
    _LOAD_CALLS.append(args)
    return []


class _Hostile:
    """Unpickles by calling ``_record_load``, as a code-running payload would."""

    def __reduce__(self):
        return (_record_load, ("ran",))


def test_version_2_artifact_is_refused_with_a_rebuild_hint(fixtures_dir):
    """``graph_v2.crag`` was written by ``build-graph`` from the fixture TSV
    in format 2, whose edges follow row order, not key order."""
    with pytest.raises(ArtifactError) as info:
        load_graph(fixtures_dir / "graph_v2.crag")
    message = str(info.value)
    assert "version 2" in message and "rebuild it with causalrag build-graph" in message


def test_artifact_payload_cannot_run_code(tmp_path):
    """A pickled payload is never decoded, behind a version-1, -2 or -3 header."""
    payload = pickle.dumps({"nodes": _Hostile(), "edges": [], "stats": (0, 0, 0)}, protocol=4)
    path = tmp_path / "hostile.crag"
    for version, message in ((1, "version 1"), (2, "version 2"), (3, "corrupt")):
        path.write_bytes(b"CRAG" + struct.pack(">H", version) + payload)
        with pytest.raises(ArtifactError, match=message) as info:
            load_graph(path)
        assert str(path) in str(info.value)
    assert _LOAD_CALLS == []


def test_truncated_artifact_is_an_artifact_error(tmp_path):
    graph = make_graph([("A", "CAUSES", "B", 0.9), ("B", "TREATS", "C", 0.7)])
    path = tmp_path / "graph.crag"
    save_graph(graph, path)
    blob = path.read_bytes()
    for end in range(6, len(blob)):
        path.write_bytes(blob[:end])
        with pytest.raises(ArtifactError, match="corrupt") as info:
            load_graph(path)
        assert info.value.__cause__ is not None


def test_artifact_rejects_bad_magic_and_version(tmp_path):
    bogus = tmp_path / "bogus.crag"
    bogus.write_bytes(b"NOPE" + b"\x00\x01" + b"junk")
    with pytest.raises(ArtifactError, match="not a causalrag"):
        load_graph(bogus)

    graph = make_graph([("A", "CAUSES", "B", 0.9)])
    path = tmp_path / "graph.crag"
    save_graph(graph, path)
    blob = bytearray(path.read_bytes())
    blob[5] = 99  # bump version byte
    path.write_bytes(bytes(blob))
    with pytest.raises(ArtifactError, match="version 99 unsupported"):
        load_graph(path)


def _v3_artifact(
    ids=("A", "B", "C"),
    names=("Alpha", "Beta", "Gamma"),
    predicates=("CAUSES", "TREATS"),
    sets=(("dsyn",), (), ("beta",)),
    node_sets=(0, 1, 1, 1, 2, 1),
    edges=((0, 0, 1, 0.9), (0, 0, 2, 1.0), (1, 1, 2, 0.7)),
    set_sizes=None,
    edge_count=None,
    trailing=b"",
) -> bytes:
    """A format-3 artifact laid out by hand, with a valid checksum.

    Strings may be given as bytes, to plant bad UTF-8. ``set_sizes``
    overrides each set's member count as written, and ``edge_count`` the
    number of edges the header declares. An edge row short of a field
    leaves that column short; fields past the strength are written after
    the strength column.
    """
    strings = [s if isinstance(s, bytes) else s.encode() for s in (*ids, *names, *predicates, *sum(sets, ()))]
    columns = [[row[k] for row in edges if k < len(row)] for k in range(4)]
    extra = [value for row in edges for value in row[4:]]
    body = b"".join(
        [
            struct.pack(f"<{len(strings)}I", *map(len, strings)),
            *strings,
            struct.pack(f"<{len(sets)}I", *(set_sizes or map(len, sets))),
            struct.pack(f"<{len(node_sets)}I", *node_sets),
            *(struct.pack(f"<{len(column)}i", *column) for column in columns[:3]),
            struct.pack(f"<{len(columns[3]) + len(extra)}d", *columns[3], *extra),
            trailing,
        ]
    )
    m = len(edges) if edge_count is None else edge_count
    counts = (len(ids), len(predicates), len(sets), sum(map(len, sets)), m)
    header = struct.pack("<5I3QI", *counts, 3, 0, 0, zlib.crc32(body))
    return b"CRAG" + struct.pack(">H", 3) + header + body


def test_hand_built_payload_loads(tmp_path):
    """The layout documented in ``load_graph`` reads, and ``save_graph`` writes it byte for byte."""
    path = tmp_path / "hand.crag"
    path.write_bytes(_v3_artifact())
    graph = load_graph(path)
    assert edges_of(graph) == (
        KgEdge("A", "CAUSES", "B", 0.9), KgEdge("A", "CAUSES", "C", 1.0), KgEdge("B", "TREATS", "C", 0.7)
    )
    assert list(graph.nodes()) == [
        ConceptNode("A", "Alpha", frozenset({"dsyn"})),
        ConceptNode("B", "Beta", aliases=frozenset({"beta"})),
        ConceptNode("C", "Gamma"),
    ]
    assert graph.stats == IngestStats(3, 0, 0)
    save_graph(graph, tmp_path / "saved.crag")
    assert (tmp_path / "saved.crag").read_bytes() == path.read_bytes()


_NAN = float("nan")


# The cases with ``-nodes``/``-edges`` in their ids keep the ids they had when
# the rows were pickled (format 1), each planting the defect nearest to its
# old one. Format 1 also planted list rows and strings, booleans or None where
# a field's type was due; the fixed binary columns of format 2 cannot hold those.
@pytest.mark.parametrize(
    "artifact, message",
    [
        pytest.param(
            _v3_artifact(edges=((0, 0, 1, 0.9), (1, 1, 2), (0, 0, 2, 1.0))),
            "strings need 37 bytes, the body holds 29",
            id="3-field edge row-nodes0-edges0",
        ),
        pytest.param(
            _v3_artifact(edges=((0, 0, 1, 0.9), (1, 1, 2, 0.7, 0.1), (0, 0, 2, 1.0))),
            "strings need 37 bytes, the body holds 45",
            id="5-field edge row-nodes1-edges1",
        ),
        pytest.param(
            _v3_artifact(edges=((0, 0, 1, 0.9), (0, 0, 2, _NAN), (1, 1, 2, 0.7))),
            "edge ('A', 'CAUSES', 'C') strength nan outside [0, 1]",
            id="NaN strength-nodes3-edges3",
        ),
        pytest.param(
            _v3_artifact(edges=((0, 0, 1, 1.5),)), "edge ('A', 'CAUSES', 'B') strength 1.5 outside [0, 1]", id="1.5"
        ),
        pytest.param(
            _v3_artifact(edges=((0, 0, 1, -0.1),)), "edge ('A', 'CAUSES', 'B') strength -0.1 outside [0, 1]", id="-0.1"
        ),
        pytest.param(
            _v3_artifact(edges=((0, 0, 1, 0.9), (1, 1, 2, 0.7), (3, 0, 2, 0.5))),
            "edge 2 subject 3 out of range [0, 3)",
            id="non-string edge id-nodes8-edges8",
        ),
        pytest.param(
            _v3_artifact(edges=((0, 0, 1, 0.9), (1, 1, 2, 0.7), (0, 2, 2, 0.5))),
            "edge 2 predicate 2 out of range [0, 2)",
            id="non-string predicate-nodes9-edges9",
        ),
        pytest.param(
            _v3_artifact(edges=((0, 0, 1, 0.9), (1, 1, 2, 0.7), (0, 0, 3, 0.5))),
            "edge 2 object 3 out of range [0, 3)",
            id="edge to an unknown node-nodes10-edges10",
        ),
        pytest.param(_v3_artifact(edges=((0, 0, -1, 0.9),)), "edge 0 object -1 out of range [0, 3)", id="object"),
        pytest.param(
            _v3_artifact(edges=((0, 0, 1, 0.9), (0, 0, 1, 0.2), (1, 1, 2, 0.7))),
            "duplicate triple ('A', 'CAUSES', 'B')",
            id="duplicate triple",
        ),
        pytest.param(
            _v3_artifact(edges=((0, 0, 2, 1.0), (0, 0, 1, 0.9), (1, 1, 2, 0.7))),
            "edge 1 ('A', 'CAUSES', 'B') out of key order",
            id="edges out of order",
        ),
        pytest.param(_v3_artifact(ids=("A", "", "C")), "node id must be non-empty", id="empty node id"),
        pytest.param(_v3_artifact(ids=("A", "C", "C")), "duplicate node id 'C'", id="duplicate node id"),
        pytest.param(_v3_artifact(names=("Alpha", "", "Gamma")), "node 'B' has an empty name", id="empty name"),
        pytest.param(
            _v3_artifact(predicates=("CAUSES", "CAUSES")), "duplicate predicate 'CAUSES'", id="duplicate predicate"
        ),
        pytest.param(_v3_artifact(predicates=("CAUSES", "")), "predicate name must be non-empty", id="empty predicate"),
        pytest.param(
            _v3_artifact(names=("Alpha", b"B\xffta", "Gamma")), "can't decode byte 0xff", id="bad utf-8"
        ),
        pytest.param(
            _v3_artifact(node_sets=(0, 1, 1, 1, 3, 1)), "node set 3 out of range [0, 3)", id="set index"
        ),
        pytest.param(
            _v3_artifact(node_sets=(0, 1, 1, 1, 2)),
            "strings need 37 bytes, the body holds 33",
            id="3-field node row-nodes11-edges11",
        ),
        pytest.param(_v3_artifact(set_sizes=(1, 0, 2)), "sets hold 3 members, the header declares 2", id="member count"),
        pytest.param(
            _v3_artifact(edges=(), edge_count=5),
            "counts need 176 bytes of columns, the body holds 113",
            id="edges not a list-nodes12-5",
        ),
        pytest.param(_v3_artifact(trailing=b"\x00"), "strings need 37 bytes, the body holds 38", id="trailing bytes"),
    ],
)
def test_corrupt_payload_is_an_artifact_error(tmp_path, artifact, message):
    path = tmp_path / "hand.crag"
    path.write_bytes(artifact)
    with pytest.raises(ArtifactError) as info:
        load_graph(path)
    assert str(info.value).startswith(f"{path}: corrupt graph artifact (")
    assert message in str(info.value)


def test_artifact_checksum_and_declared_sizes_are_checked_before_reading(tmp_path):
    path = tmp_path / "hand.crag"
    blob = bytearray(_v3_artifact())
    blob[-1] ^= 0x40
    path.write_bytes(bytes(blob))
    with pytest.raises(ArtifactError, match="checksum mismatch"):
        load_graph(path)
    # A billion edges, resealed: refused by size, with no allocation tried.
    header = bytearray(_v3_artifact()[6:54])
    struct.pack_into("<I", header, 16, 10**9)
    blob = b"CRAG\x00\x03" + bytes(header) + _v3_artifact()[54:]
    path.write_bytes(blob)
    with pytest.raises(ArtifactError, match="counts need 20000000"):
        load_graph(path)


def test_artifact_bytes_are_deterministic(tmp_path, fixtures_dir):
    weights = load_config(fixtures_dir / "config.yaml").causality.weight
    graph = load_triples(fixtures_dir / "triples.tsv", weights)
    first, second, third = (tmp_path / f"{name}.crag" for name in ("first", "second", "third"))
    save_graph(graph, first)
    save_graph(graph, second)
    save_graph(load_graph(first), third)
    assert first.read_bytes() == second.read_bytes() == third.read_bytes()


def test_interrupted_save_leaves_the_earlier_artifact_whole(tmp_path, monkeypatch):
    path = tmp_path / "graph.crag"
    save_graph(make_graph([("A", "CAUSES", "B", 0.9)]), path)
    before = path.read_bytes()

    class FailingFile(io.FileIO):
        def write(self, data):
            super().write(bytes(data)[: len(data) // 2])
            raise OSError(28, "No space left on device")

    monkeypatch.setattr("causalrag.graph.open", lambda name, mode: FailingFile(name, "w"), raising=False)
    with pytest.raises(OSError, match="No space"):
        save_graph(make_graph([("A", "CAUSES", "B", 0.9), ("B", "TREATS", "C", 0.7)]), path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["graph.crag"]


def test_save_through_a_symlink_rewrites_the_file_it_names(tmp_path):
    real, link = tmp_path / "real.crag", tmp_path / "link.crag"
    save_graph(make_graph([("A", "CAUSES", "B", 0.9)]), real)
    link.symlink_to(real)
    graph = make_graph([("A", "CAUSES", "B", 0.9), ("B", "TREATS", "C", 0.7)])
    save_graph(graph, link)
    assert link.is_symlink()
    assert edges_of(load_graph(real)) == edges_of(graph)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.crag", "real.crag"]


def test_save_to_a_pipe_writes_through_it(tmp_path):
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    received = []
    reader = threading.Thread(target=lambda: received.append(pipe.read_bytes()), daemon=True)
    reader.start()
    graph = make_graph([("A", "CAUSES", "B", 0.9)])
    save_graph(graph, pipe)
    reader.join(timeout=10)
    assert stat.S_ISFIFO(pipe.stat().st_mode)
    save_graph(graph, tmp_path / "file.crag")
    assert received == [(tmp_path / "file.crag").read_bytes()]


def test_graph_memory_per_edge_is_pinned():
    """Graph memory, nodes included, stays near its measured size.

    A seeded 6000-edge, 1500-node graph with explicit strengths measured
    96 B per edge under ``tracemalloc`` after ingest (Python 3.11); the
    bound is 1.5x that, 144 B. The dict-of-lists core with one ``KgEdge``
    per edge measured 690 B per edge on the same graph.
    """
    rng = random.Random(4242)
    types = ["dsyn", "patf", "sosy", "neop", "orgf"]
    names = {f"C{i:05d}": f"concept {i}" for i in range(1500)}
    semtypes = {cui: ",".join(rng.sample(types, rng.randint(1, 2))) for cui in names}
    cuis = list(names)
    lines, triples = [HEADER_WITH_STRENGTH], set()
    while len(triples) < 6000:
        predicate = rng.choice(("CAUSES", "TREATS", "AFFECTS", "ASSOCIATED_WITH"))
        triple = (rng.choice(cuis), predicate, rng.choice(cuis))
        if triple not in triples:
            triples.add(triple)
            s, p, o = triple
            lines.append(row(s, names[s], p, o, names[o], semtypes[s], semtypes[o], round(rng.random(), 3)))
    gc.collect()
    tracemalloc.start()
    try:
        graph = ingest_triples(lines)
        gc.collect()
        size, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert graph.edge_count == 6000
    assert size / graph.edge_count < 1.5 * 96


def _ingest_peak_corpus(seed: int = 2026) -> list[str]:
    """About 20k rows over 5000 nodes: each node on several rows, some rows
    with another name or types field, repeated triples and some explicit
    strengths."""
    rng = random.Random(seed)
    types = ["dsyn", "patf", "sosy", "neop", "orgf", "gngm", "phsu"]
    cuis = [f"C{i:07d}" for i in range(5000)]
    names = {cui: f"concept {i}" for i, cui in enumerate(cuis)}
    semtypes = {cui: ",".join(rng.sample(types, rng.randint(1, 3))) for cui in cuis}
    predicates = ("CAUSES", "TREATS", "AFFECTS", "ASSOCIATED_WITH", "ISA", "INTERACTS_WITH")

    def end(cui):
        roll = rng.random()
        if roll < 0.03:
            return cui, f"{names[cui]} alias {rng.randint(0, 2)}", semtypes[cui]
        if roll < 0.06:
            return cui, names[cui], rng.choice(types)
        return cui, names[cui], semtypes[cui]

    lines, written = [HEADER_WITH_STRENGTH], []
    for _ in range(20_000):
        if written and rng.random() < 0.05:
            s, p, o = rng.choice(written)
        else:
            s, p, o = rng.choice(cuis), rng.choice(predicates), rng.choice(cuis)
            written.append((s, p, o))
        (s, s_name, s_types), (o, o_name, o_types) = end(s), end(o)
        strength = round(rng.random(), 3) if rng.random() < 0.1 else None
        lines.append(row(s, s_name, p, o, o_name, s_types, o_types, strength))
    return lines


def test_ingest_peak_is_pinned_to_the_graph_size():
    """The traced peak of an ingest stays near the size of the graph it returns.

    On this corpus the peak read 2.8x the graph's traced size when the
    reader kept a set of types fields per node and its interning tables
    lived through the sort and the constructor, and 1.8x with neither
    (Python 3.11); the bound sits between them.
    """
    lines = _ingest_peak_corpus()
    gc.collect()
    tracemalloc.start()
    try:
        graph = ingest_triples(lines)
        gc.collect()
        size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert graph.stats.duplicate_triples > 0
    assert any(node.aliases for node in graph.nodes())
    assert peak / size <= 2.2
