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

import pytest

from causalrag.config import load_config
from causalrag.errors import ArtifactError, IngestionError, NotFoundError, ValidationError
from causalrag.graph import (
    ConceptNode,
    IngestStats,
    KgEdge,
    KnowledgeGraph,
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
            target = graph.edge(idx).object
            if target == goal:
                return depth + 1
            if target not in seen:
                seen.add(target)
                queue.append((target, depth + 1))
    return None


def test_shortest_path_matches_bruteforce_on_random_graphs():
    rng = random.Random(20250810)
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
        max_hops = rng.randint(1, 4)
        for _ in range(10):
            a, b = rng.choice(names), rng.choice(names)
            if not (graph.has_node(a) and graph.has_node(b)):
                continue
            assert shortest_path_length(graph, a, b, max_hops) == _bfs_oracle(
                graph, a, b, max_hops
            )


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


def test_artifact_payload_cannot_run_code(tmp_path):
    """A pickled payload is never decoded, behind a version-1 or a version-2 header."""
    payload = pickle.dumps({"nodes": _Hostile(), "edges": [], "stats": (0, 0, 0)}, protocol=4)
    path = tmp_path / "hostile.crag"
    for version, message in ((1, "version 1"), (2, "corrupt")):
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


def _v2_artifact(
    ids=("A", "B", "C"),
    names=("Alpha", "Beta", "Gamma"),
    predicates=("CAUSES", "TREATS"),
    sets=(("dsyn",), (), ("beta",)),
    node_sets=(0, 1, 1, 1, 2, 1),
    edges=((0, 0, 1, 0.9), (1, 1, 2, 0.7), (0, 0, 2, 1.0)),
    set_sizes=None,
    edge_count=None,
    trailing=b"",
) -> bytes:
    """A format-2 artifact laid out by hand, with a valid checksum.

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
    return b"CRAG" + struct.pack(">H", 2) + header + body


def test_hand_built_payload_loads(tmp_path):
    """The layout documented in ``load_graph`` reads, and ``save_graph`` writes it byte for byte."""
    path = tmp_path / "hand.crag"
    path.write_bytes(_v2_artifact())
    graph = load_graph(path)
    assert edges_of(graph) == (
        KgEdge("A", "CAUSES", "B", 0.9), KgEdge("B", "TREATS", "C", 0.7), KgEdge("A", "CAUSES", "C", 1.0)
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
            _v2_artifact(edges=((0, 0, 1, 0.9), (1, 1, 2), (0, 0, 2, 1.0))),
            "strings need 37 bytes, the body holds 29",
            id="3-field edge row-nodes0-edges0",
        ),
        pytest.param(
            _v2_artifact(edges=((0, 0, 1, 0.9), (1, 1, 2, 0.7, 0.1), (0, 0, 2, 1.0))),
            "strings need 37 bytes, the body holds 45",
            id="5-field edge row-nodes1-edges1",
        ),
        pytest.param(
            _v2_artifact(edges=((0, 0, 1, 0.9), (1, 1, 2, 0.7), (0, 0, 2, _NAN))),
            "edge ('A', 'CAUSES', 'C') strength nan outside [0, 1]",
            id="NaN strength-nodes3-edges3",
        ),
        pytest.param(
            _v2_artifact(edges=((0, 0, 1, 1.5),)), "edge ('A', 'CAUSES', 'B') strength 1.5 outside [0, 1]", id="1.5"
        ),
        pytest.param(
            _v2_artifact(edges=((0, 0, 1, -0.1),)), "edge ('A', 'CAUSES', 'B') strength -0.1 outside [0, 1]", id="-0.1"
        ),
        pytest.param(
            _v2_artifact(edges=((0, 0, 1, 0.9), (1, 1, 2, 0.7), (3, 0, 2, 0.5))),
            "edge 2 subject 3 out of range [0, 3)",
            id="non-string edge id-nodes8-edges8",
        ),
        pytest.param(
            _v2_artifact(edges=((0, 0, 1, 0.9), (1, 1, 2, 0.7), (0, 2, 2, 0.5))),
            "edge 2 predicate 2 out of range [0, 2)",
            id="non-string predicate-nodes9-edges9",
        ),
        pytest.param(
            _v2_artifact(edges=((0, 0, 1, 0.9), (1, 1, 2, 0.7), (0, 0, 3, 0.5))),
            "edge 2 object 3 out of range [0, 3)",
            id="edge to an unknown node-nodes10-edges10",
        ),
        pytest.param(_v2_artifact(edges=((0, 0, -1, 0.9),)), "edge 0 object -1 out of range [0, 3)", id="object"),
        pytest.param(
            _v2_artifact(edges=((0, 0, 1, 0.9), (1, 1, 2, 0.7), (0, 0, 1, 0.2))),
            "duplicate triple ('A', 'CAUSES', 'B')",
            id="duplicate triple",
        ),
        pytest.param(_v2_artifact(ids=("A", "", "C")), "node id must be non-empty", id="empty node id"),
        pytest.param(_v2_artifact(ids=("A", "C", "C")), "duplicate node id 'C'", id="duplicate node id"),
        pytest.param(_v2_artifact(names=("Alpha", "", "Gamma")), "node 'B' has an empty name", id="empty name"),
        pytest.param(
            _v2_artifact(predicates=("CAUSES", "CAUSES")), "duplicate predicate 'CAUSES'", id="duplicate predicate"
        ),
        pytest.param(
            _v2_artifact(names=("Alpha", b"B\xffta", "Gamma")), "can't decode byte 0xff", id="bad utf-8"
        ),
        pytest.param(
            _v2_artifact(node_sets=(0, 1, 1, 1, 3, 1)), "node set 3 out of range [0, 3)", id="set index"
        ),
        pytest.param(
            _v2_artifact(node_sets=(0, 1, 1, 1, 2)),
            "strings need 37 bytes, the body holds 33",
            id="3-field node row-nodes11-edges11",
        ),
        pytest.param(_v2_artifact(set_sizes=(1, 0, 2)), "sets hold 3 members, the header declares 2", id="member count"),
        pytest.param(
            _v2_artifact(edges=(), edge_count=5),
            "counts need 176 bytes of columns, the body holds 113",
            id="edges not a list-nodes12-5",
        ),
        pytest.param(_v2_artifact(trailing=b"\x00"), "strings need 37 bytes, the body holds 38", id="trailing bytes"),
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
    blob = bytearray(_v2_artifact())
    blob[-1] ^= 0x40
    path.write_bytes(bytes(blob))
    with pytest.raises(ArtifactError, match="checksum mismatch"):
        load_graph(path)
    # A billion edges, resealed: refused by size, with no allocation tried.
    header = bytearray(_v2_artifact()[6:54])
    struct.pack_into("<I", header, 16, 10**9)
    blob = b"CRAG\x00\x02" + bytes(header) + _v2_artifact()[54:]
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
