from __future__ import annotations

import gc
import pickle
import random
import tracemalloc
from collections import deque

import pytest

from causalrag.config import load_config
from causalrag.errors import ArtifactError, IngestionError, NotFoundError, ValidationError
from causalrag.graph import (
    ConceptNode,
    KgEdge,
    KnowledgeGraph,
    ingest_triples,
    load_graph,
    load_triples,
    save_graph,
    shortest_path_length,
)

from .conftest import make_graph

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
    assert graph.edges[0].strength == 0.8


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
    by_predicate = {e.predicate: e.strength for e in graph.edges}
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
    assert first.edges == second.edges


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


def test_graph_rejects_unknown_endpoints_and_bad_strength():
    with pytest.raises(ValidationError):
        KnowledgeGraph(
            [ConceptNode(id="A", name="A")],
            [KgEdge(subject="A", predicate="CAUSES", object="B", strength=0.5)],
        )
    with pytest.raises(ValidationError):
        make_graph([("A", "CAUSES", "B", 1.5)])


_ALPHA, _BETA = ConceptNode("A", "Alpha"), ConceptNode("B", "Beta")
_TREATS = KgEdge("A", "TREATS", "B", 0.5)


@pytest.mark.parametrize(
    "nodes, edges, message",
    [
        ([_ALPHA, ConceptNode("", "x")], [], "node id must be non-empty"),
        ([_ALPHA, ConceptNode("B", "")], [], "node 'B' has an empty name"),
        ([_ALPHA, _ALPHA], [], "duplicate node id 'A'"),
        ([_ALPHA], [KgEdge("X", "CAUSES", "A", 0.5)], "edge ('X', 'CAUSES', 'A') references unknown subject"),
        ([_ALPHA], [KgEdge("A", "CAUSES", "X", 0.5)], "edge ('A', 'CAUSES', 'X') references unknown object"),
        (
            [_ALPHA, _BETA],
            [_TREATS, KgEdge("A", "CAUSES", "B", -0.1)],
            "edge ('A', 'CAUSES', 'B') strength -0.1 outside [0, 1]",
        ),
        (
            [_ALPHA, _BETA],
            [_TREATS, KgEdge("A", "CAUSES", "B", float("nan"))],
            "edge ('A', 'CAUSES', 'B') strength nan outside [0, 1]",
        ),
        ([_ALPHA, _BETA], [_TREATS, _TREATS], "duplicate triple ('A', 'TREATS', 'B')"),
    ],
)
def test_graph_checks_name_the_bad_node_or_edge(nodes, edges, message):
    with pytest.raises(ValidationError) as info:
        KnowledgeGraph(nodes, edges)
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
    assert loaded.edges == graph.edges
    assert [n.id for n in loaded.nodes()] == [n.id for n in graph.nodes()]
    assert loaded.node("C1").semantic_types == {"dsyn"}
    assert loaded.stats == graph.stats


def test_artifact_written_before_the_columnar_core_still_loads(fixtures_dir):
    """``graph_v1.crag`` was written by ``build-graph`` from the fixture TSV
    when the graph still stored one ``KgEdge`` per edge; format version 1
    reads it into an equal graph."""
    weights = load_config(fixtures_dir / "config.yaml").causality.weight
    graph = load_triples(fixtures_dir / "triples.tsv", weights)
    loaded = load_graph(fixtures_dir / "graph_v1.crag")
    assert loaded.edges == graph.edges
    assert list(loaded.nodes()) == list(graph.nodes())
    assert loaded.stats == graph.stats


_LOAD_CALLS: list[tuple] = []


def _record_load(*args):
    _LOAD_CALLS.append(args)
    return []


class _Hostile:
    """Unpickles by calling ``_record_load``, as a code-running payload would."""

    def __reduce__(self):
        return (_record_load, ("ran",))


def _artifact_header(tmp_path) -> bytes:
    path = tmp_path / "header.crag"
    save_graph(make_graph([("A", "CAUSES", "B", 0.9)]), path)
    return path.read_bytes()[:6]


def test_artifact_payload_cannot_run_code(tmp_path):
    payload = {"nodes": _Hostile(), "edges": [], "stats": (0, 0, 0)}
    path = tmp_path / "hostile.crag"
    path.write_bytes(_artifact_header(tmp_path) + pickle.dumps(payload, protocol=4))
    with pytest.raises(ArtifactError) as info:
        load_graph(path)
    assert str(path) in str(info.value) and "_record_load" in str(info.value)
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
    with pytest.raises(ArtifactError, match="version"):
        load_graph(path)


def _payload_artifact(tmp_path, nodes, edges):
    """A hand-built version-1 artifact holding the given node and edge rows."""
    path = tmp_path / "hand.crag"
    payload = {"nodes": nodes, "edges": edges, "stats": (3, 0, 0)}
    path.write_bytes(_artifact_header(tmp_path) + pickle.dumps(payload, protocol=4))
    return path


_NODE_ROWS = [("A", "Alpha", ["dsyn"], []), ("B", "Beta", [], ["beta"]), ("C", "Gamma", [], [])]
_EDGE_ROWS = [("A", "CAUSES", "B", 0.9), ("B", "TREATS", "C", 0.7), ("A", "CAUSES", "C", 1)]


def test_hand_built_payload_loads(tmp_path):
    graph = load_graph(_payload_artifact(tmp_path, _NODE_ROWS, _EDGE_ROWS))
    assert graph.edges == tuple(KgEdge(*row) for row in _EDGE_ROWS)
    assert graph.node("B").aliases == {"beta"}


@pytest.mark.parametrize(
    "case, nodes, edges",
    [
        ("3-field edge row", _NODE_ROWS, _EDGE_ROWS[:1] + [("B", "TREATS", "C")] + _EDGE_ROWS[2:]),
        ("5-field edge row", _NODE_ROWS, _EDGE_ROWS[:1] + [("B", "TREATS", "C", 0.7, 0.1)] + _EDGE_ROWS[2:]),
        ("list edge row", _NODE_ROWS, _EDGE_ROWS[:2] + [["A", "CAUSES", "C", 1.0]]),
        ("NaN strength", _NODE_ROWS, _EDGE_ROWS[:2] + [("A", "CAUSES", "C", float("nan"))]),
        ("string strength", _NODE_ROWS, _EDGE_ROWS[:2] + [("A", "CAUSES", "C", "0.5")]),
        ("boolean strength", _NODE_ROWS, _EDGE_ROWS[:2] + [("A", "CAUSES", "C", True)]),
        ("non-string node id", _NODE_ROWS[:2] + [(3, "Gamma", [], [])], _EDGE_ROWS[:1]),
        ("non-string node name", _NODE_ROWS[:2] + [("C", None, [], [])], _EDGE_ROWS[:1]),
        ("non-string edge id", _NODE_ROWS, _EDGE_ROWS[:2] + [("A", "CAUSES", 3, 0.5)]),
        ("non-string predicate", _NODE_ROWS, _EDGE_ROWS[:2] + [("A", None, "C", 0.5)]),
        ("edge to an unknown node", _NODE_ROWS, _EDGE_ROWS[:2] + [("A", "CAUSES", "Z", 0.5)]),
        ("3-field node row", _NODE_ROWS[:2] + [("C", "Gamma", [])], _EDGE_ROWS[:1]),
        ("edges not a list", _NODE_ROWS, 5),
    ],
)
def test_corrupt_payload_is_an_artifact_error(tmp_path, case, nodes, edges):
    with pytest.raises(ArtifactError, match="corrupt"):
        load_graph(_payload_artifact(tmp_path, nodes, edges))


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
