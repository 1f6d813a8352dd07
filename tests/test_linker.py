from __future__ import annotations

import random

from causalrag.graph import ConceptNode, KgEdge
from causalrag.linker import build_index, load_alias_file, normalize_surface

from .oracles import graph_from_edges


def _graph(nodes):
    # one dummy edge so the graph is non-trivial; linking only uses nodes
    node_objs = [
        ConceptNode(id=nid, name=name, aliases=frozenset(aliases))
        for nid, name, aliases in nodes
    ]
    edge = KgEdge(
        subject=node_objs[0].id, predicate="CAUSES", object=node_objs[-1].id, strength=0.9
    )
    return graph_from_edges(node_objs, [edge])


def test_normalization_rules():
    assert normalize_surface("  Myocardial   Infarction. ") == "myocardial infarction"
    assert normalize_surface("type-2 (diabetes)") == "type 2 diabetes"
    assert normalize_surface("___") == ""


def test_index_keys_are_normalized():
    graph = _graph([("C1", "Myocardial Infarction", ()), ("C2", "Aspirin", ())])
    index = build_index(graph)
    assert index.link("myocardial infarction") == {"C1"}
    assert index.link("MYOCARDIAL INFARCTION.") == {"C1"}


def test_shared_alias_maps_to_both_ids():
    graph = _graph([("C1", "Myocardial Infarction", ("MI",)), ("C2", "Mitral Insufficiency", ("MI",))])
    index = build_index(graph)
    assert index.link("mi") == {"C1", "C2"}


def test_empty_alias_ignored():
    graph = _graph([("C1", "Aspirin", ("", "  ")), ("C2", "Stroke", ())])
    index = build_index(graph)
    assert len(index) == 2  # just the two names


def test_link_exact_match_in_sentence():
    graph = _graph([("C1", "Myocardial Infarction", ()), ("C2", "Aspirin", ())])
    index = build_index(graph)
    assert index.link("history of myocardial infarction.") == {"C1"}


def test_link_no_match_is_empty_not_error():
    graph = _graph([("C1", "Myocardial Infarction", ()), ("C2", "Aspirin", ())])
    index = build_index(graph)
    assert index.link("completely unrelated sentence") == frozenset()
    assert index.link("") == frozenset()


def test_link_multiple_entities_union():
    graph = _graph([("C1", "Myocardial Infarction", ()), ("C2", "Aspirin", ())])
    index = build_index(graph)
    found = index.link("gave aspirin after the myocardial infarction resolved")
    assert found == {"C1", "C2"}


def test_longest_match_suppresses_nested_surface():
    graph = _graph([("C1", "Heart", ()), ("C2", "Heart Failure", ())])
    index = build_index(graph)
    # "heart failure" must win over the nested "heart" at the same start
    assert index.link("signs of heart failure today") == {"C2"}
    assert index.link("the heart looked normal") == {"C1"}


def test_every_node_name_links_to_itself():
    names = [("C1", "Hypertension", ()), ("C2", "Stroke", ()), ("C3", "Type 2 Diabetes", ())]
    graph = _graph(names)
    index = build_index(graph)
    for nid, name, _ in names:
        assert nid in index.link(name)


def test_link_deterministic():
    graph = _graph([("C1", "Hypertension", ()), ("C2", "Stroke", ())])
    index = build_index(graph)
    text = "hypertension often precedes stroke"
    assert index.link(text) == index.link(text)


def _naive_scan_oracle(surfaces: dict[str, set[str]], text: str) -> set[str]:
    """Token-by-token longest-match reimplementation over raw surface keys."""
    tokens = normalize_surface(text).split()
    keys = {tuple(normalize_surface(s).split()): ids for s, ids in surfaces.items()}
    keys = {k: v for k, v in keys.items() if k}
    found: set[str] = set()
    i = 0
    while i < len(tokens):
        best_width = 0
        best_ids: set[str] = set()
        for key, ids in keys.items():
            width = len(key)
            if width > best_width and tuple(tokens[i : i + width]) == key:
                best_width = width
                best_ids = ids
        if best_width:
            found |= best_ids
            i += best_width
        else:
            i += 1
    return found


def test_link_matches_naive_substring_oracle():
    surfaces = {
        "Myocardial Infarction": {"C1"},
        "Aspirin": {"C2"},
        "Heart": {"C3"},
        "Heart Failure": {"C4"},
        "Type 2 Diabetes": {"C5"},
    }
    graph = _graph([(next(iter(ids)), surface, ()) for surface, ids in surfaces.items()])
    index = build_index(graph)

    rng = random.Random(11)
    vocabulary = [
        "myocardial", "infarction", "aspirin", "heart", "failure", "type", "2",
        "diabetes", "patient", "with", "acute", "onset", "the",
    ]
    for _ in range(300):
        text = " ".join(rng.choice(vocabulary) for _ in range(rng.randint(1, 12)))
        assert index.link(text) == _naive_scan_oracle(surfaces, text)


def test_alias_file_merged_and_unknown_cui_skipped(tmp_path, caplog):
    graph = _graph([("C1", "Myocardial Infarction", ()), ("C2", "Aspirin", ())])
    alias_path = tmp_path / "aliases.tsv"
    alias_path.write_text(
        "# cui\talias\nC1\theart attack\nC9\tghost concept\n", encoding="utf-8"
    )
    rows = load_alias_file(alias_path)
    with caplog.at_level("WARNING"):
        index = build_index(graph, rows)
    assert index.link("she had a heart attack") == {"C1"}
    assert any("unknown CUI" in message for message in caplog.messages)


def test_alias_problems_warn_once_with_their_counts(tmp_path, caplog):
    graph = _graph([("C1", "Myocardial Infarction", ()), ("C2", "Aspirin", ())])
    alias_path = tmp_path / "aliases.tsv"
    alias_path.write_text(
        "C1\theart attack\nC9\tghost\nC8\tphantom\nC9\tspectre\n"
        "C2\nC2\t\n\tnameless\n  \n# comment\nC2\tASA\textra\n",
        encoding="utf-8",
    )
    with caplog.at_level("WARNING", logger="causalrag"):
        rows = load_alias_file(alias_path)
        index = build_index(graph, rows)
    assert rows == [("C1", "heart attack"), ("C9", "ghost"), ("C8", "phantom"), ("C9", "spectre"), ("C2", "ASA")]
    assert index.link("asa after a heart attack") == {"C1", "C2"}
    assert caplog.messages == [
        f"{alias_path}: skipped 3 malformed alias rows",
        "skipped 3 alias rows naming an unknown CUI",
    ]


def test_link_on_index():
    graph = _graph([("C1", "Stroke", ()), ("C2", "Aspirin", ())])
    index = build_index(graph)
    assert index.link("stroke risk") == {"C1"}
