from __future__ import annotations

import random
import re
import sys

from causalrag.graph import ConceptNode, KgEdge
from causalrag.linker import LinkerIndex, _tokens, build_index, load_alias_file

from .oracles import graph_from_edges
from .test_retrieval import _RecordingMap


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
    assert _tokens("  Myocardial   Infarction. ") == ["myocardial", "infarction"]
    assert _tokens("type-2 (diabetes)") == ["type", "2", "diabetes"]
    assert _tokens("___") == []


def _old_rule_tokens(text: str) -> list[str]:
    """Reference tokenizer: substitute each run of non-word characters and
    ``_`` with a space, then split on whitespace."""
    return re.sub(r"[\W_]+", " ", text.lower()).split()


def test_tokens_match_the_substitute_and_split_rule_on_every_code_point():
    # A space separates the cases under both rules, so each chunk's tokens are
    # its cases' tokens in order; the message names the cases that differ.
    for start in range(0, sys.maxunicode + 1, 4096):
        chars = [chr(cp) for cp in range(start, min(start + 4096, sys.maxunicode + 1))]
        text = " ".join(f"a{c}b {c} x{c}" for c in chars)
        assert _tokens(text) == _old_rule_tokens(text), [
            hex(ord(c)) for c in chars
            if _tokens(f"a{c}b {c} x{c}") != _old_rule_tokens(f"a{c}b {c} x{c}")
        ]


def test_tokens_match_the_substitute_and_split_rule_on_random_strings():
    pool = list("aZ9_ -.,\t\n") + [
        "\u0301", "\u0308", "\u20dd",  # combining marks
        "é", "ß", "İ", "Σ", "ς", "ж", "中", "ǅ",  # non-ASCII letters
        "٣", "²", "Ⅻ", "৪",  # non-ASCII digits and numerals
        "\u3000", "\u00a0", "\u2028",  # ideographic, no-break and line separator spaces
    ]
    rng = random.Random(24)
    for _ in range(5000):
        text = "".join(rng.choice(pool) for _ in range(rng.randint(0, 16)))
        assert _tokens(text) == _old_rule_tokens(text), repr(text)


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
    assert set(index._entries) == {("aspirin",), ("stroke",)}  # just the two names


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
    """Token-by-token longest-match reimplementation over raw surface keys,
    tokenizing by the old rule so that it shares no code with the linker."""
    tokens = _old_rule_tokens(text)
    keys: dict[tuple[str, ...], set[str]] = {}
    for surface, ids in surfaces.items():  # surfaces that normalize alike pool their ids
        keys.setdefault(tuple(_old_rule_tokens(surface)), set()).update(ids)
    keys.pop((), None)
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


def test_link_matches_naive_oracle_when_surfaces_share_a_first_token():
    # "heart" starts surfaces of widths 1, 2 and 4 but none of width 3, and
    # "MI" names two nodes.
    nodes = [
        ("C1", "Heart", ()),
        ("C2", "Heart Failure", ()),
        ("C3", "Heart failure with effusion", ()),
        ("C4", "Myocardial Infarction", ("MI",)),
        ("C5", "Mitral Insufficiency", ("MI",)),
        ("C6", "Aspirin", ()),
    ]
    surfaces: dict[str, set[str]] = {}
    for nid, name, aliases in nodes:
        for surface in (name, *aliases):
            surfaces.setdefault(surface, set()).add(nid)
    index = build_index(_graph(nodes))
    assert "heart" in index._starts and index._max_tokens == 4

    # the 4-token surface is longer than what is left after the last "heart"
    assert index.link("heart failure with effusion then heart failure with") == {"C3", "C2"}
    rng = random.Random(24)
    vocabulary = [
        "heart", "Heart,", "failure", "failure-with", "with", "effusion", "effusion_",
        "mi", "MI.", "myocardial", "infarction", "aspirin", "the",
    ]
    for _ in range(1500):
        text = " ".join(rng.choice(vocabulary) for _ in range(rng.randint(1, 10)))
        assert index.link(text) == _naive_scan_oracle(surfaces, text), text


def test_link_matches_naive_oracle_on_long_nested_and_ambiguous_surfaces(caplog):
    long = "Heart failure with preserved ejection fraction in older adults after acute infection"
    nodes = [
        ("C1", "Heart", ()),
        ("C2", "Heart Failure", ("HF", "heart-failure")),  # an alias that is its own name
        ("C3", long, ("HFpEF",)),
        ("C4", "preserved ejection fraction in older adults after acute infection of the lung", ()),
        ("C5", "Ejection Fraction", ()),
        ("C6", "acute", ()),
        ("C7", "Acute infection", ()),
        ("C8", "Cold", ()),  # two CUIs with one name
        ("C9", "cold.", ("common cold",)),
        ("C10", "Myocardial Infarction", ("MI", "heart attack")),
        ("C11", "MI", ()),  # a name that is another node's alias
        ("C12", "___", ("--",)),  # a name and an alias with no tokens
        ("C13", "Older adults", ("older",)),
    ]
    extra = [
        ("C1", "cardiac"), ("C8", "Common Cold"), ("C11", "heart attack"), ("C10", "MI"), ("C5", "EF"), ("C99", "ghost")
    ]
    surfaces: dict[str, set[str]] = {}
    for nid, name, aliases in nodes:
        for surface in (name, *aliases):
            surfaces.setdefault(surface, set()).add(nid)
    for nid, alias in extra[:-1]:
        surfaces.setdefault(alias, set()).add(nid)
    with caplog.at_level("WARNING", logger="causalrag"):
        index = build_index(_graph(nodes), extra)
    assert caplog.messages == ["skipped 1 alias rows naming an unknown CUI"]

    expected: dict[tuple[str, ...], set[str]] = {}
    for surface, ids in surfaces.items():
        if tokens := tuple(_old_rule_tokens(surface)):
            expected.setdefault(tokens, set()).update(ids)
    # each surface holds exactly its ids, each once
    assert {tokens: set(ids) for tokens, ids in index._entries.items()} == expected
    assert all(len(ids) == len(set(ids)) for ids in index._entries.values())
    assert expected[("cold",)] == {"C8", "C9"} and expected[("mi",)] == {"C10", "C11"}
    assert index._max_tokens == max(map(len, expected)) == 12 and index.link(long) == {"C3"}

    fragments = [*surfaces, "the", "and", "patient", "Heart,", "failure_with", "in"]
    for surface in surfaces:  # cut surfaces, so a long match can fail late
        words = surface.split()
        fragments.extend(" ".join(words[:cut]) for cut in range(1, len(words)))
    rng = random.Random(2921)
    for _ in range(2000):
        text = rng.choice((" ", ", ", "; ")).join(rng.choice(fragments) for _ in range(rng.randint(1, 6)))
        assert index.link(text) == _naive_scan_oracle(surfaces, text), text


def test_link_looks_up_surfaces_only_where_one_starts():
    graph = _graph([("C1", "Aspirin", ()), ("C2", "Stroke", ()), ("C3", "Heart Failure", ())])
    index = build_index(graph)
    index._entries = entries = _RecordingMap(index._entries)

    # "failure" ends a surface but starts none
    assert index.link(" ".join(["failure", "of", "the"] * 333 + ["pump"])) == frozenset()
    assert entries.looked_up == []
    # a starting token tries the widths that fit in what is left, longest first
    assert index.link("failure of the heart") == frozenset()
    assert entries.looked_up == [("heart",)]
    entries.looked_up.clear()
    assert index.link("aspirin stroke") == {"C1", "C2"}
    assert entries.looked_up == [("aspirin", "stroke"), ("aspirin",), ("stroke",)]

    one_token = build_index(_graph([("C1", "Aspirin", ()), ("C2", "Stroke", ())]))
    one_token._entries = entries = _RecordingMap(one_token._entries)
    assert one_token.link(" ".join(["aspirin", "stroke"] * 50)) == {"C1", "C2"}
    assert entries.looked_up == [("aspirin",), ("stroke",)] * 50


def test_index_drops_empty_surface_keys_and_empty_id_sets():
    graph = _graph([("C1", "Aspirin", ()), ("C2", "Stroke", ())])
    index = LinkerIndex({(): {"C1"}, ("aspirin",): set()}, graph)
    assert index._entries == {} and not index._starts
    for text in ("", "aspirin", "aspirin and stroke", "   "):
        assert index.link(text) == frozenset()


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
