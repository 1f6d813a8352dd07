"""Every input file is read through the readers in ``causalrag.errors``.

``open_text`` is the one place that opens a file as text, so a file that is
not UTF-8 is always an ``EncodingError`` naming it; ``json_lines`` is the
one place that decodes JSON, so every JSON-lines input refuses a repeated
key and reports ``path: line N``. Writes and binary reads may happen
anywhere. Only ``harness.py`` names a built-in prompt template file, so
each stage's template is chosen in one place. Only ``graph.py`` defines the
path search's reads, ``successors`` and ``edges_into`` (once each, for the
graph and its views alike), and no other module imports the helper that
groups their edges, so the shape of a search-memo entry is known in one
module. Only ``cot.py`` names the option validator (``normalize_options``)
or an options formatter, so ``QAItem`` is the one place that decides
whether a question's options are valid and how a prompt shows them. Only
``graph.py`` and ``enhancer.py`` name ``semantic_types``, so the scorer is
the one place that works out a query's or a path's types from its nodes.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "causalrag"
MODULES = sorted(SRC.rglob("*.py"))
TEMPLATE_FILES = sorted(path.name for path in (SRC / "templates").glob("*.txt"))


def _nodes(path: Path) -> list[ast.AST]:
    return list(ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))))


def _is_text_read(call: ast.Call) -> bool:
    func = call.func
    if getattr(func, "id", None) != "open" and getattr(func, "attr", None) != "open":
        return False
    modes = call.args[1:2] + [keyword.value for keyword in call.keywords if keyword.arg == "mode"]
    mode = modes[0] if modes else None
    if mode is None:
        return True
    if not isinstance(mode, ast.Constant) or not isinstance(mode.value, str):
        return True  # a mode only known at run time may be a text read
    return "r" in mode.value and "b" not in mode.value


def test_the_guard_sees_every_module():
    assert {"errors.py", "graph.py", "harness.py", "llm.py", "__init__.py"} <= {path.name for path in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: str(path.relative_to(SRC)))
def test_text_mode_reads_happen_only_in_errors(path):
    reads = [node.lineno for node in _nodes(path) if isinstance(node, ast.Call) and _is_text_read(node)]
    if path.name == "errors.py":
        assert len(reads) == 1  # open_text
    else:
        assert reads == [], f"{path.name} opens text at lines {reads}: read it through errors.open_text"


@pytest.mark.parametrize("path", MODULES, ids=lambda path: str(path.relative_to(SRC)))
def test_json_is_decoded_only_by_json_lines(path):
    uses = [
        node.lineno
        for node in _nodes(path)
        if isinstance(node, ast.Attribute) and node.attr == "loads" and getattr(node.value, "id", None) == "json"
        or isinstance(node, ast.ImportFrom) and node.module == "json" and "loads" in (a.name for a in node.names)
    ]
    assert uses == [], f"{path.name} uses json.loads at lines {uses}: read through errors.json_lines"


def test_the_guard_sees_every_template():
    assert TEMPLATE_FILES == ["answer_inference.txt", "cot_generation.txt", "path_enhancement.txt"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: str(path.relative_to(SRC)))
def test_only_the_harness_names_a_template_file(path):
    named = sorted(
        {
            name
            for node in _nodes(path)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            for name in TEMPLATE_FILES
            if name in node.value
        }
    )
    if path.name == "harness.py":
        assert named == TEMPLATE_FILES
    else:
        assert named == [], f"{path.name} names {named}: take the template from the Pipeline"


@pytest.mark.parametrize("path", MODULES, ids=lambda path: str(path.relative_to(SRC)))
def test_only_graph_defines_the_search_reads(path):
    nodes = _nodes(path)
    defined = sorted(
        node.name for node in nodes if isinstance(node, ast.FunctionDef) and node.name in ("successors", "edges_into")
    )
    grouping = [
        node.lineno
        for node in nodes
        if isinstance(node, ast.ImportFrom) and any(alias.name.endswith("group_edges") for alias in node.names)
        or isinstance(node, ast.Attribute) and node.attr.endswith("group_edges")
    ]
    assert grouping == [], f"{path.name} imports the edge-grouping helper at lines {grouping}"
    # The lineage store is the only search memo: no second one per container.
    memos = [
        node.lineno
        for node in nodes
        for name in (getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "arg", None))
        if name in ("_successors", "_edges_into")
    ]
    assert memos == [], f"{path.name} names a per-container search memo at lines {memos}"
    if path.name == "graph.py":
        assert defined == ["edges_into", "successors"]
    else:
        assert defined == [], f"{path.name} defines {defined}: inherit them from graph.SearchReads"


@pytest.mark.parametrize("path", MODULES, ids=lambda path: str(path.relative_to(SRC)))
def test_only_cot_validates_and_formats_options(path):
    named = sorted(
        {
            name
            for node in _nodes(path)
            for name in (getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None))
            if name in ("normalize_options", "format_options")
        }
    )
    if path.name == "cot.py":
        assert named == ["normalize_options"]
    else:
        assert named == [], f"{path.name} names {named}: take the options block from the QAItem"


@pytest.mark.parametrize("path", MODULES, ids=lambda path: str(path.relative_to(SRC)))
def test_only_graph_and_enhancer_name_semantic_types(path):
    uses = [
        node.lineno
        for node in _nodes(path)
        if "semantic_types" in (getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "arg", None))
    ]
    if path.name in ("graph.py", "enhancer.py"):
        assert uses, f"{path.name} no longer names semantic_types: update this guard"
    else:
        assert uses == [], f"{path.name} names semantic_types at lines {uses}: let score_paths derive the types"


def test_the_guard_recognises_reads_and_writes():
    def call(source):
        return ast.parse(source).body[0].value

    reads = ["open(p)", 'open(p, encoding="utf-8")', 'open(p, "r")', 'open(p, mode="rt")', "p.open()", "open(p, m)"]
    for source in reads:
        assert _is_text_read(call(source)), source
    for source in ('open(p, "rb")', 'open(p, "w", encoding="utf-8")', 'open(p, mode="wb")', "print(p)"):
        assert not _is_text_read(call(source)), source
