"""Seeded fuzz of the loaders: only the package's errors may escape.

Each text case mutates a valid input line by line and character by
character (cut, duplicate and swap lines; insert, drop and replace
characters, with tabs, comment marks, numbers at and beyond the edges of
their ranges, braces and non-ASCII text), and the dataset also field by
field. A loader either returns a well-formed result or raises a
``CausalRagError``. The triple corpus also checks ``ingest_triples``
against its string-keyed reference, and graph artifacts are truncated,
bit-flipped and replaced by random bytes.
"""

from __future__ import annotations

import json
import logging
import math
import random
import struct
import zlib

import pytest

from causalrag.causal import default_causality_table, parse_strength_updates
from causalrag.errors import ArtifactError, CausalRagError, ValidationError
from causalrag.graph import ingest_triples, load_graph, load_triples, save_graph
from causalrag.harness import load_dataset
from causalrag.linker import load_alias_file

from .conftest import FIXTURES
from .oracles import edges_of, reference_ingest_triples

CASES = 300

_PIECES = (
    "\t", "\t\t", "#", " ", "\r", "", "x", "0", "1", "-1", "0.5", "1.5", "nan", "inf", "-inf", "1e999",
    "9" * 5000, "{", "}", "[", "]", '"', ":", ",", "null", "true", "é", "→", " ", "\x00", "﻿",
)


def _mutate(rng: random.Random, lines: list[str]) -> list[str]:
    lines = list(lines)
    for _ in range(rng.randint(1, 4)):
        op = rng.randrange(6)
        at = rng.randrange(len(lines)) if lines else 0
        if op == 0 and lines:
            del lines[at]
        elif op == 1 and lines:
            lines.insert(rng.randrange(len(lines) + 1), lines[at])
        elif op == 2 and len(lines) > 1:
            other = rng.randrange(len(lines))
            lines[at], lines[other] = lines[other], lines[at]
        elif op == 3:
            lines.insert(at, "".join(rng.choice(_PIECES) for _ in range(rng.randint(0, 6))))
        elif lines:
            line = lines[at]
            cut = rng.randint(0, len(line))
            end = cut + (rng.randint(0, 4) if op == 4 else 0)
            lines[at] = line[:cut] + rng.choice(_PIECES) + line[end:]
    return lines


def _fuzz(tmp_path, fixture_lines, load, seed, mutate=_mutate) -> tuple[int, int]:
    """Run ``load`` on ``CASES`` mutated files; returns (accepted, rejected)."""
    rng = random.Random(seed)
    path = tmp_path / "fuzzed"
    accepted = rejected = 0
    for _ in range(CASES):
        path.write_text("\n".join(mutate(rng, fixture_lines)) + "\n", encoding="utf-8")
        try:
            load(path)
        except CausalRagError:
            rejected += 1
        else:
            accepted += 1
    return accepted, rejected


def _read_lines(path):
    with open(path, encoding="utf-8") as fh:
        return list(fh)


def test_ingest_triples_fuzz_raises_only_package_errors(tmp_path):
    lines = (FIXTURES / "triples.tsv").read_text(encoding="utf-8").splitlines()

    def load(path):
        graph = ingest_triples(_read_lines(path))
        assert graph.edge_count >= 1
        assert all(0.0 <= edge.strength <= 1.0 for edge in edges_of(graph))

    accepted, rejected = _fuzz(tmp_path, lines, load, seed=8101)
    assert accepted and rejected


def _ingest_outcome(ingest, lines, weight, caplog):
    """What one ingest returns or raises, and the warnings it logs."""
    caplog.clear()
    try:
        graph = ingest(lines, weight)
    except CausalRagError as exc:
        outcome = (type(exc), str(exc))
    else:
        nodes = [(n.id, n.name, n.semantic_types, n.aliases) for n in graph.nodes()]
        outcome = (nodes, edges_of(graph), graph.predicate_names, graph.stats)
    return outcome, [record.getMessage() for record in caplog.records]


def test_ingest_matches_the_reference_on_the_fixture_and_the_fuzz_corpus(caplog):
    """Node order and fields, edge order and each duplicate's winning
    strength, the stats, both warnings and every error message agree."""
    lines = (FIXTURES / "triples.tsv").read_text(encoding="utf-8").splitlines()
    weight = default_causality_table().weight
    rng = random.Random(8101)
    corpus = [lines] + [_mutate(rng, lines) for _ in range(CASES)]
    corpus += [lines + lines[-3:], [lines[0]] + [line + "\t0.3" for line in lines[1:]] + lines[1:]]
    errors = 0
    with caplog.at_level(logging.WARNING):
        for case in corpus:
            expected = _ingest_outcome(reference_ingest_triples, case, weight, caplog)
            assert _ingest_outcome(ingest_triples, case, weight, caplog) == expected
            errors += isinstance(expected[0][0], type)
    assert 0 < errors < len(corpus)


@pytest.mark.parametrize("fallback", [1.5, float("nan")])
def test_a_fallback_strength_outside_the_unit_range_is_rejected(fallback):
    lines = (FIXTURES / "triples.tsv").read_text(encoding="utf-8").splitlines()
    with pytest.raises(ValidationError) as expected:
        reference_ingest_triples(lines, lambda predicate: fallback)
    with pytest.raises(ValidationError) as info:
        ingest_triples(lines, lambda predicate: fallback)
    assert str(info.value) == str(expected.value)
    assert f"strength {fallback} outside [0, 1]" in str(info.value)


def _resealed(blob: bytes) -> bytes:
    """``blob`` with the header's body checksum made to match its body."""
    if len(blob) < 54:
        return blob
    return blob[:50] + struct.pack("<I", zlib.crc32(blob[54:])) + blob[54:]


def test_artifact_fuzz_raises_only_artifact_errors(tmp_path, capfd):
    """Every truncation, 2000 bit flips (half with the checksum resealed,
    so the flip reaches the decoder and the graph checks) and 300 random
    files: loading returns a graph or raises ``ArtifactError``, never
    anything else, and writes nothing to stderr."""
    source = tmp_path / "source.crag"
    save_graph(load_triples(FIXTURES / "triples.tsv"), source)
    blob = source.read_bytes()
    rng = random.Random(8105)
    cases = [blob[:end] for end in range(len(blob))]
    for flip in range(2000):
        flipped = bytearray(blob)
        for _ in range(rng.choice((1, 1, 2, 8))):
            flipped[rng.randrange(len(flipped))] ^= 1 << rng.randrange(8)
        cases.append(_resealed(bytes(flipped)) if flip % 2 else bytes(flipped))
    for _ in range(300):
        noise = rng.randbytes(rng.randrange(200))
        counts = [rng.choice((0, 1, 3, 16, rng.randrange(2**32))) for _ in range(5)]
        header = struct.pack("<5I3QI", *counts, 0, 0, 0, 0)
        cases.append(rng.choice((noise, b"CRAG\x00\x02" + noise, _resealed(b"CRAG\x00\x02" + header + noise))))

    path = tmp_path / "fuzzed.crag"
    messages = set()
    for case in cases:
        path.write_bytes(case)
        try:
            graph = load_graph(path)
        except ArtifactError as exc:
            messages.add(str(exc).rpartition("(")[2].split(" ")[0])
        else:
            assert all(0.0 <= edge.strength <= 1.0 for edge in edges_of(graph))
    assert {"body", "counts", "edge", "strings"} <= messages, messages
    assert capfd.readouterr().err == ""


def test_parse_strength_updates_fuzz_raises_only_package_errors(tmp_path):
    lines = ["subject_cui\tpredicate\tobject_cui\tstrength", "# curated"] + [
        f"C00{i}\tCAUSES\tC00{i + 1}\t0.{i}" for i in range(1, 8)
    ]

    def load(path):
        updates = parse_strength_updates(_read_lines(path))
        assert all(0.0 <= strength <= 1.0 for strength in updates.values())

    accepted, rejected = _fuzz(tmp_path, lines, load, seed=8102)
    assert accepted and rejected


def test_load_alias_file_fuzz_raises_only_package_errors(tmp_path):
    lines = ["# cui\talias", "C001\thigh blood pressure", "C008\tlung carcinoma", "C004\theart attack"]

    def load(path):
        rows = load_alias_file(path)
        assert all(cui and alias and "\t" not in cui + alias for cui, alias in rows)

    accepted, _ = _fuzz(tmp_path, lines, load, seed=8103)
    assert accepted == CASES  # bad rows are dropped, never fatal


_JSON_VALUES = (None, True, 0, -1, 1.5, math.inf, "", "x", "A", [], [1], {}, {"A": 1}, {"A": "x", "A ": "y"})


def _mutate_dataset(rng: random.Random, lines: list[str]) -> list[str]:
    if rng.random() < 0.4:
        return _mutate(rng, lines)
    lines = list(lines)
    at = rng.randrange(len(lines))
    record = json.loads(lines[at])
    roll = rng.random()
    if roll < 0.15:
        del record[rng.choice(sorted(record))]
    elif roll < 0.3:
        lines[at] = rng.choice(("[" * rng.choice((2, 5000)) + "]" * 2, '{"id": ' + "9" * 5000 + "}"))
        return lines
    elif roll < 0.6:
        record[rng.choice(("id", "question", "options", "answer"))] = rng.choice(_JSON_VALUES)
    else:
        options = record["options"]
        options[rng.choice(sorted(options) + ["E", ""])] = rng.choice(_JSON_VALUES)
    lines[at] = json.dumps(record)  # writes inf as Infinity, which json reads back
    return lines


def test_load_dataset_fuzz_raises_only_package_errors(tmp_path):
    lines = (FIXTURES / "dataset.jsonl").read_text(encoding="utf-8").splitlines()

    def load(path):
        items = load_dataset(path)
        assert items and len({item.id for item in items}) == len(items)
        assert all(item.gold in item.options for item in items)
        # An accepted item holds its line's JSON strings (or integer id) as they are.
        records = [json.loads(line) for line in path.read_text(encoding="utf-8").split("\n") if line.strip()]
        for item, record in zip(items, records, strict=True):
            assert type(record["id"]) in (str, int) and item.id == str(record["id"])
            assert (item.question, item.options, item.gold) == (record["question"], record["options"], record["answer"])

    accepted, rejected = _fuzz(tmp_path, lines, load, seed=8104, mutate=_mutate_dataset)
    assert accepted and rejected
