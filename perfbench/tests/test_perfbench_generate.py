import json

import generate


def _files(directory):
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


def test_same_seed_gives_identical_files(tiny, tmp_path):
    generate.generate(tiny, 7, tmp_path / "a")
    generate.generate(tiny, 7, tmp_path / "b")
    first, second = _files(tmp_path / "a"), _files(tmp_path / "b")
    assert set(first) == {
        "dataset.jsonl", "expected.json", "replies.jsonl", "transcript.jsonl",
        "triples.tsv", "updates.tsv", "workload.json",
    }
    assert first == second


def test_other_seed_gives_other_inputs(tiny, tmp_path):
    generate.generate(tiny, 7, tmp_path / "a")
    generate.generate(tiny, 8, tmp_path / "b")
    assert (tmp_path / "a" / "triples.tsv").read_bytes() != (tmp_path / "b" / "triples.tsv").read_bytes()


def test_generated_items_cover_every_case(tiny, tmp_path):
    generate.generate(tiny, 7, tmp_path)
    expected = json.loads((tmp_path / "expected.json").read_text())
    counts = expected["counts"]
    assert counts["unmapped"] > 0
    assert counts["fallback_hops"] > 0
    assert counts["empty_segments"] > 0
    mapped = [e for e in expected["items"].values() if e["mapped"]]
    assert all(e["expected"] in ("A", "B", "C", "D", "abstain") for e in mapped)
    rows = (tmp_path / "triples.tsv").read_text().splitlines()[1:]
    assert len(rows) > len(set(rows))  # natural duplicate rows
