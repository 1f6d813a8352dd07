import json
import subprocess
import sys

import generate
from conftest import BENCH


def _run(inputs):
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "tiny", "--seed", "3",
         "--seconds", "0.1", "--trace", "0", "--inputs", str(inputs)],
        capture_output=True, text=True, timeout=120,
    )


def _plant_wrong_answer(inputs) -> str:
    """Change one mapped item's canned inference to another label."""
    expected = json.loads((inputs / "expected.json").read_text())["items"]
    victim = next(i for i, e in sorted(expected.items()) if e["mapped"] and e["expected"] != "abstain")
    wrong = next(label for label in "ABCD" if label != expected[victim]["expected"])
    for name in ("replies.jsonl", "transcript.jsonl"):
        path = inputs / name
        records = [json.loads(line) for line in path.read_text().splitlines()]
        for record in records:
            if record["item_id"] == victim and record["stage"] == "infer":
                record["text"] = f"Answer: {wrong}"
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return victim


def test_clean_inputs_pass_every_check(tiny, tmp_path):
    generate.generate(tiny, 3, tmp_path)
    result = _run(tmp_path)
    assert result.returncode == 0, result.stdout + result.stderr
    report = json.loads(result.stdout.splitlines()[-1])
    assert report["correct"] is True
    assert report["failed"] == 0 and report["attempted"] > 0
    assert set(report["metrics"]) >= {"items_per_s", "setup_s", "ingest_s", "update_ms.p50"}


def test_planted_wrong_answer_is_counted_as_failed(tiny, tmp_path):
    generate.generate(tiny, 3, tmp_path)
    victim = _plant_wrong_answer(tmp_path)
    result = _run(tmp_path)
    assert result.returncode == 1
    report = json.loads(result.stdout.splitlines()[-1])
    assert report["correct"] is False
    assert report["failed"] >= 1
    share_line = next(line for line in result.stdout.splitlines() if "failed_share" in line)
    assert float(share_line.split()[1]) > 0
    assert f"item {victim}" in result.stdout
