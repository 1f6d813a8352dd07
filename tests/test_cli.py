from __future__ import annotations

import json

import pytest

from causalrag.causal import default_causality_table
from causalrag.cli import main
from causalrag.graph import load_triples

from .conftest import FIXTURES
from .oracles import recount_view_members


@pytest.fixture
def artifact(tmp_path):
    path = tmp_path / "toy.crag"
    code = main(
        ["build-graph", str(FIXTURES / "triples.tsv"), "--output", str(path)]
    )
    assert code == 0
    return path


# -- build-graph -----------------------------------------------------------------


def test_build_graph_prints_stats(tmp_path, capsys):
    out = tmp_path / "g.crag"
    code = main(["build-graph", str(FIXTURES / "triples.tsv"), "--output", str(out)])
    captured = capsys.readouterr().out
    assert code == 0
    assert out.exists()
    assert "nodes=15 edges=16 malformed=0" in captured
    assert "CAUSES: 8" in captured


def test_build_graph_missing_file_exits_2(tmp_path, capsys):
    code = main(["build-graph", str(tmp_path / "nope.tsv"), "--output", str(tmp_path / "g.crag")])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_build_graph_all_malformed_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.tsv"
    bad.write_text(
        "subject_cui\tsubject_name\tsubject_semtypes\tpredicate\tobject_cui\tobject_name\tobject_semtypes\n"
        "only\ttwo\n",
        encoding="utf-8",
    )
    code = main(["build-graph", str(bad), "--output", str(tmp_path / "g.crag")])
    assert code == 1


# -- answer ---------------------------------------------------------------------


def test_answer_replays_transcript(artifact, capsys):
    code = main(
        [
            "answer",
            "--graph", str(artifact),
            "--question", "A patient with long-standing hypertension is at highest risk of which complication?",
            "--option", "A=Stroke",
            "--option", "B=Lung cancer",
            "--option", "C=Retinopathy",
            "--option", "D=Peripheral neuropathy",
            "--config", str(FIXTURES / "config.yaml"),
            "--mock-transcript", str(FIXTURES / "transcript_full.jsonl"),
        ]
    )
    captured = capsys.readouterr().out
    assert code == 0
    assert "predicted: A" in captured
    assert "enhanced summary:" in captured


def test_answer_kg_only_mode_makes_no_cot_calls(artifact, capsys):
    code = main(
        [
            "answer",
            "--graph", str(artifact),
            "--question", "Which cancer is most directly attributable to smoking?",
            "--option", "A=Retinopathy",
            "--option", "B=Stroke",
            "--option", "C=Lung cancer",
            "--option", "D=Type 2 diabetes",
            "--config", str(FIXTURES / "config.yaml"),
            "--mode", "kg-only",
            "--mock-transcript", str(FIXTURES / "transcript_kg_only.jsonl"),
            "--trace",
        ]
    )
    captured = capsys.readouterr().out
    assert code == 0
    trace = json.loads(captured[captured.index("{") :])
    stages = [call["stage"] for call in trace["llm_calls"]]
    assert stages == ["infer"]


def test_answer_invalid_weights_exit_before_llm(artifact, tmp_path, capsys):
    config = tmp_path / "bad.yaml"
    config.write_text(
        "enhancer:\n  alpha: 0.6\n  beta: 0.3\n  gamma: 0.3\n", encoding="utf-8"
    )
    code = main(
        [
            "answer",
            "--graph", str(artifact),
            "--question", "anything?",
            "--option", "A=x",
            "--option", "B=y",
            "--config", str(config),
        ]
    )
    assert code == 2
    assert "alpha + beta + gamma" in capsys.readouterr().err


def test_answer_transport_failure_exits_3(artifact, capsys, monkeypatch):
    monkeypatch.delenv("LLM_ENDPOINT", raising=False)
    code = main(
        [
            "answer",
            "--graph", str(artifact),
            "--question", "Which cancer is most directly attributable to smoking?",
            "--option", "A=Lung cancer",
            "--option", "B=Stroke",
            "--config", str(FIXTURES / "config.yaml"),
            "--infer-model", "unreachable-model",
            "--mode", "kg-only",
        ]
    )
    assert code == 3
    assert "no endpoint" in capsys.readouterr().err


def test_answer_exhausted_transcript_exits_3(artifact, tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    code = main(
        [
            "answer",
            "--graph", str(artifact),
            "--question", "Which cancer is most directly attributable to smoking?",
            "--option", "A=Lung cancer",
            "--option", "B=Stroke",
            "--config", str(FIXTURES / "config.yaml"),
            "--mock-transcript", str(empty),
        ]
    )
    assert code == 3
    assert "transcript" in capsys.readouterr().err


def test_answer_bad_option_syntax(artifact, capsys):
    code = main(
        [
            "answer",
            "--graph", str(artifact),
            "--question", "anything?",
            "--option", "A: no equals sign",
            "--option", "B=y",
        ]
    )
    assert code == 2


# -- evaluate --------------------------------------------------------------------


def test_evaluate_writes_report(artifact, tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code = main(
        [
            "evaluate",
            "--graph", str(artifact),
            "--dataset", str(FIXTURES / "dataset.jsonl"),
            "--config", str(FIXTURES / "config.yaml"),
            "--mode", "full",
            "--mock-transcript", str(FIXTURES / "transcript_full.jsonl"),
            "--report", str(report_path),
        ]
    )
    captured = capsys.readouterr().out
    assert code == 0
    assert report_path.exists()
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert report["metrics"]["accuracy"] == 1.0
    assert "macro precision=100.00%" in captured


def test_evaluate_mode_flag_values(artifact):
    # argparse rejects anything outside the documented set with exit code 2
    with pytest.raises(SystemExit) as excinfo:
        main(
            [
                "evaluate",
                "--graph", str(artifact),
                "--dataset", str(FIXTURES / "dataset.jsonl"),
                "--mode", "bogus",
            ]
        )
    assert excinfo.value.code == 2


def test_evaluate_model_flags_override_config(artifact, tmp_path, capsys):
    # config says mock; flags switch infer to a live model with no endpoint,
    # so the pipeline degrades those items to abstain instead of replaying
    report_path = tmp_path / "report.json"
    code = main(
        [
            "evaluate",
            "--graph", str(artifact),
            "--dataset", str(FIXTURES / "dataset.jsonl"),
            "--config", str(FIXTURES / "config.yaml"),
            "--mode", "kg-only",
            "--mock-transcript", str(FIXTURES / "transcript_kg_only.jsonl"),
            "--infer-model", "unreachable-model",
            "--report", str(report_path),
        ]
    )
    assert code == 0
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert report["config"]["models"]["infer"] == "unreachable-model"
    assert report["abstain_count"] == 10
    assert report["error_count"] == 10


def test_evaluate_dataset_error_exits_1(artifact, tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("{broken\n", encoding="utf-8")
    code = main(
        [
            "evaluate",
            "--graph", str(artifact),
            "--dataset", str(bad),
            "--config", str(FIXTURES / "config.yaml"),
        ]
    )
    assert code == 1
    assert "line 1" in capsys.readouterr().err


def test_evaluate_theta_flag_beats_config(artifact, tmp_path):
    report_path = tmp_path / "report.json"
    code = main(
        [
            "evaluate",
            "--graph", str(artifact),
            "--dataset", str(FIXTURES / "dataset.jsonl"),
            "--config", str(FIXTURES / "config.yaml"),
            "--mode", "kg-only",
            "--mock-transcript", str(FIXTURES / "transcript_kg_only.jsonl"),
            "--theta", "0.75",
            "--report", str(report_path),
        ]
    )
    assert code == 0
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert report["config"]["theta"] == 0.75


# -- causal-stats and update-strengths ----------------------------------------------


def test_causal_stats_sweep(artifact, capsys):
    code = main(["causal-stats", "--graph", str(artifact)])
    captured = capsys.readouterr().out
    assert code == 0
    lines = captured.strip().splitlines()
    assert lines[0].startswith("theta")
    assert len(lines) == 12  # header + 11 theta values
    # theta=0.0 keeps all 16 edges; theta=1.0 keeps none
    assert lines[1].split() == ["0.0", "16", "15"]
    assert lines[-1].split()[:2] == ["1.0", "0"]


def test_update_strengths_reports_transitions(artifact, tmp_path, capsys):
    updates = tmp_path / "updates.tsv"
    updates.write_text(
        "subject_cui\tpredicate\tobject_cui\ts_new\n"
        "C006\tASSOCIATED_WITH\tC001\t0.8\n"   # promote weak edge
        "C001\tCAUSES\tC002\t0.2\n"            # demote strong edge
        "C007\tCAUSES\tC008\t0.95\n",          # revise member in place
        encoding="utf-8",
    )
    code = main(["update-strengths", "--graph", str(artifact), "--updates", str(updates)])
    captured = capsys.readouterr().out
    assert code == 0
    assert "added=1 revised=1 demoted=1" in captured
    assert "13 -> 13" in captured


def test_update_strengths_at_another_theta_matches_a_recount(artifact, tmp_path, capsys):
    rows = {
        ("C006", "ASSOCIATED_WITH", "C001"): 0.8,
        ("C001", "CAUSES", "C002"): 0.2,
        ("C007", "CAUSES", "C008"): 0.95,
    }
    updates = tmp_path / "updates.tsv"
    updates.write_text(
        "".join(f"{s}\t{p}\t{o}\t{v}\n" for (s, p, o), v in rows.items()), encoding="utf-8"
    )
    code = main(
        ["update-strengths", "--graph", str(artifact), "--updates", str(updates), "--theta", "0.85"]
    )
    captured = capsys.readouterr().out
    assert code == 0

    theta = 0.85
    table = default_causality_table()
    graph = load_triples(FIXTURES / "triples.tsv", table.weight)
    overrides = {graph.edge_index(*triple): value for triple, value in rows.items()}
    before = recount_view_members(graph, table, theta, {})
    after = recount_view_members(graph, table, theta, overrides)
    added, demoted = len(after - before), len(before - after)
    revised = len(overrides.keys() & before & after)
    assert f"at theta=0.85: added={added} revised={revised} demoted={demoted}" in captured
    assert f"view edges: {len(before)} -> {len(after)}" in captured


@pytest.mark.parametrize("command", ["evaluate", "update-strengths"])
def test_theta_outside_range_exits_2(artifact, command, tmp_path, capsys):
    args = [command, "--graph", str(artifact), "--config", str(FIXTURES / "config.yaml"), "--theta", "1.5"]
    if command == "evaluate":
        args += ["--dataset", str(FIXTURES / "dataset.jsonl")]
    else:
        updates = tmp_path / "updates.tsv"
        updates.write_text("C001\tCAUSES\tC002\t0.2\n", encoding="utf-8")
        args += ["--updates", str(updates)]
    assert main(args) == 2
    assert "theta must be in [0, 1]" in capsys.readouterr().err


def test_update_strengths_unknown_triple_exits_1(artifact, tmp_path, capsys):
    updates = tmp_path / "updates.tsv"
    updates.write_text("C001\tCAUSES\tC999\t0.9\n", encoding="utf-8")
    code = main(["update-strengths", "--graph", str(artifact), "--updates", str(updates)])
    assert code == 1
    assert "not in graph" in capsys.readouterr().err


def test_artifact_version_mismatch_exits_1(artifact, tmp_path, capsys):
    blob = bytearray(artifact.read_bytes())
    blob[5] = 77
    broken = tmp_path / "future.crag"
    broken.write_bytes(bytes(blob))
    code = main(["causal-stats", "--graph", str(broken)])
    assert code == 1
    assert "version" in capsys.readouterr().err


def test_truncated_artifact_exits_1_without_traceback(artifact, tmp_path, capsys):
    truncated = tmp_path / "truncated.crag"
    truncated.write_bytes(artifact.read_bytes()[:-40])
    code = main(["causal-stats", "--graph", str(truncated)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_version_1_artifact_exits_1_with_a_rebuild_hint(capsys):
    code = main(["causal-stats", "--graph", str(FIXTURES / "graph_v1.crag")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "rebuild it with causalrag build-graph" in err
    assert "Traceback" not in err


# -- bad inputs: one documented exit code each, an error line, no traceback -------


def _bad_input_args(case, artifact, tmp_path):
    bad = tmp_path / "bad"
    if case == "blank-cot-reply":
        bad.write_text(json.dumps({"stage": "cot", "ordinal": 0, "text": "  "}) + "\n", encoding="utf-8")
        return [
            "answer", "--graph", str(artifact), "--question", "Which cancer follows smoking?",
            "--option", "A=Lung cancer", "--option", "B=Stroke", "--mock-transcript", str(bad),
        ]
    if case == "repeated-option":
        return [
            "answer", "--graph", str(artifact), "--question", "Which cancer follows smoking?",
            "--option", "A=x", "--option", "B=y", "--option", "A=z",
        ]
    if case == "non-utf8-triples":
        bad.write_bytes((FIXTURES / "triples.tsv").read_bytes() + b"C9\t\xff\xfe\tx\tCAUSES\tC1\ty\tz\n")
        return ["build-graph", str(bad), "--output", str(tmp_path / "g.crag")]
    evaluate = ["evaluate", "--graph", str(artifact), "--dataset", str(FIXTURES / "dataset.jsonl")]
    if case == "non-utf8-dataset":
        bad.write_bytes(b'{"id": "q\xff"}\n')
        return evaluate[:-1] + [str(bad)]
    if case == "blank-option-dataset":
        record = json.loads((FIXTURES / "dataset.jsonl").read_text(encoding="utf-8").splitlines()[0])
        record["options"]["B"] = "  "
        bad.write_text(json.dumps(record) + "\n", encoding="utf-8")
        return evaluate[:-1] + [str(bad)]
    if case == "non-utf8-transcript":
        bad.write_bytes(b'{"stage": "cot", "ordinal": 0, "text": "\xff"}\n')
        return evaluate + ["--mock-transcript", str(bad)]
    if case == "non-utf8-updates":
        bad.write_bytes(b"C1\tCAUSES\tC2\t0.5\nC\xff\tCAUSES\tC2\t0.5\n")
        return evaluate + ["--strength-updates", str(bad)]
    if case == "non-utf8-update-strengths":
        bad.write_bytes(b"C1\tCAUSES\tC2\t0.\xff\n")
        return ["update-strengths", "--graph", str(artifact), "--updates", str(bad)]
    if case == "non-utf8-aliases":
        # Past the reader's first block, so the offset must count from the file's start.
        bad.write_bytes(b"C1\tan alias\n" * 2000 + b"C2\t\xff\n")
        return evaluate + ["--aliases", str(bad)]
    if case == "non-utf8-template":
        bad.write_bytes(b"Q: {question}\xff\n")
        config = tmp_path / "config.yaml"
        config.write_text(f"prompts:\n  cot: {bad}\n", encoding="utf-8")
        transcript = FIXTURES / "transcript_full.jsonl"
        return evaluate + ["--config", str(config), "--mock-transcript", str(transcript)]
    if case == "wrong-type-transcript":
        bad.write_text(json.dumps({"stage": "cot", "ordinal": "x", "text": "a"}) + "\n", encoding="utf-8")
        return evaluate + ["--mock-transcript", str(bad)]
    bad.write_bytes(
        {
            "invalid-yaml": b"retrieval: [1, 2\n",
            "non-utf8-yaml": b"theta: \xff\n",
            "wrong-type-config": b"retrieval:\n  max_hops: x\n",
            "non-mapping-section": b"models: 5\n",
            "null-workers": b"workers: null\n",
        }[case]
    )
    return evaluate + ["--config", str(bad), "--k", "2"]


@pytest.mark.parametrize(
    "case, code, message",
    [
        ("blank-cot-reply", 3, "no reasoning segments"),
        ("repeated-option", 2, "--option repeats label 'A'"),
        ("non-utf8-triples", 1, "utf-8"),
        ("non-utf8-dataset", 1, "utf-8"),
        ("blank-option-dataset", 1, "line 1: item q01: option 'B' has empty text"),
        ("non-utf8-transcript", 1, "utf-8"),
        ("non-utf8-updates", 1, "utf-8"),
        ("non-utf8-update-strengths", 1, "utf-8"),
        ("non-utf8-aliases", 1, "utf-8"),
        ("non-utf8-template", 1, "utf-8"),
        ("wrong-type-transcript", 2, "transcript line 1"),
        ("invalid-yaml", 2, "invalid YAML"),
        ("non-utf8-yaml", 2, "invalid YAML"),
        ("wrong-type-config", 2, "retrieval.max_hops: expected int, got 'x'"),
        ("non-mapping-section", 2, "models: expected a mapping, got 5"),
        ("null-workers", 2, "workers: expected int, got None"),
    ],
)
def test_bad_input_exits_with_its_code_without_traceback(artifact, tmp_path, capsys, case, code, message):
    assert main(_bad_input_args(case, artifact, tmp_path)) == code
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert message in err
    assert "Traceback" not in err
    if case.startswith("non-utf8") and case != "non-utf8-yaml":
        bad = tmp_path / "bad"
        offset = bad.read_bytes().index(b"\xff")
        assert f"error: {bad}: byte {offset} is not valid utf-8" in err


@pytest.mark.parametrize("stage, value", [("cot", "-1"), ("enhance", "-0.5"), ("infer", "-1e-9")])
def test_negative_temperature_exits_2_before_any_graph_is_built(tmp_path, capsys, monkeypatch, stage, value):
    def no_graph(*args, **kwargs):
        raise AssertionError("a graph was built before the config was checked")

    monkeypatch.setattr("causalrag.cli.load_graph", no_graph)
    monkeypatch.setattr("causalrag.cli.load_triples", no_graph)
    config = tmp_path / "config.yaml"
    config.write_text(f"temperatures:\n  {stage}: {value}\n", encoding="utf-8")
    args = ["--graph", str(tmp_path / "g.crag"), "--config", str(config)]
    assert main(["evaluate", *args, "--dataset", str(FIXTURES / "dataset.jsonl")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert f"temperatures.{stage} must be >= 0, got {float(value)}" in err
    assert "Traceback" not in err
