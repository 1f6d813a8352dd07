from __future__ import annotations

import random

import pytest

from causalrag.cot import (
    ARROW,
    ChainOfThought,
    QAItem,
    build_cot_prompt,
    normalize_options,
    parse_cot,
    render_cot,
)
from causalrag.errors import CotParseError, ValidationError
from causalrag.templates import fill_template, load_template

COT_TEMPLATE = load_template("cot_generation.txt")


# -- prompt construction ----------------------------------------------------------


def test_prompt_embeds_question_options_and_format_rules():
    options = {"A": "Stroke", "B": "Lung cancer", "C": "Retinopathy", "D": "Neuropathy"}
    item = QAItem(id="q", question="Which complication follows hypertension?", options=options, gold="A")
    prompt = build_cot_prompt(item, COT_TEMPLATE)
    assert "Which complication follows hypertension?" in prompt
    for label, text in options.items():
        assert f"{label}. {text}" in prompt
    assert ARROW in prompt
    assert "0 to 100" in prompt


def test_prompt_rejects_empty_question_and_few_options():
    with pytest.raises(ValidationError):
        build_cot_prompt(QAItem(id="q", question="   ", options={"A": "x", "B": "y"}, gold="A"), COT_TEMPLATE)
    with pytest.raises(ValidationError):
        build_cot_prompt(QAItem(id="q", question="q?", options={"A": "only one"}, gold="A"), COT_TEMPLATE)
    # The builder takes a validated item only; the old (question, options) call cannot reach a fill.
    with pytest.raises(TypeError):
        build_cot_prompt("q?", {"A": "x", "B": "y"}, COT_TEMPLATE)


def test_option_labels_that_differ_only_in_case_are_rejected():
    # Answers match labels in any case, so "Answer: a" could not tell such labels apart.
    with pytest.raises(ValidationError, match="^option labels 'a' and 'A' differ only in case$"):
        normalize_options({"a": "x", "B": "y", "A": "z"})
    assert normalize_options({"a": "x", "b": "y"}) == [("a", "x"), ("b", "y")]


def test_placeholders_inside_values_stay_literal():
    question = "Which of {options} fits the {evidence} and {unknown}?"
    item = QAItem(id="q", question=question, options={"A": "x", "B": "y"}, gold="A")
    prompt = build_cot_prompt(item, template="Q: {question}\nO: {options}")
    assert prompt == f"Q: {question}\nO: A. x\nB. y"

    inference = fill_template(
        load_template("answer_inference.txt"), question=question, options="A. x", evidence="E {question}"
    )
    assert f"Question: {question}\n" in inference
    assert "Evidence:\nE {question}\n" in inference
    assert inference.count("A. x") == 1
    assert fill_template("{a}{b} {c} {}", a="{b}", b="2") == "{b}2 {c} {}"


def test_builtin_templates_are_read_once_and_overrides_on_every_call(tmp_path):
    assert load_template("cot_generation.txt") is load_template("cot_generation.txt")
    with pytest.raises(ValidationError, match="unknown built-in template"):
        load_template("missing.txt")
    override = tmp_path / "cot.txt"
    override.write_text("first {question}", encoding="utf-8")
    assert load_template("cot_generation.txt", str(override)) == "first {question}"
    override.write_text("second {question}", encoding="utf-8")
    assert load_template("cot_generation.txt", str(override)) == "second {question}"


# -- parsing ---------------------------------------------------------------------


def test_parse_segments_and_confidence():
    cot = parse_cot(
        "Fever → bacterial infection suspected → elevated WBC expected → 85"
    )
    assert cot.segments == (
        "Fever",
        "bacterial infection suspected",
        "elevated WBC expected",
    )
    assert cot.confidence == 85
    assert cot.warnings == ()


def test_parse_without_confidence_warns():
    cot = parse_cot("A → B")
    assert cot.segments == ("A", "B")
    assert cot.confidence is None
    assert cot.warnings


def test_parse_only_arrows_is_error():
    with pytest.raises(CotParseError):
        parse_cot("   →  → ")
    with pytest.raises(CotParseError):
        parse_cot("")


def test_parse_accepts_ascii_arrows():
    cot = parse_cot("first step -> second step -> 40")
    assert cot.segments == ("first step", "second step")
    assert cot.confidence == 40


def test_parse_out_of_range_confidence_kept_as_segment():
    cot = parse_cot("A → B → 120")
    assert cot.segments == ("A", "B", "120")
    assert cot.confidence is None
    assert any("120" in w for w in cot.warnings)


def test_parse_single_numeric_segment_stays_reasoning():
    cot = parse_cot("85")
    assert cot.segments == ("85",)
    assert cot.confidence is None


def test_zero_and_hundred_confidence_accepted():
    assert parse_cot("a → 0").confidence == 0
    assert parse_cot("a → 100").confidence == 100


def test_segments_never_contain_arrows():
    cot = parse_cot("alpha→beta->gamma → 55")
    for segment in cot.segments:
        assert ARROW not in segment
        assert "->" not in segment


# -- rendering / round trip ---------------------------------------------------------


def test_render_uses_unicode_arrow_canonically():
    cot = ChainOfThought(segments=("a", "b"), confidence=70)
    assert render_cot(cot) == "a → b → 70"


def _random_segments(rng: random.Random) -> tuple[str, ...]:
    words = ["fever", "lesion", "signal", "risk", "response", "marker", "pathway"]
    count = rng.randint(1, 8)
    segments = []
    for _ in range(count):
        length = rng.randint(1, 4)
        segments.append(" ".join(rng.choice(words) for _ in range(length)))
    return tuple(segments)


def test_parse_render_round_trip_both_encodings():
    rng = random.Random(97)
    for _ in range(200):
        segments = _random_segments(rng)
        confidence = rng.randint(0, 100) if rng.random() < 0.7 else None
        original = ChainOfThought(segments=segments, confidence=confidence)
        parts = [*segments, *([] if confidence is None else [str(confidence)])]
        for rendered in (render_cot(original), " -> ".join(parts)):
            parsed = parse_cot(rendered)
            assert parsed.segments == segments
            assert parsed.confidence == confidence


def test_invalid_chain_construction():
    with pytest.raises(ValidationError):
        ChainOfThought(segments=())
    with pytest.raises(ValidationError):
        ChainOfThought(segments=("a",), confidence=150)
