"""Chain-of-thought prompting and parsing.

The reasoning format is a sequence of short single-state steps separated by
an arrow, with a trailing integer confidence in [0, 100]. Both the unicode
arrow and the ASCII "->" are accepted on input; the canonical renderer uses
the unicode form.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping

from .errors import CotParseError, ValidationError
from .templates import fill_template, load_template

ARROW = "→"
_SPLIT_RE = re.compile(r"→|->")
_INT_RE = re.compile(r"[+-]?\d+")


@dataclass(frozen=True)
class ChainOfThought:
    """Parsed reasoning chain: ordered segments plus an optional confidence."""

    raw: str
    segments: tuple[str, ...]
    confidence: int | None = None
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.segments:
            raise ValidationError("chain of thought must contain at least one segment")
        if self.confidence is not None and not 0 <= self.confidence <= 100:
            raise ValidationError(f"confidence {self.confidence} outside [0, 100]")


def normalize_options(options: Mapping[str, str]) -> list[tuple[str, str]]:
    """Validate and order option labels; blanks are rejected."""
    pairs = list(options.items())
    if len(pairs) < 2:
        raise ValidationError(f"need at least 2 options, got {len(pairs)}")
    for label, text in pairs:
        if not str(label).strip():
            raise ValidationError("option label must be non-empty")
        if not str(text).strip():
            raise ValidationError(f"option {label!r} has empty text")
    return [(str(label), str(text)) for label, text in pairs]


def format_options(options) -> str:
    return "\n".join(f"{label}. {text}" for label, text in normalize_options(options))


def build_cot_prompt(question: str, options, template: str | None = None) -> str:
    """Fill the chain-of-thought generation template for one question."""
    if not question or not question.strip():
        raise ValidationError("question must be non-empty")
    block = format_options(options)
    tpl = template if template is not None else load_template("cot_generation.txt")
    return fill_template(tpl, question=question.strip(), options=block)


def parse_cot(raw: str) -> ChainOfThought:
    """Split arrow-separated reasoning text into segments and confidence.

    Empty fragments are dropped after trimming. A final segment that is an
    integer in [0, 100] becomes the confidence (and is removed), except when
    it is the only segment; any other ending leaves the confidence absent
    with a recorded warning.
    """
    segments = [part.strip() for part in _SPLIT_RE.split(raw or "")]
    segments = [part for part in segments if part]
    if not segments:
        raise CotParseError("no reasoning segments found")

    confidence: int | None = None
    warnings: list[str] = []
    last = segments[-1]
    if _INT_RE.fullmatch(last):
        value = int(last)
        if not 0 <= value <= 100:
            warnings.append(f"trailing confidence {value} outside [0, 100]; ignored")
        elif len(segments) == 1:
            warnings.append("only segment is numeric; kept as reasoning text")
        else:
            confidence = value
            segments = segments[:-1]
    else:
        warnings.append("no trailing numeric confidence found")

    return ChainOfThought(
        raw=raw,
        segments=tuple(segments),
        confidence=confidence,
        warnings=tuple(warnings),
    )


def render_cot(cot: ChainOfThought) -> str:
    """Render segments (and confidence, when present) back to arrow-separated text."""
    parts = list(cot.segments)
    if cot.confidence is not None:
        parts.append(str(cot.confidence))
    return f" {ARROW} ".join(parts)
