"""Questions, chain-of-thought prompting and parsing.

A ``QAItem`` is one multiple-choice question. It validates its options and
formats them once, at construction; every prompt of the item embeds that
block, and ``build_cot_prompt`` is the one fill of the chain-of-thought
template.

The reasoning format is a sequence of short single-state steps separated by
an arrow, with a trailing integer confidence in [0, 100]. Both the unicode
arrow and the ASCII "->" are accepted on input; the canonical renderer uses
the unicode form.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Mapping

from .errors import CotParseError, ValidationError
from .templates import fill_template

ARROW = "→"
_SPLIT_RE = re.compile(r"→|->")
_INT_RE = re.compile(r"[+-]?\d+")


@dataclass(frozen=True)
class ChainOfThought:
    """Parsed reasoning chain: ordered segments plus an optional confidence."""

    segments: tuple[str, ...]
    confidence: int | None = None
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.segments:
            raise ValidationError("chain of thought must contain at least one segment")
        if self.confidence is not None and not 0 <= self.confidence <= 100:
            raise ValidationError(f"confidence {self.confidence} outside [0, 100]")


def normalize_options(options: Mapping[str, str]) -> list[tuple[str, str]]:
    """Validate and order option labels; blanks are rejected, and so are two
    labels that differ only in case, since answers match labels in any case."""
    pairs = list(options.items())
    if len(pairs) < 2:
        raise ValidationError(f"need at least 2 options, got {len(pairs)}")
    folded: dict[str, str] = {}
    for label, text in pairs:
        if not str(label).strip():
            raise ValidationError("option label must be non-empty")
        if not str(text).strip():
            raise ValidationError(f"option {label!r} has empty text")
        other = folded.setdefault(str(label).lower(), label)
        if other != label:
            raise ValidationError(f"option labels {other!r} and {label!r} differ only in case")
    return [(str(label), str(text)) for label, text in pairs]


@dataclass(frozen=True)
class QAItem:
    """One multiple-choice question with its gold label.

    The options are validated here, once, and formatted into
    ``options_block``: one ``label. text`` line per option, the block every
    prompt of the item embeds.
    """

    id: str
    question: str
    options: dict[str, str]
    gold: str
    options_block: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.id:
            raise ValidationError("item id must be non-empty")
        if not self.question.strip():
            raise ValidationError(f"item {self.id}: question must be non-empty")
        try:
            pairs = normalize_options(self.options)
        except ValidationError as exc:
            raise ValidationError(f"item {self.id}: {exc}") from None
        if self.gold not in self.options:
            raise ValidationError(f"item {self.id}: gold label {self.gold!r} not among options")
        object.__setattr__(self, "options_block", "\n".join(f"{label}. {text}" for label, text in pairs))

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(self.options)


def build_cot_prompt(item: QAItem, template: str) -> str:
    """Fill the chain-of-thought generation template for one question."""
    return fill_template(template, question=item.question.strip(), options=item.options_block)


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

    return ChainOfThought(segments=tuple(segments), confidence=confidence, warnings=tuple(warnings))


def render_cot(cot: ChainOfThought) -> str:
    """Render segments (and confidence, when present) back to arrow-separated text."""
    parts = list(cot.segments)
    if cot.confidence is not None:
        parts.append(str(cot.confidence))
    return f" {ARROW} ".join(parts)
