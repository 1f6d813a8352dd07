"""Exception hierarchy shared across the package, and the readers every
input file goes through: ``open_text`` for UTF-8 text, ``tsv_rows`` for tab
separated rows and ``json_lines`` for one JSON value per line."""

import json
from contextlib import contextmanager
from typing import Callable, Iterable, Iterator


class CausalRagError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(CausalRagError):
    """A value, argument, or configuration violates a documented constraint."""


class NotFoundError(CausalRagError):
    """A referenced node, edge, or triple does not exist in the graph."""


class IngestionError(CausalRagError):
    """Triple ingestion could not produce a usable graph."""


class CotParseError(CausalRagError):
    """Chain-of-thought text yielded no usable reasoning segments."""


class DatasetError(CausalRagError):
    """A QA dataset file is malformed."""


class EncodingError(CausalRagError):
    """An input text file is not valid UTF-8."""


class ArtifactError(CausalRagError):
    """A serialized graph artifact is unreadable or built by an incompatible version."""


class TransportError(CausalRagError):
    """A live LLM call, or one attempt at it, failed; ``transient`` marks an
    attempt worth retrying (a dropped connection, a 429 or 5xx status)."""

    def __init__(self, message: str, transient: bool = False):
        super().__init__(message)
        self.transient = transient


class TranscriptError(CausalRagError):
    """Mock transcript replay could not satisfy a request."""


# A failed LLM stage: the harness degrades the item to an abstain, the CLI exits 3.
STAGE_ERRORS = (TransportError, TranscriptError, CotParseError)


@contextmanager
def open_text(path):
    """Open ``path`` for reading as UTF-8 text. A ``UnicodeDecodeError`` met
    while reading it is raised as an ``EncodingError`` naming the file and the
    offset of its first bad byte."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        # A streaming reader's offset counts from the block it was decoding.
        offset = exc.start
        with open(path, "rb") as fh:
            try:
                fh.read().decode("utf-8")
            except UnicodeDecodeError as whole:
                offset = whole.start
        raise EncodingError(f"{path}: byte {offset} is not valid utf-8 ({exc.reason})") from None


def tsv_rows(lines: Iterable[str]) -> Iterator[tuple[int, list[str]]]:
    """``(line number, fields)`` for each line that is neither blank nor a
    ``#`` comment; fields are split on tabs and trimmed."""
    for line_no, line in enumerate(lines, start=1):
        # ``lstrip`` returns the line itself when it has no leading whitespace.
        stripped = line.lstrip()
        if stripped and stripped[0] != "#":
            yield line_no, list(map(str.strip, line.split("\t")))


def _without_repeated_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's dict, refusing a key that repeats (``json`` keeps the last)."""
    record = dict(pairs)
    if len(record) < len(pairs):
        seen: set[str] = set()
        for key, _ in pairs:
            if key in seen:
                raise ValueError(f"duplicate key {key!r}")
            seen.add(key)
    return record


# One decoder for every line: ``json.loads`` with a hook builds a new one per call.
_DECODER = json.JSONDecoder(object_pairs_hook=_without_repeated_keys)


def json_lines(path, read: Callable, error: Callable[[str], CausalRagError]) -> Iterator[tuple[int, object]]:
    """``(line number, read(value))`` for each non-blank line of ``path``.

    A line that is not JSON, repeats a key in an object or that ``read``
    refuses raises ``error(f"{path}: line {n}: {reason}")``.
    """
    with open_text(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                value, end = _DECODER.raw_decode(line)
                if end < len(line):
                    _DECODER.decode(line)  # raises json's "Extra data" error
                value = read(value)
            # ValueError covers bad JSON and over-long integers; RecursionError, deep nesting.
            except (ValueError, RecursionError, KeyError, TypeError, AttributeError, ValidationError) as exc:
                raise error(f"{path}: line {line_no}: {exc}") from None
            yield line_no, value
