"""Exception hierarchy shared across the package, and the reader guard that
names an input file that is not valid UTF-8."""

from contextlib import contextmanager


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
def naming_undecodable(path):
    """Raise a ``UnicodeDecodeError`` met while reading ``path`` as an
    ``EncodingError`` naming the file and the offset of its first bad byte."""
    try:
        yield
    except UnicodeDecodeError as exc:
        # A streaming reader's offset counts from the block it was decoding.
        offset = exc.start
        with open(path, "rb") as fh:
            try:
                fh.read().decode("utf-8")
            except UnicodeDecodeError as whole:
                offset = whole.start
        raise EncodingError(f"{path}: byte {offset} is not valid utf-8 ({exc.reason})") from None
