"""Exception hierarchy shared across the package."""


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


class ArtifactError(CausalRagError):
    """A serialized graph artifact is unreadable or built by an incompatible version."""


class TransportError(CausalRagError):
    """A live LLM call failed after exhausting its retry budget."""


class TranscriptError(CausalRagError):
    """Mock transcript replay could not satisfy a request."""


# A failed LLM stage: the harness degrades the item to an abstain, the CLI exits 3.
STAGE_ERRORS = (TransportError, TranscriptError, CotParseError)
