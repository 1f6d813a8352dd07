"""Chat-completion gateway shared by the three pipeline stages.

One client handles both live endpoints (bounded retries with exponential
backoff) and a deterministic mock mode that replays canned responses keyed
by (stage, ordinal). All network activity in the package happens here.
"""

from __future__ import annotations

import functools
import logging
import os
import re
import threading
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .errors import TranscriptError, TransportError, ValidationError, json_lines

logger = logging.getLogger(__name__)

STAGES = ("cot", "enhance", "infer")
MOCK_MODEL = "mock"

ENDPOINT_ENV = "LLM_ENDPOINT"
API_KEY_ENV = "LLM_API_KEY"

MAX_ATTEMPTS = 3  # per live call, the first try included
MAX_TOKENS = 1024  # completion cap sent with every live request
TIMEOUT_SECONDS = 60.0  # per HTTP round trip


@dataclass(frozen=True)
class ModelAssignment:
    """Which model runs each pipeline stage; any may be the literal "mock"."""

    cot: str = MOCK_MODEL
    enhance: str = MOCK_MODEL
    infer: str = MOCK_MODEL

    def __post_init__(self):
        for stage in STAGES:
            if not getattr(self, stage):
                raise ValidationError(f"model for stage {stage!r} must be non-empty")

    def all_mock(self) -> bool:
        return all(getattr(self, stage) == MOCK_MODEL for stage in STAGES)


@dataclass(frozen=True)
class LlmRequest:
    model: str
    messages: tuple[tuple[str, str], ...]
    stage: str
    temperature: float = 0.0

    def __post_init__(self):
        if not self.messages:
            raise ValidationError("request must contain at least one message")
        if not 0 <= self.temperature < float("inf"):
            raise ValidationError(f"temperature must be >= 0, got {self.temperature}")
        if self.stage not in STAGES:
            raise ValidationError(f"unknown stage {self.stage!r}")


@dataclass(frozen=True)
class LlmResponse:
    text: str
    prompt_tokens: int = 0
    completion_tokens: int = 0
    latency_seconds: float = 0.0
    transcript_ordinal: int | None = None


@dataclass(frozen=True)
class EndpointConfig:
    url: str
    api_key: str = ""

    @classmethod
    def from_env(cls) -> "EndpointConfig | None":
        url = os.environ.get(ENDPOINT_ENV, "")
        if not url:
            return None
        return cls(url=url, api_key=os.environ.get(API_KEY_ENV, ""))


class MockTranscript:
    """Canned responses keyed by (stage, ordinal), replayed in order per stage.

    Keying on ordinals rather than prompt hashes keeps recorded fixtures
    valid across prompt-template edits.
    """

    def __init__(self, entries: Iterable[tuple[str, int, str]]):
        self._responses: dict[tuple[str, int], str] = {}
        for stage, ordinal, text in entries:
            if stage not in STAGES:
                raise ValidationError(f"transcript entry has unknown stage {stage!r}")
            key = (stage, int(ordinal))
            if key in self._responses:
                raise ValidationError(f"duplicate transcript entry for {key}")
            self._responses[key] = text
        self._cursors = {stage: 0 for stage in STAGES}
        self._lock = threading.Lock()

    @classmethod
    def load(cls, path) -> "MockTranscript":
        """Read a JSON-lines transcript of {"stage", "ordinal", "text"} objects."""
        return cls([entry for _, entry in json_lines(path, _read_entry, ValidationError)])

    def next_response(self, stage: str) -> tuple[int, str]:
        with self._lock:
            ordinal = self._cursors[stage]
            key = (stage, ordinal)
            if key not in self._responses:
                raise TranscriptError(
                    f"transcript exhausted: no entry for stage {stage!r} ordinal {ordinal}"
                )
            self._cursors[stage] = ordinal + 1
            return ordinal, self._responses[key]

    def reset(self) -> None:
        with self._lock:
            self._cursors = {stage: 0 for stage in STAGES}


def _read_entry(record) -> tuple[str, int, str]:
    stage, ordinal, text = record["stage"], record["ordinal"], record["text"]
    if not (isinstance(stage, str) and isinstance(text, str) and type(ordinal) is int):
        raise TypeError("stage and text must be strings and ordinal an integer")
    return stage, ordinal, text


def _http_transport(session, request: LlmRequest, endpoint: EndpointConfig) -> LlmResponse:
    """Single chat-completion round trip through the ``requests.Session``
    ``session``. Raises TransportError on failure, with ``transient`` set on
    the retryable ones."""
    import requests

    headers = {"Content-Type": "application/json"}
    if endpoint.api_key:
        headers["Authorization"] = f"Bearer {endpoint.api_key}"
    body = {
        "model": request.model,
        "messages": [{"role": role, "content": content} for role, content in request.messages],
        "temperature": request.temperature,
        "max_tokens": MAX_TOKENS,
    }
    started = time.perf_counter()
    try:
        response = session.post(endpoint.url, json=body, headers=headers, timeout=TIMEOUT_SECONDS)
    except requests.RequestException as exc:
        raise TransportError(f"request failed: {exc}", transient=True) from exc
    if response.status_code == 429 or response.status_code >= 500:
        raise TransportError(f"endpoint returned status {response.status_code}", transient=True)
    if response.status_code >= 400:
        raise TransportError(f"endpoint rejected request: status {response.status_code}")
    try:
        data = response.json()
        text = data["choices"][0]["message"]["content"]
        if not isinstance(text, str):
            raise TypeError(f"content is {type(text).__name__}, not a string")
        usage = data.get("usage", {})
        tokens = [usage.get("prompt_tokens", 0), usage.get("completion_tokens", 0)]
        if not all(type(count) is int and count >= 0 for count in tokens):
            raise TypeError(f"token counts {tokens} are not non-negative integers")
        return LlmResponse(
            text=text,
            prompt_tokens=tokens[0],
            completion_tokens=tokens[1],
            latency_seconds=time.perf_counter() - started,
        )
    except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
        raise TransportError(f"malformed endpoint response: {exc}") from exc


class LlmGateway:
    """Stage-tagged completion client with retries and mock replay.

    Each calling thread makes one call at a time, so the number of live calls
    in flight is bounded by the caller's worker count. A gateway given an
    ``endpoint`` and no ``transport`` makes one ``requests.Session`` when it
    is built, and every live call from every calling thread goes over HTTP
    through it: its connection pool gives each call in flight a connection of
    its own and keeps up to ten per host open for the next calls. ``close``
    closes it; the CLI closes its gateway when a command ends.
    """

    def __init__(
        self,
        endpoint: EndpointConfig | None = None,
        transcript: MockTranscript | None = None,
        transport: Callable[[LlmRequest, EndpointConfig], LlmResponse] | None = None,
        backoff_seconds: float = 0.5,
    ):
        self.endpoint = endpoint
        self.transcript = transcript
        self.backoff_seconds = backoff_seconds
        self._session = None
        if transport is None and endpoint is not None:
            import requests

            self._session = requests.Session()
            transport = functools.partial(_http_transport, self._session)
        self._transport = transport

    def close(self) -> None:
        """Close the HTTP session and its connections, if the gateway made one."""
        if self._session is not None:
            self._session.close()

    def complete(self, request: LlmRequest) -> LlmResponse:
        """Replay the transcript for a mock stage; otherwise call the endpoint,
        retrying transient failures with exponential backoff."""
        if request.model == MOCK_MODEL:
            if self.transcript is None:
                raise TranscriptError(
                    f"stage {request.stage!r} is assigned the mock model but no transcript is loaded"
                )
            ordinal, text = self.transcript.next_response(request.stage)
            return LlmResponse(text=text, transcript_ordinal=ordinal)
        if self.endpoint is None:
            raise TransportError(
                f"no endpoint configured (set {ENDPOINT_ENV}) for model {request.model!r}"
            )
        for attempt in range(1, MAX_ATTEMPTS + 1):
            try:
                return self._transport(request, self.endpoint)
            except TransportError as exc:
                if not exc.transient:
                    raise
                if attempt == MAX_ATTEMPTS:
                    raise TransportError(f"giving up after {MAX_ATTEMPTS} attempts: {exc}") from exc
                delay = self.backoff_seconds * 2 ** (attempt - 1)
                logger.debug(
                    "transient LLM failure (attempt %d/%d): %s; retrying in %.1fs",
                    attempt,
                    MAX_ATTEMPTS,
                    exc,
                    delay,
                )
                if delay > 0:
                    time.sleep(delay)


# -- answer extraction ----------------------------------------------------------


def extract_answer_label(text: str, valid_labels: Sequence[str]) -> str | None:
    """Pull the chosen option label out of model output, or None to abstain.

    Rule chain, first match wins: an "Answer: X" line, then "(X)" or
    "option X", then a line holding a lone label. Matching is
    case-insensitive; the canonical label is returned.
    """
    if not valid_labels:
        raise ValidationError("valid_labels must be non-empty")
    canonical, answer_re, inline_re, lone_re = _label_patterns(tuple(valid_labels))

    for line in text.splitlines():
        match = answer_re.match(line)
        if match:
            return canonical[match.group(1).lower()]

    match = inline_re.search(text)
    if match:
        label = match.group(1) or match.group(2)
        return canonical[label.lower()]

    for line in text.splitlines():
        match = lone_re.match(line)
        if match:
            return canonical[match.group(1).lower()]

    return None


@functools.lru_cache(maxsize=64)
def _label_patterns(labels: tuple[str, ...]) -> tuple[dict[str, str], re.Pattern, re.Pattern, re.Pattern]:
    """The canonical label of each lower-cased label (callers must not change
    the map), and the rule chain's three patterns, built once per label set:
    a dataset has few."""
    canonical = {label.lower(): label for label in labels}
    alternation = "|".join(re.escape(label) for label in labels)
    return (
        canonical,
        re.compile(rf"^\s*answer\s*[:\-]\s*\(?({alternation})\)?\b", re.IGNORECASE),
        re.compile(rf"\(({alternation})\)|\boption\s+({alternation})\b", re.IGNORECASE),
        re.compile(rf"^\s*({alternation})\s*[.)]?\s*$", re.IGNORECASE),
    )
