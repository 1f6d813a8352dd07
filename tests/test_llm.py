from __future__ import annotations

import contextlib
import http.server
import json
import logging
import re
import sys
import threading
from pathlib import Path

import pytest

from causalrag.errors import TranscriptError, TransportError, ValidationError
from causalrag.llm import (
    EndpointConfig,
    LlmGateway,
    LlmRequest,
    LlmResponse,
    MockTranscript,
    ModelAssignment,
    extract_answer_label,
)


def _request(stage="cot", model="mock", prompt="hello"):
    return LlmRequest(model=model, messages=(("user", prompt),), stage=stage)


# -- mock replay -----------------------------------------------------------------


def test_transcript_replays_in_order():
    transcript = MockTranscript([("cot", 0, "first"), ("cot", 1, "second")])
    gateway = LlmGateway(transcript=transcript)
    assert gateway.complete(_request()).text == "first"
    assert gateway.complete(_request()).text == "second"


def test_transcript_exhaustion_is_error():
    transcript = MockTranscript([("cot", 0, "only")])
    gateway = LlmGateway(transcript=transcript)
    gateway.complete(_request())
    with pytest.raises(TranscriptError, match="ordinal 1"):
        gateway.complete(_request())


def test_transcript_stage_mismatch_is_error():
    transcript = MockTranscript([("cot", 0, "only cot here")])
    gateway = LlmGateway(transcript=transcript)
    with pytest.raises(TranscriptError, match="stage 'infer'"):
        gateway.complete(_request(stage="infer"))


def test_mock_without_transcript_is_error():
    gateway = LlmGateway()
    with pytest.raises(TranscriptError, match="no transcript"):
        gateway.complete(_request())


def test_transcript_load_and_reset(tmp_path):
    path = tmp_path / "transcript.jsonl"
    lines = [
        json.dumps({"stage": "cot", "ordinal": 0, "text": "a"}),
        json.dumps({"stage": "infer", "ordinal": 0, "text": "Answer: A"}),
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    transcript = MockTranscript.load(path)
    assert len(transcript._responses) == 2
    gateway = LlmGateway(transcript=transcript)
    assert gateway.complete(_request(stage="infer")).text == "Answer: A"
    transcript.reset()
    assert gateway.complete(_request(stage="infer")).text == "Answer: A"


def test_transcript_rejects_duplicates_and_bad_stage():
    with pytest.raises(ValidationError):
        MockTranscript([("cot", 0, "a"), ("cot", 0, "b")])
    with pytest.raises(ValidationError):
        MockTranscript([("warmup", 0, "a")])


@pytest.mark.parametrize(
    "field, value",
    [("ordinal", "x"), ("ordinal", "1"), ("ordinal", True), ("ordinal", 1.0), ("ordinal", None),
     ("text", 5), ("text", None), ("text", ["a"]), ("stage", 1), ("stage", None)],
)
def test_transcript_load_rejects_wrong_types(tmp_path, field, value):
    record = {"stage": "infer", "ordinal": 1, "text": "Answer: A", field: value}
    path = tmp_path / "t.jsonl"
    path.write_text(
        json.dumps({"stage": "infer", "ordinal": 0, "text": "Answer: B"}) + "\n" + json.dumps(record) + "\n",
        encoding="utf-8",
    )
    with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}: line 2: "):
        MockTranscript.load(path)


@pytest.mark.parametrize(
    "line, message",
    [
        ('{"stage": "cot", "ordinal": 1, "text": "b", "stage": "infer"}', "duplicate key 'stage'"),
        ('{"stage": "cot", "ordinal": ' + "9" * 5000 + ', "text": "b"}', "Exceeds the limit"),
        ("[" * 100_000 + "]" * 100_000, "maximum recursion depth exceeded"),
    ],
    ids=["repeated-key", "5000-digit-ordinal", "deep-nesting"],
)
def test_transcript_load_refuses_what_the_dataset_refuses(tmp_path, line, message):
    path = tmp_path / "t.jsonl"
    path.write_text('{"stage": "cot", "ordinal": 0, "text": "a"}\n\n' + line + "\n", encoding="utf-8")
    with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}: line 3: {message}"):
        MockTranscript.load(path)


def test_mock_replay_deterministic():
    entries = [("cot", 0, "alpha"), ("enhance", 0, "beta"), ("infer", 0, "gamma")]
    first = []
    second = []
    for sink in (first, second):
        gateway = LlmGateway(transcript=MockTranscript(entries))
        for stage in ("cot", "enhance", "infer"):
            sink.append(gateway.complete(_request(stage=stage)).text)
    assert first == second


# -- live transport and retries -----------------------------------------------------


def _failing_transport(failures_before_success, response_text="fine"):
    calls = {"n": 0}

    def transport(request, endpoint):
        calls["n"] += 1
        if calls["n"] <= failures_before_success:
            raise TransportError("status 500", transient=True)
        return LlmResponse(text=response_text)

    return transport, calls


def test_retry_then_success():
    transport, calls = _failing_transport(2)
    gateway = LlmGateway(
        endpoint=EndpointConfig(url="http://example/llm"),
        transport=transport,
        backoff_seconds=0.0,
    )
    response = gateway.complete(_request(model="gpt-model"))
    assert response.text == "fine"
    assert calls["n"] == 3


def test_transient_retries_log_at_debug_only(caplog):
    transport, _ = _failing_transport(2)
    gateway = LlmGateway(
        endpoint=EndpointConfig(url="http://example/llm"),
        transport=transport,
        backoff_seconds=0.0,
    )
    with caplog.at_level(logging.DEBUG, logger="causalrag.llm"):
        gateway.complete(_request(model="gpt-model"))
    records = [r for r in caplog.records if r.name == "causalrag.llm"]
    assert [r.levelno for r in records] == [logging.DEBUG, logging.DEBUG]
    assert all("retrying" in r.getMessage() for r in records)


def test_three_transient_failures_exhaust_retries():
    transport, calls = _failing_transport(99)
    gateway = LlmGateway(
        endpoint=EndpointConfig(url="http://example/llm"),
        transport=transport,
        backoff_seconds=0.0,
    )
    with pytest.raises(TransportError, match="3 attempts"):
        gateway.complete(_request(model="gpt-model"))
    assert calls["n"] == 3


def test_transport_error_is_non_transient_unless_marked():
    assert TransportError("x").transient is False
    assert TransportError("x", transient=True).transient is True
    marked_later = TransportError("x")
    marked_later.transient = True
    assert marked_later.transient is True


def test_non_transient_failure_not_retried():
    calls = {"n": 0}

    def transport(request, endpoint):
        calls["n"] += 1
        raise TransportError("status 401")

    gateway = LlmGateway(
        endpoint=EndpointConfig(url="http://example/llm"),
        transport=transport,
        backoff_seconds=0.0,
    )
    with pytest.raises(TransportError, match="401"):
        gateway.complete(_request(model="gpt-model"))
    assert calls["n"] == 1


class _Reply:
    status_code = 200

    def __init__(self, payload):
        self.payload = payload

    def json(self):
        if isinstance(self.payload, Exception):
            raise self.payload
        return self.payload


def _chat_reply(content="Answer: A", usage=None):
    payload = {"choices": [{"message": {"content": content}}]}
    if usage is not None:
        payload["usage"] = usage
    return payload


@pytest.mark.parametrize(
    "payload",
    [
        ValueError("not json"),
        {"choices": []},
        [],
        _chat_reply(content=None),
        _chat_reply(content=5),
        {**_chat_reply(), "usage": None},
        _chat_reply(usage={"prompt_tokens": "abc"}),
        _chat_reply(usage={"completion_tokens": None}),
        _chat_reply(usage={"prompt_tokens": -5}),
        _chat_reply(usage={"prompt_tokens": True}),
        _chat_reply(usage={"completion_tokens": "7"}),
        _chat_reply(usage={"completion_tokens": 2.9}),
        _chat_reply(usage={"prompt_tokens": 2.0}),
    ],
    ids=[
        "not-json", "no-choices", "list", "null-content", "int-content", "null-usage", "text-tokens", "null-tokens",
        "negative-tokens", "bool-tokens", "numeric-text-tokens", "fractional-tokens", "float-tokens",
    ],
)
def test_malformed_endpoint_reply_is_one_non_transient_transport_error(monkeypatch, payload):
    import requests

    posts = []
    monkeypatch.setattr(requests.Session, "post", lambda self, *args, **kwargs: posts.append(args) or _Reply(payload))
    gateway = LlmGateway(endpoint=EndpointConfig(url="http://example/llm"), backoff_seconds=0.0)
    with pytest.raises(TransportError, match="^malformed endpoint response: ") as info:
        gateway.complete(_request(model="gpt-model"))
    assert info.value.transient is False
    assert len(posts) == 1


def test_well_formed_endpoint_reply_carries_text_and_tokens(monkeypatch):
    import requests

    reply = _Reply(_chat_reply(usage={"prompt_tokens": 7, "completion_tokens": 3}))
    monkeypatch.setattr(requests.Session, "post", lambda self, *args, **kwargs: reply)
    response = LlmGateway(endpoint=EndpointConfig(url="http://example/llm")).complete(_request(model="gpt-model"))
    assert (response.text, response.prompt_tokens, response.completion_tokens) == ("Answer: A", 7, 3)


@pytest.mark.parametrize("usage", [None, {}, {"prompt_tokens": 0}], ids=["no-usage", "empty-usage", "one-count"])
def test_a_missing_token_count_reads_as_zero(monkeypatch, usage):
    import requests

    reply = _Reply(_chat_reply(usage=usage))
    monkeypatch.setattr(requests.Session, "post", lambda self, *args, **kwargs: reply)
    response = LlmGateway(endpoint=EndpointConfig(url="http://example/llm")).complete(_request(model="gpt-model"))
    assert (response.prompt_tokens, response.completion_tokens) == (0, 0)


@pytest.mark.parametrize("api_key", ["", "sk-test"], ids=["no-key", "key"])
def test_the_http_request_carries_the_body_headers_and_timeout(monkeypatch, api_key):
    import requests

    posts = []
    monkeypatch.setattr(
        requests.Session, "post", lambda self, *args, **kwargs: posts.append((args, kwargs)) or _Reply(_chat_reply())
    )
    request = LlmRequest(
        model="gpt-model", messages=(("system", "be brief"), ("user", "hello")), stage="infer", temperature=0.3
    )
    LlmGateway(endpoint=EndpointConfig(url="http://example/llm", api_key=api_key)).complete(request)
    [(args, kwargs)] = posts
    assert args == ("http://example/llm",)
    assert kwargs["json"] == {
        "model": "gpt-model",
        "messages": [{"role": "system", "content": "be brief"}, {"role": "user", "content": "hello"}],
        "temperature": 0.3,
        "max_tokens": 1024,
    }
    expected_headers = {"Content-Type": "application/json"}
    if api_key:
        expected_headers["Authorization"] = "Bearer sk-test"
    assert kwargs["headers"] == expected_headers
    assert kwargs["timeout"] == 60
    assert set(kwargs) == {"json", "headers", "timeout"}


class _ChatHandler(http.server.BaseHTTPRequestHandler):
    """Answers every POST with one chat reply and records the client's address."""

    protocol_version = "HTTP/1.1"  # keeps each connection open for the next request

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        self.server.clients.append(self.client_address)
        body = json.dumps(_chat_reply()).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@contextlib.contextmanager
def _live_gateway(monkeypatch):
    """A gateway on a local chat server, and the server; the gateway is
    closed before the server, whose handlers then see their connections end."""
    monkeypatch.setenv("NO_PROXY", "127.0.0.1")
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _ChatHandler)
    server.clients = []
    serving = threading.Thread(target=server.serve_forever)
    serving.start()
    gateway = LlmGateway(endpoint=EndpointConfig(url=f"http://127.0.0.1:{server.server_port}/llm"))
    try:
        yield gateway, server
    finally:
        gateway.close()
        server.shutdown()
        server.server_close()
        serving.join()


def test_sequential_live_calls_share_one_connection(monkeypatch):
    with _live_gateway(monkeypatch) as (gateway, server):
        texts = [gateway.complete(_request(model="gpt-model")).text for _ in range(3)]
    assert texts == ["Answer: A"] * 3
    assert len(server.clients) == 3
    assert len(set(server.clients)) == 1


def test_live_calls_from_more_threads_than_cores_share_one_session(monkeypatch):
    import requests

    sessions = []

    class CountedSession(requests.Session):
        def __init__(self):
            super().__init__()
            sessions.append(self)

    monkeypatch.setattr(requests, "Session", CountedSession)
    texts = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with _live_gateway(monkeypatch) as (gateway, server):
            callers = [
                threading.Thread(target=lambda: texts.append(gateway.complete(_request(model="gpt-model")).text))
                for _ in range(4)
            ]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    assert texts == ["Answer: A"] * 4
    assert len(server.clients) == 4
    assert len(sessions) == 1


def test_live_without_endpoint_is_transport_error():
    gateway = LlmGateway()
    with pytest.raises(TransportError, match="no endpoint"):
        gateway.complete(_request(model="gpt-model"))


def test_request_validation():
    with pytest.raises(ValidationError):
        LlmRequest(model="m", messages=(), stage="cot")
    for temperature in (-1, float("nan"), float("inf")):
        with pytest.raises(ValidationError, match=r"^temperature must be >= 0, got "):
            LlmRequest(model="m", messages=(("user", "x"),), stage="cot", temperature=temperature)
    with pytest.raises(ValidationError):
        LlmRequest(model="m", messages=(("user", "x"),), stage="warmup")


def test_assignment_validation_and_mock_check():
    assignment = ModelAssignment(cot="mock", enhance="big-model", infer="mock")
    assert assignment.enhance == "big-model"
    assert not assignment.all_mock()
    assert ModelAssignment().all_mock()
    with pytest.raises(ValidationError):
        ModelAssignment(cot="")


# -- answer extraction ----------------------------------------------------------------


LABELS = ("A", "B", "C", "D")


def test_extract_answer_line_rule():
    assert extract_answer_label("Reasoning...\nAnswer: B", LABELS) == "B"
    assert extract_answer_label("answer: c", LABELS) == "C"
    assert extract_answer_label("Answer: (D)", LABELS) == "D"


def test_extract_parenthesized_and_option_rules():
    assert extract_answer_label("the best option is (C).", LABELS) == "C"
    assert extract_answer_label("I would pick option b here", LABELS) == "B"


def test_extract_lone_label_line():
    assert extract_answer_label("thinking...\nA\n", LABELS) == "A"
    assert extract_answer_label("D.", LABELS) == "D"


def test_extract_abstains_when_nothing_matches():
    assert extract_answer_label("inconclusive", LABELS) is None
    assert extract_answer_label("", LABELS) is None


def test_extract_returns_only_valid_labels():
    # "Answer: E" is not a valid label; rule chain moves on and finds nothing
    assert extract_answer_label("Answer: E", LABELS) is None
    assert extract_answer_label("Answer: B", ("A", "B")) == "B"


def test_extract_answer_line_wins_over_inline_mentions():
    text = "options (A) and (C) both tempt me.\nAnswer: D"
    assert extract_answer_label(text, LABELS) == "D"


def test_extract_requires_labels():
    with pytest.raises(ValidationError):
        extract_answer_label("Answer: A", ())


def test_network_access_confined_to_gateway_module():
    import causalrag

    package_dir = Path(causalrag.__file__).parent
    offenders = []
    for source in package_dir.rglob("*.py"):
        if source.name == "llm.py":
            continue
        if "requests" in source.read_text(encoding="utf-8").split():
            offenders.append(source.name)
    assert offenders == []
