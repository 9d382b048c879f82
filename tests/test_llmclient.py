"""Chat-completions client: wire shape, auth, retries, injected faults."""

import time

import pytest

from kgqa.disambiguation import RemoteReasoner, disambiguate
from kgqa.errors import ConfigError, DisambiguationError, TransportError
from kgqa.kgstore import EntityRecord
from kgqa.llmclient import ChatCompletionsClient, ReasonerClientConfig
from kgqa.retrieval import CandidateSet


def _config(url, **overrides):
    defaults = dict(base_url=url, model_name="test-model", timeout=5.0,
                    max_retries=1, backoff_base=0.0)
    defaults.update(overrides)
    return ReasonerClientConfig(**defaults)


def test_config_validation():
    with pytest.raises(ConfigError):
        ReasonerClientConfig(base_url="x", model_name="m", timeout=0)
    with pytest.raises(ConfigError):
        ReasonerClientConfig(base_url="x", model_name="m", max_retries=-1)
    assert ReasonerClientConfig(base_url="x", model_name="m").temperature == 0.0


@pytest.mark.parametrize("field, value, message", [
    ("max_in_flight", 0, "max_in_flight must be >= 1"),
    ("max_in_flight", -1, "max_in_flight must be >= 1"),
    ("backoff_base", -0.5, "backoff_base must be >= 0"),
])
def test_config_rejects_settings_that_hang_or_crash(field, value, message):
    with pytest.raises(ConfigError, match=message) as err:
        ReasonerClientConfig(base_url="x", model_name="m", **{field: value})
    assert err.value.exit_code == 2


def test_request_shape_and_bearer_token(fake_server, monkeypatch):
    monkeypatch.setenv("KGQA_API_KEY", "sk-verysecret")
    fake_server.enqueue_chat("hello")
    client = ChatCompletionsClient(_config(fake_server.url))
    answer = client.complete([{"role": "user", "content": "hi"}])
    assert answer == "hello"
    request = fake_server.requests[0]
    assert request.method == "POST"
    payload = request.json()
    assert payload == {"model": "test-model",
                       "messages": [{"role": "user", "content": "hi"}],
                       "temperature": 0.0}
    assert request.headers["authorization"] == "Bearer sk-verysecret"


def test_no_key_no_header(fake_server, monkeypatch):
    monkeypatch.delenv("KGQA_API_KEY", raising=False)
    fake_server.enqueue_chat("ok")
    ChatCompletionsClient(_config(fake_server.url)).complete([])
    assert "authorization" not in fake_server.requests[0].headers


def test_retry_on_server_error(fake_server):
    fake_server.enqueue(500, "boom")
    fake_server.enqueue_chat("recovered")
    client = ChatCompletionsClient(_config(fake_server.url, max_retries=2))
    assert client.complete([]) == "recovered"
    assert len(fake_server.requests) == 2


def test_retries_exhausted(fake_server):
    for _ in range(3):
        fake_server.enqueue(503, "down")
    client = ChatCompletionsClient(_config(fake_server.url, max_retries=2))
    with pytest.raises(TransportError):
        client.complete([])
    assert len(fake_server.requests) == 3


def test_client_error_fails_fast(fake_server):
    fake_server.enqueue(401, "bad key")
    client = ChatCompletionsClient(_config(fake_server.url, max_retries=3))
    with pytest.raises(TransportError) as err:
        client.complete([])
    assert "401" in str(err.value)
    assert len(fake_server.requests) == 1


# 429 and every 5xx are retried; any other non-200 status fails at once.
@pytest.mark.parametrize("status, requests_sent", [
    (429, 2), (500, 2), (502, 2), (503, 2), (504, 2), (400, 1), (404, 1),
])
def test_retry_policy(fake_server, monkeypatch, status, requests_sent):
    sleeps = []
    monkeypatch.setattr(time, "sleep", sleeps.append)
    fake_server.default_response = (status, "no")
    client = ChatCompletionsClient(_config(fake_server.url, max_retries=1,
                                           backoff_base=0.25))
    with pytest.raises(TransportError, match=f"^HTTP {status}: no$"):
        client.complete([])
    assert len(fake_server.requests) == requests_sent
    assert sleeps == [0.25] * (requests_sent - 1)


def test_backoff_doubles_per_retry(fake_server, monkeypatch):
    sleeps = []
    monkeypatch.setattr(time, "sleep", sleeps.append)
    fake_server.default_response = (503, "down")
    client = ChatCompletionsClient(_config(fake_server.url, max_retries=3,
                                           backoff_base=0.25))
    with pytest.raises(TransportError):
        client.complete([])
    assert len(fake_server.requests) == 4
    assert sleeps == [0.25, 0.5, 1.0]


def test_malformed_completion(fake_server):
    fake_server.enqueue(200, {"choices": []})
    client = ChatCompletionsClient(_config(fake_server.url))
    with pytest.raises(TransportError) as err:
        client.complete([])
    assert "malformed" in str(err.value)


# Requests the client sends for each fault with max_retries=1: a timeout
# and a 503 are retried, a malformed body is not.
FAULT_ATTEMPTS = {"timeout": 2, "truncated-json": 1, "5xx-burst": 2}


@pytest.mark.parametrize("fault", sorted(FAULT_ATTEMPTS))
def test_fault_is_transport_error(fake_server, fault):
    fake_server.inject_fault(fault)
    client = ChatCompletionsClient(_config(fake_server.url, timeout=0.1, max_retries=1))
    with pytest.raises(TransportError) as err:
        client.complete([{"role": "user", "content": "hi"}])
    assert err.value.exit_code == 4
    assert len(fake_server.requests) == FAULT_ATTEMPTS[fault]


@pytest.mark.parametrize("fault", sorted(FAULT_ATTEMPTS))
def test_reasoner_fault_is_disambiguation_error(fake_server, fault):
    fake_server.inject_fault(fault)
    reasoner = RemoteReasoner(ChatCompletionsClient(
        _config(fake_server.url, timeout=0.1, max_retries=1)))
    candidates = CandidateSet(query="q", kind="entity", hits=(("Q1", 1.0),))
    catalog = {"Q1": EntityRecord("Q1", "one")}
    with pytest.raises(DisambiguationError) as err:
        disambiguate("q", candidates, "entity", reasoner, catalog=catalog)
    assert err.value.exit_code == 4
    assert "reasoner call failed" in str(err.value)
    assert len(fake_server.requests) == FAULT_ATTEMPTS[fault]
