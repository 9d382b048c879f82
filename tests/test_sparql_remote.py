"""SPARQL-protocol client against a local fake endpoint."""

import time

import pytest
import requests

from kgqa.errors import ConfigError, RemoteExecutionError
from kgqa.sparql import EndpointConfig, RemoteExecutor


def _config(url, **overrides):
    defaults = dict(base_url=url, timeout=5.0, max_retries=1,
                    politeness_delay=0.0, backoff_base=0.0,
                    user_agent="kgqa-tests/0.1")
    defaults.update(overrides)
    return EndpointConfig(**defaults)


def _execute(query_text, config):
    """One query on a session that is closed afterwards."""
    with requests.Session() as session:
        return RemoteExecutor(config, session).run(query_text)


def bindings_doc(var, values):
    return {
        "head": {"vars": [var]},
        "results": {"bindings": [{var: value} for value in values]},
    }


class TestConfig:
    @pytest.mark.parametrize("field, value, message", [
        ("timeout", 0, "timeout must be > 0"),
        ("timeout", -1.0, "timeout must be > 0"),
        ("max_retries", -1, "max_retries must be >= 0"),
        ("politeness_delay", -0.1, "politeness_delay must be >= 0"),
        ("max_in_flight", 0, "max_in_flight must be >= 1"),
        ("backoff_base", -1.0, "backoff_base must be >= 0"),
    ])
    def test_rejects_settings_that_hang_or_crash(self, field, value, message):
        with pytest.raises(ConfigError, match=message) as err:
            _config("http://127.0.0.1:9/sparql", **{field: value})
        assert err.value.exit_code == 2

    def test_boundary_values_are_accepted(self):
        cfg = _config("http://127.0.0.1:9/sparql", max_retries=0, politeness_delay=0.0,
                      max_in_flight=1, backoff_base=0.0)
        assert (cfg.max_retries, cfg.max_in_flight) == (0, 1)


class TestProtocol:
    def test_boolean_document(self, fake_server):
        fake_server.enqueue(200, {"boolean": True})
        result = _execute("ASK { wd:Q1 wdt:P1 wd:Q2 }", _config(fake_server.url))
        assert result.truth is True
        assert result.terms == {"true"}

    def test_uri_normalization(self, fake_server):
        fake_server.enqueue(200, bindings_doc("x", [
            {"type": "uri", "value": "http://www.wikidata.org/entity/Q42"},
        ]))
        result = _execute("SELECT ?x WHERE { wd:Q1 wdt:P1 ?x }",
                                _config(fake_server.url))
        assert result.terms == {"Q42"}

    def test_literal_passthrough(self, fake_server):
        fake_server.enqueue(200, bindings_doc("x", [
            {"type": "literal", "value": "1968-01-01T00:00:00Z"},
        ]))
        result = _execute("SELECT ?x WHERE { wd:Q1 wdt:P1 ?x }",
                                _config(fake_server.url))
        assert result.terms == {"1968-01-01T00:00:00Z"}

    def test_get_with_query_param_and_headers(self, fake_server):
        fake_server.enqueue(200, bindings_doc("x", []))
        _execute("SELECT ?x WHERE { wd:Q1 wdt:P1 ?x }",
                       _config(fake_server.url, user_agent="agent-007"))
        request = fake_server.requests[0]
        assert request.method == "GET"
        assert request.query["query"] == ["SELECT ?x WHERE { wd:Q1 wdt:P1 ?x }"]
        assert request.headers["accept"] == "application/sparql-results+json"
        assert request.headers["user-agent"] == "agent-007"

    def test_post_for_long_queries(self, fake_server):
        fake_server.enqueue(200, bindings_doc("x", []))
        long_query = "SELECT ?x WHERE { wd:Q1 wdt:P1 ?x } #" + "y" * 2100
        _execute(long_query, _config(fake_server.url))
        request = fake_server.requests[0]
        assert request.method == "POST"
        assert "query=" in request.body

    def test_multi_var_takes_first(self, fake_server):
        fake_server.enqueue(200, {
            "head": {"vars": ["a", "b"]},
            "results": {"bindings": [
                {"a": {"type": "uri", "value": "http://www.wikidata.org/entity/Q1"},
                 "b": {"type": "literal", "value": "x"}},
            ]},
        })
        result = _execute("SELECT ?a ?b WHERE { ?a wdt:P1 ?b }",
                                _config(fake_server.url))
        assert result.terms == {"Q1"}


class TestFailureModes:
    def test_http_error_carries_status_and_snippet(self, fake_server):
        fake_server.enqueue(500, "java.lang.StackOverflow deep in the engine")
        with pytest.raises(RemoteExecutionError) as err:
            _execute("SELECT ?x WHERE { wd:Q1 wdt:P1 ?x }",
                           _config(fake_server.url))
        assert "500" in str(err.value)
        assert "StackOverflow" in str(err.value)

    def test_rate_limit_retries_then_succeeds(self, fake_server):
        fake_server.enqueue(429, "slow down")
        fake_server.enqueue(200, {"boolean": False})
        result = _execute("ASK { wd:Q1 wdt:P1 wd:Q2 }",
                                _config(fake_server.url, max_retries=2))
        assert result.truth is False
        assert len(fake_server.requests) == 2

    def test_rate_limit_exhausted(self, fake_server):
        for _ in range(3):
            fake_server.enqueue(429, "busy")
        with pytest.raises(RemoteExecutionError):
            _execute("ASK { wd:Q1 wdt:P1 wd:Q2 }",
                           _config(fake_server.url, max_retries=2))

    def test_malformed_document(self, fake_server):
        fake_server.enqueue(200, "this is not json {")
        with pytest.raises(RemoteExecutionError) as err:
            _execute("SELECT ?x WHERE { wd:Q1 wdt:P1 ?x }",
                           _config(fake_server.url))
        assert "malformed" in str(err.value)

    def test_missing_results_key(self, fake_server):
        fake_server.enqueue(200, {"head": {"vars": ["x"]}})
        with pytest.raises(RemoteExecutionError):
            _execute("SELECT ?x WHERE { wd:Q1 wdt:P1 ?x }",
                           _config(fake_server.url))

    @pytest.mark.parametrize("document", [
        {"boolean": "false"},
        {"boolean": 0},
        {"head": {"vars": {"x": 1}}, "results": {"bindings": []}},
        {"head": {"vars": ["x"]}, "results": {"bindings": {"x": 1}}},
        {"head": {"vars": [["x"]]}, "results": {"bindings": [{}]}},
        {"head": {"vars": ["x"]}, "results": {"bindings": [1]}},
        {"head": {"vars": ["x"]}, "results": {"bindings": [{"x": "value"}]}},
    ], ids=["string-boolean", "number-boolean", "object-vars", "object-bindings",
            "array-var-name", "number-binding", "string-term"])
    def test_malformed_shapes_are_typed_errors(self, fake_server, document):
        fake_server.enqueue(200, document)
        with pytest.raises(RemoteExecutionError, match="^malformed results document: "):
            _execute("SELECT ?x WHERE { wd:Q1 wdt:P1 ?x }", _config(fake_server.url))

    def test_connection_refused(self):
        config = _config("http://127.0.0.1:1/", max_retries=0)
        with pytest.raises(RemoteExecutionError) as err:
            _execute("ASK { wd:Q1 wdt:P1 wd:Q2 }", config)
        assert "transport" in str(err.value)


class TestRetryPolicy:
    # 429 and 503 are retried; any other non-200 status fails at once. The
    # politeness delay comes before every attempt, the backoff between them.
    @pytest.mark.parametrize("status, requests_sent", [
        (429, 2), (500, 1), (502, 1), (503, 2), (504, 1), (400, 1), (404, 1),
    ])
    def test_requests_and_sleeps_per_status(self, fake_server, monkeypatch, status,
                                            requests_sent):
        sleeps = []
        monkeypatch.setattr(time, "sleep", sleeps.append)
        fake_server.default_response = (status, "no")
        executor = RemoteExecutor(_config(fake_server.url, max_retries=1,
                                          politeness_delay=0.125, backoff_base=0.25))
        with pytest.raises(RemoteExecutionError) as err:
            executor.run("ASK { wd:Q1 wdt:P1 wd:Q2 }")
        if requests_sent == 2:
            assert str(err.value) == f"endpoint busy (HTTP {status})"
        else:
            assert str(err.value) == f"HTTP {status} from endpoint: no"
        assert len(fake_server.requests) == requests_sent
        assert sleeps == [0.125, 0.25, 0.125][:2 * requests_sent - 1]

    def test_backoff_doubles_per_retry(self, fake_server, monkeypatch):
        sleeps = []
        monkeypatch.setattr(time, "sleep", sleeps.append)
        fake_server.default_response = (429, "busy")
        executor = RemoteExecutor(_config(fake_server.url, max_retries=3,
                                          politeness_delay=0.125, backoff_base=0.25))
        with pytest.raises(RemoteExecutionError):
            executor.run("ASK { wd:Q1 wdt:P1 wd:Q2 }")
        assert len(fake_server.requests) == 4
        assert sleeps == [0.125, 0.25, 0.125, 0.5, 0.125, 1.0, 0.125]


class TestInjectedFaults:
    # Requests per fault with max_retries=1: a timeout and a 503 are
    # retried, a malformed body is not.
    ATTEMPTS = {"timeout": 2, "truncated-json": 1, "5xx-burst": 2}

    @pytest.mark.parametrize("fault", sorted(ATTEMPTS))
    def test_fault_is_remote_execution_error(self, fake_server, fault):
        fake_server.inject_fault(fault)
        executor = RemoteExecutor(_config(fake_server.url, timeout=0.1, max_retries=1))
        with pytest.raises(RemoteExecutionError) as err:
            executor.run("SELECT ?x WHERE { wd:Q1 wdt:P1 ?x }")
        assert err.value.exit_code == 4
        assert len(fake_server.requests) == self.ATTEMPTS[fault]


class TestExecutorHandle:
    def test_run_contract(self, fake_server):
        fake_server.enqueue(200, bindings_doc("x", [
            {"type": "uri", "value": "http://www.wikidata.org/entity/Q7"},
        ]))
        executor = RemoteExecutor(_config(fake_server.url))
        assert executor.run("SELECT ?x WHERE { wd:Q1 wdt:P1 ?x }").terms == {"Q7"}
