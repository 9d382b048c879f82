"""SPARQL-protocol client for remote endpoints.

GET with a URL-encoded ``query`` parameter, switching to form POST above
2000 bytes; requests carry Accept: application/sparql-results+json and a
mandatory User-Agent. Rate-limit responses are retried with exponential
backoff; in-flight requests are bounded per executor, with a politeness
delay before each call.
"""

import logging
import threading
import time
from dataclasses import dataclass

import requests

from kgqa.errors import ConfigError, RemoteExecutionError
from kgqa.sparql.answers import AnswerSet, normalize_term

logger = logging.getLogger("kgqa.sparql.remote")

_POST_THRESHOLD = 2000
_MAX_ROWS = 10000
_RETRY_STATUSES = {429, 503}


@dataclass(frozen=True)
class EndpointConfig:
    base_url: str
    timeout: float = 60.0
    max_retries: int = 2
    politeness_delay: float = 0.5
    user_agent: str = "kgqa/0.1 (research pipeline; batch queries)"
    max_in_flight: int = 2
    backoff_base: float = 1.0

    def __post_init__(self):
        if self.timeout <= 0:
            raise ConfigError("timeout must be > 0")
        if self.max_retries < 0:
            raise ConfigError("max_retries must be >= 0")
        if self.politeness_delay < 0:
            raise ConfigError("politeness_delay must be >= 0")
        if self.max_in_flight < 1:
            raise ConfigError("max_in_flight must be >= 1")
        if self.backoff_base < 0:
            raise ConfigError("backoff_base must be >= 0")


def _parse_results(payload) -> AnswerSet:
    if not isinstance(payload, dict):
        raise RemoteExecutionError("malformed results document: not a JSON object")
    if "boolean" in payload:
        return AnswerSet.from_bool(bool(payload["boolean"]))
    try:
        variables = payload["head"]["vars"]
        bindings = payload["results"]["bindings"]
    except (KeyError, TypeError) as exc:
        raise RemoteExecutionError(f"malformed results document: {exc!r}")
    if not variables:
        return AnswerSet.empty()
    first = variables[0]
    if len(bindings) > _MAX_ROWS:
        logger.warning("result truncated to %d of %d rows", _MAX_ROWS, len(bindings))
        bindings = bindings[:_MAX_ROWS]
    terms = []
    for row in bindings:
        value = row.get(first)
        if value is None or "value" not in value:
            continue
        terms.append(normalize_term(str(value["value"])))
    return AnswerSet.of(terms)


class RemoteExecutor:
    """Executor handle satisfying the same contract as LocalExecutor.run."""

    name = "remote"

    def __init__(self, config: EndpointConfig, session=None):
        self.config = config
        self._session = session or requests.Session()
        self._gate = threading.Semaphore(config.max_in_flight)

    def run(self, query_text: str) -> AnswerSet:
        return self._execute(query_text)

    def _execute(self, query_text: str) -> AnswerSet:
        cfg = self.config
        headers = {
            "Accept": "application/sparql-results+json",
            "User-Agent": cfg.user_agent,
        }
        last_error = None
        for attempt in range(cfg.max_retries + 1):
            if attempt:
                time.sleep(cfg.backoff_base * 2 ** (attempt - 1))
            with self._gate:
                if cfg.politeness_delay > 0:
                    time.sleep(cfg.politeness_delay)
                try:
                    if len(query_text.encode("utf-8")) > _POST_THRESHOLD:
                        response = self._session.post(
                            cfg.base_url, data={"query": query_text},
                            headers=headers, timeout=cfg.timeout,
                        )
                    else:
                        response = self._session.get(
                            cfg.base_url, params={"query": query_text},
                            headers=headers, timeout=cfg.timeout,
                        )
                except requests.RequestException as exc:
                    last_error = RemoteExecutionError(f"transport failure: {exc}")
                    continue
            if response.status_code in _RETRY_STATUSES:
                last_error = RemoteExecutionError(
                    f"endpoint busy (HTTP {response.status_code})")
                continue
            if response.status_code != 200:
                snippet = response.text[:200]
                raise RemoteExecutionError(
                    f"HTTP {response.status_code} from endpoint: {snippet}")
            try:
                payload = response.json()
            except ValueError:
                raise RemoteExecutionError(
                    f"malformed results document: {response.text[:200]}")
            return _parse_results(payload)
        raise last_error


def execute_remote(query_text: str, endpoint: EndpointConfig) -> AnswerSet:
    """One-shot execution against ``endpoint``."""
    return RemoteExecutor(endpoint).run(query_text)
