"""SPARQL-protocol client for remote endpoints.

GET with a URL-encoded ``query`` parameter, switching to form POST above
2000 bytes; requests carry Accept: application/sparql-results+json and a
mandatory User-Agent. Transport failures, 429 and 503 are retried with
backoff (``kgqa.httpclient``); any other non-200 status fails at once.
In-flight requests are bounded per executor, and every attempt waits the
politeness delay before it is sent. A results document that does not
have the SPARQL JSON shape is a ``RemoteExecutionError``.
"""

import logging
import time
from dataclasses import dataclass

from kgqa.errors import ConfigError, RemoteExecutionError
from kgqa.httpclient import RetryingClient, check_settings
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
        check_settings(self)
        if self.politeness_delay < 0:
            raise ConfigError("politeness_delay must be >= 0")


def _malformed(detail) -> RemoteExecutionError:
    return RemoteExecutionError(f"malformed results document: {detail}")


def _parse_results(payload) -> AnswerSet:
    if not isinstance(payload, dict):
        raise _malformed("not a JSON object")
    if "boolean" in payload:
        truth = payload["boolean"]
        if not isinstance(truth, bool):
            raise _malformed(f"boolean is {truth!r}")
        return AnswerSet.from_bool(truth)
    try:
        variables = payload["head"]["vars"]
        bindings = payload["results"]["bindings"]
    except (KeyError, TypeError) as exc:
        raise _malformed(repr(exc))
    if not isinstance(variables, list) or not isinstance(bindings, list):
        raise _malformed("vars and bindings must be arrays")
    if not variables:
        return AnswerSet.empty()
    first = variables[0]
    if not isinstance(first, str):
        raise _malformed(f"variable name {first!r}")
    if len(bindings) > _MAX_ROWS:
        logger.warning("result truncated to %d of %d rows", _MAX_ROWS, len(bindings))
        bindings = bindings[:_MAX_ROWS]
    terms = []
    for row in bindings:
        if not isinstance(row, dict):
            raise _malformed(f"binding {row!r}")
        value = row.get(first)
        if value is None:
            continue
        if not isinstance(value, dict):
            raise _malformed(f"term {value!r}")
        if "value" in value:
            terms.append(normalize_term(str(value["value"])))
    return AnswerSet.of(terms)


class RemoteExecutor(RetryingClient):
    """Executor handle satisfying the same contract as LocalExecutor.run."""

    name = "remote"
    error = RemoteExecutionError

    def _send(self, method, **kwargs):
        if self.config.politeness_delay > 0:
            time.sleep(self.config.politeness_delay)
        return super()._send(method, **kwargs)

    def _refusal(self, response):
        status = response.status_code
        if status in _RETRY_STATUSES:
            return True, RemoteExecutionError(f"endpoint busy (HTTP {status})")
        return False, RemoteExecutionError(
            f"HTTP {status} from endpoint: {response.text[:200]}")

    def run(self, query_text: str) -> AnswerSet:
        headers = {
            "Accept": "application/sparql-results+json",
            "User-Agent": self.config.user_agent,
        }
        if len(query_text.encode("utf-8")) > _POST_THRESHOLD:
            response = self._request("post", data={"query": query_text}, headers=headers)
        else:
            response = self._request("get", params={"query": query_text}, headers=headers)
        try:
            payload = response.json()
        except ValueError:
            raise _malformed(response.text[:200])
        return _parse_results(payload)
