"""Retrying HTTP client shared by the chat-completions and SPARQL clients.

A call makes up to ``max_retries + 1`` attempts. Before attempt ``n``
(counting from 0) it sleeps ``backoff_base * 2 ** (n - 1)`` seconds outside
the ``max_in_flight`` gate; each attempt sends one request under the gate.
Transport failures and the statuses a subclass calls transient are
retried; any other non-200 status fails at once, and a call whose
attempts all fail raises the last error.

``requests`` is imported when the first client is built, so a run whose
backends are all local never imports it.
"""

import math
import threading
import time

from kgqa.errors import ConfigError, KgqaError


def check_settings(cfg):
    """Reject settings that would hang or crash at call time."""
    for name in ("timeout", "backoff_base"):
        if not math.isfinite(getattr(cfg, name)):
            raise ConfigError(f"{name} must be finite")
    if cfg.timeout <= 0:
        raise ConfigError("timeout must be > 0")
    if cfg.max_retries < 0:
        raise ConfigError("max_retries must be >= 0")
    if cfg.max_in_flight < 1:
        raise ConfigError("max_in_flight must be >= 1")
    if cfg.backoff_base < 0:
        raise ConfigError("backoff_base must be >= 0")


class RetryingClient:
    """Base of the remote clients. ``config`` carries ``base_url``,
    ``timeout``, ``max_retries``, ``max_in_flight`` and ``backoff_base``.
    Subclasses set ``error`` and say which statuses are transient."""

    error = KgqaError

    def __init__(self, config, session=None):
        import requests

        self.config = config
        self._session = session or requests.Session()
        self._gate = threading.Semaphore(config.max_in_flight)

    def _send(self, method: str, **kwargs):
        """One attempt, sent under the gate."""
        return getattr(self._session, method)(
            self.config.base_url, timeout=self.config.timeout, **kwargs)

    def _refusal(self, response) -> tuple[bool, KgqaError]:
        """Whether a non-200 ``response`` is transient, and its error."""
        raise NotImplementedError

    def _request(self, method: str, **kwargs):
        """The first 200 response to ``method`` on ``config.base_url``."""
        import requests

        cfg = self.config
        last_error = None
        for attempt in range(cfg.max_retries + 1):
            if attempt:
                time.sleep(cfg.backoff_base * 2 ** (attempt - 1))
            with self._gate:
                try:
                    response = self._send(method, **kwargs)
                except requests.RequestException as exc:
                    last_error = self.error(f"transport failure: {exc}")
                    continue
            if response.status_code == 200:
                return response
            transient, last_error = self._refusal(response)
            if not transient:
                raise last_error
        raise last_error
