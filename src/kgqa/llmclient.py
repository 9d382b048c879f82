"""Chat-completions HTTP client shared by disambiguation and generation.

Wire contract: POST ``base_url`` with ``{"model", "messages", "temperature"}``,
answer text read from ``choices[0].message.content``. The API key is read
from the environment variable named in the config and sent as a bearer
token; it never appears in flags or files.
"""

import os
import threading
import time
from dataclasses import dataclass

import requests

from kgqa.errors import ConfigError, TransportError


@dataclass(frozen=True)
class ReasonerClientConfig:
    base_url: str
    model_name: str
    api_key_env: str = "KGQA_API_KEY"
    timeout: float = 30.0
    max_retries: int = 2
    temperature: float = 0.0
    max_in_flight: int = 4
    backoff_base: float = 0.5

    def __post_init__(self):
        if self.timeout <= 0:
            raise ConfigError("timeout must be > 0")
        if self.max_retries < 0:
            raise ConfigError("max_retries must be >= 0")
        if self.max_in_flight < 1:
            raise ConfigError("max_in_flight must be >= 1")
        if self.backoff_base < 0:
            raise ConfigError("backoff_base must be >= 0")


class ChatCompletionsClient:
    def __init__(self, config: ReasonerClientConfig, session=None):
        self.config = config
        self._session = session or requests.Session()
        self._gate = threading.Semaphore(config.max_in_flight)

    def complete(self, messages: list[dict]) -> str:
        """Send one chat request, retrying transient failures with backoff."""
        cfg = self.config
        headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(cfg.api_key_env, "")
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        payload = {
            "model": cfg.model_name,
            "messages": messages,
            "temperature": cfg.temperature,
        }
        last_error = None
        for attempt in range(cfg.max_retries + 1):
            if attempt:
                time.sleep(cfg.backoff_base * 2 ** (attempt - 1))
            with self._gate:
                try:
                    response = self._session.post(
                        cfg.base_url, json=payload, headers=headers, timeout=cfg.timeout,
                    )
                except requests.RequestException as exc:
                    last_error = TransportError(f"transport failure: {exc}")
                    continue
            if response.status_code == 429 or response.status_code >= 500:
                last_error = TransportError(
                    f"HTTP {response.status_code}: {response.text[:200]}")
                continue
            if response.status_code != 200:
                raise TransportError(
                    f"HTTP {response.status_code}: {response.text[:200]}")
            try:
                data = response.json()
                return str(data["choices"][0]["message"]["content"])
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                raise TransportError(f"malformed completion response: {exc!r}")
        raise last_error
