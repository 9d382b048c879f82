"""Chat-completions HTTP client shared by disambiguation and generation.

Wire contract: POST ``base_url`` with ``{"model", "messages", "temperature"}``,
answer text read from ``choices[0].message.content``. The API key is read
from the environment variable named in the config and sent as a bearer
token; it never appears in flags or files. Transport failures, 429 and
every 5xx are retried with backoff (``kgqa.httpclient``); any other
non-200 status fails at once.
"""

import os
from dataclasses import dataclass

from kgqa.errors import TransportError
from kgqa.httpclient import RetryingClient, check_settings


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
        check_settings(self)


class ChatCompletionsClient(RetryingClient):
    error = TransportError

    def _refusal(self, response):
        status = response.status_code
        return (status == 429 or status >= 500,
                TransportError(f"HTTP {status}: {response.text[:200]}"))

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
        response = self._request("post", json=payload, headers=headers)
        try:
            data = response.json()
            return str(data["choices"][0]["message"]["content"])
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise TransportError(f"malformed completion response: {exc!r}")
