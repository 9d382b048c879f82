"""Shared fixtures: snapshots, dataset files, and a local fake HTTP server."""

import gc
import json
import threading
import time
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Optional
from urllib.parse import parse_qs, urlparse

import pytest

from kgqa import data as toy_data
from kgqa.kgstore import load_snapshot


@pytest.fixture(scope="session", autouse=True)
def cache_home(tmp_path_factory):
    """Point the kgqa cache at a directory of this session's own before any
    snapshot loads, so no test reads or writes the user's cache."""
    with pytest.MonkeyPatch.context() as mp:
        home = tmp_path_factory.mktemp("cache-home")
        mp.setenv("XDG_CACHE_HOME", str(home))
        yield home


@pytest.fixture
def empty_cache(monkeypatch, tmp_path_factory):
    """An empty cache directory of the test's own, so that every load and
    index build in the test starts on the text path."""
    home = tmp_path_factory.mktemp("empty-cache-home")
    monkeypatch.setenv("XDG_CACHE_HOME", str(home))
    return home / "kgqa"


@pytest.fixture(autouse=True)
def collector_left_enabled():
    """Fail a test after which the cyclic garbage collector is off."""
    yield
    if not gc.isenabled():
        gc.enable()  # so that only the offending test is reported
        pytest.fail("test left the garbage collector disabled")


def _live_non_daemon_threads():
    return {t for t in threading.enumerate() if not t.daemon and t.is_alive()}


@pytest.fixture(autouse=True)
def threads_left_running():
    """Fail a test that ends with more live non-daemon threads than it
    started with, such as a worker pool that was never shut down."""
    before = _live_non_daemon_threads()
    yield
    after = _live_non_daemon_threads()
    if len(after) > len(before):
        names = sorted(t.name for t in after - before)
        pytest.fail(f"test left non-daemon threads running: {names}")


@pytest.fixture(scope="session")
def toy_snapshot():
    return load_snapshot(toy_data.toy_entity_file(), toy_data.toy_predicate_file(),
                         toy_data.toy_triple_file())


@pytest.fixture
def snapshot_files(tmp_path):
    """Write snapshot input files and return their paths.

    ``entities`` are (id, label) or (id, label, description, aliases) tuples,
    ``triples`` are (s, p, o) tuples rendered as TSV.
    """

    def build(entities, predicates, triples, entity_lines=None, triple_lines=None):
        entity_file = tmp_path / "entities.jsonl"
        predicate_file = tmp_path / "predicates.jsonl"
        triple_file = tmp_path / "triples.tsv"
        if entity_lines is None:
            entity_lines = []
            for row in entities:
                row = (list(row) + ["", []])[:4] if len(row) < 4 else list(row)
                entity_lines.append(json.dumps({
                    "id": row[0], "label": row[1], "description": row[2],
                    "aliases": row[3],
                }))
        entity_file.write_text("\n".join(entity_lines) + "\n", encoding="utf-8")
        predicate_file.write_text(
            "\n".join(json.dumps({"id": p[0], "label": p[1],
                                  "description": p[2] if len(p) > 2 else ""})
                      for p in predicates) + "\n", encoding="utf-8")
        if triple_lines is None:
            triple_lines = ["\t".join(t) for t in triples]
        triple_file.write_text("\n".join(triple_lines) + ("\n" if triple_lines else ""),
                               encoding="utf-8")
        return entity_file, predicate_file, triple_file

    return build


@dataclass
class RecordedRequest:
    method: str
    path: str
    query: dict
    headers: dict
    body: str

    def json(self):
        return json.loads(self.body)


@dataclass
class FakeHttpServer:
    """Replies from a FIFO queue, or, when ``responder`` is set, from
    ``responder(request) -> (status, payload)``, which may look at the
    request's content, block or sleep, so concurrent requests get
    deterministic replies."""

    requests: list = field(default_factory=list)
    _queue: list = field(default_factory=list)
    default_response: tuple = (200, {})
    responder: Optional[Callable] = None

    def start(self):
        outer = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *args):
                pass

            def _handle(self):
                parsed = urlparse(self.path)
                length = int(self.headers.get("Content-Length") or 0)
                body = self.rfile.read(length).decode("utf-8") if length else ""
                request = RecordedRequest(
                    self.command, parsed.path, parse_qs(parsed.query),
                    {k.lower(): v for k, v in self.headers.items()}, body)
                outer.requests.append(request)
                if outer.responder is not None:
                    status, payload = outer.responder(request)
                elif outer._queue:
                    status, payload = outer._queue.pop(0)
                else:
                    status, payload = outer.default_response
                if isinstance(payload, bytes):
                    data = payload
                elif isinstance(payload, str):
                    data = payload.encode("utf-8")
                else:
                    data = json.dumps(payload).encode("utf-8")
                try:
                    self.send_response(status)
                    self.send_header("Content-Type", "application/json")
                    self.send_header("Content-Length", str(len(data)))
                    self.end_headers()
                    self.wfile.write(data)
                except ConnectionError:
                    pass  # the client gave up waiting (a timeout case)

            do_GET = _handle
            do_POST = _handle

        self._server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self._thread = threading.Thread(
            target=lambda: self._server.serve_forever(poll_interval=0.02), daemon=True)
        self._thread.start()
        return self

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self._server.server_port}/"

    def enqueue(self, status, payload):
        self._queue.append((status, payload))

    def enqueue_chat(self, content, status=200):
        self.enqueue(status, {"choices": [{"message": {"content": content}}]})

    def inject_fault(self, fault, delay=0.5):
        """Answer every request with one fault: "timeout" (a reply that
        starts only after ``delay`` seconds), "truncated-json" (a body cut
        short) or "5xx-burst" (HTTP 503)."""
        if fault == "timeout":
            def respond(request):
                time.sleep(delay)
                return 200, {}
        elif fault == "truncated-json":
            def respond(request):
                return 200, '{"choices": [{"message": {"content": "<answer>Q'
        elif fault == "5xx-burst":
            def respond(request):
                return 503, "overloaded"
        else:
            raise ValueError(f"unknown fault {fault!r}")
        self.responder = respond

    def close(self):
        self._server.shutdown()
        self._server.server_close()


@pytest.fixture
def fake_server():
    server = FakeHttpServer().start()
    yield server
    server.close()
