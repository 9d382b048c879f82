#!/usr/bin/env python3
"""Fake chat-completions and SPARQL endpoints for the qa-remote workload.

    python3 perfbench/fakes.py --tables DIR/remote.json --delay 0.004

serves on 127.0.0.1 at a free port and prints "PORT <n>" once it
listens, until its standard input reaches end of file. It runs in its
own process, so the pipeline under test does not share an interpreter
lock with it.

  POST /v1/chat/completions  selection prompts get the gold ids (plus any
                             seeded off-list ids) inside <answer> blocks;
                             generation prompts get the gold query wrapped
                             in a code fence and prose.
  GET|POST /sparql           SPARQL JSON results for every gold query.

Every reply waits ``--delay`` seconds first. A request the tables mark
fails with its 503 or 429 status on every other arrival, so each logical
request fails exactly once and its retry succeeds, pass after pass.
"""

import argparse
import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

ENTITY_URI = "http://www.wikidata.org/entity/"


class Tables:
    def __init__(self, path):
        with open(path, encoding="utf-8") as fh:
            tables = json.load(fh)
        self.chat = tables["chat"]
        self.sparql = tables["sparql"]
        self._arrivals = {}
        self._lock = threading.Lock()

    def fails_now(self, key, status):
        """True on the first, third, ... arrival of a request marked to fail."""
        if not status:
            return False
        with self._lock:
            n = self._arrivals.get(key, 0)
            self._arrivals[key] = n + 1
        return n % 2 == 0

    def chat_reply(self, prompt):
        questions = [line[len("Question: "):] for line in prompt.splitlines()
                     if line.startswith("Question: ")]
        if not questions or questions[-1] not in self.chat:
            return 400, {"error": "unknown question"}
        question = questions[-1]
        row = self.chat[question]
        if "Candidate entities:" in prompt:
            kind = "entity"
        elif "Candidate predicates:" in prompt:
            kind = "predicate"
        else:
            kind = "generate"
        status = row["fail"].get(kind, 0)
        if self.fails_now((kind, question), status):
            return status, {"error": "busy"}
        if kind == "generate":
            text = (f"Here is the query for the question.\n```{row['fence']}\n"
                    f"{row['query']}\n```\nIt uses only the listed candidates.")
        else:
            ids = row["entities"] if kind == "entity" else row["predicates"]
            text = (f"The question asks about {question!r}. Reading the candidates "
                    f"one by one, these are the ids it mentions.\n"
                    f"<answer>{', '.join(ids)}</answer>")
        return 200, {"choices": [{"message": {"role": "assistant", "content": text}}]}

    def sparql_reply(self, query):
        row = self.sparql.get(query)
        if row is None:
            return 400, {"error": "unknown query"}
        if self.fails_now(("sparql", query), row["fail"]):
            return row["fail"], {"error": "busy"}
        if row["form"] == "ask":
            return 200, {"head": {}, "boolean": row["answers"] == ["true"]}
        bindings = []
        for value in row["answers"]:
            if value.startswith("Q") and value[1:].isdigit():
                bindings.append({"v": {"type": "uri", "value": ENTITY_URI + value}})
            else:
                bindings.append({"v": {"type": "literal", "value": value}})
        return 200, {"head": {"vars": ["v"]}, "results": {"bindings": bindings}}


def make_handler(tables, delay):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        disable_nagle_algorithm = True  # headers and body go out as separate writes

        def log_message(self, *args):
            pass

        def _reply(self, status, payload):
            body = json.dumps(payload).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def _body(self):
            length = int(self.headers.get("Content-Length") or 0)
            return self.rfile.read(length).decode("utf-8")

        def do_GET(self):
            url = urlparse(self.path)
            time.sleep(delay)
            if url.path != "/sparql":
                return self._reply(404, {"error": "not found"})
            query = parse_qs(url.query).get("query", [""])[0]
            self._reply(*tables.sparql_reply(query))

        def do_POST(self):
            url = urlparse(self.path)
            body = self._body()
            time.sleep(delay)
            if url.path == "/sparql":
                query = parse_qs(body).get("query", [""])[0]
                return self._reply(*tables.sparql_reply(query))
            if url.path != "/v1/chat/completions":
                return self._reply(404, {"error": "not found"})
            try:
                messages = json.loads(body)["messages"]
                prompt = messages[-1]["content"]
            except (ValueError, KeyError, IndexError, TypeError):
                return self._reply(400, {"error": "malformed request"})
            self._reply(*tables.chat_reply(prompt))

    return Handler


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--tables", required=True)
    ap.add_argument("--delay", type=float, required=True)
    args = ap.parse_args()
    server = ThreadingHTTPServer(("127.0.0.1", 0),
                                 make_handler(Tables(args.tables), args.delay))
    server.daemon_threads = True
    # The parent holds our stdin open; EOF means it is done or gone.
    threading.Thread(target=lambda: (sys.stdin.read(), server.shutdown()),
                     daemon=True).start()
    print(f"PORT {server.server_address[1]}", flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()


if __name__ == "__main__":
    main()
