"""Loopback stand-in for an OpenAI-compatible /chat/completions endpoint.

    python3 perfbench/stub.py --schedule schedule.json --ready-file port.txt --workers 2

It listens on 127.0.0.1 at an ephemeral port, writes the port to the ready
file, and serves at most ``--workers`` connections at a time (one thread
each, keep-alive).  Every chat request sleeps a fixed ``LATENCY_MS`` and
is then answered from the schedule, keyed on the SHA-256 of the prompt:

    {"<sha>": {"reply": "...", "first": 429 | 503 | null, "permanent": bool}}

``first`` fails only the first attempt of that prompt, so a client that
retries sees exactly one failure; ``permanent`` answers 400 on every
attempt.  A prompt missing from the schedule gets 404 and is counted.

Each response leaves in a single write on a socket with Nagle's
algorithm off.  With Nagle on, a header write followed by a body write
waits for the client's delayed ACK, tens of milliseconds per request, and
the stub would measure itself instead of the client.

Control paths, not counted as requests: ``GET /_stats`` returns the
counters, ``POST /_reset`` clears them and the per-prompt attempt counts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import socket
import threading
import time
import traceback
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler
from pathlib import Path

LATENCY_MS = 10.0


class Stub:
    def __init__(self, schedule: dict):
        self.schedule = schedule
        self.lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with self.lock:
            self.attempts: dict[str, int] = {}
            self.requests = 0
            self.by_status: dict[str, int] = {}
            self.first_request: float | None = None

    def stats(self) -> dict:
        with self.lock:
            return {"requests": self.requests, "by_status": dict(self.by_status),
                    "first_request": self.first_request}

    def chat(self, body: bytes) -> tuple[int, dict]:
        now = time.monotonic()
        try:
            prompt = json.loads(body)["messages"][-1]["content"]
        except (ValueError, KeyError, IndexError, TypeError):
            return 400, {"error": {"message": "malformed chat request"}}
        key = hashlib.sha256(prompt.encode("utf-8")).hexdigest()
        entry = self.schedule.get(key)
        with self.lock:
            if self.first_request is None:
                self.first_request = now
            self.requests += 1
            attempt = self.attempts.get(key, 0)
            self.attempts[key] = attempt + 1
            if entry is None:
                status = 404
            elif entry["permanent"]:
                status = 400
            elif attempt == 0 and entry["first"]:
                status = entry["first"]
            else:
                status = 200
            self.by_status[str(status)] = self.by_status.get(str(status), 0) + 1
        time.sleep(LATENCY_MS / 1000)
        if status != 200:
            return status, {"error": {"message": HTTPStatus(status).phrase}}
        reply = entry["reply"]
        return 200, {
            "object": "chat.completion",
            "choices": [{"index": 0, "finish_reason": "stop",
                         "message": {"role": "assistant", "content": reply}}],
            "usage": {"prompt_tokens": len(prompt.split()),
                      "completion_tokens": len(reply.split())},
        }

    def handle(self, method: str, path: str, body: bytes) -> tuple[int, dict]:
        if method == "POST" and path.endswith("/chat/completions"):
            return self.chat(body)
        if method == "GET" and path == "/_stats":
            return 200, self.stats()
        if method == "POST" and path == "/_reset":
            self.reset()
            return 200, {}
        return 404, {"error": {"message": "no such path"}}


class Handler(BaseHTTPRequestHandler):
    """One keep-alive connection.  The buffered ``wfile`` is flushed once
    per request by ``handle_one_request``, so status line, headers and body
    leave in a single write."""

    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    wbufsize = -1

    def _respond(self) -> None:
        body = self.rfile.read(int(self.headers.get("Content-Length", "0")))
        status, payload = self.server.handle(self.command, self.path, body)
        data = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    do_GET = do_POST = _respond

    def log_request(self, code="-", size="-") -> None:
        pass


def _worker(stub: Stub, listener: socket.socket) -> None:
    while True:
        conn, address = listener.accept()
        try:
            Handler(conn, address, stub)
        except Exception:  # one bad connection must not take a worker down
            traceback.print_exc()
        finally:
            conn.close()


def main() -> None:
    parser = argparse.ArgumentParser(description="loopback chat-completions stub")
    parser.add_argument("--schedule", required=True)
    parser.add_argument("--ready-file", required=True)
    parser.add_argument("--workers", type=int, required=True)
    args = parser.parse_args()
    schedule = json.loads(Path(args.schedule).read_text(encoding="utf-8"))
    stub = Stub(schedule)
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    listener.bind(("127.0.0.1", 0))
    listener.listen(64)
    threads = [threading.Thread(target=_worker, args=(stub, listener), daemon=True)
               for _ in range(max(1, args.workers))]
    for thread in threads:
        thread.start()
    ready = Path(args.ready_file)
    tmp = ready.with_suffix(".tmp")
    tmp.write_text(str(listener.getsockname()[1]), encoding="utf-8")
    tmp.replace(ready)
    for thread in threads:
        thread.join()


if __name__ == "__main__":
    main()
