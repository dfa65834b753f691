import importlib
import json
import os
import random
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest
from hypothesis import strategies as st

import hopkit
from hopkit import ReasoningInstance, make_chain, wrap_answer_envelope
from hopkit.render import RepresentationTag

GOLDEN_DIR = Path(__file__).parent / "golden"
render_module = importlib.import_module("hopkit.render")  # hopkit.render is the function

# Text that JSON must escape: quotes, backslashes, control characters,
# non-ASCII and non-BMP code points, and a lone surrogate.
JSON_TEXT = st.text(st.one_of(
    st.sampled_from('"\\\x00\x1f\x7f\u2028\ud800\u00e9\U0001f600'), st.characters()))

# JSON nested past the recursion limit, and what json.loads raises for it:
# every reader of a JSON file or line takes it as malformed JSON.
TOO_DEEP = "[" * 100_000
TOO_DEEP_MESSAGE = ("maximum recursion depth exceeded while decoding a JSON array from a "
                    "unicode string")

# The suffix that makes a record file hold each format: its name alone decides.
RECORD_SUFFIX = {"tsv": ".tsv", "json_lines": ".jsonl"}


def hopkit_env():
    """The environment, with this checkout's hopkit first on PYTHONPATH."""
    paths = [str(Path(hopkit.__file__).resolve().parents[1]),
             os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}


@pytest.fixture
def example_chain():
    """The running composer/spouse example used by every golden file."""
    return make_chain(
        "It Goes Like It Goes", "composer", "David Shire", "spouse", "Didi Conn"
    )


@pytest.fixture
def golden_dir():
    return GOLDEN_DIR


def random_chain(rng: random.Random, n_hops: int | None = None) -> ReasoningInstance:
    """A valid chain with distinct entity labels and label-safe characters."""
    if n_hops is None:
        n_hops = rng.choice([1, 2, 3])
    entities = [f"E{rng.randrange(10**6)}-{i}" for i in range(n_hops + 1)]
    relations = [f"rel{rng.randrange(100)}" for _ in range(n_hops)]
    labels = [entities[0]]
    for relation, entity in zip(relations, entities[1:]):
        labels += relation, entity
    return ReasoningInstance(tuple(labels), f"chain-{rng.randrange(10**9)}")


def line_built(chain, tag):
    """``render`` as it was before templates: the line-break check for the
    code representations, then the renderer run on the chain's own labels,
    and the answer envelope around its body."""
    line_break = next((label for label in chain.labels if "\n" in label or "\r" in label),
                      None)
    if tag in (RepresentationTag.PYTHON_STATIC, RepresentationTag.PYTHON_DYNAMIC) and (
            line_break is not None):
        raise ValueError(f"label {line_break!r} contains a line break")
    body = render_module._RENDERERS[tag](chain)
    return body, wrap_answer_envelope(body, tag, chain.answer)


def chat_reply(text):
    """A 200 chat-completions body whose one choice says ``text``."""
    return {"choices": [{"message": {"role": "assistant", "content": text}}]}


class ChatServer(ThreadingHTTPServer):
    """A loopback OpenAI-compatible endpoint on an ephemeral 127.0.0.1 port.

    ``reply(prompt)`` gives each chat request's (status, JSON body); a status
    of None sends the body, bytes, as the whole reply.  The server records
    every request line with its headers and every payload, and counts the
    connections it accepts.  With ``close_after_reply`` it closes each
    connection after one reply, without saying so in a header, and releases
    ``closed`` once the socket is shut.  A CONNECT is recorded, answered
    with ``connect_reply`` (a 502 unless set) and its connection closed, so
    the server also stands in for a proxy.
    """

    daemon_threads = True

    def __init__(self):
        super().__init__(("127.0.0.1", 0), ChatHandler)
        self.lock = threading.Lock()
        self.received = []  # (request line, headers)
        self.payloads = []
        self.connections = 0
        self.close_after_reply = False
        self.closed = threading.Semaphore(0)
        self.reply = lambda prompt: (200, chat_reply("ok"))
        self.connect_reply = (502, {})

    @property
    def url(self):
        return f"http://127.0.0.1:{self.server_port}"

    def shutdown_request(self, request):
        super().shutdown_request(request)
        if self.close_after_reply:
            self.closed.release()


class ChatHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"  # keep-alive unless the server closes
    disable_nagle_algorithm = True  # headers and body go in separate writes

    def handle(self):
        with self.server.lock:
            self.server.connections += 1
        super().handle()

    def do_POST(self):
        payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        with self.server.lock:
            self.server.received.append((self.requestline, dict(self.headers)))
            self.server.payloads.append(payload)
        self._respond(*self.server.reply(payload["messages"][-1]["content"]))
        self.close_connection = self.server.close_after_reply

    def do_CONNECT(self):
        with self.server.lock:
            self.server.received.append((self.requestline, dict(self.headers)))
        self._respond(*self.server.connect_reply)
        self.close_connection = True

    def _respond(self, status, body):
        if status is None:
            self.wfile.write(body)
            return
        data = json.dumps(body).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, format, *args):
        pass


@pytest.fixture
def endpoint_env(monkeypatch):
    """A bearer token and no proxy variable, so loopback calls go straight
    out."""
    for name in ("http_proxy", "https_proxy", "all_proxy", "no_proxy"):
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)
    monkeypatch.setenv("OPENAI_API_KEY", "sk-test")


def _serve():
    server = ChatServer()
    thread = threading.Thread(target=server.serve_forever, args=(0.02,), daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


@pytest.fixture
def chat_server(endpoint_env):
    yield from _serve()


@pytest.fixture
def proxy_server(endpoint_env):
    """A second ChatServer, standing in for a forward proxy."""
    yield from _serve()
