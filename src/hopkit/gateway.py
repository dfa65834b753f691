"""Completion gateway: one interface over OpenAI-compatible chat endpoints
and a built-in graph-traversal oracle used as a deterministic test double.

Decoding defaults to greedy (temperature 0) so batch runs are reproducible.
Every prompt yields one CompletionResult, in order: transport failures are
returned, never raised, and a retry waiting out its backoff holds no worker.
"""

from __future__ import annotations

import json
import os
import random
import threading
import time
from collections import namedtuple
from pathlib import Path

from .kg import ReasoningInstance, infer
from .render import (RepresentationTag, render as render_instance,
                     wrap_answer_envelope)

UNKNOWN_ANSWER = "UNKNOWN"
REQUEST_TIMEOUT_S = 120.0
BACKOFF_BASE_S = 1.0  # a retry waits BACKOFF_BASE_S * 2**attempts seconds
RETRY_AFTER_MAX_S = 60.0  # or a 429 or 503's Retry-After seconds, up to this many


class TransportError(RuntimeError):
    def __init__(self, message: str, retryable: bool = True,
                 retry_after: float | None = None):
        super().__init__(message)
        self.retryable, self.retry_after = retryable, retry_after


class CompletionResult(namedtuple("CompletionResult",
                                  "text latency token_usage retries error",
                                  defaults=(None, 0, None))):
    """One prompt's outcome; ``text`` is None exactly when the transport failed."""

    __slots__ = ()


def _extract_query(prompt: str) -> str | None:
    """Pull the final query text out of a full prompt.

    One-shot prompts contain the demonstration's query too, so only the last
    statement/question marker counts.
    """
    found = []  # (marker position, query text) of each marker with a terminator
    for marker, terminator in (("statement: ", " is _"), ("question: What is ", " ?")):
        pos = prompt.rfind(marker)
        end = prompt.find(terminator, pos + len(marker))
        if pos >= 0 and end >= 0:
            found.append((pos, prompt[pos + len(marker):end]))
    return max(found)[1] if found else None


def _candidate_paths(core: str):
    """Possible (relations in traversal order, start entity) readings of a
    query core like "spouse of composer of It Goes Like It Goes", which names
    the relations outermost first.  Entity labels may themselves contain
    " of ", so every split point is a candidate.
    """
    tokens = core.split(" of ")
    for i in range(1, len(tokens)):
        yield tokens[i - 1::-1], " of ".join(tokens[i:])


class FaultSpec(namedtuple("FaultSpec", "hop_index probability seed")):
    """Seeded corruption of one hop, for exercising the evaluation harness.

    With probability ``probability`` (decided per prompt, independent of call
    order) the tail of hop ``hop_index``, which is also the next hop's head,
    is replaced by a wrong entity.
    """

    __slots__ = ()

    def __new__(cls, hop_index: int, probability: float, seed: int):
        if hop_index < 0:
            raise ValueError(f"fault hop index must be >= 0, not {hop_index}")
        if not 0 <= probability <= 1:
            raise ValueError(f"fault probability must be in [0, 1], not {probability}")
        return tuple.__new__(cls, (hop_index, probability, seed))

    def apply(self, chain: ReasoningInstance, prompt: str) -> ReasoningInstance:
        rng = random.Random(f"{self.seed}:{prompt}")
        if rng.random() >= self.probability or self.hop_index >= chain.n_hops:
            return chain
        labels = list(chain.labels)
        labels[2 * self.hop_index + 2] = "NOT-" + labels[2 * self.hop_index + 2]
        return ReasoningInstance(labels, chain.source_id)


class OracleBackend:
    """Deterministic test double answering by traversal of a fixed graph."""

    def __init__(
        self,
        kg: dict[tuple[str, str], str],
        representation: RepresentationTag = RepresentationTag.NATURAL_LANGUAGE,
        corrupt: FaultSpec | None = None,
    ):
        self.kg = kg
        self.representation = representation
        self.corrupt = corrupt

    def send(self, prompt: str) -> tuple[str, None]:
        """Answer a prompt by exact graph traversal: the answer envelope for
        ``representation``, or one with answer "UNKNOWN" when the prompt does
        not parse or its path is missing from the graph."""
        core = _extract_query(prompt)
        for relations, start in () if core is None else _candidate_paths(core):
            if infer(self.kg, start, relations) is not None:
                labels = [start]
                for relation in relations:
                    labels += relation, self.kg[labels[-1], relation]
                chain = ReasoningInstance(labels)
                if self.corrupt is not None:
                    chain = self.corrupt.apply(chain, prompt)
                return render_instance(chain, self.representation).envelope, None
        return wrap_answer_envelope("", self.representation, UNKNOWN_ANSWER), None


def _split_url(url: str, schemes: tuple[str, ...], what: str):
    """``urlsplit(url)`` and its port; a ValueError naming ``what``, less any
    password, unless ``url`` has one of ``schemes``, a host and a valid port."""
    from urllib.parse import urlsplit

    try:  # urlsplit and .port raise ValueError on a bad bracket or port
        parts = urlsplit(url)
        if parts.scheme in schemes and parts.hostname:
            return parts, parts.port
    except ValueError:
        pass
    raise ValueError(f"{what} {_masked(url)!r} is not an "
                     f"{' or '.join(s + '://' for s in schemes)} URL with a host")


def _masked(url: str) -> str:
    """``url`` less everything from "//" to its last "@": a user name and a
    password, whatever characters they hold."""
    scheme, slashes, rest = url.partition("//")
    return scheme + slashes + rest.rpartition("@")[2]


class OpenAIChatBackend:
    """Minimal client for any OpenAI-compatible /chat/completions endpoint.

    It speaks HTTP/1.1 itself over pooled keep-alive sockets, no more open
    than sends in flight (at most the gateway's ``concurrency``); ``close``
    closes the idle ones.  A send is one write: the request head, encoded
    once when the backend is built and asking for identity encoding, then
    the JSON payload.  A reply may have 100 header lines of 64 KiB; 1xx
    replies are skipped; its body is framed by chunked coding, else
    Content-Length, else the server's close, and a 204 has none.  A socket
    is reused only after an HTTP/1.1 reply framed exactly, without
    "Connection: close"; one that raised never is.  No redirects, no
    HTTP/2.  The proxy is read once, from the environment only
    (``<scheme>_proxy``, else ``all_proxy``, in any case, unless
    ``no_proxy`` matches): a plain-HTTP proxy takes the absolute URI, an
    https endpoint is reached through a CONNECT tunnel.  TLS verifies
    against the system's trust store.  Building one refuses what cannot go
    on the wire: an endpoint that is not a printable ASCII http(s) URL with
    a host and no spaces, or has a user name, a query or a fragment; a
    bearer token that is missing or not printable ASCII; and a proxy in use
    that is not an http:// URL with a host."""

    def __init__(
        self,
        endpoint: str,
        model: str,
        token_env: str = "OPENAI_API_KEY",
        temperature: float = 0.0,
        max_tokens: int = 512,
    ):
        from . import http1  # deferred: only endpoint runs compile it

        self.endpoint = endpoint.rstrip("/")
        self.model = model
        self.temperature = temperature
        self.max_tokens = max_tokens
        url, port = _split_url(self.endpoint, ("http", "https"), "endpoint")
        if url.username is not None:  # a proxy would see it in the request target
            raise ValueError(f"endpoint {_masked(self.endpoint)!r} must not have "
                             "a user name or password")
        if "?" in self.endpoint or "#" in self.endpoint:  # even an empty one
            raise ValueError(f"endpoint {self.endpoint!r} must not have a query or fragment")
        if not (self.endpoint.isascii() and self.endpoint.isprintable()) or " " in self.endpoint:
            raise ValueError(f"endpoint {_masked(self.endpoint)!r} must be printable ASCII "
                             "with no spaces")
        token = os.environ.get(token_env)
        if not token:
            raise ValueError(f"missing bearer token: set the {token_env} environment variable")
        if not (token.isascii() and token.isprintable()):  # it would end the header
            raise ValueError(f"the bearer token in {token_env} must be printable ASCII")
        headers = {"Host": url.netloc, "Accept-Encoding": "identity",
                   "Authorization": f"Bearer {token}", "Content-Type": "application/json"}
        path = url.path + "/chat/completions"
        self.address, self.connect = (url.hostname, port), None
        proxy, names = None, (url.scheme + "_proxy", "all_proxy")
        if any(value and name.lower() in names for name, value in os.environ.items()):
            import urllib.request  # it loads http.client, email and ssl: proxy runs only
            proxies = urllib.request.getproxies()
            proxy = proxies.get(url.scheme) or proxies.get("all")
            if proxy and urllib.request.proxy_bypass(url.hostname):
                proxy = None
        if proxy:
            proxy, proxy_port = _split_url(proxy if "://" in proxy else "http://" + proxy,
                                           ("http",), "proxy")
            auth = {}
            if proxy.username is not None:
                from base64 import b64encode
                from urllib.parse import unquote
                user = f"{unquote(proxy.username)}:{unquote(proxy.password or '')}"
                auth["Proxy-Authorization"] = f"Basic {b64encode(user.encode()).decode()}"
            self.address = (proxy.hostname, proxy_port or 80)
            if url.scheme == "https":
                target = url.netloc if port is not None else url.netloc.rstrip(":") + ":443"
                self.connect = http1.encode_head(f"CONNECT {target}",
                                                 {"Host": target, **auth}) + b"\r\n"
            else:  # a plain-HTTP proxy takes the absolute URI
                path = self.endpoint + "/chat/completions"
                headers.update(auth)
        self.head = http1.encode_head(f"POST {path}", headers) + b"Content-Length: "
        self.context, self.hostname = None, url.hostname
        if url.scheme == "https":  # a plain-HTTP run never loads ssl
            import ssl
            self.context = ssl.create_default_context()
        self.idle, self.lock = [], threading.Lock()  # connections no send holds

    def close(self) -> None:
        """Close every idle connection; a later send opens a new one."""
        with self.lock:
            idle, self.idle = self.idle, []
        for conn in idle:
            conn.sock.close()

    def _connection(self):
        """An idle connection, else a new one.  An idle connection that reads
        as ready holds the server's close (or bytes no request asked for), so
        it is dropped before use, as urllib3 does, and never costs a retry;
        so is one that ``select`` cannot check."""
        import select
        import socket

        from . import http1

        with self.lock:
            while self.idle:
                conn = self.idle.pop()
                try:  # a descriptor past select's FD_SETSIZE raises ValueError
                    if not select.select([conn.sock], [], [], 0)[0]:
                        return conn
                except ValueError:
                    pass
                conn.sock.close()
        host, port = self.address
        sock = socket.create_connection(
            (host, port or (80 if self.context is None else 443)), REQUEST_TIMEOUT_S)
        try:
            if self.connect is not None:
                sock.sendall(self.connect)
                status = http1.read_head(http1.Connection(sock))[1]
                if status // 100 != 2:
                    raise OSError(f"the proxy refused the CONNECT tunnel: HTTP {status}")
            if self.context is not None:
                sock = self.context.wrap_socket(sock, server_hostname=self.hostname)
        except BaseException:
            sock.close()
            raise
        return http1.Connection(sock)

    def send(self, prompt: str) -> tuple[str, dict | None]:
        from . import http1

        payload = json.dumps({
            "model": self.model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": self.temperature,
            "max_tokens": self.max_tokens,
        }).encode("utf-8")
        conn = None
        try:
            conn = self._connection()
            conn.sock.sendall(b"%b%d\r\n\r\n%b" % (self.head, len(payload), payload))
            status, data, reusable, retry_after = http1.read_reply(conn)
        except (OSError, ValueError) as exc:
            if conn is not None:
                conn.sock.close()
            raise TransportError(str(exc)) from exc
        if reusable:
            with self.lock:
                self.idle.append(conn)
        else:
            conn.sock.close()
        if status == 429 or status >= 500:  # a Retry-After date gets the backoff
            wait = retry_after if status in (429, 503) and retry_after else b""
            raise TransportError(f"HTTP {status}", retry_after=min(
                float(wait), RETRY_AFTER_MAX_S) if wait.isdigit() else None)
        if status != 200:
            raise TransportError(f"HTTP {status}", retryable=False)
        try:
            body = json.loads(data)
            text = body["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise TransportError(f"malformed response: {exc}", retryable=False) from exc
        if not isinstance(text, str):
            raise TransportError(
                f"malformed response: content is {text!r}", retryable=False
            )
        return text, body.get("usage")


class Gateway:
    """Completion runner with retry and backoff: at most ``concurrency`` endpoint
    workers, none held by a record waiting out its backoff, or the oracle as one
    worker on the calling thread.  Results keep submission order; a raise or a
    Ctrl-C stops every worker after its current send, and propagates.  An
    endpoint batch closes the backend's connections once every worker is done."""

    def __init__(self, backend: OracleBackend | OpenAIChatBackend,
                 concurrency: int = 4, retries: int = 3):
        self.backend = backend
        self.concurrency = concurrency
        self.retries = retries

    def _attempt(self, prompt: str, attempts: int,
                 start: float) -> CompletionResult | float:
        """One send: the final result, or the seconds to back off before the next."""
        try:
            text, usage = self.backend.send(prompt)
            return CompletionResult(text=text, latency=time.monotonic() - start,
                                    token_usage=usage, retries=attempts)
        except TransportError as exc:
            if exc.retryable and attempts < self.retries:
                if exc.retry_after is not None:  # the server's wait, not the backoff
                    return exc.retry_after
                return BACKOFF_BASE_S * 2 ** attempts
            return CompletionResult(text=None, latency=time.monotonic() - start,
                                    retries=attempts, error=str(exc))

    def complete_batch(self, prompts: list[str]) -> list[CompletionResult]:
        results: list = [None] * len(prompts)
        fresh = iter(range(len(prompts)))  # prompts never sent
        retry: list = []  # heap of (due, index, attempts, first start)
        lock, stop, ended = threading.Lock(), threading.Event(), threading.Semaphore(0)
        raised: list = []  # what the workers raised, the first first

        def work():
            """One worker: the earliest due retry, else the next fresh prompt,
            else a wait for the earliest retry; it ends once nothing is queued.
            Only endpoints retry, so heapq loads lazily."""
            try:
                while not stop.is_set():
                    with lock:
                        now = time.monotonic()
                        if retry and retry[0][0] <= now:
                            import heapq
                            index, attempts, start = heapq.heappop(retry)[1:]
                        else:
                            index, attempts, start = next(fresh, None), 0, now
                            due = retry[0][0] if retry else None
                    if index is None:
                        if due is None:
                            return
                        stop.wait(due - now)
                        continue
                    outcome = self._attempt(prompts[index], attempts, start)
                    if isinstance(outcome, CompletionResult):
                        results[index] = outcome  # this worker's index alone
                        continue
                    with lock:
                        import heapq
                        heapq.heappush(retry, (time.monotonic() + outcome,
                                               index, attempts + 1, start))
            except BaseException as exc:  # a raise or a Ctrl-C stops every worker
                stop.set()
                raised.append(exc)
            finally:
                ended.release()

        if isinstance(self.backend, OracleBackend) or not prompts:
            # in-process and CPU-bound (or empty): threads only add contention
            work()
        else:  # non-daemon: a send in flight hands its connection back before the close
            threads = [threading.Thread(target=work, daemon=False)
                       for _ in range(min(self.concurrency, len(prompts)))]
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:  # not join: in CPython 3.10 and 3.11, a join
                    ended.acquire()  # a Ctrl-C cuts short marks its live thread ended
            finally:  # a Ctrl-C here must stop the workers too
                stop.set()
                for thread in threads:
                    if thread.is_alive():  # not one a Ctrl-C kept from starting
                        thread.join()
                self.backend.close()  # every worker is done: no send returns a connection
        if raised:
            raise raised[0]
        return results


# key: (accepted types, description, least value or None)
_CONFIG_TYPES = {
    "endpoint": (str, "a string", None),
    "model": (str, "a string", None),
    "token_env": (str, "a string", None),
    "temperature": ((int, float), "a number >= 0", 0),
    "max_tokens": (int, "an integer >= 1", 1),
    "concurrency": (int, "an integer >= 1", 1),
    "retries": (int, "an integer >= 0", 0),
}


def load_gateway_config(path: str | Path) -> dict:
    """Read endpoint/model/decoding settings from a JSON config file.

    Recognized keys, their types and ranges are in ``_CONFIG_TYPES``; each
    key is named like the backend or ``Gateway`` parameter it sets.
    """
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # bytes that are not UTF-8 too
        raise ValueError(f"config file {path} is not JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ValueError(f"config file {path} must hold an object")
    unknown = set(obj) - set(_CONFIG_TYPES)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    for key, value in obj.items():
        types, name, least = _CONFIG_TYPES[key]
        if (isinstance(value, bool) or not isinstance(value, types)
                or least is not None and not value >= least):
            raise ValueError(f"config key {key!r} must be {name}, got {value!r}")
    return obj
