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


class TransportError(RuntimeError):
    def __init__(self, message: str, retryable: bool = True):
        super().__init__(message)
        self.retryable = retryable


class CompletionResult(namedtuple("CompletionResult",
                                  "text latency token_usage retries error",
                                  defaults=(None, 0, None))):
    """One prompt's outcome; ``text`` is None exactly when the transport failed."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.text is not None


def _extract_query(prompt: str) -> str | None:
    """Pull the final query text out of a full prompt.

    One-shot prompts contain the demonstration's query too, so only the last
    statement/question marker counts.
    """
    markers = [
        ("statement: ", " is _"),
        ("question: What is ", " ?"),
    ]
    best = None
    for marker, terminator in markers:
        pos = prompt.rfind(marker)
        if pos < 0:
            continue
        start = pos + len(marker)
        end = prompt.find(terminator, start)
        if end < 0:
            continue
        if best is None or pos > best[0]:
            best = (pos, prompt[start:end])
    return best[1] if best else None


def _candidate_paths(core: str):
    """Possible (relations in traversal order, start entity) readings of a
    query core like "spouse of composer of It Goes Like It Goes", which names
    the relations outermost first.  Entity labels may themselves contain
    " of ", so every split point is a candidate.
    """
    tokens = core.split(" of ")
    for i in range(1, len(tokens)):
        yield tokens[i - 1::-1], " of ".join(tokens[i:])


def oracle_complete(
    prompt: str,
    kg: dict[tuple[str, str], str],
    representation: RepresentationTag = RepresentationTag.NATURAL_LANGUAGE,
    corrupt: "FaultSpec | None" = None,
) -> str:
    """Answer a prompt by exact graph traversal.

    Emits the answer envelope for the requested representation, or an
    envelope with answer "UNKNOWN" when the prompt does not parse or the
    path is missing from the graph.
    """
    core = _extract_query(prompt)
    for relations, start in () if core is None else _candidate_paths(core):
        if infer(kg, start, relations) is not None:
            labels = [start]
            for relation in relations:
                labels += relation, kg[labels[-1], relation]
            chain = ReasoningInstance(labels)
            if corrupt is not None:
                chain = corrupt.apply(chain, prompt)
            return render_instance(chain, representation).envelope
    return wrap_answer_envelope("", representation, UNKNOWN_ANSWER)


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

    def check(self) -> None:
        pass

    def close(self) -> None:
        pass

    def send(self, prompt: str) -> tuple[str, dict | None]:
        return oracle_complete(prompt, self.kg, self.representation, self.corrupt), None


class OpenAIChatBackend:
    """Minimal client for any OpenAI-compatible /chat/completions endpoint, over
    pooled stdlib keep-alive connections: no more are open than sends in flight
    (at most the gateway's ``concurrency``), one that raised is never reused, and
    ``close`` closes the idle ones.  The proxy is read from the environment once
    (``<scheme>_proxy``, else ``all_proxy``, unless ``no_proxy`` matches); an
    https endpoint is reached through its CONNECT tunnel.  TLS verifies against
    the system's trust store."""

    def __init__(
        self,
        endpoint: str,
        model: str,
        token_env: str = "OPENAI_API_KEY",
        temperature: float = 0.0,
        max_tokens: int = 512,
    ):
        import ssl  # deferred, like http.client: only endpoint runs pay for them
        import urllib.request
        from base64 import b64encode
        from urllib.parse import unquote, urlsplit

        self.endpoint = endpoint.rstrip("/")
        self.model = model
        self.token_env = token_env
        self.temperature = temperature
        self.max_tokens = max_tokens
        self.url = url = urlsplit(self.endpoint)
        self.path = url.path + "/chat/completions"
        self.address, self.tunnel, self.proxy_auth = (url.hostname, url.port), None, {}
        proxies = urllib.request.getproxies()
        proxy = proxies.get(url.scheme) or proxies.get("all")
        if proxy and not urllib.request.proxy_bypass(url.hostname or ""):
            proxy = urlsplit(proxy if "://" in proxy else "http://" + proxy)
            auth = {}
            if proxy.username is not None:
                user = f"{unquote(proxy.username)}:{unquote(proxy.password or '')}"
                auth["Proxy-Authorization"] = f"Basic {b64encode(user.encode()).decode()}"
            self.address = (proxy.hostname, proxy.port or 80)
            if url.scheme == "https":
                self.tunnel = (url.hostname, url.port, auth)
            else:  # a plain-HTTP proxy takes the absolute URI
                self.path, self.proxy_auth = self.endpoint + "/chat/completions", auth
        self.context = ssl.create_default_context() if url.scheme == "https" else None
        self.idle, self.lock = [], threading.Lock()  # connections no send holds

    def check(self) -> None:
        if self.url.scheme not in ("http", "https") or not self.url.hostname:
            raise ValueError(
                f"endpoint {self.endpoint!r} is not an http:// or https:// URL with a host")
        if not os.environ.get(self.token_env):
            raise ValueError(
                f"missing bearer token: set the {self.token_env} environment variable"
            )

    def close(self) -> None:
        """Close every idle connection; a later send opens a new one."""
        with self.lock:
            idle, self.idle = self.idle, []
        for conn in idle:
            conn.close()

    def _connection(self):
        """An idle connection, else a new one.  An idle connection that reads
        as ready holds the server's close (or bytes no request asked for), so
        it is dropped before use, as urllib3 does, and never costs a retry."""
        import http.client
        import select

        with self.lock:
            while self.idle:
                conn = self.idle.pop()
                if conn.sock and not select.select([conn.sock], [], [], 0)[0]:
                    return conn
                conn.close()
        if self.context is None:
            return http.client.HTTPConnection(*self.address, timeout=REQUEST_TIMEOUT_S)
        conn = http.client.HTTPSConnection(*self.address, timeout=REQUEST_TIMEOUT_S,
                                           context=self.context)
        if self.tunnel:
            conn.set_tunnel(*self.tunnel)
        return conn

    def send(self, prompt: str) -> tuple[str, dict | None]:
        import http.client

        payload = json.dumps({
            "model": self.model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": self.temperature,
            "max_tokens": self.max_tokens,
        }).encode("utf-8")
        headers = {"Authorization": f"Bearer {os.environ.get(self.token_env, '')}",
                   "Content-Type": "application/json", **self.proxy_auth}
        conn = self._connection()
        try:
            conn.request("POST", self.path, payload, headers)
            with conn.getresponse() as response:
                status, data = response.status, response.read()
        except (OSError, http.client.HTTPException) as exc:
            conn.close()
            raise TransportError(str(exc)) from exc
        with self.lock:
            self.idle.append(conn)
        if status == 429 or status >= 500:
            raise TransportError(f"HTTP {status}")
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
    Ctrl-C stops every worker after its current send, and propagates."""

    def __init__(self, backend: OracleBackend | OpenAIChatBackend,
                 concurrency: int = 4, retries: int = 3, backoff_base: float = 1.0):
        self.backend = backend
        self.concurrency = concurrency
        self.retries = retries
        self.backoff_base = backoff_base

    def _attempt(self, prompt: str, attempts: int,
                 start: float) -> CompletionResult | float:
        """One send: the final result, or the seconds to back off before the next."""
        try:
            text, usage = self.backend.send(prompt)
            return CompletionResult(text=text, latency=time.monotonic() - start,
                                    token_usage=usage, retries=attempts)
        except TransportError as exc:
            if exc.retryable and attempts < self.retries:
                return self.backoff_base * (2 ** attempts)
            return CompletionResult(text=None, latency=time.monotonic() - start,
                                    retries=attempts, error=str(exc))

    def complete_batch(self, prompts: list[str]) -> list[CompletionResult]:
        self.backend.check()
        schedule = _Schedule(self, prompts)
        if isinstance(self.backend, OracleBackend) or not prompts:
            # in-process and CPU-bound (or empty): threads only add contention
            schedule.work()
            return schedule.results
        # deferred: in-process runs never load the pool or logging
        from concurrent.futures import ThreadPoolExecutor

        workers = min(self.concurrency, len(prompts))
        with ThreadPoolExecutor(max_workers=workers) as pool:
            try:
                for future in [pool.submit(schedule.work) for _ in range(workers)]:
                    future.result()
            finally:  # a worker's raise or a Ctrl-C here must stop the others
                schedule.stop()
        return schedule.results


class _Schedule:
    """One batch's fresh prompts and heap of retries by due time, shared by its
    workers under one condition.  Only endpoints retry, so heapq loads lazily."""

    def __init__(self, gateway: Gateway, prompts: list[str]):
        self.gateway, self.prompts = gateway, prompts
        self.results: list = [None] * len(prompts)
        self.left = len(prompts)  # prompts without a final result
        self.fresh = 0            # the next prompt never sent
        self.retry: list = []     # heap of (due, index, attempts, first start)
        self.stopped = False
        self.cond = threading.Condition()

    def stop(self) -> None:
        with self.cond:
            self.stopped = True
            self.cond.notify_all()

    def _take(self) -> tuple | None:
        """The earliest due retry, else the next fresh prompt, else a wait;
        None once the batch is done or stopped."""
        with self.cond:
            while self.left and not self.stopped:
                now = time.monotonic()
                if self.retry and self.retry[0][0] <= now:
                    import heapq
                    return heapq.heappop(self.retry)[1:]
                if self.fresh < len(self.prompts):
                    self.fresh += 1
                    return self.fresh - 1, 0, now
                self.cond.wait(self.retry[0][0] - now if self.retry else None)
            return None

    def work(self) -> None:
        """One worker; its exit, for whatever reason, stops the batch."""
        try:
            for index, attempts, start in iter(self._take, None):
                outcome = self.gateway._attempt(self.prompts[index], attempts, start)
                with self.cond:
                    if isinstance(outcome, CompletionResult):
                        self.results[index] = outcome
                        self.left -= 1
                    else:
                        import heapq
                        heapq.heappush(self.retry, (time.monotonic() + outcome,
                                                    index, attempts + 1, start))
                    self.cond.notify_all()
        finally:
            self.stop()


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
    obj = json.loads(Path(path).read_text(encoding="utf-8"))
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
