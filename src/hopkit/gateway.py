"""Completion gateway: one interface over OpenAI-compatible chat endpoints
and a built-in graph-traversal oracle used as a deterministic test double.

The endpoint client is ``http1.OpenAIChatBackend``, loaded only when that
name is first read.  Decoding defaults to greedy (temperature 0) so batch
runs are reproducible.
Every prompt yields one CompletionResult, in order: transport failures are
returned, never raised, and a retry waiting out its backoff holds no worker.
"""

from __future__ import annotations

import random
import threading
import time
from collections import namedtuple

from .kg import ReasoningInstance, infer
from .render import (RepresentationTag, render as render_instance,
                     wrap_answer_envelope)

UNKNOWN_ANSWER = "UNKNOWN"
BACKOFF_BASE_S = 1.0  # seconds before the first retry, doubled for each later one
RETRY_WAIT_MAX_S = 60.0  # the longest wait before a retry, the backoff's or Retry-After's


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


class FaultSpec(namedtuple("FaultSpec", "hop_index probability seed")):
    """Seeded corruption of one hop, for exercising the evaluation harness.

    With probability ``probability`` (decided per prompt, independent of call
    order) the tail of hop ``hop_index``, which is also the next hop's head,
    is replaced by a wrong entity.
    """

    __slots__ = ()

    def __new__(cls, hop_index: int, probability: float, seed: int):
        if isinstance(hop_index, bool) or not isinstance(hop_index, int):
            raise ValueError(f"fault hop index must be an integer, not {hop_index!r}")
        if hop_index < 0:
            raise ValueError(f"fault hop index must be >= 0, not {hop_index}")
        if isinstance(probability, bool) or not isinstance(probability, (int, float)):
            raise ValueError(f"fault probability must be a number, not {probability!r}")
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
        if not isinstance(representation, RepresentationTag):
            raise ValueError(f"oracle representation must be a RepresentationTag, "
                             f"not {representation!r}")
        from .prompts import query_readings  # only an oracle reads prompts back

        self.kg = kg
        self.representation = representation
        self.corrupt = corrupt
        self.readings = query_readings

    def send(self, prompt: str) -> tuple[str, None]:
        """Answer a prompt by exact graph traversal: the answer envelope for
        ``representation`` of the first reading of its query with a path in
        the graph, or one with answer "UNKNOWN" when no reading has one."""
        for relations, start in self.readings(prompt):
            if infer(self.kg, start, relations) is not None:
                labels = [start]
                for relation in relations:
                    labels += relation, self.kg[labels[-1], relation]
                chain = ReasoningInstance(labels)
                if self.corrupt is not None:
                    chain = self.corrupt.apply(chain, prompt)
                return render_instance(chain, self.representation).envelope, None
        return wrap_answer_envelope("", self.representation, UNKNOWN_ANSWER), None


def __getattr__(name: str):
    """``OpenAIChatBackend``, from ``http1``: only a run that looks it up,
    an endpoint run, compiles the HTTP client (PEP 562)."""
    if name == "OpenAIChatBackend":
        from .http1 import OpenAIChatBackend
        return OpenAIChatBackend
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class Gateway:
    """Completion runner with retry and backoff: at most ``concurrency`` endpoint
    workers, none held by a record waiting out its backoff, or the oracle as one
    worker on the calling thread.  Results keep submission order; a raise or a
    Ctrl-C stops every worker after its current send, and propagates.  An
    endpoint batch closes the backend's connections once every worker is done."""

    def __init__(self, backend: OracleBackend | OpenAIChatBackend,
                 concurrency: int = 4, retries: int = 3):
        for name, value, least in (("concurrency", concurrency, 1), ("retries", retries, 0)):
            if isinstance(value, bool) or not isinstance(value, int) or value < least:
                raise ValueError(f"gateway {name} must be an integer >= {least}, not {value!r}")
        self.backend = backend
        self.concurrency = concurrency
        self.retries = retries

    def _attempt(self, prompt: str, attempts: int,
                 start: float) -> CompletionResult | float:
        """One send: the final result, or the seconds to wait before the next:
        the Retry-After of a 429 or 503, else the backoff, at most RETRY_WAIT_MAX_S."""
        try:
            text, usage = self.backend.send(prompt)
            return CompletionResult(text=text, latency=time.monotonic() - start,
                                    token_usage=usage, retries=attempts)
        except TransportError as exc:
            if exc.retryable and attempts < self.retries:
                if exc.retry_after is None:  # a float holds 2.0 ** 1023 at most
                    return min(BACKOFF_BASE_S * 2.0 ** min(attempts, 1023), RETRY_WAIT_MAX_S)
                return min(exc.retry_after, RETRY_WAIT_MAX_S)
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

