"""Completion gateway: one interface over OpenAI-compatible chat endpoints
and a built-in graph-traversal oracle used as a deterministic test double.

Decoding defaults to greedy (temperature 0) so batch runs are reproducible.
Every submitted prompt yields exactly one CompletionResult: transport
failures are classified and returned, never raised mid-batch.
"""

from __future__ import annotations

import json
import os
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from .kg import Entity, KnowledgeGraph, Relation, ReasoningInstance, Triplet, infer
from .render import (RepresentationTag, render as render_instance,
                     wrap_answer_envelope)

if TYPE_CHECKING:
    import requests

UNKNOWN_ANSWER = "UNKNOWN"


class GatewayConfigError(RuntimeError):
    """Endpoint misconfiguration; raised before any batch work starts."""


class TransportError(RuntimeError):
    def __init__(self, message: str, retryable: bool = True):
        super().__init__(message)
        self.retryable = retryable


@dataclass(frozen=True)
class DecodeConfig:
    model_name: str = "oracle"
    temperature: float = 0.0
    max_tokens: int = 512

    def __post_init__(self):
        if self.temperature < 0:
            raise ValueError("temperature must be non-negative")
        if self.max_tokens < 1:
            raise ValueError("max_tokens must be positive")


@dataclass(frozen=True)
class CompletionResult:
    text: str | None
    latency: float
    transport_status: str  # "ok" or "transport"
    token_usage: dict | None = None
    retries: int = 0
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.transport_status == "ok"


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
    """Possible (relations outermost-first, start entity) readings of a query
    core like "spouse of composer of It Goes Like It Goes".  Entity labels may
    themselves contain " of ", so every split point is a candidate.
    """
    def strip_article(token: str) -> str:
        for article in ("The ", "the "):
            if token.startswith(article):
                return token[len(article):]
        return token

    tokens = core.split(" of ")
    seen = set()
    for i in range(1, len(tokens)):
        entity = " of ".join(tokens[i:])
        for rels in (tuple(tokens[:i]), tuple(strip_article(t) for t in tokens[:i])):
            if (rels, entity) not in seen:
                seen.add((rels, entity))
                yield list(rels), entity


def oracle_complete(
    prompt: str,
    kg: KnowledgeGraph,
    representation: RepresentationTag = RepresentationTag.NATURAL_LANGUAGE,
    corrupt: "FaultSpec | None" = None,
) -> str:
    """Answer a prompt by exact graph traversal.

    Emits the answer envelope for the requested representation, or an
    envelope with answer "UNKNOWN" when the prompt does not parse or the
    path is missing from the graph.
    """
    core = _extract_query(prompt)
    chain = None
    if core is not None:
        for rel_labels, start_label in _candidate_paths(core):
            relations = [Relation(r) for r in reversed(rel_labels)]
            start = Entity(start_label)
            if infer(kg, start, relations) is None:
                continue
            hops = []
            current = start
            for relation in relations:
                tail = kg.facts[(current, relation)]
                hops.append(Triplet(current, relation, tail))
                current = tail
            chain = ReasoningInstance(hops=tuple(hops))
            break
    if chain is None:
        return wrap_answer_envelope("", representation, Entity(UNKNOWN_ANSWER))
    if corrupt is not None:
        chain = corrupt.apply(chain, prompt)
    return render_instance(chain, representation).envelope


@dataclass(frozen=True)
class FaultSpec:
    """Seeded corruption of one hop, for exercising the evaluation harness.

    With probability ``probability`` (decided per prompt, independent of call
    order) the tail of hop ``hop_index`` is replaced by a wrong entity; the
    next hop's head is rewritten too so the chain stays well formed.
    """

    hop_index: int
    probability: float
    seed: int

    def __post_init__(self):
        if self.hop_index < 0:
            raise ValueError(f"fault hop index must be >= 0, not {self.hop_index}")
        if not 0 <= self.probability <= 1:
            raise ValueError(f"fault probability must be in [0, 1], not {self.probability}")

    def apply(self, chain: ReasoningInstance, prompt: str) -> ReasoningInstance:
        rng = random.Random(f"{self.seed}:{prompt}")
        if rng.random() >= self.probability or self.hop_index >= chain.n_hops:
            return chain
        hops = list(chain.hops)
        bad = Entity("NOT-" + hops[self.hop_index].tail.label)
        hops[self.hop_index] = Triplet(
            hops[self.hop_index].head, hops[self.hop_index].relation, bad
        )
        if self.hop_index + 1 < len(hops):
            nxt = hops[self.hop_index + 1]
            hops[self.hop_index + 1] = Triplet(bad, nxt.relation, nxt.tail)
        return ReasoningInstance(hops=tuple(hops), source_id=chain.source_id)


class OracleBackend:
    """Deterministic test double answering by traversal of a fixed graph."""

    def __init__(
        self,
        kg: KnowledgeGraph,
        representation: RepresentationTag = RepresentationTag.NATURAL_LANGUAGE,
        corrupt: FaultSpec | None = None,
    ):
        self.kg = kg
        self.representation = representation
        self.corrupt = corrupt

    def check(self) -> None:
        pass

    def send(self, prompt: str, config: DecodeConfig) -> tuple[str, dict | None]:
        return oracle_complete(prompt, self.kg, self.representation, self.corrupt), None


class OpenAIChatBackend:
    """Minimal client for any OpenAI-compatible /chat/completions endpoint."""

    def __init__(
        self,
        endpoint: str,
        token_env: str = "OPENAI_API_KEY",
        timeout: float = 120.0,
        session: requests.Session | None = None,
    ):
        self.endpoint = endpoint.rstrip("/")
        self.token_env = token_env
        self.timeout = timeout
        if session is None:
            import requests  # deferred: only HTTP runs pay for importing it

            session = requests.Session()
        self.session = session

    def check(self) -> None:
        if not self.endpoint:
            raise GatewayConfigError("no endpoint configured")
        if not os.environ.get(self.token_env):
            raise GatewayConfigError(
                f"missing bearer token: set the {self.token_env} environment variable"
            )

    def send(self, prompt: str, config: DecodeConfig) -> tuple[str, dict | None]:
        import requests

        payload = {
            "model": config.model_name,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": config.temperature,
            "max_tokens": config.max_tokens,
        }
        headers = {"Authorization": f"Bearer {os.environ.get(self.token_env, '')}"}
        try:
            response = self.session.post(
                f"{self.endpoint}/chat/completions",
                json=payload,
                headers=headers,
                timeout=self.timeout,
            )
        except requests.RequestException as exc:
            raise TransportError(str(exc)) from exc
        if response.status_code == 429 or response.status_code >= 500:
            raise TransportError(f"HTTP {response.status_code}")
        if response.status_code != 200:
            raise TransportError(f"HTTP {response.status_code}", retryable=False)
        try:
            body = response.json()
            text = body["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise TransportError(f"malformed response: {exc}", retryable=False) from exc
        if not isinstance(text, str):
            raise TransportError(
                f"malformed response: content is {text!r}", retryable=False
            )
        return text, body.get("usage")


@dataclass
class Gateway:
    """Completion runner with retry and backoff: bounded concurrency for an
    endpoint, a plain serial loop for the in-process oracle.

    Batch results come back in submission order regardless of which request
    finishes first.
    """

    backend: OracleBackend | OpenAIChatBackend
    config: DecodeConfig = field(default_factory=DecodeConfig)
    concurrency: int = 4
    retries: int = 3
    backoff_base: float = 1.0

    def check(self) -> None:
        self.backend.check()

    def complete(self, prompt: str) -> CompletionResult:
        start = time.monotonic()
        attempts = 0
        while True:
            try:
                text, usage = self.backend.send(prompt, self.config)
                return CompletionResult(
                    text=text,
                    latency=time.monotonic() - start,
                    transport_status="ok",
                    token_usage=usage,
                    retries=attempts,
                )
            except TransportError as exc:
                if exc.retryable and attempts < self.retries:
                    time.sleep(self.backoff_base * (2 ** attempts))
                    attempts += 1
                    continue
                return CompletionResult(
                    text=None,
                    latency=time.monotonic() - start,
                    transport_status="transport",
                    retries=attempts,
                    error=str(exc),
                )

    def complete_batch(self, prompts: list[str]) -> list[CompletionResult]:
        self.check()
        if isinstance(self.backend, OracleBackend):
            # CPU-bound and in-process: threads only add contention
            return [self.complete(prompt) for prompt in prompts]
        if not prompts:
            return []
        # deferred like requests: in-process runs never load the pool or logging
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=max(1, self.concurrency)) as pool:
            return list(pool.map(self.complete, prompts))


_CONFIG_TYPES = {
    "endpoint": (str, "a string"),
    "model": (str, "a string"),
    "token_env": (str, "a string"),
    "temperature": ((int, float), "a number"),
    "max_tokens": (int, "an integer"),
    "concurrency": (int, "an integer"),
    "retries": (int, "an integer"),
}


def load_gateway_config(path: str | Path) -> dict:
    """Read endpoint/model/decoding settings from a JSON config file.

    Recognized keys and their types are in ``_CONFIG_TYPES``.
    """
    obj = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(obj, dict):
        raise GatewayConfigError(f"config file {path} must hold an object")
    unknown = set(obj) - set(_CONFIG_TYPES)
    if unknown:
        raise GatewayConfigError(f"unknown config keys: {sorted(unknown)}")
    for key, value in obj.items():
        types, name = _CONFIG_TYPES[key]
        if isinstance(value, bool) or not isinstance(value, types):
            raise GatewayConfigError(f"config key {key!r} must be {name}, got {value!r}")
    return obj
