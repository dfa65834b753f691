import concurrent.futures
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import requests

import hopkit

from hopkit import (Entity, FaultSpec, Gateway, KnowledgeGraph, OracleBackend,
                    add_fact, build_prompt, make_chain, oracle_complete)
from hopkit.gateway import (GatewayConfigError, OpenAIChatBackend,
                            TransportError, load_gateway_config)
from hopkit.prompts import DatasetStyle, PromptMode
from hopkit.render import RepresentationTag


def chain_to_graph(chain):
    """A graph holding exactly the chain's facts."""
    kg = KnowledgeGraph()
    for hop in chain.hops:
        add_fact(kg, hop)
    return kg


@pytest.fixture
def example_kg(example_chain):
    return chain_to_graph(example_chain)


class TestOracleComplete:
    def test_zero_shot_statement(self, example_chain, example_kg):
        prompt = build_prompt(
            example_chain, PromptMode.ZERO_SHOT, DatasetStyle.STATEMENT
        ).full_prompt
        envelope = json.loads(oracle_complete(prompt, example_kg))
        assert envelope["Answer"] == "Didi Conn"

    def test_question_style(self, example_chain, example_kg):
        prompt = build_prompt(
            example_chain, PromptMode.ZERO_SHOT, DatasetStyle.QUESTION
        ).full_prompt
        envelope = json.loads(oracle_complete(prompt, example_kg))
        assert envelope["Answer"] == "Didi Conn"

    def test_missing_chain_unknown(self, example_kg):
        other = make_chain("a", "unknown-rel", "b", "another", "c")
        prompt = build_prompt(other, PromptMode.ZERO_SHOT, DatasetStyle.STATEMENT).full_prompt
        envelope = json.loads(oracle_complete(prompt, example_kg))
        assert envelope["Answer"] == "UNKNOWN"

    def test_unparseable_prompt_unknown(self, example_kg):
        envelope = json.loads(oracle_complete("tell me a joke", example_kg))
        assert envelope["Answer"] == "UNKNOWN"

    def test_deterministic(self, example_chain, example_kg):
        prompt = build_prompt(
            example_chain, PromptMode.ZERO_SHOT, DatasetStyle.STATEMENT
        ).full_prompt
        assert oracle_complete(prompt, example_kg) == oracle_complete(prompt, example_kg)

    def test_entity_label_containing_of(self, ):
        chain = make_chain("Lord of the Rings", "author", "Tolkien", "spouse", "Edith")
        kg = chain_to_graph(chain)
        prompt = build_prompt(chain, PromptMode.ZERO_SHOT, DatasetStyle.STATEMENT).full_prompt
        envelope = json.loads(oracle_complete(prompt, kg))
        assert envelope["Answer"] == "Edith"

    def test_one_shot_prompt_uses_final_query(self, example_chain, example_kg):
        prompt = build_prompt(
            example_chain, PromptMode.ONE_SHOT, DatasetStyle.STATEMENT,
            RepresentationTag.NATURAL_LANGUAGE, demonstration=example_chain,
        ).full_prompt
        envelope = json.loads(oracle_complete(prompt, example_kg))
        assert envelope["Answer"] == "Didi Conn"


class TestFaultSpec:
    def test_corruption_is_per_prompt_deterministic(self, example_chain):
        fault = FaultSpec(hop_index=1, probability=0.5, seed=3)
        results = {
            fault.apply(example_chain, "some prompt").answer.label for _ in range(5)
        }
        assert len(results) == 1

    def test_corrupted_chain_stays_valid(self):
        from hopkit import validate_instance

        chain = make_chain("a", "r", "b", "s", "c", "t", "d")
        fault = FaultSpec(hop_index=1, probability=1.0, seed=0)
        corrupted = fault.apply(chain, "p")
        assert validate_instance(corrupted) == []
        assert corrupted.hops[1].tail.label == "NOT-c"
        assert corrupted.answer.label == "d"


class FlakyBackend:
    """Fails with retryable errors n times, then succeeds."""

    def __init__(self, failures, text="ok"):
        self.failures = failures
        self.calls = 0
        self.text = text

    def check(self):
        pass

    def send(self, prompt):
        self.calls += 1
        if self.calls <= self.failures:
            raise TransportError("HTTP 429")
        return self.text, {"total_tokens": 7}


class TestGateway:
    def test_retry_then_success(self):
        gw = Gateway(backend=FlakyBackend(2), backoff_base=0.0)
        result = gw.complete("p")
        assert result.ok and result.retries == 2
        assert result.text == "ok"

    def test_failure_beyond_cap_classified(self):
        gw = Gateway(backend=FlakyBackend(10), retries=2, backoff_base=0.0)
        result = gw.complete("p")
        assert not result.ok
        assert result.text is None

    def test_batch_preserves_order_and_count(self, example_chain):
        kg = chain_to_graph(example_chain)
        gw = Gateway(backend=OracleBackend(kg))
        prompts = ["junk-1", "junk-2", "junk-3"]
        results = gw.complete_batch(prompts)
        assert len(results) == 3
        assert all(r.ok for r in results)

    def test_oracle_batch_runs_serially_in_order(self, monkeypatch):
        chains = [make_chain(f"w{i}", "composer", f"p{i}", "spouse", f"s{i}")
                  for i in range(12)]
        kg = KnowledgeGraph()
        for chain in chains:
            for hop in chain.hops:
                add_fact(kg, hop)
        prompts = [
            build_prompt(c, PromptMode.ZERO_SHOT, DatasetStyle.STATEMENT).full_prompt
            for c in chains
        ] + ["junk"]

        def no_pool(*args, **kwargs):
            raise AssertionError("thread pool used")

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
        results = Gateway(backend=OracleBackend(kg)).complete_batch(prompts)
        assert [r.text for r in results] == [oracle_complete(p, kg) for p in prompts]
        assert all(r.ok for r in results)
        assert [c.answer.label in r.text for c, r in zip(chains, results)] == [True] * 12
        with pytest.raises(AssertionError, match="thread pool used"):
            Gateway(backend=FlakyBackend(0), backoff_base=0.0).complete_batch(["p"])


class FakeSession:
    """Stands in for requests.Session: every POST gets one canned 200 reply."""

    def __init__(self, body):
        self.body = body
        self.payloads = []

    @property
    def calls(self):
        return len(self.payloads)

    def post(self, url, json, headers, timeout):
        self.payloads.append(json)
        return FakeResponse(self.body)


class FakeResponse:
    status_code = 200

    def __init__(self, body):
        self.body = body

    def json(self):
        return self.body


class TestOpenAIBackend:
    def test_request_carries_the_model_and_greedy_decoding(self, monkeypatch):
        monkeypatch.setenv("OPENAI_API_KEY", "sk-test")
        session = FakeSession({"choices": [{"message": {"content": "x"}}]})
        backend = OpenAIChatBackend("http://localhost:9999/v1", "m1", session=session)
        assert Gateway(backend=backend).complete("p").text == "x"
        [payload] = session.payloads
        assert payload["model"] == "m1"
        assert (payload["temperature"], payload["max_tokens"]) == (0.0, 512)

    @pytest.mark.parametrize("body", [
        [1, 2],
        {"choices": [{"message": {"content": None}}]},
    ])
    def test_malformed_reply_is_a_final_transport_failure(self, monkeypatch, body):
        monkeypatch.setenv("OPENAI_API_KEY", "sk-test")
        session = FakeSession(body)
        backend = OpenAIChatBackend("http://localhost:9999/v1", "m", session=session)
        [result] = Gateway(backend=backend, backoff_base=0.0).complete_batch(["p"])
        assert not result.ok and result.text is None
        assert result.error.startswith("malformed response")
        assert session.calls == 1

    def test_missing_token_fails_fast(self, monkeypatch):
        monkeypatch.delenv("OPENAI_API_KEY", raising=False)
        backend = OpenAIChatBackend("http://localhost:9999/v1", "m")
        with pytest.raises(GatewayConfigError):
            backend.check()

    def test_token_present_passes_check(self, monkeypatch):
        monkeypatch.setenv("OPENAI_API_KEY", "sk-test")
        OpenAIChatBackend("http://localhost:9999/v1", "m").check()


    def test_connection_error_is_a_retried_transport_failure(self, monkeypatch):
        monkeypatch.setenv("OPENAI_API_KEY", "sk-test")

        class RefusingSession:
            calls = 0

            def post(self, url, json, headers, timeout):
                self.calls += 1
                raise requests.ConnectionError("connection refused")

        session = RefusingSession()
        backend = OpenAIChatBackend("http://localhost:9999/v1", "m", session=session)
        gw = Gateway(backend=backend, retries=2, backoff_base=0.0)
        [result] = gw.complete_batch(["p"])
        assert not result.ok
        assert "connection refused" in result.error
        assert session.calls == 3

    def test_importing_the_cli_leaves_requests_unimported(self):
        assert not loaded_by_importing_the_cli("requests")

    def test_importing_the_cli_leaves_the_thread_pool_unimported(self):
        assert not loaded_by_importing_the_cli("concurrent.futures")
        assert not loaded_by_importing_the_cli("logging")


def loaded_by_importing_the_cli(module):
    """Whether a fresh interpreter has ``module`` loaded after importing
    ``hopkit.cli``.
    """
    paths = [str(Path(hopkit.__file__).resolve().parents[1]),
             os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    out = subprocess.run(
        [sys.executable, "-c",
         f"import sys, hopkit.cli; print({module!r} in sys.modules)"],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    return out.stdout.strip() == "True"


class TestConfigFile:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "gw.json"
        path.write_text(json.dumps({"endpoint": "http://x", "model": "m",
                                    "temperature": 0.0, "max_tokens": 64}),
                        encoding="utf-8")
        config = load_gateway_config(path)
        assert config["model"] == "m"

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "gw.json"
        path.write_text('{"bogus": 1}', encoding="utf-8")
        with pytest.raises(GatewayConfigError):
            load_gateway_config(path)

    @pytest.mark.parametrize("key, value", [
        ("concurrency", "4"), ("concurrency", True), ("concurrency", 2.5),
        ("retries", "3"), ("max_tokens", None), ("temperature", "hot"),
        ("temperature", False), ("endpoint", 5), ("model", ["m"]),
        ("token_env", {}), ("temperature", -0.1), ("max_tokens", 0),
        ("concurrency", 0),
    ])
    def test_wrong_value_type_rejected(self, tmp_path, key, value):
        path = tmp_path / "gw.json"
        path.write_text(json.dumps({key: value}), encoding="utf-8")
        with pytest.raises(GatewayConfigError, match=key):
            load_gateway_config(path)

    def test_integer_temperature_accepted(self, tmp_path):
        path = tmp_path / "gw.json"
        path.write_text('{"temperature": 1, "concurrency": 2}', encoding="utf-8")
        assert load_gateway_config(path) == {"temperature": 1, "concurrency": 2}
