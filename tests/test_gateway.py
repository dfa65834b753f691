import concurrent.futures
import json
import re
import socket
import subprocess
import sys
import threading
import time
from base64 import b64encode
from pathlib import Path

import pytest

from hopkit import (FaultSpec, Gateway, OracleBackend,
                    add_fact, build_prompt, make_chain, oracle_complete)
from hopkit.gateway import OpenAIChatBackend, TransportError, load_gateway_config
from hopkit.prompts import DatasetStyle, PromptMode
from hopkit.render import RepresentationTag
from tests.conftest import chat_reply, hopkit_env


def chain_to_graph(chain):
    """A graph holding exactly the chain's facts."""
    kg = {}
    for hop in chain.hops:
        add_fact(kg, hop)
    return kg


@pytest.fixture
def example_kg(example_chain):
    return chain_to_graph(example_chain)


@pytest.fixture
def chat_backend():
    """Builds ``OpenAIChatBackend``s, and closes each at teardown."""
    built = []

    def build(*args, **kwargs):
        built.append(OpenAIChatBackend(*args, **kwargs))
        return built[-1]

    yield build
    for backend in built:
        backend.close()


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

    @pytest.mark.parametrize("core", ["r of  of x of A", " of x of A", "r of x of "])
    def test_a_query_with_a_blank_reading_is_unknown(self, core):
        # " of "-splits of these cores leave a blank relation or start entity,
        # which are never graph keys
        kg = chain_to_graph(make_chain("A", " of x", "B", "r", "C"))
        envelope = json.loads(oracle_complete(f"statement: {core} is _ ,", kg))
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
            fault.apply(example_chain, "some prompt").answer for _ in range(5)
        }
        assert len(results) == 1

    def test_corrupted_chain_stays_valid(self):
        chain = make_chain("a", "r", "b", "s", "c", "t", "d")
        fault = FaultSpec(hop_index=1, probability=1.0, seed=0)
        corrupted = fault.apply(chain, "p")
        assert corrupted.hops[1].tail == corrupted.hops[2].head == "NOT-c"
        assert corrupted.answer == "d"


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
        result = gw.complete_batch(["p"])[0]
        assert result.ok and result.retries == 2
        assert result.text == "ok"

    def test_failure_beyond_cap_classified(self):
        gw = Gateway(backend=FlakyBackend(10), retries=2, backoff_base=0.0)
        result = gw.complete_batch(["p"])[0]
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
        kg = {}
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
        assert [c.answer in r.text for c, r in zip(chains, results)] == [True] * 12
        with pytest.raises(AssertionError, match="thread pool used"):
            Gateway(backend=FlakyBackend(0), backoff_base=0.0).complete_batch(["p"])


class RecordingBackend:
    """Thread-safe fake endpoint: records every send in order, the threads
    alive during sends and the sends in flight.  Each prompt in ``fail_once``
    gets one retryable error first; the first ``gather`` sends wait for each
    other before answering.
    """

    def __init__(self, fail_once=(), delay=0.0, gather=0):
        self.lock = threading.Lock()
        self.sent = []
        self.threads = set()
        self.most_threads = 0
        self.in_flight = self.most_in_flight = 0
        self.fail_once = set(fail_once)
        self.delay = delay
        self.gather = gather
        self.barrier = threading.Barrier(gather, timeout=10) if gather else None

    def check(self):
        pass

    def send(self, prompt):
        with self.lock:
            self.sent.append(prompt)
            self.threads.add(threading.get_ident())
            self.most_threads = max(self.most_threads, threading.active_count())
            self.in_flight += 1
            self.most_in_flight = max(self.most_in_flight, self.in_flight)
            fail = prompt in self.fail_once
            self.fail_once.discard(prompt)
            gather = len(self.sent) <= self.gather
        try:
            if gather:
                self.barrier.wait()
            time.sleep(self.delay)
            if fail:
                raise TransportError("HTTP 429")
            return f"ok {prompt}", None
        finally:
            with self.lock:
                self.in_flight -= 1


class RaisingBackend:
    """Answers at once, except that send number ``at`` raises ``exc_type``."""

    def __init__(self, exc_type, at):
        self.lock = threading.Lock()
        self.calls = 0
        self.exc_type = exc_type
        self.at = at

    def check(self):
        pass

    def send(self, prompt):
        with self.lock:
            self.calls += 1
            call = self.calls
        if call == self.at:
            raise self.exc_type(f"send {call}")
        time.sleep(0.001)
        return "ok", None


class TestSchedule:
    def test_backing_off_record_frees_its_slot(self):
        prompts = [f"p{i}" for i in range(6)]
        backend = RecordingBackend(fail_once={"p0"})
        gw = Gateway(backend=backend, concurrency=1, backoff_base=0.2)
        results = gw.complete_batch(prompts)
        assert backend.sent == prompts + ["p0"]
        assert [r.text for r in results] == [f"ok {p}" for p in prompts]
        assert [r.retries for r in results] == [1, 0, 0, 0, 0, 0]
        assert results[0].latency >= 0.2

    def test_a_due_retry_goes_before_fresh_prompts(self):
        prompts = [f"p{i}" for i in range(4)]
        backend = RecordingBackend(fail_once={"p1"})
        gw = Gateway(backend=backend, concurrency=1, backoff_base=0.0)
        results = gw.complete_batch(prompts)
        assert backend.sent == ["p0", "p1", "p1", "p2", "p3"]
        assert [r.retries for r in results] == [0, 1, 0, 0]

    def test_sends_in_flight_never_exceed_concurrency(self):
        prompts = [f"p{i}" for i in range(40)]
        backend = RecordingBackend(fail_once=prompts[::7], delay=0.002, gather=3)
        gw = Gateway(backend=backend, concurrency=3, backoff_base=0.01)
        results = gw.complete_batch(prompts)
        assert backend.most_in_flight == 3
        assert len(backend.sent) == 40 + len(prompts[::7])
        assert [r.text for r in results] == [f"ok {p}" for p in prompts]
        assert [r.retries for r in results] == [int(i % 7 == 0) for i in range(40)]

    def test_one_prompt_is_sent_from_one_thread(self):
        backend = RecordingBackend(fail_once={"p"})
        threads_before = threading.active_count()
        gw = Gateway(backend=backend, concurrency=8, backoff_base=0.05)
        [result] = gw.complete_batch(["p"])
        assert result.ok and result.retries == 1
        assert backend.sent == ["p", "p"]
        assert len(backend.threads) == 1
        assert backend.most_threads <= threads_before + 1

    @pytest.mark.parametrize("exc_type", [KeyboardInterrupt, ValueError])
    def test_a_raising_send_stops_the_batch(self, exc_type):
        backend = RaisingBackend(exc_type, at=10)
        gw = Gateway(backend=backend, concurrency=4, backoff_base=0.0)
        raised = []

        def run():
            try:
                gw.complete_batch([f"p{i}" for i in range(200)])
            except BaseException as exc:
                raised.append(exc)

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive(), "complete_batch hung after a raise"
        [exc] = raised
        assert type(exc) is exc_type and str(exc) == "send 10"
        assert 10 <= backend.calls <= 10 + 4

    def test_ctrl_c_in_the_caller_stops_every_send(self):
        script = """
import os, signal, threading, time
from hopkit.gateway import Gateway

sent = []

class Slow:
    def check(self):
        pass

    def send(self, prompt):
        sent.append(prompt)
        time.sleep(0.002)
        return "ok", None

threading.Timer(0.2, os.kill, (os.getpid(), signal.SIGINT)).start()
try:
    Gateway(backend=Slow(), concurrency=4).complete_batch(
        [str(i) for i in range(2000)])
except KeyboardInterrupt:
    at_raise = len(sent)
    time.sleep(0.3)
    print(at_raise, len(sent))
"""
        out = subprocess.run([sys.executable, "-c", script], env=hopkit_env(),
                             capture_output=True, text=True, check=True, timeout=60)
        at_raise, at_end = map(int, out.stdout.split())
        assert 0 < at_raise < 2000
        assert at_end == at_raise


class TestOpenAIBackend:
    def test_request_carries_the_model_and_greedy_decoding(self, chat_server,
                                                           chat_backend):
        chat_server.reply = lambda prompt: (200, chat_reply("x"))
        backend = chat_backend(chat_server.url + "/v1", "m1")
        assert Gateway(backend=backend).complete_batch(["p"])[0].text == "x"
        [payload] = chat_server.payloads
        assert payload["model"] == "m1"
        assert (payload["temperature"], payload["max_tokens"]) == (0.0, 512)
        [(line, headers)] = chat_server.received
        assert line == "POST /v1/chat/completions HTTP/1.1"
        assert headers["Authorization"] == "Bearer sk-test"

    @pytest.mark.parametrize("body", [
        [1, 2],
        {"choices": [{"message": {"content": None}}]},
    ])
    def test_malformed_reply_is_a_final_transport_failure(self, chat_server, body,
                                                          chat_backend):
        chat_server.reply = lambda prompt: (200, body)
        backend = chat_backend(chat_server.url + "/v1", "m")
        [result] = Gateway(backend=backend, backoff_base=0.0).complete_batch(["p"])
        assert not result.ok and result.text is None
        assert result.error.startswith("malformed response")
        assert len(chat_server.payloads) == 1

    def test_missing_token_fails_fast(self, monkeypatch, chat_backend):
        monkeypatch.delenv("OPENAI_API_KEY", raising=False)
        backend = chat_backend("http://localhost:9999/v1", "m")
        with pytest.raises(ValueError, match="^missing bearer token: set the OPENAI_API_KEY "
                                             "environment variable$"):
            backend.check()

    def test_token_present_passes_check(self, monkeypatch, chat_backend):
        monkeypatch.setenv("OPENAI_API_KEY", "sk-test")
        chat_backend("http://localhost:9999/v1", "m").check()

    def test_connection_error_is_a_retried_transport_failure(self, endpoint_env,
                                                             monkeypatch, chat_backend):
        with socket.socket() as unheard:  # bound but not listening: refuses
            unheard.bind(("127.0.0.1", 0))
            url = f"http://127.0.0.1:{unheard.getsockname()[1]}/v1"
            backend = chat_backend(url, "m")
            sent, send = [], backend.send
            monkeypatch.setattr(backend, "send", lambda p: sent.append(p) or send(p))
            gw = Gateway(backend=backend, retries=2, backoff_base=0.0)
            [result] = gw.complete_batch(["p"])
        assert not result.ok
        assert "connection refused" in result.error.lower()
        assert sent == ["p"] * 3

    def test_a_429_is_retried_on_the_same_connection(self, chat_server, chat_backend):
        replies = iter([(429, {}), (200, chat_reply("x"))])
        chat_server.reply = lambda prompt: next(replies)
        backend = chat_backend(chat_server.url, "m")
        [result] = Gateway(backend=backend, backoff_base=0.0).complete_batch(["p"])
        assert (result.text, result.retries) == ("x", 1)
        assert len(chat_server.payloads) == 2
        assert chat_server.connections == 1

    def test_a_connection_that_raised_is_never_reused(self, chat_server, chat_backend):
        replies = iter([(None, b"NOT HTTP\r\n"), (200, chat_reply("x"))])
        chat_server.reply = lambda prompt: next(replies)
        backend = chat_backend(chat_server.url, "m")
        gw = Gateway(backend=backend, retries=1, backoff_base=0.0)
        [result] = gw.complete_batch(["p"])
        assert (result.text, result.retries) == ("x", 1)
        assert chat_server.connections == 2

    def test_a_400_is_final(self, chat_server, chat_backend):
        chat_server.reply = lambda prompt: (400, {"error": {"message": "bad"}})
        backend = chat_backend(chat_server.url, "m")
        [result] = Gateway(backend=backend, backoff_base=0.0).complete_batch(["p"])
        assert (result.text, result.error, result.retries) == (None, "HTTP 400", 0)
        assert len(chat_server.payloads) == 1

    def test_connections_never_outnumber_concurrency(self, chat_server, chat_backend):
        chat_server.reply = lambda prompt: (200, chat_reply(f"ok {prompt}"))
        prompts = [f"p{i}" for i in range(40)]
        backend = chat_backend(chat_server.url, "m")
        results = Gateway(backend=backend, concurrency=3).complete_batch(prompts)
        assert [r.text for r in results] == [f"ok {p}" for p in prompts]
        assert len(chat_server.payloads) == 40
        assert 1 <= chat_server.connections <= 3

    def test_a_connection_the_server_closed_costs_no_retry(self, chat_server,
                                                           chat_backend):
        chat_server.close_after_reply = True
        backend = chat_backend(chat_server.url, "m")
        gw = Gateway(backend=backend, backoff_base=0.0)
        for i in range(4):
            [result] = gw.complete_batch([f"p{i}"])
            assert result.ok and result.retries == 0
            assert chat_server.closed.acquire(timeout=10)
        assert len(chat_server.payloads) == 4
        assert chat_server.connections == 4

    def test_http_proxy_takes_the_absolute_uri_unless_no_proxy_matches(
            self, chat_server, proxy_server, monkeypatch, chat_backend):
        monkeypatch.setenv("http_proxy", f"u%40x:p%3A@127.0.0.1:{proxy_server.server_port}")
        for no_proxy in (None, "example.org, 127.0.0.1"):
            if no_proxy:
                monkeypatch.setenv("no_proxy", no_proxy)
            backend = chat_backend(chat_server.url + "/v1", "m")
            assert Gateway(backend=backend).complete_batch(["p"])[0].text == "ok"
        [(line, headers)] = proxy_server.received
        assert line == f"POST {chat_server.url}/v1/chat/completions HTTP/1.1"
        assert headers["Host"] == f"127.0.0.1:{chat_server.server_port}"
        assert headers["Proxy-Authorization"] == "Basic " + b64encode(b"u@x:p:").decode()
        [(line, headers)] = chat_server.received
        assert line == "POST /v1/chat/completions HTTP/1.1"
        assert "Proxy-Authorization" not in headers

    def test_https_proxy_opens_a_connect_tunnel(self, proxy_server, monkeypatch,
                                                chat_backend):
        monkeypatch.setenv("https_proxy",
                           f"http://u:p@127.0.0.1:{proxy_server.server_port}")
        backend = chat_backend("https://api.example.invalid/v1", "m")
        [result] = Gateway(backend=backend, retries=0).complete_batch(["p"])
        assert not result.ok and "502" in result.error
        [(line, headers)] = proxy_server.received
        assert line.startswith("CONNECT api.example.invalid:443 HTTP/1.")
        assert headers["Proxy-Authorization"] == "Basic " + b64encode(b"u:p").decode()

    def test_importing_the_cli_leaves_the_http_client_unimported(self):
        assert loaded_by_importing_the_cli(
            "http.client", "urllib.request", "ssl", "select") == []

    def test_importing_the_cli_leaves_the_thread_pool_unimported(self):
        assert loaded_by_importing_the_cli("concurrent.futures", "logging", "heapq") == []


def test_importing_the_cli_leaves_dataclasses_inspect_and_hashlib_unimported():
    # argparse, which the cli imports, shows that the probe sees what it loads
    assert loaded_by_importing_the_cli(
        "dataclasses", "inspect", "hashlib", "argparse") == ["argparse"]


def test_endpoint_tests_leave_no_socket_unclosed():
    """Every connection an endpoint test opens, through the backend or through
    ``hopkit evaluate``, is closed: under ``-X dev`` a socket that is only
    garbage-collected warns, and here that warning fails the run."""
    root = Path(__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-m", "pytest",
         "-q", "-p", "no:cacheprovider", "-W", "error::pytest.PytestUnraisableExceptionWarning",
         "tests/test_gateway.py::TestOpenAIBackend", "tests/test_cli.py", "-k",
         "TestOpenAIBackend or endpoint"],
        cwd=root, env=hopkit_env(), capture_output=True, text=True, timeout=300,
    )
    output = out.stdout + out.stderr
    assert out.returncode == 0 and "ResourceWarning" not in output, output[-4000:]
    assert " passed" in out.stdout and "deselected" in out.stdout


def loaded_by_importing_the_cli(*modules):
    """Those of ``modules`` a fresh interpreter has loaded after importing
    ``hopkit.cli``, in the order given.
    """
    out = subprocess.run(
        [sys.executable, "-c",
         f"import sys, hopkit.cli; print(*[m for m in {modules!r} if m in sys.modules])"],
        env=hopkit_env(), capture_output=True, text=True, check=True, timeout=60,
    )
    return out.stdout.split()


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
        with pytest.raises(ValueError, match=re.escape("unknown config keys: ['bogus']")):
            load_gateway_config(path)

    @pytest.mark.parametrize("key, value", [
        ("concurrency", "4"), ("concurrency", True), ("concurrency", 2.5),
        ("retries", "3"), ("max_tokens", None), ("temperature", "hot"),
        ("temperature", False), ("endpoint", 5), ("model", ["m"]),
        ("token_env", {}), ("temperature", -0.1), ("max_tokens", 0),
        ("concurrency", 0), ("retries", -1),
    ])
    def test_wrong_value_type_rejected(self, tmp_path, key, value):
        path = tmp_path / "gw.json"
        path.write_text(json.dumps({key: value}), encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"config key {key!r} must be ")):
            load_gateway_config(path)

    def test_integer_temperature_accepted(self, tmp_path):
        path = tmp_path / "gw.json"
        path.write_text('{"temperature": 1, "concurrency": 2}', encoding="utf-8")
        assert load_gateway_config(path) == {"temperature": 1, "concurrency": 2}
