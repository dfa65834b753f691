"""What each command loads: the package imports its modules on first use, so
a dataset command never compiles or runs the prompt, gateway or judging
code, an oracle run never compiles the HTTP client, and only the code
representations load ``ast``."""

import importlib
import subprocess
import sys

import pytest

import hopkit
from hopkit.cli import MODE_FLAGS, REP_FLAGS, STYLES, main
from hopkit.prompts import DatasetStyle, PromptMode
from hopkit.render import RepresentationTag
from tests.conftest import hopkit_env

# Every public name ``hopkit/__init__.py`` imported when it loaded every
# module eagerly, less the hop bridge check, deleted with hop-tuple chains,
# and the oracle's free function, folded into ``OracleBackend.send``.
EXPORTED = {
    "kg": ["ReasoningInstance", "Triplet", "add_fact", "infer", "make_chain"],
    "render": ["ParsedBody", "RenderedExample", "RepresentationTag", "parse",
               "render", "wrap_answer_envelope"],
    "prompts": ["DatasetStyle", "PromptBundle", "PromptMode", "build_prompt",
                "build_query"],
    "dataset": ["OverlapStats", "SourceRecord", "SplitSpec", "build_finetune_corpus",
                "cap_relation_pairs", "compute_overlap_stats", "extend_to_three_hops",
                "ingest", "partition_by_bridge"],
    "gateway": ["CompletionResult", "FaultSpec", "Gateway", "OpenAIChatBackend",
                "OracleBackend"],
    "evaluate": ["ConditionRow", "EvalRecord", "MetricsReport", "compute_metrics",
                 "emit_report", "judge", "normalize_answer"],
}

# Runs each command line of argv, separated by "--", through cli.main in
# one fresh interpreter, then prints every module it loaded.
RUN_COMMANDS = """
import sys
from hopkit import cli
argv = sys.argv[1:]
while argv:
    end = argv.index("--") if "--" in argv else len(argv)
    assert cli.main(argv[:end]) == 0
    argv = argv[end + 1:]
print(*sorted(sys.modules))
"""


def loaded_by(tmp_path, *commands, package="hopkit"):
    """The modules of ``package`` (every module when it is None) that the
    commands load."""
    argv = [arg for command in commands for arg in [*command, "--"]]
    out = subprocess.run([sys.executable, "-c", RUN_COMMANDS, *argv[:-1]],
                         cwd=tmp_path, env=hopkit_env(), capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    loaded = set(out.stdout.splitlines()[-1].split())
    return {m for m in loaded if package is None or m.split(".")[0] == package}


@pytest.fixture
def records(tmp_path):
    rows = ["\t".join(["id", "e1", "r1", "e2", "r2", "e3"])]
    rows += ["\t".join([str(i), f"work{i}", ["composer", "director"][i % 2],
                        f"bridge{i % 5}", "spouse", f"person{i % 5}"]) for i in range(20)]
    (tmp_path / "records.tsv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    (tmp_path / "facts.tsv").write_text("person0\tbirthplace\tParis\n", encoding="utf-8")
    return "records.tsv"


DATASET_COMMANDS = [
    ["partition", "--input", "records.tsv", "--output", "split"],
    ["stats", "--train", "split/train.tsv", "--test", "split/test.tsv"],
    ["cap", "--input", "records.tsv", "--output", "capped.tsv", "--cap", "3"],
    ["extend3", "--input", "records.tsv", "--facts", "facts.tsv", "--output", "three.tsv"],
]


def test_dataset_commands_load_no_prompt_gateway_or_judging_code(tmp_path, records):
    loaded = loaded_by(tmp_path, *DATASET_COMMANDS)
    assert loaded == {"hopkit", "hopkit.cli", "hopkit.dataset", "hopkit.kg",
                      "hopkit.render"}


@pytest.mark.parametrize("rep", ["nl", "json"])
def test_only_code_bodies_load_ast_and_no_oracle_run_the_http_client(tmp_path, records,
                                                                     rep):
    loaded = loaded_by(tmp_path, *DATASET_COMMANDS,
                       ["evaluate", "--input", records, "--output", "eval", "--oracle",
                        "--rep", rep, "--fault-prob", "0.3"], package=None)
    assert {"hopkit.dataset", "hopkit.evaluate", "hopkit.gateway"} <= loaded
    assert not loaded & {"ast", "hopkit.http1"}
    code = loaded_by(tmp_path, ["evaluate", "--input", records, "--output", "code",
                                "--oracle", "--rep", "py-static"], package=None)
    assert "ast" in code and "hopkit.http1" not in code


def test_the_gateway_loads_the_query_reader_only_for_an_oracle():
    # every benchmark process imports the gateway; a dataset command
    # compiles no prompt code
    script = ("import sys, hopkit.gateway as g; print('hopkit.prompts' in sys.modules);"
              " g.OracleBackend({}); print('hopkit.prompts' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", script], env=hopkit_env(),
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["False", "True"]


def test_the_client_has_one_class_under_every_name():
    import hopkit.gateway
    import hopkit.http1

    assert (hopkit.gateway.OpenAIChatBackend is hopkit.http1.OpenAIChatBackend
            is hopkit.OpenAIChatBackend)
    with pytest.raises(AttributeError, match="has no attribute 'REQUEST_TIMEOUT_S'"):
        hopkit.gateway.REQUEST_TIMEOUT_S  # the client reads it from http1


def test_the_corpus_loads_prompts_but_no_gateway_or_judging_code(tmp_path, records):
    loaded = loaded_by(tmp_path, ["generate", "--kind", "corpus", "--input", records,
                                  "--output", "corpus.jsonl", "--rep", "py-static"])
    assert "hopkit.prompts" in loaded
    assert not loaded & {"hopkit.evaluate", "hopkit.gateway"}


def test_an_oracle_run_loads_no_pool_retry_heap_or_http_code(tmp_path, records):
    # The oracle answers on the calling thread and never retries, so its
    # set-up, which ends at the first send, pays for none of these.
    loaded = loaded_by(tmp_path, ["evaluate", "--input", records, "--output", "eval",
                                  "--oracle", "--fault-prob", "0.3"], package=None)
    assert "hopkit.gateway" in loaded
    assert not loaded & {"heapq", "queue", "concurrent.futures", "logging",
                         "http.client", "ssl", "select", "urllib.request", "hopkit.http1"}


def endpoint_run(tmp_path, records, url):
    """The modules an ``evaluate`` of ``records`` against ``url`` loads."""
    return loaded_by(tmp_path, ["evaluate", "--input", records, "--output", "eval",
                                "--endpoint", url, "--model", "m"], package=None)


def test_a_plain_http_run_loads_no_tls_proxy_or_pool_code(tmp_path, records,
                                                          chat_server, monkeypatch):
    # no_proxy alone names no proxy, so the proxy lookup is never made
    monkeypatch.setenv("no_proxy", "example.org")
    loaded = endpoint_run(tmp_path, records, chat_server.url + "/v1")
    assert {"hopkit.http1", "socket", "threading"} <= loaded
    assert not loaded & {"ssl", "urllib.request", "http.client", "email.parser",
                         "concurrent.futures", "logging"}
    assert len(chat_server.payloads) == 20


@pytest.mark.parametrize("variable", ["http_proxy", "HTTP_PROXY", "all_proxy"])
def test_a_proxy_variable_still_sends_through_the_proxy(tmp_path, records, chat_server,
                                                        proxy_server, monkeypatch,
                                                        variable):
    monkeypatch.setenv(variable, proxy_server.url)
    loaded = endpoint_run(tmp_path, records, chat_server.url + "/v1")
    assert "urllib.request" in loaded and "ssl" in loaded  # urllib.request loads ssl
    assert [line for line, _ in proxy_server.received] == [
        f"POST {chat_server.url}/v1/chat/completions HTTP/1.1"] * 20
    assert chat_server.received == []  # the proxy stand-in answers itself


def test_an_https_backend_still_verifies_its_server(endpoint_env):
    import ssl

    from hopkit.gateway import OpenAIChatBackend

    context = OpenAIChatBackend("https://api.example.invalid/v1", "m").context
    assert context.verify_mode == ssl.CERT_REQUIRED and context.check_hostname
    assert OpenAIChatBackend("http://api.example.invalid/v1", "m").context is None


@pytest.mark.parametrize("module", sorted(EXPORTED))
def test_every_name_the_package_exported_still_resolves(module):
    owner = importlib.import_module(f"hopkit.{module}")
    if module != "render":  # hopkit.render is the function, not the module
        assert getattr(hopkit, module) is owner
    for name in EXPORTED[module]:
        assert getattr(hopkit, name) is getattr(owner, name)
        assert name in hopkit.__all__
    with pytest.raises(AttributeError, match="has no attribute 'nonesuch'"):
        hopkit.nonesuch


def test_flag_tables_hold_the_enum_values():
    assert sorted(REP_FLAGS.values()) == sorted(tag.value for tag in RepresentationTag)
    assert sorted(MODE_FLAGS.values()) == sorted(mode.value for mode in PromptMode)
    assert STYLES == [style.value for style in DatasetStyle]


@pytest.mark.parametrize("command", ["generate", "evaluate"])
def test_help_lists_the_flag_choices(command, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_:
        main([command, "--help"])
    assert exit_.value.code == 0
    lines = capsys.readouterr().out.splitlines()
    for flag in ("--rep {json,nl,py-dynamic,py-static}", "--style {statement,question}",
                 "--mode {context,one,zero}"):
        assert f"  {flag}" in lines
