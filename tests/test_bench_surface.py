"""Every hopkit name the benchmark under perfbench/ reaches still exists.

perfbench wraps hopkit functions by name, stamps the first call of two of
them, and builds prompts through the public API.  A wrapper on a name that
a refactor dropped records nothing, and the run only lists it among
``missing_trace_targets``, so these tests fail first.  perfbench is only
read here.
"""

import ast
import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
PERFBENCH_MODULES = ("run", "checks", "fixtures", "spans", "stub")

# Targets spans.TARGETS wraps that hopkit had already dropped when these
# tests were written; the benchmark lists them as missing on every run.
KNOWN_MISSING = {
    "hopkit.prompts.pick_demonstration",
    "hopkit.cli.render_instance",
    "hopkit.gateway.Gateway.complete",
}


@pytest.fixture
def perfbench(monkeypatch):
    """Import a perfbench module as run.py imports it, by its bare name."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        yield importlib.import_module
    finally:
        for name in PERFBENCH_MODULES:
            sys.modules.pop(name, None)


def resolve(module, attr):
    """The object at dotted ``attr`` of ``module``; raises AttributeError."""
    owner = importlib.import_module(module)
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner


def test_every_span_target_exists(perfbench):
    missing = set()
    for module, attr, _ in perfbench("spans").TARGETS:
        try:
            assert callable(resolve(module, attr))
        except AttributeError:
            missing.add(f"{module}.{attr}")
    assert missing <= KNOWN_MISSING


@pytest.mark.parametrize("attr", ["add_fact", "_prompt_for"])
def test_the_cli_names_the_tracer_counts_exist(attr):
    assert callable(resolve("hopkit.cli", attr))


def test_every_probe_target_exists():
    tree = ast.parse((PERFBENCH / "child.py").read_text(encoding="utf-8"))
    targets = sorted(  # (owner, attribute) of each _stamp_first call
        (ast.unparse(call.args[0]), call.args[1].value) for call in ast.walk(tree)
        if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_stamp_first")
    assert targets == [("dataset", "ingest"), ("gateway.OracleBackend", "send")]
    for owner, attr in targets:
        assert callable(resolve("hopkit", f"{owner}.{attr}"))


def test_run_py_builds_prompts(perfbench):
    rows = [["7", "It Goes Like It Goes", "composer", "David Shire", "spouse", "Didi Conn"]]
    for rep in ("natural_language", "json", "python_static", "python_dynamic"):
        [prompt] = perfbench("run")._hopkit_prompts(rows, rep)
        assert prompt.startswith("Given the incomplete statement: spouse of composer of "
                                 "It Goes Like It Goes is _ ,")
