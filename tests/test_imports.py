"""What each command loads: the package imports its modules on first use, so
a dataset command never compiles or runs the prompt, gateway or judging
code."""

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
# module eagerly, less the hop bridge check, deleted with hop-tuple chains.
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
                "OracleBackend", "oracle_complete"],
    "evaluate": ["ConditionRow", "EvalRecord", "MetricsReport", "compute_metrics",
                 "emit_report", "judge", "normalize_answer"],
}

# Runs each command line of argv, separated by "--", through cli.main in
# one fresh interpreter, then prints the hopkit modules it loaded.
RUN_COMMANDS = """
import sys
from hopkit import cli
argv = sys.argv[1:]
while argv:
    end = argv.index("--") if "--" in argv else len(argv)
    assert cli.main(argv[:end]) == 0
    argv = argv[end + 1:]
print(*sorted(m for m in sys.modules if m.startswith("hopkit")))
"""


def loaded_by(tmp_path, *commands):
    argv = [arg for command in commands for arg in [*command, "--"]]
    out = subprocess.run([sys.executable, "-c", RUN_COMMANDS, *argv[:-1]],
                         cwd=tmp_path, env=hopkit_env(), capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return set(out.stdout.splitlines()[-1].split())


@pytest.fixture
def records(tmp_path):
    rows = ["\t".join(["id", "e1", "r1", "e2", "r2", "e3"])]
    rows += ["\t".join([str(i), f"work{i}", ["composer", "director"][i % 2],
                        f"bridge{i % 5}", "spouse", f"person{i % 5}"]) for i in range(20)]
    (tmp_path / "records.tsv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    (tmp_path / "facts.tsv").write_text("person0\tbirthplace\tParis\n", encoding="utf-8")
    return "records.tsv"


def test_dataset_commands_load_no_prompt_gateway_or_judging_code(tmp_path, records):
    loaded = loaded_by(
        tmp_path,
        ["partition", "--input", records, "--output", "split"],
        ["stats", "--train", "split/train.tsv", "--test", "split/test.tsv"],
        ["cap", "--input", records, "--output", "capped.tsv", "--cap", "3"],
        ["extend3", "--input", records, "--facts", "facts.tsv", "--output", "three.tsv"])
    assert loaded == {"hopkit", "hopkit.cli", "hopkit.dataset", "hopkit.kg",
                      "hopkit.render"}


def test_the_corpus_loads_prompts_but_no_gateway_or_judging_code(tmp_path, records):
    loaded = loaded_by(tmp_path, ["generate", "--kind", "corpus", "--input", records,
                                  "--output", "corpus.jsonl", "--rep", "py-static"])
    assert "hopkit.prompts" in loaded
    assert not loaded & {"hopkit.evaluate", "hopkit.gateway"}


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
