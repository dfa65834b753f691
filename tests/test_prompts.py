import pytest

from hopkit import build_prompt, build_query, make_chain, pick_demonstration, render
from hopkit.prompts import DatasetStyle, PromptMode
from hopkit.render import RepresentationTag


def test_statement_query(example_chain):
    assert build_query(example_chain, DatasetStyle.STATEMENT) == (
        "spouse of composer of It Goes Like It Goes is _"
    )


def test_question_query(example_chain):
    assert build_query(example_chain, DatasetStyle.QUESTION) == (
        "What is spouse of composer of It Goes Like It Goes ?"
    )


def test_single_hop_query():
    assert build_query(make_chain("e1", "r1", "e2"), DatasetStyle.STATEMENT) == (
        "r1 of e1 is _"
    )


def test_zero_shot_statement(example_chain):
    bundle = build_prompt(example_chain, PromptMode.ZERO_SHOT, DatasetStyle.STATEMENT)
    assert bundle.full_prompt == (
        "Given the incomplete statement: spouse of composer of It Goes Like It Goes "
        "is _ , provide answer and generate explanation for completing the statement"
    )


def test_one_shot_python_question(example_chain):
    demo = render(example_chain, RepresentationTag.PYTHON_DYNAMIC)
    bundle = build_prompt(
        example_chain, PromptMode.ONE_SHOT, DatasetStyle.QUESTION,
        RepresentationTag.PYTHON_DYNAMIC, demonstration=demo,
    )
    assert '"Python code snippet"' in bundle.full_prompt
    assert bundle.full_prompt.endswith(
        "generate python code and provide answer to the question"
    )


def test_one_shot_requires_demonstration(example_chain):
    with pytest.raises(ValueError):
        build_prompt(example_chain, PromptMode.ONE_SHOT, DatasetStyle.STATEMENT,
                     RepresentationTag.NATURAL_LANGUAGE)


def test_with_context_requires_context(example_chain):
    with pytest.raises(ValueError):
        build_prompt(example_chain, PromptMode.WITH_CONTEXT, DatasetStyle.STATEMENT)


def test_with_context_prefix(example_chain):
    context = ("The composer of It Goes Like It Goes is David Shire. "
               "The spouse of David Shire is Didi Conn.")
    bundle = build_prompt(example_chain, PromptMode.WITH_CONTEXT,
                          DatasetStyle.STATEMENT, context=context)
    assert bundle.full_prompt.startswith(f"Given context: {context}")


def test_no_answer_leak_outside_demo_and_context(example_chain):
    for style in DatasetStyle:
        bundle = build_prompt(example_chain, PromptMode.ZERO_SHOT, style)
        assert "Didi Conn" not in bundle.full_prompt


def test_query_label_counts(example_chain):
    query = build_query(example_chain, DatasetStyle.QUESTION)
    assert query.count(" of ") == 2
    assert "It Goes Like It Goes" in query


class TestPickDemonstration:
    def test_single_unrelated(self, example_chain):
        other = make_chain("x", "r", "y", "s", "z")
        assert pick_demonstration([other], example_chain, seed=0) == other

    def test_exhausted_pool_raises(self, example_chain):
        leaky_answer = make_chain("x", "r", "y", "s", "Didi Conn")
        for pool in ([example_chain], [example_chain, leaky_answer], []):
            with pytest.raises(ValueError, match="no demonstration"):
                pick_demonstration(pool, example_chain, seed=0)

    def test_deterministic(self, example_chain):
        pool = [make_chain(f"x{i}", "r", f"y{i}", "s", f"z{i}") for i in range(20)]
        picks = {pick_demonstration(pool, example_chain, seed=42) for _ in range(5)}
        assert len(picks) == 1

    def test_excludes_leaky(self, example_chain):
        leaky_start = make_chain("It Goes Like It Goes", "r", "y", "s", "z")
        leaky_answer = make_chain("x", "r", "y", "s", "Didi Conn")
        clean = make_chain("x2", "r", "y2", "s", "z2")
        for seed in range(10):
            assert pick_demonstration(
                [leaky_start, leaky_answer, clean], example_chain, seed=seed
            ) == clean
