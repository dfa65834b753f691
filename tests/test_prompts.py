import random

import pytest

from hopkit import build_prompt, build_query, make_chain
from hopkit.prompts import DatasetStyle, DemonstrationPool, PromptMode, query_readings
from hopkit.render import RepresentationTag
from tests.conftest import random_chain


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
    bundle = build_prompt(
        example_chain, PromptMode.ONE_SHOT, DatasetStyle.QUESTION,
        RepresentationTag.PYTHON_DYNAMIC, demonstration=example_chain,
    )
    assert '"Python code snippet"' in bundle.full_prompt
    assert bundle.full_prompt.endswith(
        "generate python code and provide answer to the question"
    )


def test_one_shot_requires_demonstration(example_chain):
    with pytest.raises(ValueError):
        build_prompt(example_chain, PromptMode.ONE_SHOT, DatasetStyle.STATEMENT,
                     RepresentationTag.NATURAL_LANGUAGE)


def test_unknown_mode(example_chain):
    with pytest.raises(ValueError, match="^unknown mode 'few_shot'$"):
        build_prompt(example_chain, "few_shot", DatasetStyle.STATEMENT)


def test_with_context_prefix(example_chain):
    context = ("The composer of It Goes Like It Goes is David Shire. "
               "The spouse of David Shire is Didi Conn.")
    bundle = build_prompt(example_chain, PromptMode.WITH_CONTEXT,
                          DatasetStyle.STATEMENT)
    assert bundle.full_prompt.startswith(f"Given context: {context}")


def test_no_answer_leak_outside_demo_and_context(example_chain):
    for style in DatasetStyle:
        bundle = build_prompt(example_chain, PromptMode.ZERO_SHOT, style)
        assert "Didi Conn" not in bundle.full_prompt


def test_query_label_counts(example_chain):
    query = build_query(example_chain, DatasetStyle.QUESTION)
    assert query.count(" of ") == 2
    assert "It Goes Like It Goes" in query


def with_of_in_entities(rng, chain):
    """``chain`` with " of " put into some of its entity labels; its
    relation labels hold none."""
    labels = [label + " of " + label[::-1] if i % 2 == 0 and rng.random() < 0.4 else label
              for i, label in enumerate(chain.labels)]
    return chain._replace(labels=tuple(labels))


def test_the_readings_of_a_prompt_are_those_of_its_own_query():
    """Seeded: in both styles and all three modes, the chain's own
    (relations, start) is one reading of its prompt, and every reading
    comes from the chain's query, none from a one-shot demonstration's."""
    rng = random.Random(34)
    for _ in range(300):
        chain, demonstration = (with_of_in_entities(rng, random_chain(rng)) for _ in "cd")
        for style in DatasetStyle:
            core_tokens = build_query(chain, style).count(" of ")
            for mode in PromptMode:
                prompt = build_prompt(chain, mode, style, RepresentationTag.JSON,
                                      demonstration=demonstration).full_prompt
                readings = [(tuple(relations), start)
                            for relations, start in query_readings(prompt)]
                assert (tuple(chain.relations), chain.start) in readings, prompt
                assert len(readings) == core_tokens
                # every start ends the query: the chain's start, never the demonstration's
                assert all(start.endswith(chain.start.rsplit(" of ", 1)[-1])
                           for _, start in readings), prompt


def pool_of(chains, seed=0):
    """A one-shot pool of ``chains`` that draws with ``seed``."""
    return DemonstrationPool(chains, seed, DatasetStyle.STATEMENT,
                             RepresentationTag.NATURAL_LANGUAGE)


def pick(demos, query):
    """The demonstration ``demos`` draws for ``query``."""
    return demos.pool[demos._position(query)]


class TestPickDemonstration:
    def test_single_unrelated(self, example_chain):
        other = make_chain("x", "r", "y", "s", "z")
        assert pick(pool_of([other]), example_chain) == other

    def test_exhausted_pool_raises(self, example_chain):
        leaky_answer = make_chain("x", "r", "y", "s", "Didi Conn")
        for pool in ([example_chain], [example_chain, leaky_answer], []):
            with pytest.raises(ValueError, match="no demonstration"):
                pick(pool_of(pool), example_chain)

    def test_deterministic(self, example_chain):
        pool = [make_chain(f"x{i}", "r", f"y{i}", "s", f"z{i}") for i in range(20)]
        picks = {pick(pool_of(pool, 42), example_chain) for _ in range(5)}
        assert len(picks) == 1

    def test_excludes_leaky(self, example_chain):
        leaky_start = make_chain("It Goes Like It Goes", "r", "y", "s", "z")
        leaky_answer = make_chain("x", "r", "y", "s", "Didi Conn")
        clean = make_chain("x2", "r", "y2", "s", "z2")
        for seed in range(10):
            demos = pool_of([leaky_start, leaky_answer, clean], seed)
            assert pick(demos, example_chain) == clean

    def test_pool_pick_is_the_linear_scan_pick(self):
        """The indexed pick returns the very instance a seeded choice over the
        leak-free instances in pool order returns, and raises where that
        list is empty.  Few starts and answers make most candidates leak."""
        rng = random.Random(2412)
        outcomes = {"picked": 0, "exhausted": 0}
        for _ in range(400):
            starts = [f"s{i}" for i in range(rng.randint(1, 4))]
            answers = [f"a{i}" for i in range(rng.randint(1, 4))]
            chains = []  # label chains of 1 to 3 hops
            for i in range(rng.randint(0, 14)):
                if chains and rng.random() < 0.2:  # an equal but distinct copy
                    chains.append(rng.choice(chains))
                    continue
                middle = [f"m{i}-{k}" for k in range(rng.randint(0, 2))]
                labels = [rng.choice(starts)]
                for k, entity in enumerate([*middle, rng.choice(answers)]):
                    labels += [f"r{k}", entity]
                chains.append(labels)
            pool = [make_chain(*labels) for labels in chains]
            outsiders = [make_chain(rng.choice([*starts, "s-new"]), "r", "q",
                                    "t", rng.choice([*answers, "a-new"]))
                         for _ in range(3)]
            seed = rng.randrange(2**32)
            demos = pool_of(pool, seed)
            for query in [*pool, *outsiders]:
                eligible = [c for c in pool
                            if c.start != query.start and c.answer != query.answer]
                if eligible:
                    outcomes["picked"] += 1
                    assert pick(demos, query) is random.Random(seed).choice(eligible)
                else:
                    outcomes["exhausted"] += 1
                    with pytest.raises(ValueError) as exc:
                        pick(demos, query)
                    assert str(exc.value) == (
                        "no demonstration in the pool avoids the query's start "
                        f"entity {query.start!r} and answer {query.answer!r}"
                    )
        assert min(outcomes.values()) > 100, outcomes
