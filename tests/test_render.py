import json
import random

import pytest

from hopkit import Entity, make_chain, parse, render, wrap_answer_envelope
from hopkit.render import RenderError, RepresentationTag
from tests.conftest import random_chain

ALL_TAGS = list(RepresentationTag)


def test_natural_language_example(example_chain):
    body = render(example_chain, RepresentationTag.NATURAL_LANGUAGE).body
    assert "The composer of It Goes Like It Goes is David Shire." in body
    assert "The spouse of David Shire is Didi Conn." in body
    assert body.endswith("The spouse of the composer of It Goes Like It Goes is Didi Conn.")


def test_natural_language_single_hop():
    body = render(make_chain("e1", "r1", "e2"), RepresentationTag.NATURAL_LANGUAGE).body
    assert body == "The r1 of e1 is e2."


def test_json_example(example_chain):
    body = render(example_chain, RepresentationTag.JSON).body
    assert json.loads(body) == {
        "composer": {"It Goes Like It Goes": "David Shire"},
        "spouse": {"David Shire": "Didi Conn"},
    }


def test_json_merges_repeated_relation():
    chain = make_chain("a", "r", "b", "r", "c")
    body = render(chain, RepresentationTag.JSON).body
    assert json.loads(body) == {"r": {"a": "b", "b": "c"}}


def test_ambiguous_merge_rejected():
    # same relation and same head with different tails cannot be rendered
    chain = make_chain("a", "r", "a", "r", "b")
    with pytest.raises(RenderError):
        render(chain, RepresentationTag.JSON)


def test_python_dynamic_example(example_chain):
    body = render(example_chain, RepresentationTag.PYTHON_DYNAMIC).body
    assert "kb.add_fact(e1, r1, e2)" in body
    assert "result3 = kb.infer(e1, r1, r2)" in body
    assert "# Should return Didi Conn" in body
    compile(body, "<rendered>", "exec")


def test_python_static_example(example_chain):
    body = render(example_chain, RepresentationTag.PYTHON_STATIC).body
    assert "relationships = {" in body
    assert "e2 = relationships[r1][e1]" in body
    compile(body, "<rendered>", "exec")


def test_envelope_keys(example_chain):
    expected = {
        RepresentationTag.NATURAL_LANGUAGE: "Explanation",
        RepresentationTag.JSON: "JSON structure",
        RepresentationTag.PYTHON_STATIC: "Python code snippet",
        RepresentationTag.PYTHON_DYNAMIC: "Python code snippet",
    }
    for tag, key in expected.items():
        envelope = json.loads(render(example_chain, tag).envelope)
        assert list(envelope) == ["Answer", key]
        assert envelope["Answer"] == "Didi Conn"


def test_envelope_escaping():
    text = wrap_answer_envelope('say "hi"', RepresentationTag.NATURAL_LANGUAGE, Entity("X"))
    assert json.loads(text) == {"Answer": "X", "Explanation": 'say "hi"'}
    empty = wrap_answer_envelope("", RepresentationTag.NATURAL_LANGUAGE, Entity("X"))
    assert json.loads(empty) == {"Answer": "X", "Explanation": ""}


def test_render_deterministic(example_chain):
    for tag in ALL_TAGS:
        assert render(example_chain, tag).body == render(example_chain, tag).body


def test_parse_natural_language_with_summary_sentence():
    body = (
        "The composer of It Goes Like It Goes is David Shire. "
        "The spouse of David Shire is Didi Conn. "
        "The spouse of the composer of It Goes Like It Goes is Didi Conn."
    )
    parsed = parse(RepresentationTag.NATURAL_LANGUAGE, body)
    assert [
        (t.head.label, t.relation.label, t.tail.label) for t in parsed.triplets
    ] == [
        ("It Goes Like It Goes", "composer", "David Shire"),
        ("David Shire", "spouse", "Didi Conn"),
    ]


def test_parse_empty_json():
    parsed = parse(RepresentationTag.JSON, "{}")
    assert parsed.triplets == ()


def test_parse_garbage_never_raises():
    for tag in ALL_TAGS:
        parsed = parse(tag, "complete nonsense !!! {{{")
        assert parsed.triplets == ()
        assert parsed.diagnostic is not None


def test_quotes_in_labels_roundtrip():
    chain = make_chain("It's \"quoted\"", "rel", 'tail "x"', "rel2", "back\\slash")
    for tag in ALL_TAGS:
        example = render(chain, tag)
        json.loads(example.envelope)
        if tag in (RepresentationTag.PYTHON_STATIC, RepresentationTag.PYTHON_DYNAMIC):
            compile(example.body, "<rendered>", "exec")
        parsed = parse(tag, example.body)
        assert sorted(parsed.triplets, key=str) == sorted(chain.hops, key=str)


@pytest.mark.parametrize("tag", ALL_TAGS)
def test_roundtrip_random_chains(tag):
    rng = random.Random(sum(map(ord, tag.value)))
    for _ in range(50):
        chain = random_chain(rng)
        parsed = parse(tag, render(chain, tag).body)
        assert sorted(parsed.triplets, key=str) == sorted(chain.hops, key=str)
        if tag in (RepresentationTag.NATURAL_LANGUAGE, RepresentationTag.PYTHON_DYNAMIC):
            assert parsed.triplets == chain.hops  # in body order



def test_parse_static_returns_every_literal_fact():
    # e1/r1/r2 trace a self-loop; every fact of the literal must still come back
    body = ("relationships = {'r': {'A': 'A'}, 's': {'B': 'C'}}\n"
            "e1 = 'A'\nr1 = 'r'\nr2 = 'r'\n")
    parsed = parse(RepresentationTag.PYTHON_STATIC, body)
    assert {(t.head.label, t.relation.label, t.tail.label) for t in parsed.triplets} == {
        ("A", "r", "A"), ("B", "s", "C"),
    }
