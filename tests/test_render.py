import ast
import json
import random

import pytest

from hopkit import Entity, make_chain, parse, render, wrap_answer_envelope
from hopkit.kg import Relation, Triplet
from hopkit.render import DYNAMIC_PREAMBLE, RenderError, RepresentationTag
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


def reference_parse_dynamic(body):
    """The dynamic parser as it was before it skipped the preamble: one
    ast.walk over the whole body.  Failures mirror ``parse``: no triplets.
    """
    try:
        tree = ast.parse(body)
    except Exception:
        return ()
    bindings = {}
    fact_args = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)
        ):
            bindings[node.targets[0].id] = node.value.value
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "add_fact"
            and len(node.args) == 3
        ):
            fact_args.append(node.args)

    def resolve(node):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value
        if isinstance(node, ast.Name):
            return bindings.get(node.id)
        return None

    triplets = []
    try:
        for args in fact_args:
            head, rel, tail = (resolve(a) for a in args)
            if head is not None and rel is not None and tail is not None:
                triplets.append(Triplet(Entity(head), Relation(rel), Entity(tail)))
    except Exception:
        return ()
    return tuple(triplets)


_EXTRA_LINES = [
    "print(kb.infer(e1, r1))",
    "decoy = 'Somewhere'",
    "e2 = 'Rebound'",
    "kb.add_fact('A', 'r', 'B')",
    "kb.add_fact(e1, r1)",
    "kb.add_fact(e1, 'rel', missing)",
    "r1 = 7",
    "if True:\n    e2 = 'Inner'",
    "def helper():\n    r1 = 'deep'\n    kb.add_fact(e1, r1, 'X')",
    "for _ in range(1):\n    kb.add_fact(e2, r2, e3)",
]


def _perturbed_dynamic_body(rng):
    """A rendered dynamic body of 1-4 hops, perturbed one of five ways."""
    body = render(random_chain(rng, rng.choice([1, 2, 3, 4])),
                  RepresentationTag.PYTHON_DYNAMIC).body
    rest = body[len(DYNAMIC_PREAMBLE):].split("\n")
    kind = rng.randrange(5)
    if kind == 0:  # extra code and shuffled lines
        rest += rng.sample(_EXTRA_LINES, rng.randrange(4))
        rng.shuffle(rest)
        body = DYNAMIC_PREAMBLE + "\n".join(rest)
    elif kind == 1:  # the preamble's class continues: only the whole parses
        inner = rng.choice([
            "    e1 = 'ClassLevel'",
            "    def helper(self):\n        return 'x'",
            "        return None",
            "    kb.add_fact(e1, r1, 'InClass')",
            "  x = 1",  # unindent mismatch: neither part parses
        ])
        body = DYNAMIC_PREAMBLE + inner + "\n" + "\n".join(rest)
    elif kind == 2:  # no prefix match: under a main guard, or after a line
        if rng.random() < 0.5:
            body = 'if __name__ == "__main__":\n' + "\n".join(
                "    " + line for line in body.split("\n"))
        else:
            body = "e1 = 'Before'\n" + body
    elif kind == 3:  # one name bound at two depths
        name = rng.choice(["e1", "e2", "r1", "r2"])
        rest.insert(rng.randrange(len(rest) + 1),
                    f"if True:\n    {name} = 'Deep'")
        rest.insert(rng.randrange(len(rest) + 1), f"{name} = 'Shallow'")
        body = DYNAMIC_PREAMBLE + "\n".join(rest)
    else:  # cut inside the preamble
        body = body[:rng.randrange(len(DYNAMIC_PREAMBLE))]
    return body


def test_parse_dynamic_matches_whole_body_reference(monkeypatch):
    real_parse = ast.parse
    sources = []

    def recording_parse(source, *args, **kwargs):
        sources.append(source)
        return real_parse(source, *args, **kwargs)

    rng = random.Random(5)
    fallbacks = 0
    for _ in range(600):
        body = _perturbed_dynamic_body(rng)
        expected = reference_parse_dynamic(body)
        sources.clear()
        monkeypatch.setattr(ast, "parse", recording_parse)
        parsed = parse(RepresentationTag.PYTHON_DYNAMIC, body)
        monkeypatch.setattr(ast, "parse", real_parse)
        assert parsed.triplets == expected, body
        if body.startswith(DYNAMIC_PREAMBLE):
            assert sources[0] == body[len(DYNAMIC_PREAMBLE):]
            fallbacks += sources[1:] == [body]
        else:
            assert sources == [body]
    assert fallbacks > 50
