import ast
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from hopkit import make_chain, parse, render, wrap_answer_envelope
from hopkit.render import (DYNAMIC_PREAMBLE, ENVELOPE_BODY_KEY, RenderError,
                           RepresentationTag)
from tests.conftest import JSON_TEXT, random_chain

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
    text = wrap_answer_envelope('say "hi"', RepresentationTag.NATURAL_LANGUAGE, "X")
    assert json.loads(text) == {"Answer": "X", "Explanation": 'say "hi"'}
    empty = wrap_answer_envelope("", RepresentationTag.NATURAL_LANGUAGE, "X")
    assert json.loads(empty) == {"Answer": "X", "Explanation": ""}


@settings(max_examples=300, database=None, derandomize=True)
@given(answer=JSON_TEXT, body=JSON_TEXT, tag=st.sampled_from(ALL_TAGS))
def test_envelope_bytes_are_those_of_json_dumps(answer, body, tag):
    assert wrap_answer_envelope(body, tag, answer) == json.dumps(
        {"Answer": answer, ENVELOPE_BODY_KEY[tag]: body})


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
    assert parsed.triplets == (
        ("It Goes Like It Goes", "composer", "David Shire"),
        ("David Shire", "spouse", "Didi Conn"),
    )


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
        assert sorted(parsed.triplets) == sorted(chain.hops)


@pytest.mark.parametrize("tag", ALL_TAGS)
def test_roundtrip_random_chains(tag):
    rng = random.Random(sum(map(ord, tag.value)))
    for _ in range(50):
        chain = random_chain(rng)
        parsed = parse(tag, render(chain, tag).body)
        assert sorted(parsed.triplets) == sorted(chain.hops)
        if tag in (RepresentationTag.NATURAL_LANGUAGE, RepresentationTag.PYTHON_DYNAMIC):
            assert parsed.triplets == chain.hops  # in body order



def test_parse_static_returns_every_literal_fact():
    # e1/r1/r2 trace a self-loop; every fact of the literal must still come back
    body = ("relationships = {'r': {'A': 'A'}, 's': {'B': 'C'}}\n"
            "e1 = 'A'\nr1 = 'r'\nr2 = 'r'\n")
    parsed = parse(RepresentationTag.PYTHON_STATIC, body)
    assert set(parsed.triplets) == {("A", "r", "A"), ("B", "s", "C")}


def test_parse_skips_only_the_facts_with_a_non_string_label():
    body = ("relationships = {'r': {'A': 'B', 2: 'X', 'C': None}, 1: {'B': 'Y'},"
            " ('s',): {'B': 'Z'}, 's': {'B': 'C', ' ': ''}}")
    assert parse(RepresentationTag.PYTHON_STATIC, body).triplets == (
        ("A", "r", "B"), ("B", "s", "C"), (" ", "s", ""),
    )


@pytest.mark.parametrize("tag, body", [
    (RepresentationTag.NATURAL_LANGUAGE, "The r of A is B. The   of \u3000 is C."),
    (RepresentationTag.JSON, '{"r": {"A": "B"}, " ": {"\u3000": "C"}}'),
    (RepresentationTag.PYTHON_STATIC, "relationships = {'r': {'A': 'B'}, ' ': {'\u3000': 'C'}}"),
    (RepresentationTag.PYTHON_DYNAMIC, "kb.add_fact('A', 'r', 'B')\nkb.add_fact('\u3000', ' ', 'C')"),
])
def test_parse_keeps_blank_labels(tag, body):
    assert parse(tag, body).triplets == (("A", "r", "B"), ("\u3000", " ", "C"))


def reference_parse_dynamic(body):
    """The dynamic parser as it was before it skipped the preamble: one
    ast.walk over the whole body, returning label triples.  Failures mirror
    ``parse``: no triplets.
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
    for args in fact_args:
        head, rel, tail = (resolve(a) for a in args)
        if head is not None and rel is not None and tail is not None:
            triplets.append((head, rel, tail))
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


def reference_parse_static(body):
    """The static parser as one ast.walk over the whole body: the last
    ``relationships`` literal wins, and its facts whose labels are all
    strings come back as label triples.  Failures mirror ``parse``: no
    triplets.
    """
    try:
        mapping = None
        for node in ast.walk(ast.parse(body)):
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id == "relationships"
            ):
                try:
                    mapping = ast.literal_eval(node.value)
                except ValueError:
                    pass
        return tuple(
            (head, rel, tail)
            for rel, inner in mapping.items()
            if isinstance(rel, str) and isinstance(inner, dict)
            for head, tail in inner.items()
            if isinstance(head, str) and isinstance(tail, str)
        )
    except Exception:
        return ()


_NAMES = ["e1", "e2", "e3", "r1", "r2"]
_LABELS = ["Paris", "France", "capital", "Lyon", "Zoë", "ＡＢ"]


def _fact_args(rng):
    args = [rng.choice(_NAMES) if rng.random() < 0.8 else repr(rng.choice(_LABELS[:4]))
            for _ in range(rng.choice([3, 3, 3, 2]))]
    return ", ".join(args)


def _simple_statement(rng):
    """One line: a binding, a fact, a literal, or add_fact where a statement
    traversal cannot see it (in an expression, a string, a comment, or an
    identifier NFKC folds to it).
    """
    kind = rng.randrange(15)
    if kind < 6:
        label = rng.choice(_LABELS[:4] if rng.random() < 0.95 else _LABELS)
        return f"{rng.choice(_NAMES)} = {label!r}"
    if kind < 9:
        return f"kb.add_fact({_fact_args(rng)})"
    if kind == 9:
        facts = {rng.choice(["r", "s"]): {rng.choice(_LABELS[:4]): rng.choice(_LABELS[:4])}
                 for _ in range(rng.randint(1, 2))}
        return f"relationships = {facts!r}"
    if kind == 10:
        return rng.choice(["print(e1)", "kb.infer(e1, r1)", "pass", "relationships = dict()"])
    if kind == 11:  # a call inside an expression
        template = rng.choice([
            "x = kb.add_fact({})", "print(kb.add_fact({}))",
            "f = lambda: kb.add_fact({})", "kb.add_fact(kb.add_fact({}), r1, e2)",
            "[kb.add_fact({}) for _ in range(1)]", "y = (kb.add_fact({}), 1)",
        ])
        return template.format(_fact_args(rng))
    if kind == 12:  # add_fact in a string or a comment
        return rng.choice(["s = 'kb.add_fact(e1, r1, e2)'",
                           "pass  # kb.add_fact(e1, r1, e2)",
                           "print(e1)  # then add_fact"])
    if kind == 13:  # fullwidth identifiers fold to ASCII ones
        return rng.choice(["ｅ1 = 'Folded'", "kb.ａｄｄ_ｆａｃｔ(e1, r1, e2)",
                           "x = kb.ａｄｄ_ｆａｃｔ(e1, r1, e2)"])
    return f"{rng.choice(_NAMES)} = {rng.choice(_NAMES)}"


def _block(rng, depth, size=2):
    return [line for _ in range(rng.randint(1, size))
            for line in _statement(rng, depth)]


def _statement(rng, depth):
    """The lines of one statement, compound below ``depth`` 3."""
    if depth >= 3 or rng.random() < 0.7:
        return [_simple_statement(rng)]

    def inner():
        return ["    " + line for line in _block(rng, depth + 1)]

    kind = rng.randrange(7)
    if kind == 0:
        return ["if e1:", *inner()] + (["else:", *inner()] if rng.random() < 0.5 else [])
    if kind == 1:
        lines = ["try:", *inner(), "except ValueError:", *inner()]
        if rng.random() < 0.5:
            lines += ["except Exception as exc:", *inner()]
        if rng.random() < 0.3:
            lines += ["else:", *inner()]
        if rng.random() < 0.3:
            lines += ["finally:", *inner()]
        return lines
    if kind == 2:
        lines = ["match e1:", "    case 'Paris':", *("    " + l for l in inner())]
        if rng.random() < 0.5:
            lines += ["    case _:", *("    " + l for l in inner())]
        return lines
    if kind == 3:
        return ["def helper():", *inner()]
    if kind == 4:
        return ["for _ in range(1):", *inner()]
    if kind == 5:
        return ["with open('x') as fh:", *inner()]
    return ["class Holder:", *inner()]


def _nested_code_body(rng):
    lines = _block(rng, 0, size=5)
    roll = rng.random()
    if roll < 0.2:  # the preamble is skipped
        return DYNAMIC_PREAMBLE + "\n".join(lines)
    if roll < 0.25:  # the preamble's class continues: the whole body parses
        return DYNAMIC_PREAMBLE + "    e1 = 'ClassLevel'\n" + "\n".join(lines)
    return "\n".join(lines)


def test_code_parsers_match_ast_walk_references(monkeypatch):
    real_walk = ast.walk
    walks = []

    def recording_walk(node):
        walks.append(node)
        return real_walk(node)

    rng = random.Random(2412)
    fast = fallback = 0
    for _ in range(1500):
        body = _nested_code_body(rng)
        expected_static = reference_parse_static(body)
        expected_dynamic = reference_parse_dynamic(body)
        walks.clear()
        monkeypatch.setattr(ast, "walk", recording_walk)
        static = parse(RepresentationTag.PYTHON_STATIC, body)
        assert not walks
        dynamic = parse(RepresentationTag.PYTHON_DYNAMIC, body)
        monkeypatch.setattr(ast, "walk", real_walk)
        assert static.triplets == expected_static, body
        assert dynamic.triplets == expected_dynamic, body
        assert not (dynamic.diagnostic or "").startswith("syntax error"), body
        fast += not walks
        fallback += len(walks) == 1
    assert fast > 50 and fallback > 50
