import ast
import importlib
import json
import random
import re
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from hopkit import ReasoningInstance, make_chain, parse, render, wrap_answer_envelope
from hopkit.render import DYNAMIC_PREAMBLE, ENVELOPE_BODY_KEY, RepresentationTag
from tests.conftest import JSON_TEXT, line_built, random_chain

ALL_TAGS = list(RepresentationTag)
CODE_TAGS = (RepresentationTag.PYTHON_STATIC, RepresentationTag.PYTHON_DYNAMIC)
render_module = importlib.import_module("hopkit.render")


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
    with pytest.raises(ValueError, match=re.escape(
            "ambiguous fact: ('a', 'r') maps to both 'a' and 'b'")):
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


# The natural-language parse as it was with a backtracking pattern, the
# reference for which sentences are hops and how they split.
REFERENCE_SENTENCE_RE = re.compile(r"^The (.+?) of (.+?) is (.+?)\.?$")


def reference_parse_natural_language(body):
    triplets = []
    for sentence in render_module._SENTENCE_END_RE.split(body.strip()):
        m = REFERENCE_SENTENCE_RE.match(sentence)
        if m:
            rel, head, tail = m.groups()
            triplets.append((head, rel, tail))
            last = sentence
    if len(triplets) >= 2:
        prefix = triplets[:-1]
        if all(prefix[i][2] == prefix[i + 1][0] for i in range(len(prefix) - 1)):
            expected = render_module.composed_sentence(
                [rel for _, rel, _ in prefix], prefix[0][0], triplets[-1][2])
            if last.rstrip(".") == expected.rstrip("."):
                return tuple(prefix)
    return tuple(triplets)


def test_natural_language_parse_matches_the_reference():
    # Labels dense in " of ", " is " and ". ", rendered, and half of the
    # bodies with one more piece (a line break among them) put in anywhere.
    pieces = ["The ", " of ", " is ", ".", ". ", " ", "x", "y"]
    rng = random.Random(24)

    def label():  # never blank
        parts = rng.choices(pieces, k=rng.randrange(3)) + [rng.choice("xy")]
        rng.shuffle(parts)
        return "".join(parts)

    outcomes = Counter()
    for _ in range(5000):
        chain = make_chain(*(label() for _ in range(rng.choice((3, 5, 7)))))
        body = render(chain, RepresentationTag.NATURAL_LANGUAGE).body
        if rng.random() < 0.5:
            at = rng.randrange(len(body) + 1)
            body = body[:at] + rng.choice(pieces + ["\n", ".\n"]) + body[at:]
        expected = reference_parse_natural_language(body)
        assert render_module._parse_natural_language(body) == expected, body
        outcomes[len(expected), expected == chain.hops] += 1
    # no hop read, and chains of one, two and three hops read back whole
    assert {(0, False), (1, True), (2, True), (3, True)} <= set(outcomes)


def test_natural_language_parse_scans_each_sentence_twice_at_most(monkeypatch):
    # A sentence is searched for " of " and then for " is " after it: no
    # more than its length in characters, however many of each it holds.
    scans = []

    class Sentence(str):
        def find(self, sub, start):
            found = str.find(self, sub, start)
            scans.append((found if found >= 0 else len(self)) - start)
            return found

    class Splitting:
        def split(self, body):
            return [Sentence(s) for s in split_sentences(body)]

    split_sentences = render_module._SENTENCE_END_RE.split
    monkeypatch.setattr(render_module, "_SENTENCE_END_RE", Splitting())
    for n in (10, 1000, 8000):
        for sentence in ("The " + "x of " * n, "The " + "x of x is " * n + "x."):
            scans.clear()
            render_module._parse_natural_language(sentence)
            assert len(scans) == 2 and sum(scans) <= len(sentence), sentence[:40]


def test_parse_empty_json():
    parsed = parse(RepresentationTag.JSON, "{}")
    assert parsed.triplets == ()


def test_parse_garbage_never_raises():
    for tag in ALL_TAGS:
        parsed = parse(tag, "complete nonsense !!! {{{")
        assert parsed.triplets == ()


# Bodies that state no fact, each failing one way: bad JSON and JSON that is
# no map, nesting past any parser's depth, Python syntax errors and a null
# byte, a dynamic body whose class continues past the preamble so that
# neither it nor its tail parses, and text with no fact sentence.
NO_FACT_BODIES = [
    '{"r": {"A": ', '["r", "A", "B"]', '"The r of A is B."', "42",
    "[" * 100_000,
    "relationships = {'r': {'A': 'B'}", "kb.add_fact('A', 'r', 'B')\0", "(" * 1_000,
    DYNAMIC_PREAMBLE + "  x = 1\nkb.add_fact('A', 'r', 'B')",
    "Nothing here is a fact.",
]


@pytest.mark.parametrize("tag", ALL_TAGS)
def test_a_body_that_does_not_parse_states_no_facts(tag):
    for body in NO_FACT_BODIES:
        assert parse(tag, body) == ((),), body[:80]


@pytest.mark.parametrize("tag", ALL_TAGS)
def test_parse_never_raises_and_returns_label_triples(tag):
    rng = random.Random(f"parse-fails-closed:{tag.value}")
    pieces = ["\0", "{", "}", "[", "(", ")", "'", '"', ":", ",", "\n", "    ",
              ". The ", " of ", " is ", "kb.add_fact(", "relationships = {"]
    for _ in range(300):
        if rng.random() < 0.3:
            body = rng.choice(NO_FACT_BODIES)
        else:
            body = render(random_chain(rng), rng.choice(ALL_TAGS)).body
        for _ in range(rng.randrange(4)):
            at = rng.randrange(len(body) + 1)
            body = body[:at] + rng.choice(pieces) + body[at + rng.randrange(3):]
        parsed = parse(tag, body)
        assert type(parsed.triplets) is tuple
        for fact in parsed.triplets:
            assert type(fact) is tuple and len(fact) == 3, fact
            assert all(type(label) is str for label in fact), fact


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


# Label pieces a template slot must carry through unchanged: quotes,
# backslashes, braces, format specifiers, NULs, a placeholder's own text,
# U+2028, line breaks, non-ASCII and blank text.
LABEL_PIECES = ["a", "b", "'", '"', "\\", "{x}", "{0}", "}", "%s", "%", "%%", "\0",
                render_module._placeholder(1), "\0" + "2'\"\\", "\\u0000", "\u2028",
                "x\ny", "\r", "\u00e9", "\U0001f600", "", " "]


def outcome(make, chain, tag):
    try:
        return make(chain, tag)
    except ValueError as exc:
        return f"ValueError: {exc}"


def test_templates_render_what_line_built_bodies_do():
    """Seeded: chains of 1 to 5 hops over small label pools, so positions
    repeat (merged relations, cycles, ambiguous facts), render to the same
    body, envelope and error message as line-built bodies do.  A chain drawn
    with a blank label is refused when built, so it never renders."""
    rng = random.Random(20)
    chains, blank = [], 0
    for _ in range(20_000):
        pool = ["".join(rng.choices(LABEL_PIECES, k=rng.randint(1, 3)))
                for _ in range(rng.randint(1, 4))]
        labels = tuple(rng.choices(pool, k=2 * rng.randint(1, 5) + 1))
        if all(label.strip() for label in labels):
            chains.append(ReasoningInstance(labels))
        else:
            with pytest.raises(ValueError, match="label must be non-empty$"):
                ReasoningInstance(labels)
            blank += 1
    assert blank > 1_000, blank
    # grouped by shape, so each shape compiles once per representation
    chains.sort(key=lambda chain: tuple(map(chain.labels.index, chain.labels)))
    counts = Counter()
    for tag in ALL_TAGS:
        for chain in chains:
            expected = outcome(line_built, chain, tag)
            example = outcome(render, chain, tag)
            if isinstance(example, str):
                assert example == expected, (chain, tag)
                counts["ambiguous" if "ambiguous fact" in example else "line break"] += 1
            else:
                assert (example.body, example.envelope) == expected, (chain, tag)
                shape = tuple(map(chain.labels.index, chain.labels))
                assert render_module._template(tag, shape) is not None  # filled
                counts["rendered"] += 1
    assert counts["rendered"] > 50_000 and min(counts.values()) > 5_000, counts


def test_render_compiles_each_shape_once(monkeypatch):
    """6,000 chains of one shape compile one template per representation
    from one placeholder chain: counted, not timed."""
    chains = [ReasoningInstance((f"a{i}", f"r{i}", f"b{i}", f"s{i}", f"c{i}"))
              for i in range(6000)]
    built, real_new = [], ReasoningInstance.__new__

    def new(cls, *args, **kwargs):
        built.append(args)
        return real_new(cls, *args, **kwargs)

    render_module._template.cache_clear()
    monkeypatch.setattr(ReasoningInstance, "__new__", new)
    for tag in ALL_TAGS:
        for chain in chains:
            render(chain, tag)
    shape = tuple(range(5))
    assert render_module._template.cache_info().misses == len(ALL_TAGS)
    assert built == [(tuple(map(render_module._placeholder, shape)),)] * len(ALL_TAGS)
    for tag in ALL_TAGS:
        assert render_module._template(tag, shape) is not None



def test_a_label_spelled_outside_every_slot_renders_line_built(monkeypatch):
    """A renderer that spells a label in no slot's way (here reversed)
    leaves a NUL of its placeholder outside every slot: no template, so
    the body is built from the real labels."""
    tag = RepresentationTag.NATURAL_LANGUAGE

    def reversed_labels(chain):
        return " / ".join(label[::-1] for label in chain.labels)

    chain = make_chain("Paris", "capital of", "France")
    monkeypatch.setitem(render_module._RENDERERS, tag, reversed_labels)
    render_module._template.cache_clear()
    try:
        assert render_module._template(tag, (0, 1, 2)) is None
        assert render(chain, tag).body == "siraP / fo latipac / ecnarF"
    finally:
        render_module._template.cache_clear()


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
    fast = fallback = continued = 0
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
        ast.parse(body)  # no generated body is a syntax error
        # facts read only through the whole-body parse
        continued += body.startswith(DYNAMIC_PREAMBLE + "    ") and bool(expected_dynamic)
        fast += not walks
        fallback += len(walks) == 1
    assert fast > 50 and fallback > 50 and continued > 0
