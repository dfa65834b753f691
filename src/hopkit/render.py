"""Render reasoning chains into the four text representations and parse them
back.

The four formats are: plain natural-language sentences, a relation-keyed
nested JSON map, a static Python dict with chained lookups, and a dynamic
Python knowledge-base class with an iterative ``infer`` routine.  Rendered
code uses 4-space indentation and ``\\n`` line endings; the golden files under
``tests/golden/`` pin the exact bytes.
"""

from __future__ import annotations

import enum
import functools
import json
import operator
import re
from collections import deque, namedtuple
from collections.abc import Iterator
from json.encoder import encode_basestring_ascii as _json_string

from .kg import ReasoningInstance


class RepresentationTag(str, enum.Enum):
    NATURAL_LANGUAGE = "natural_language"
    JSON = "json"
    PYTHON_STATIC = "python_static"
    PYTHON_DYNAMIC = "python_dynamic"


# Key naming the body inside the answer envelope, per representation.
ENVELOPE_BODY_KEY = {
    RepresentationTag.NATURAL_LANGUAGE: "Explanation",
    RepresentationTag.JSON: "JSON structure",
    RepresentationTag.PYTHON_STATIC: "Python code snippet",
    RepresentationTag.PYTHON_DYNAMIC: "Python code snippet",
}


class RenderedExample(namedtuple("RenderedExample", "body envelope")):
    """A chain rendered in one representation, plus its answer envelope."""

    __slots__ = ()


class ParsedBody(namedtuple("ParsedBody", "triplets")):
    """Facts recovered from a representation-formatted text.

    ``triplets`` holds one ``(head, relation, tail)`` tuple of label strings
    per fact, in body order; a label may be blank.  It is empty when the body
    cannot be parsed.  A one-field tuple rather than the bare tuple of facts,
    because ``perfbench/spans.py`` reads ``parse(...).triplets``.
    """

    __slots__ = ()


def _in_py_str(label: str) -> str:
    """A label inside a single-quoted Python string literal, less the quotes."""
    return label.replace("\\", "\\\\").replace("'", "\\'")


def composed_sentence(relations: list[str], start: str, final: str) -> str:
    """The one-sentence summary of a chain from its labels, e.g.
    "The spouse of the composer of It Goes Like It Goes is Didi Conn."
    """
    return f"The {' of the '.join(reversed(relations))} of {start} is {final}."


def _summary(chain: ReasoningInstance) -> str:
    return composed_sentence(chain.relations, chain.start, chain.answer)


def hop_sentences(chain: ReasoningInstance) -> list[str]:
    """One sentence per hop, e.g. "The spouse of David Shire is Didi Conn." """
    return [
        f"The {relation} of {head} is {tail}." for head, relation, tail in chain.hops
    ]


def _render_natural_language(chain: ReasoningInstance) -> str:
    sentences = hop_sentences(chain)
    if chain.n_hops >= 2:
        sentences.append(_summary(chain))
    return " ".join(sentences)


def _relation_map(chain: ReasoningInstance) -> dict[str, dict[str, str]]:
    """Relation-keyed nested map; same-relation hops merge under one key."""
    mapping: dict[str, dict[str, str]] = {}
    for head, relation, tail in chain.hops:
        inner = mapping.setdefault(relation, {})
        existing = inner.get(head)
        if existing is not None and existing != tail:
            raise ValueError(
                f"ambiguous fact: ({head!r}, {relation!r}) "
                f"maps to both {existing!r} and {tail!r}"
            )
        inner[head] = tail
    return mapping


def _render_json(chain: ReasoningInstance) -> str:
    return json.dumps(_relation_map(chain), indent=4)


def _render_python_static(chain: ReasoningInstance) -> str:
    mapping = _relation_map(chain)
    lines = ["# Step 1. Define relationships with explicit types", "relationships = {"]
    rel_items = list(mapping.items())
    for i, (rel, inner) in enumerate(rel_items):
        lines.append(f"    '{_in_py_str(rel)}': {{")
        entries = list(inner.items())
        for j, (head, tail) in enumerate(entries):
            comma = "," if j < len(entries) - 1 else ""
            lines.append(
                f"        '{_in_py_str(head)}': '{_in_py_str(tail)}'{comma}"
                f"  # {head} is related to {tail} via relationship {rel}"
            )
        lines.append("    }" + ("," if i < len(rel_items) - 1 else ""))
    lines.append("}")
    lines.append("")

    lines.append("# Define entities and relationships")
    lines.append(f"e1 = '{_in_py_str(chain.start)}'")
    for i, rel in enumerate(chain.relations, start=1):
        lines.append(f"r{i} = '{_in_py_str(rel)}'")
    lines.append("")

    for i in range(1, chain.n_hops + 1):
        lines.append(f"# Step {i + 1}. (r{i}, e{i}) -> e{i + 1}")
        lines.append(f"e{i + 1} = relationships[r{i}][e{i}]")
        lines.append("")

    n = chain.n_hops
    rel_vars = " of ".join("{r%d}" % i for i in range(n, 0, -1))
    lines.append("# Output the result")
    lines.append('print(f"%s of {e1} is {e%d}")' % (rel_vars, n + 1))
    lines.append("")
    lines.append("# when you run the code, it will output:")
    lines.append("# " + _summary(chain)[:-1])
    return "\n".join(lines)


# Knowledge-base class preamble for the dynamic representation.
DYNAMIC_PREAMBLE = '''\
# Step 1. Define relationships with knowledge base
class KnowledgeBase:
    def __init__(self):
        # Initialize an empty dictionary to store facts.
        # Each key is a tuple (entity1, relation), and the value is the entity2 related to entity1 through relation.
        self.facts = {}

    def add_fact(self, entity1, relation, entity2):
        # Add a fact to the knowledge base.
        # :param entity1: The starting entity.
        # :param relation: The relation from entity1 to entity2.
        # :param entity2: The related entity reached via the relation.

        self.facts[(entity1, relation)] = entity2

    def infer(self, entity, *relations):
        # Infer the resulting entity by traversing the relations starting from the given entity.

        # :param entity: The starting entity.
        # :param relations: A chain of relations to traverse.
        # :return: The resulting entity after applying the relations, or None if no such path exists.

        current_entity = entity
        for relation in relations:
            key = (current_entity, relation)
            if key in self.facts:
                current_entity = self.facts[key]
            else:
                # If the path does not exist, return None.
                return None
        return current_entity
'''


def _render_python_dynamic(chain: ReasoningInstance) -> str:
    hops = chain.hops
    n = len(hops)
    lines = [DYNAMIC_PREAMBLE]
    lines.append("# Example usage:")
    lines.append("# Create a knowledge base instance.")
    lines.append("kb = KnowledgeBase()")
    lines.append("")

    lines.append("# Step 2. Define entities and relationships")
    lines.append(f"e1 = '{_in_py_str(chain.start)}'")
    for i, hop in enumerate(hops, start=1):
        lines.append(f"r{i} = '{_in_py_str(hop.relation)}'")
        lines.append(f"e{i + 1} = '{_in_py_str(hop.tail)}'")
    lines.append("")

    lines.append("# Add entities and relationships to the knowledge base.")
    for i in range(1, n + 1):
        lines.append(f"kb.add_fact(e{i}, r{i}, e{i + 1})")
    lines.append("")

    lines.append("# Step 3. Perform inference.")
    infer_lines: list[tuple[str, str]] = []
    for i, (head, relation, tail) in enumerate(hops, start=1):
        infer_lines.append(
            (
                f"result{i} = kb.infer(e{i}, r{i})",
                f"# Should return {tail}, ({head}, {relation}) -> {tail}",
            )
        )
    if n >= 2:
        args = ", ".join(["e1"] + [f"r{i}" for i in range(1, n + 1)])
        path = ", ".join(
            f"({head}, {relation}) -> {tail}" for head, relation, tail in hops
        )
        infer_lines.append(
            (
                f"result{n + 1} = kb.infer({args})",
                f"# Should return {chain.answer}, {path}",
            )
        )
    width = max(len(code) for code, _ in infer_lines) + 6
    for code, comment in infer_lines:
        lines.append(code.ljust(width) + comment)
    lines.append("")

    lines.append("# Output the result")
    print_lines: list[tuple[str, str]] = []
    for i, (head, relation, tail) in enumerate(hops, start=1):
        print_lines.append(
            (
                f"print(result{i})",
                f"# Output: {tail} is related to {head} through {relation}",
            )
        )
    if n >= 2:
        *firsts, last = chain.relations
        print_lines.append(
            (
                f"print(result{n + 1})",
                f"# Output: {chain.answer} is related to "
                f"{chain.start} through {', '.join(firsts)} and {last}",
            )
        )
    pwidth = max(len(code) for code, _ in print_lines) + 2
    for code, comment in print_lines:
        lines.append(code.ljust(pwidth) + comment)
    return "\n".join(lines)


_RENDERERS = {
    RepresentationTag.NATURAL_LANGUAGE: _render_natural_language,
    RepresentationTag.JSON: _render_json,
    RepresentationTag.PYTHON_STATIC: _render_python_static,
    RepresentationTag.PYTHON_DYNAMIC: _render_python_dynamic,
}


def wrap_answer_envelope(body: str, tag: RepresentationTag, answer: str) -> str:
    """The ``{"Answer": ..., <body key>: ...}`` object literal the model is
    asked to emit; "Answer" always comes first.  The bytes are those of
    ``json.dumps`` of that dict, joined from the encoded strings.
    """
    return (f'{{"Answer": {_json_string(answer)}, '
            f'{_json_string(ENVELOPE_BODY_KEY[tag])}: {_json_string(body)}}}')


def in_json(text: str) -> str:
    """``text`` inside a JSON string, less the quotes."""
    return _json_string(text)[1:-1]


# How a body spells a label, less the quotes it keeps: as it is, in a Python
# string literal, in a JSON string.  Each spells a plain label (printable
# ASCII without ``"``, ``'`` or ``\\``) as it is.
SPELLINGS = (str, _in_py_str, in_json)
# Label k of a template chain.  Each spelling spells its NUL, quotes and
# backslash differently, so a slot's own bytes tell its spelling.  Label k
# of the check chain differs in its first byte alone: a text spelling a
# label some other way than a slot differs between the two chains.
_placeholder = "\0{}'\"\\".format
_check_placeholder = "\1{}'\"\\".format
_TEMPLATE_CACHE_SIZE = 256  # (representation, shape) pairs; a dataset has few
_CODE_TAGS = (RepresentationTag.PYTHON_STATIC, RepresentationTag.PYTHON_DYNAMIC)


def build_template(make, shape, spellings):
    """``(fmt, pick, used)``: the text ``make`` gives a chain of ``shape`` is
    ``fmt % pick(spell(its labels, template))``, found by making it from a
    chain of placeholders and from a check chain.  ``used`` holds the
    spellings of ``spellings`` other than ``str`` that its slots use.  None
    when ``make`` raises (an ambiguous fact), names no label, or spells one
    outside the slots: then the two chains give different templates."""
    found = []  # (fmt, slots) of each chain
    for placeholder in (_placeholder, _check_placeholder):
        try:
            text = make(ReasoningInstance(tuple(map(placeholder, shape))))
        except ValueError:
            return None
        slot_re = re.compile("|".join(  # compiled on first use, then from re's cache
            "{}(\\d+){}".format(*map(re.escape, spelling(placeholder("#")).split("#")))
            for spelling in spellings))
        text = text.replace("%", "%%")  # no placeholder holds a %
        found.append((slot_re.sub("%s", text),
                      [(spellings[m.lastindex - 1], int(m[m.lastindex]))
                       for m in slot_re.finditer(text)]))
    (fmt, slots), check = found
    if not slots or check != (fmt, slots):
        return None
    used = list(dict.fromkeys(spelling for spelling, _ in slots if spelling is not str))
    return fmt, operator.itemgetter(*(
        k if spelling is str else (1 + used.index(spelling)) * len(shape) + k
        for spelling, k in slots)), tuple(used)


def spell(labels, template):
    """What ``template``'s pick reads for a chain with ``labels``: the
    labels, then the labels as each of its used spellings spells them.
    Every spelling spells a plain label as it is, so plain labels are not
    spelled.  None when a label holds a line break: that chain takes the
    line-built path, where code refuses it."""
    used = template[2]
    text = "".join(labels)
    if text.isascii() and text.isprintable() and not (
            '"' in text or "'" in text or "\\" in text):
        return labels * (1 + len(used))
    if "\n" in text or "\r" in text:
        return None
    texts = labels
    for spelling in used:
        texts += tuple(map(spelling, labels))
    return texts


@functools.lru_cache(maxsize=_TEMPLATE_CACHE_SIZE)
def _template(tag: RepresentationTag, shape: tuple[int, ...]):
    """The body template of a chain of ``shape`` in ``tag``."""
    return build_template(_RENDERERS[tag], shape, SPELLINGS)


def render(chain: ReasoningInstance, tag: RepresentationTag) -> RenderedExample:
    """Render a chain into one representation, deterministically.

    A chain's shape is which of its label positions hold equal labels, and
    it decides all a renderer branches on.  So each (representation, shape)
    is rendered once, on placeholder labels, into a template, and the body
    of every chain of that shape is that template filled with its labels,
    save a chain with a line break in a label, which renders line-built.
    """
    labels = chain.labels
    template = _template(tag, tuple(map(labels.index, labels)))
    texts = None if template is None else spell(labels, template)
    if texts is None:  # renders the real labels, so an error names them
        if tag in _CODE_TAGS:
            for label in labels:
                if "\n" in label or "\r" in label:
                    raise ValueError(f"label {label!r} contains a line break")
        body = _RENDERERS[tag](chain)
    else:
        fmt, pick, _ = template
        body = fmt % pick(texts)
    return RenderedExample(body, wrap_answer_envelope(body, tag, chain.answer))


# ---------------------------------------------------------------------------
# Parsing

_SENTENCE_END_RE = re.compile(r"(?<=\.)\s+")


def _parse_natural_language(body: str) -> tuple[tuple[str, str, str], ...]:
    # Split pieces neither start nor end with whitespace: the body is
    # stripped, and each split eats a whole whitespace run.  A hop sentence
    # is one line "The <rel> of <head> is <tail>", less one final "." when
    # the tail is longer; the first " of " and the first " is " after it
    # split it, each label at least one character (the tail is, as no
    # piece ends in a space): two scans, however many of each it holds.
    triplets = []
    for sentence in _SENTENCE_END_RE.split(body.strip()):
        if sentence.startswith("The ") and "\n" not in sentence:
            of = sentence.find(" of ", 5)
            is_ = sentence.find(" is ", of + 5)
            if 0 < of < is_:
                tail = sentence[is_ + 4:]
                if len(tail) > 1 and tail[-1] == ".":
                    tail = tail[:-1]
                triplets.append((sentence[of + 4:is_], sentence[4:of], tail))
                last = sentence
    # The summary sentence re-states the whole chain; drop it when present.
    if len(triplets) >= 2:
        prefix = triplets[:-1]
        if all(prefix[i][2] == prefix[i + 1][0] for i in range(len(prefix) - 1)):
            expected = composed_sentence([rel for _, rel, _ in prefix], prefix[0][0],
                                         triplets[-1][2])
            if last.rstrip(".") == expected.rstrip("."):
                return tuple(prefix)
    return tuple(triplets)


def _triplets_from_relation_map(obj) -> tuple[tuple[str, str, str], ...]:
    """Every (head, relation, tail) of a relation-keyed map whose three
    labels are strings; none for an object that is not a map."""
    if not isinstance(obj, dict):
        return ()
    return tuple(
        (head, rel, tail)
        for rel, inner in obj.items() if isinstance(rel, str) and isinstance(inner, dict)
        for head, tail in inner.items() if isinstance(head, str) and isinstance(tail, str)
    )


def _parse_json(body: str) -> tuple[tuple[str, str, str], ...]:
    return _triplets_from_relation_map(json.loads(body))


# The fields that hold statement lists.  Every node that has several of
# them lists them in this order in its ``_fields`` ("cases" never comes with
# another), and no expression holds a statement.
_BLOCK_FIELDS = ("body", "handlers", "orelse", "finalbody", "cases")


def _statements(tree: ast.Module) -> Iterator[ast.stmt]:
    """Every statement of a module in ``ast.walk`` order, visiting no
    expression.  Except handlers and match cases are stepped through so each
    statement keeps its walk depth, which fixes its place in the order.
    """
    import ast

    queue = deque(tree.body)
    while queue:
        node = queue.popleft()
        for name in _BLOCK_FIELDS:
            queue.extend(getattr(node, name, ()))
        if isinstance(node, ast.stmt):
            yield node


def _parse_python_static(body: str) -> tuple[tuple[str, str, str], ...]:
    import ast  # here, not at the top: only the code representations parse code

    mapping = None
    for node in _statements(ast.parse(body)):
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
    return _triplets_from_relation_map(mapping)


def _bindings_and_calls(nodes) -> tuple[dict[str, str], list[ast.Call]]:
    """The string bindings (later ones win) and the ``add_fact`` calls among
    ``nodes``, in order.
    """
    import ast

    bindings: dict[str, str] = {}
    calls = []
    for node in nodes:
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
        ):
            calls.append(node)
    return bindings, calls


def _parse_python_dynamic(body: str) -> tuple[tuple[str, str, str], ...]:
    import ast  # here, not at the top: only the code representations parse code

    # The preamble binds no string and calls no add_fact, and dropping its
    # top-level subtree keeps the walk order of every other node, so only
    # the text after it is parsed; when that text alone is a syntax error
    # (it continues the preamble's class), the whole body is parsed.
    tree = None
    if body.startswith(DYNAMIC_PREAMBLE):
        text = body[len(DYNAMIC_PREAMBLE):]
        try:
            tree = ast.parse(text)
        except SyntaxError:
            pass
    if tree is None:
        text = body
        tree = ast.parse(body)
    # Bindings are statements, and so are the calls of a rendered body.  When
    # the text spells "add_fact" once per statement-level call, no call hides
    # in an expression; ASCII text rules out identifiers that NFKC folds to
    # "add_fact".  Otherwise every node is walked.
    bindings, calls = _bindings_and_calls(
        node.value if isinstance(node, ast.Expr) else node
        for node in _statements(tree)
    )
    if not (text.isascii() and text.count("add_fact") == len(calls)):
        bindings, calls = _bindings_and_calls(ast.walk(tree))

    # Arguments resolve against the string bindings of the whole body, so
    # they are read only after every assignment has been seen.
    def resolve(node) -> str | None:
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value
        if isinstance(node, ast.Name):
            return bindings.get(node.id)
        return None

    triplets = []
    for call in calls:
        if len(call.args) != 3:
            continue
        head, rel, tail = (resolve(a) for a in call.args)
        if head is not None and rel is not None and tail is not None:
            triplets.append((head, rel, tail))
    return tuple(triplets)


_PARSERS = {
    RepresentationTag.NATURAL_LANGUAGE: _parse_natural_language,
    RepresentationTag.JSON: _parse_json,
    RepresentationTag.PYTHON_STATIC: _parse_python_static,
    RepresentationTag.PYTHON_DYNAMIC: _parse_python_dynamic,
}


def parse(tag: RepresentationTag, body: str) -> ParsedBody:
    """Extract the facts a body states, as ``(head, relation, tail)`` label
    strings.  A fact with a label that is not a string is skipped; a blank
    label is kept.  The judge reads the facts as an unordered set of
    (head, tail) pairs, so no chain order is recovered.

    Never raises on arbitrary text: a body that does not parse states no
    facts.
    """
    try:
        return ParsedBody(_PARSERS[tag](body))
    except Exception:  # model output can be anything
        return ParsedBody(())
