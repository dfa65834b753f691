"""Render reasoning chains into the four text representations and parse them
back.

The four formats are: plain natural-language sentences, a relation-keyed
nested JSON map, a static Python dict with chained lookups, and a dynamic
Python knowledge-base class with an iterative ``infer`` routine.  Rendered
code uses 4-space indentation and ``\\n`` line endings; the golden files under
``tests/golden/`` pin the exact bytes.
"""

from __future__ import annotations

import ast
import enum
import json
import re
from dataclasses import dataclass

from .kg import Entity, Relation, ReasoningInstance, Triplet, validate_instance


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


class RenderError(ValueError):
    pass


@dataclass(frozen=True)
class RenderedExample:
    """A chain rendered in one representation, plus its answer envelope."""

    tag: RepresentationTag
    body: str
    answer: Entity
    envelope: str
    source_chain: ReasoningInstance | None = None


@dataclass(frozen=True)
class ParsedBody:
    """Triplets recovered from a representation-formatted text.

    ``triplets`` is empty and ``diagnostic`` set when the body cannot be
    parsed; parsing never raises on bad input.
    """

    triplets: tuple[Triplet, ...]
    diagnostic: str | None = None


def _py_str(label: str) -> str:
    """Single-quoted Python string literal for a label."""
    return "'" + label.replace("\\", "\\\\").replace("'", "\\'") + "'"


def _check_chain(chain: ReasoningInstance) -> None:
    problems = validate_instance(chain)
    if problems:
        raise RenderError("; ".join(problems))


def _check_code_safe(chain: ReasoningInstance) -> None:
    for hop in chain.hops:
        for label in (hop.head.label, hop.relation.label, hop.tail.label):
            if "\n" in label or "\r" in label:
                raise RenderError(f"label {label!r} contains a line break")


def composed_sentence(chain: ReasoningInstance, final: str | None = None) -> str:
    """The one-sentence summary, e.g.
    "The spouse of the composer of It Goes Like It Goes is Didi Conn."
    """
    rels = [r.label for r in chain.relations]
    prefix = "The " + " of the ".join(reversed(rels))
    return f"{prefix} of {chain.start.label} is {final or chain.answer.label}."


def hop_sentences(chain: ReasoningInstance) -> list[str]:
    """One sentence per hop, e.g. "The spouse of David Shire is Didi Conn." """
    return [
        f"The {hop.relation.label} of {hop.head.label} is {hop.tail.label}."
        for hop in chain.hops
    ]


def _render_natural_language(chain: ReasoningInstance) -> str:
    sentences = hop_sentences(chain)
    if chain.n_hops >= 2:
        sentences.append(composed_sentence(chain))
    return " ".join(sentences)


def _relation_map(chain: ReasoningInstance) -> dict[str, dict[str, str]]:
    """Relation-keyed nested map; same-relation hops merge under one key."""
    mapping: dict[str, dict[str, str]] = {}
    for hop in chain.hops:
        inner = mapping.setdefault(hop.relation.label, {})
        existing = inner.get(hop.head.label)
        if existing is not None and existing != hop.tail.label:
            raise RenderError(
                f"ambiguous fact: ({hop.head.label!r}, {hop.relation.label!r}) "
                f"maps to both {existing!r} and {hop.tail.label!r}"
            )
        inner[hop.head.label] = hop.tail.label
    return mapping


def _render_json(chain: ReasoningInstance) -> str:
    return json.dumps(_relation_map(chain), indent=4)


def _render_python_static(chain: ReasoningInstance) -> str:
    _check_code_safe(chain)
    mapping = _relation_map(chain)
    lines = ["# Step 1. Define relationships with explicit types", "relationships = {"]
    rel_items = list(mapping.items())
    for i, (rel, inner) in enumerate(rel_items):
        lines.append(f"    {_py_str(rel)}: {{")
        entries = list(inner.items())
        for j, (head, tail) in enumerate(entries):
            comma = "," if j < len(entries) - 1 else ""
            lines.append(
                f"        {_py_str(head)}: {_py_str(tail)}{comma}"
                f"  # {head} is related to {tail} via relationship {rel}"
            )
        lines.append("    }" + ("," if i < len(rel_items) - 1 else ""))
    lines.append("}")
    lines.append("")

    lines.append("# Define entities and relationships")
    lines.append(f"e1 = {_py_str(chain.start.label)}")
    for i, rel in enumerate(chain.relations, start=1):
        lines.append(f"r{i} = {_py_str(rel.label)}")
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
    lines.append("# " + composed_sentence(chain)[:-1])
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


def _and_join(items: list[str]) -> str:
    if len(items) == 1:
        return items[0]
    return ", ".join(items[:-1]) + " and " + items[-1]


def _render_python_dynamic(chain: ReasoningInstance) -> str:
    _check_code_safe(chain)
    n = chain.n_hops
    lines = [DYNAMIC_PREAMBLE]
    lines.append("# Example usage:")
    lines.append("# Create a knowledge base instance.")
    lines.append("kb = KnowledgeBase()")
    lines.append("")

    lines.append("# Step 2. Define entities and relationships")
    lines.append(f"e1 = {_py_str(chain.start.label)}")
    for i, hop in enumerate(chain.hops, start=1):
        lines.append(f"r{i} = {_py_str(hop.relation.label)}")
        lines.append(f"e{i + 1} = {_py_str(hop.tail.label)}")
    lines.append("")

    lines.append("# Add entities and relationships to the knowledge base.")
    for i in range(1, n + 1):
        lines.append(f"kb.add_fact(e{i}, r{i}, e{i + 1})")
    lines.append("")

    lines.append("# Step 3. Perform inference.")
    infer_lines: list[tuple[str, str]] = []
    for i, hop in enumerate(chain.hops, start=1):
        infer_lines.append(
            (
                f"result{i} = kb.infer(e{i}, r{i})",
                f"# Should return {hop.tail.label}, "
                f"({hop.head.label}, {hop.relation.label}) -> {hop.tail.label}",
            )
        )
    if n >= 2:
        args = ", ".join(["e1"] + [f"r{i}" for i in range(1, n + 1)])
        path = ", ".join(
            f"({hop.head.label}, {hop.relation.label}) -> {hop.tail.label}"
            for hop in chain.hops
        )
        infer_lines.append(
            (
                f"result{n + 1} = kb.infer({args})",
                f"# Should return {chain.answer.label}, {path}",
            )
        )
    width = max(len(code) for code, _ in infer_lines) + 6
    for code, comment in infer_lines:
        lines.append(code.ljust(width) + comment)
    lines.append("")

    lines.append("# Output the result")
    print_lines: list[tuple[str, str]] = []
    for i, hop in enumerate(chain.hops, start=1):
        print_lines.append(
            (
                f"print(result{i})",
                f"# Output: {hop.tail.label} is related to {hop.head.label} "
                f"through {hop.relation.label}",
            )
        )
    if n >= 2:
        rels = _and_join([r.label for r in chain.relations])
        print_lines.append(
            (
                f"print(result{n + 1})",
                f"# Output: {chain.answer.label} is related to "
                f"{chain.start.label} through {rels}",
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


def wrap_answer_envelope(body: str, tag: RepresentationTag, answer: Entity) -> str:
    """The ``{"Answer": ..., <body key>: ...}`` object literal the model is
    asked to emit; "Answer" always comes first.
    """
    return json.dumps({"Answer": answer.label, ENVELOPE_BODY_KEY[tag]: body})


def render(chain: ReasoningInstance, tag: RepresentationTag) -> RenderedExample:
    """Render a valid chain into one representation, deterministically."""
    _check_chain(chain)
    body = _RENDERERS[tag](chain)
    return RenderedExample(
        tag=tag,
        body=body,
        answer=chain.answer,
        envelope=wrap_answer_envelope(body, tag, chain.answer),
        source_chain=chain,
    )


# ---------------------------------------------------------------------------
# Parsing

_SENTENCE_RE = re.compile(r"^The (.+?) of (.+?) is (.+?)\.?$")


def _parse_natural_language(body: str) -> ParsedBody:
    sentences = [s for s in re.split(r"(?<=\.)\s+", body.strip()) if s]
    matches = []
    for sentence in sentences:
        m = _SENTENCE_RE.match(sentence.strip())
        if m:
            matches.append((sentence.strip(), m.groups()))
    if not matches:
        return ParsedBody((), diagnostic="no hop sentences found")
    triplets = [
        Triplet(Entity(head), Relation(rel), Entity(tail))
        for _, (rel, head, tail) in matches
    ]
    # The summary sentence re-states the whole chain; drop it when present.
    if len(triplets) >= 2:
        prefix = ReasoningInstance(hops=tuple(triplets[:-1]))
        if not validate_instance(prefix):
            raw_last = matches[-1][0]
            expected = composed_sentence(prefix, final=triplets[-1].tail.label)
            if raw_last.rstrip(".") == expected.rstrip("."):
                return ParsedBody(tuple(triplets[:-1]))
    return ParsedBody(tuple(triplets))


def _triplets_from_relation_map(obj) -> tuple[Triplet, ...]:
    triplets = []
    if not isinstance(obj, dict):
        raise ValueError("expected a relation-keyed object")
    for rel, inner in obj.items():
        if not isinstance(inner, dict):
            continue
        for head, tail in inner.items():
            if isinstance(head, str) and isinstance(tail, str):
                triplets.append(Triplet(Entity(head), Relation(rel), Entity(tail)))
    return tuple(triplets)


def _parse_json(body: str) -> ParsedBody:
    try:
        return ParsedBody(_triplets_from_relation_map(json.loads(body)))
    except ValueError as exc:
        return ParsedBody((), diagnostic=str(exc))


def _parse_python_static(body: str) -> ParsedBody:
    try:
        tree = ast.parse(body)
    except SyntaxError as exc:
        return ParsedBody((), diagnostic=f"syntax error: {exc}")
    mapping = None
    for node in ast.walk(tree):
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
    if not isinstance(mapping, dict):
        return ParsedBody((), diagnostic="no relationships literal found")
    try:
        return ParsedBody(_triplets_from_relation_map(mapping))
    except ValueError as exc:
        return ParsedBody((), diagnostic=str(exc))


def _parse_python_dynamic(body: str) -> ParsedBody:
    # The preamble binds no string and calls no add_fact, and dropping its
    # top-level subtree keeps the walk order of every other node, so only
    # the text after it is parsed; when that text alone is a syntax error
    # (it continues the preamble's class), the whole body is parsed.
    tree = None
    if body.startswith(DYNAMIC_PREAMBLE):
        try:
            tree = ast.parse(body[len(DYNAMIC_PREAMBLE):])
        except SyntaxError:
            pass
    if tree is None:
        try:
            tree = ast.parse(body)
        except SyntaxError as exc:
            return ParsedBody((), diagnostic=f"syntax error: {exc}")
    # Arguments resolve against the string bindings of the whole body, so
    # they are read only after the walk has seen every assignment.
    bindings: dict[str, str] = {}
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

    def resolve(node) -> str | None:
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value
        if isinstance(node, ast.Name):
            return bindings.get(node.id)
        return None

    triplets = []
    for args in fact_args:
        head, rel, tail = (resolve(a) for a in args)
        if head is not None and rel is not None and tail is not None:
            triplets.append(Triplet(Entity(head), Relation(rel), Entity(tail)))
    if not triplets:
        return ParsedBody((), diagnostic="no add_fact calls found")
    return ParsedBody(tuple(triplets))


_PARSERS = {
    RepresentationTag.NATURAL_LANGUAGE: _parse_natural_language,
    RepresentationTag.JSON: _parse_json,
    RepresentationTag.PYTHON_STATIC: _parse_python_static,
    RepresentationTag.PYTHON_DYNAMIC: _parse_python_dynamic,
}


def parse(tag: RepresentationTag, body: str) -> ParsedBody:
    """Extract the hop triplets a body states.  The judge reads them as an
    unordered set of (head, tail) pairs, so no chain order is recovered.

    Never raises on arbitrary text; failures come back as an empty triplet
    list with a diagnostic.
    """
    try:
        return _PARSERS[tag](body)
    except Exception as exc:  # defensive: model output can be anything
        return ParsedBody((), diagnostic=f"unexpected parse failure: {exc}")
