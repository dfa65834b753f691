"""Prompt construction for zero-shot, one-shot, and with-context evaluation.

Two query phrasings exist: the statement style completes "r2 of r1 of e1 is _"
and the question style asks "What is r2 of r1 of e1 ?".  Golden files under
``tests/golden/`` pin the exact byte sequences for every mode.
"""

from __future__ import annotations

import enum
import random
from collections import defaultdict
from dataclasses import dataclass

from .kg import Entity, ReasoningInstance
from .render import RenderedExample, RepresentationTag


class DatasetStyle(str, enum.Enum):
    STATEMENT = "statement"
    QUESTION = "question"


class PromptMode(str, enum.Enum):
    ZERO_SHOT = "zero_shot"
    ONE_SHOT = "one_shot"
    WITH_CONTEXT = "with_context"


# What the model is asked to generate alongside the answer.
_GENERATION_TARGET = {
    None: "explanation",
    RepresentationTag.NATURAL_LANGUAGE: "explanation",
    RepresentationTag.JSON: "JSON structure",
    RepresentationTag.PYTHON_STATIC: "python code",
    RepresentationTag.PYTHON_DYNAMIC: "python code",
}


@dataclass(frozen=True)
class PromptBundle:
    mode: PromptMode
    style: DatasetStyle
    representation: RepresentationTag | None
    demonstration: RenderedExample | None
    context: str | None
    query_text: str
    full_prompt: str


def build_query(chain: ReasoningInstance, style: DatasetStyle) -> str:
    """Query text with relations outermost-last-hop-first."""
    rels = [r.label for r in chain.relations]
    core = " of ".join(reversed(rels)) + f" of {chain.start.label}"
    if style is DatasetStyle.STATEMENT:
        return f"{core} is _"
    return f"What is {core} ?"


def _instruction(style: DatasetStyle, representation: RepresentationTag | None) -> str:
    target = _GENERATION_TARGET[representation]
    if style is DatasetStyle.STATEMENT:
        return f"provide answer and generate {target} for completing the statement"
    return f"generate {target} and provide answer to the question"


def _query_line(style: DatasetStyle, query: str, instruction: str | None) -> str:
    if style is DatasetStyle.STATEMENT:
        line = f"Given the incomplete statement: {query} ,"
        return f"{line} {instruction}" if instruction else line
    line = f"Given the question: {query}"
    return f"{line} {instruction}" if instruction else line


def build_prompt(
    chain: ReasoningInstance,
    mode: PromptMode,
    style: DatasetStyle,
    representation: RepresentationTag | None = None,
    demonstration: RenderedExample | None = None,
    context: str | None = None,
) -> PromptBundle:
    """Assemble the full prompt for one chain.

    One-shot mode requires a representation and a rendered demonstration;
    with-context mode requires the context text.
    """
    query = build_query(chain, style)
    instruction = _instruction(style, representation)
    if mode is PromptMode.ZERO_SHOT:
        full = _query_line(style, query, instruction)
    elif mode is PromptMode.ONE_SHOT:
        if representation is None or demonstration is None:
            raise ValueError("one-shot prompting needs a representation and a demonstration")
        if demonstration.tag is not representation:
            raise ValueError(
                f"demonstration is {demonstration.tag.value}, prompt wants "
                f"{representation.value}"
            )
        demo_chain_query = demonstration_query(demonstration, style)
        full = "\n".join([
            _query_line(style, demo_chain_query, None),
            demonstration.envelope,
            _query_line(style, query, instruction),
        ])
    elif mode is PromptMode.WITH_CONTEXT:
        if context is None:
            raise ValueError("with-context prompting needs the context text")
        if style is DatasetStyle.STATEMENT:
            full = (
                f"Given context: {context} and the uncompleted statement: "
                f"{query} , {instruction}"
            )
        else:
            full = f"Given context: {context} and the question: {query} {instruction}"
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return PromptBundle(
        mode=mode,
        style=style,
        representation=representation,
        demonstration=demonstration,
        context=context,
        query_text=query,
        full_prompt=full,
    )


def demonstration_query(demonstration: RenderedExample, style: DatasetStyle) -> str:
    """Query text for a demonstration, recovered from its rendered source."""
    if demonstration.source_chain is None:
        raise ValueError("demonstration lacks its source chain")
    return build_query(demonstration.source_chain, style)


class DemonstrationPool:
    """One-shot demonstration candidates, indexed by start entity and by
    answer, so a pick steps over only the candidates that would leak the
    query instead of scanning the whole pool.
    """

    def __init__(self, pool: list[ReasoningInstance]):
        self.pool = pool
        # entity -> ascending pool positions
        self._by_start: dict[Entity, list[int]] = defaultdict(list)
        self._by_answer: dict[Entity, list[int]] = defaultdict(list)
        for position, candidate in enumerate(pool):
            self._by_start[candidate.start].append(position)
            self._by_answer[candidate.answer].append(position)

    def pick(self, query: ReasoningInstance, seed: int) -> ReasoningInstance:
        """Seeded uniform pick among the instances that share neither the
        query's start entity nor its final answer.  Draws exactly what
        ``random.Random(seed).choice(eligible)`` draws over the eligible
        instances in pool order.  Raises ValueError when none is left.
        """
        excluded = sorted({*self._by_start.get(query.start, ()),
                           *self._by_answer.get(query.answer, ())})
        n_eligible = len(self.pool) - len(excluded)
        if not n_eligible:
            raise ValueError(
                "no demonstration in the pool avoids the query's start entity "
                f"{query.start.label!r} and answer {query.answer.label!r}"
            )
        position = random.Random(seed).randrange(n_eligible)
        for skipped in excluded:
            if skipped > position:
                break
            position += 1
        return self.pool[position]


def pick_demonstration(
    pool: list[ReasoningInstance], query: ReasoningInstance, seed: int
) -> ReasoningInstance:
    """``DemonstrationPool(pool).pick(query, seed)``, for a single pick."""
    return DemonstrationPool(pool).pick(query, seed)
