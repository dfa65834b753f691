"""Prompt construction for zero-shot, one-shot, and with-context evaluation.

Two query phrasings exist: the statement style completes "r2 of r1 of e1 is _"
and the question style asks "What is r2 of r1 of e1 ?".  Golden files under
``tests/golden/`` pin the exact byte sequences for every mode.
"""

from __future__ import annotations

import enum
import random
from collections import defaultdict, namedtuple

from .kg import ReasoningInstance
from .render import RepresentationTag, hop_sentences, render as render_instance


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


class PromptBundle(namedtuple("PromptBundle", "full_prompt")):
    """A built prompt: ``full_prompt`` is the whole text sent to the model.
    A one-field tuple rather than the bare string, because
    ``perfbench/run.py`` reads ``build_prompt(...).full_prompt``.
    """

    __slots__ = ()


def build_query(chain: ReasoningInstance, style: DatasetStyle) -> str:
    """Query text with relations outermost-last-hop-first."""
    core = " of ".join(reversed(chain.relations)) + f" of {chain.start}"
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


def _demonstration_lines(demonstration: ReasoningInstance, style: DatasetStyle,
                         representation: RepresentationTag) -> str:
    """What a one-shot prompt shows ahead of its query: the demonstration's
    query line, without instruction, then its envelope, each ending a line."""
    query_line = _query_line(style, build_query(demonstration, style), None)
    return f"{query_line}\n{render_instance(demonstration, representation).envelope}\n"


def build_prompt(
    chain: ReasoningInstance,
    mode: PromptMode,
    style: DatasetStyle,
    representation: RepresentationTag | None = None,
    demonstration: ReasoningInstance | None = None,
) -> PromptBundle:
    """Assemble the full prompt for one chain.

    One-shot mode needs a representation and a demonstration chain, which it
    renders in that representation.  With-context mode states the chain's
    hops as the context.
    """
    query = build_query(chain, style)
    instruction = _instruction(style, representation)
    if mode is PromptMode.ZERO_SHOT:
        full = _query_line(style, query, instruction)
    elif mode is PromptMode.ONE_SHOT:
        if representation is None or demonstration is None:
            raise ValueError("one-shot prompting needs a representation and a demonstration")
        full = (_demonstration_lines(demonstration, style, representation)
                + _query_line(style, query, instruction))
    elif mode is PromptMode.WITH_CONTEXT:
        context = " ".join(hop_sentences(chain))
        if style is DatasetStyle.STATEMENT:
            full = (
                f"Given context: {context} and the uncompleted statement: "
                f"{query} , {instruction}"
            )
        else:
            full = f"Given context: {context} and the question: {query} {instruction}"
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return PromptBundle(full)


class DemonstrationPool:
    """One-shot demonstration candidates, indexed by start entity and by
    answer, so a pick steps over only the candidates that would leak the
    query instead of scanning the whole pool.
    """

    def __init__(self, pool: list[ReasoningInstance]):
        self.pool = pool
        # entity -> ascending pool positions
        self._by_start: dict[str, list[int]] = defaultdict(list)
        self._by_answer: dict[str, list[int]] = defaultdict(list)
        for position, candidate in enumerate(pool):
            self._by_start[candidate.start].append(position)
            self._by_answer[candidate.answer].append(position)
        # Keyed by what a draw and a rendering depend on, never by the excluded set.
        self._draws: dict[tuple[int, int], int] = {}
        self._shown: dict[tuple[int, DatasetStyle, RepresentationTag], str] = {}

    def _position(self, query: ReasoningInstance, seed: int) -> int:
        excluded = sorted({*self._by_start.get(query.start, ()),
                           *self._by_answer.get(query.answer, ())})
        n_eligible = len(self.pool) - len(excluded)
        if not n_eligible:
            raise ValueError(
                "no demonstration in the pool avoids the query's start entity "
                f"{query.start!r} and answer {query.answer!r}"
            )
        position = self._draws.get((seed, n_eligible))
        if position is None:
            position = self._draws[seed, n_eligible] = random.Random(seed).randrange(n_eligible)
        for skipped in excluded:
            if skipped > position:
                break
            position += 1
        return position

    def pick(self, query: ReasoningInstance, seed: int) -> ReasoningInstance:
        """Seeded uniform pick among the instances that share neither the
        query's start entity nor its final answer.  Draws exactly what
        ``random.Random(seed).choice(eligible)`` draws over the eligible
        instances in pool order.  Raises ValueError when none is left.
        """
        return self.pool[self._position(query, seed)]

    def prompt(self, query: ReasoningInstance, seed: int, style: DatasetStyle,
               representation: RepresentationTag) -> str:
        """The one-shot prompt ``build_prompt`` makes for ``query`` with the
        demonstration ``pick`` draws.  Each demonstration is rendered once per
        style and representation; an error names both records.
        """
        key = (self._position(query, seed), style, representation)
        if key not in self._shown:
            demonstration = self.pool[key[0]]
            try:
                self._shown[key] = _demonstration_lines(demonstration, style, representation)
            except ValueError as exc:
                raise ValueError(f"record {query.source_id}: demonstration record "
                                 f"{demonstration.source_id}: {exc}") from exc
        zero_shot = build_prompt(query, PromptMode.ZERO_SHOT, style, representation)
        return self._shown[key] + zero_shot.full_prompt
