"""Prompt construction for zero-shot, one-shot, and with-context evaluation.

Two query phrasings exist: the statement style completes "r2 of r1 of e1 is _"
and the question style asks "What is r2 of r1 of e1 ?".  ``query_readings``
reads a prompt's query back, so this module alone knows the wording.  Golden
files under ``tests/golden/`` pin the exact byte sequences for every mode.
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


def query_readings(prompt: str):
    """Each (relations in traversal order, start entity) reading of the last
    query in ``prompt``: one-shot prompts hold the demonstration's query
    too, so only the later marker with its terminator counts.  A core like
    "spouse of composer of It Goes Like It Goes" names the relations
    outermost first, and an entity label may hold " of ", so every split
    point is a reading."""
    found = []  # (marker position, query core) of each marker with a terminator
    for marker, terminator in (("statement: ", " is _"), ("question: What is ", " ?")):
        pos = prompt.rfind(marker)
        end = prompt.find(terminator, pos + len(marker))
        if pos >= 0 and end >= 0:
            found.append((pos, prompt[pos + len(marker):end]))
    tokens = max(found)[1].split(" of ") if found else ()
    for i in range(1, len(tokens)):
        yield tokens[i - 1::-1], " of ".join(tokens[i:])


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
    """One-shot demonstration candidates, drawn with one command's seed and
    shown in its style and representation, indexed by start entity and by
    answer so a pick steps over only the candidates that would leak the query.
    """

    def __init__(self, pool: list[ReasoningInstance], seed: int, style: DatasetStyle,
                 representation: RepresentationTag):
        self.pool = pool
        self.seed, self.style, self.representation = seed, style, representation
        # entity -> ascending pool positions
        self._by_start: dict[str, list[int]] = defaultdict(list)
        self._by_answer: dict[str, list[int]] = defaultdict(list)
        for position, candidate in enumerate(pool):
            self._by_start[candidate.start].append(position)
            self._by_answer[candidate.answer].append(position)
        # Keyed by what a draw and a rendering depend on, never by the excluded set.
        self._draws: dict[int, int] = {}  # eligible count -> drawn index
        self._shown: dict[int, str] = {}  # pool position -> demonstration lines

    def _position(self, query: ReasoningInstance) -> int:
        """The pool position of a seeded uniform pick among the instances that
        share neither the query's start entity nor its final answer.  Draws
        exactly what ``random.Random(seed).choice(eligible)`` draws over the
        eligible instances in pool order.  Raises ValueError when none is left.
        """
        excluded = sorted({*self._by_start.get(query.start, ()),
                           *self._by_answer.get(query.answer, ())})
        n_eligible = len(self.pool) - len(excluded)
        if not n_eligible:
            raise ValueError(
                "no demonstration in the pool avoids the query's start entity "
                f"{query.start!r} and answer {query.answer!r}"
            )
        position = self._draws.get(n_eligible)
        if position is None:
            position = self._draws[n_eligible] = random.Random(self.seed).randrange(n_eligible)
        for skipped in excluded:
            if skipped > position:
                break
            position += 1
        return position

    def prompt(self, query: ReasoningInstance) -> str:
        """The one-shot prompt ``build_prompt`` makes for ``query`` with the
        demonstration ``_position`` draws.  Each demonstration is rendered
        once; an error names both records.
        """
        position = self._position(query)
        if position not in self._shown:
            demonstration = self.pool[position]
            try:
                self._shown[position] = _demonstration_lines(demonstration, self.style,
                                                             self.representation)
            except ValueError as exc:
                raise ValueError(f"record {query.source_id}: demonstration record "
                                 f"{demonstration.source_id}: {exc}") from exc
        zero_shot = build_prompt(query, PromptMode.ZERO_SHOT, self.style, self.representation)
        return self._shown[position] + zero_shot.full_prompt
