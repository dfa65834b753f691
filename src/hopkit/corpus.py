"""The fine-tuning corpus as JSON lines, filled from per-shape templates.
``dataset.build_finetune_corpus`` imports it on first use, so only the
corpus command compiles it.

A line depends on its chain only through the chain's shape (see
``render.render``) and its label text.  So each (representation, style,
prefix shape) is built once, as ``pair_line`` builds a pair, from a chain
of placeholder labels, into a template of literal text and label slots,
and every pair of that shape is then one ``%``.
"""

from __future__ import annotations

import functools
import itertools
import json
from collections.abc import Iterable, Iterator
from json.encoder import encode_basestring_ascii as _json_string
from operator import itemgetter

from . import dataset, prompts
from .kg import ReasoningInstance
from .prompts import DatasetStyle
from .render import _CODE_TAGS, RepresentationTag, _placeholder, _py_str, _slotted


def pair_line(chain: ReasoningInstance, representation: RepresentationTag,
              style: DatasetStyle) -> str:
    """The training pair of ``chain`` as ``json.dumps`` writes it, rendered
    and prompted: what templates are built from, and the path of a record
    that no template fills.  Both calls go through their modules, where a
    tracer wraps them."""
    prompt = prompts.build_prompt(chain, mode=prompts.PromptMode.ZERO_SHOT, style=style,
                                  representation=representation).full_prompt
    return json.dumps({"prompt": prompt,
                       "response": dataset.render_instance(chain, representation).envelope,
                       "hops": chain.n_hops, "representation": representation.value})


def _in_line(text: str) -> str:
    return _json_string(text)[1:-1]


# How a line spells a label, less the quotes its template keeps, so that
# each spells a plain label as it is: in the line's JSON string (the
# prompt), in the answer envelope's (answer, sentences, code comments), in
# a Python string literal of the body, in a JSON string of the body.
LINE_KINDS = (_in_line, lambda text: _in_line(_in_line(text)),
              lambda text: _in_line(_in_line(_py_str(text)[1:-1])),
              lambda text: _in_line(_in_line(_in_line(text))))


def _template(representation: RepresentationTag, style: DatasetStyle,
              shape: tuple[int, ...]):
    """``(fmt, slots)``: the line of a chain of ``shape`` is ``fmt`` with its
    i-th ``%s`` filled by label k as ``LINE_KINDS[e]`` spells it, where
    ``slots[i]`` is ``(e, k)``.  None when a chain of placeholders does not
    render (an ambiguous fact) or a NUL is left outside the slots."""
    try:
        line = pair_line(ReasoningInstance(tuple(map(_placeholder, shape))),
                         representation, style)
    except ValueError:
        return None
    return _slotted(line, LINE_KINDS)


def lines(records: Iterable[ReasoningInstance], representation: RepresentationTag,
          style: DatasetStyle) -> Iterator[str]:
    """What ``dataset.build_finetune_corpus`` yields.  A record whose labels
    are all printable ASCII without ``"``, ``'`` or ``\\`` is spelled the same
    by every kind, so it fills with no escaping.  A shape whose chain does
    not render and a code label with a line break take ``pair_line`` on the
    real labels, so the error names them."""
    template = functools.lru_cache(maxsize=None)(
        functools.partial(_template, representation, style))
    by_shape: dict[tuple[int, ...], list] = {}  # chain shape -> its prefixes' (fmt, pick)
    code = representation in _CODE_TAGS
    for record in records:
        labels = record.labels
        shape = tuple(map(labels.index, labels))
        templates = by_shape.get(shape)
        if templates is None:
            found = [template(shape[:end]) for end in range(3, len(shape) + 1, 2)]
            templates = by_shape[shape] = [] if None in found else [
                (fmt, itemgetter(*(kind * len(shape) + k for kind, k in slots)))
                for fmt, slots in found]
        text = "".join(labels)
        if text.isascii() and text.isprintable() and not (
                '"' in text or "'" in text or "\\" in text):
            texts = labels * len(LINE_KINDS)
        elif code and ("\n" in text or "\r" in text):
            templates = []
        else:
            texts = tuple(itertools.chain.from_iterable(
                map(kind, labels) for kind in LINE_KINDS))
        if templates:
            for fmt, pick in templates:
                yield fmt % pick(texts)
            continue
        for end in range(3, len(labels) + 1, 2):
            try:
                line = pair_line(ReasoningInstance(labels[:end], record.source_id),
                                 representation, style)
            except ValueError as exc:
                raise ValueError(f"record {record.source_id}: {exc}") from exc
            yield line
