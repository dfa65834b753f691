"""The fine-tuning corpus as JSON lines, filled from per-shape templates.
``dataset.build_finetune_corpus`` imports it on first use, so only the
corpus command compiles it.

A line depends on its chain only through the chain's shape (see
``render.render``) and its label text.  So for each (representation,
style, chain shape), ``render.build_template``, the builder of the body
templates, builds one template per prefix from ``pair_line`` on a chain of
placeholder labels.  A record is then spelled once by ``render.spell``,
and each of its pairs is one ``%``.
"""

from __future__ import annotations

import functools
import json
from collections.abc import Iterable, Iterator

from . import dataset, prompts
from .kg import ReasoningInstance
from .prompts import DatasetStyle
from .render import SPELLINGS, RepresentationTag, build_template, in_json, spell


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


# How a line spells a label, less the quotes its template keeps: in the
# line's JSON string (the prompt), and, around each way a body spells it,
# in the answer envelope's JSON string inside the line's.
LINE_SPELLINGS = (in_json, *(lambda text, spelling=spelling: in_json(in_json(spelling(text)))
                             for spelling in SPELLINGS))


def lines(records: Iterable[ReasoningInstance], representation: RepresentationTag,
          style: DatasetStyle) -> Iterator[str]:
    """What ``dataset.build_finetune_corpus`` yields.  A record that no
    template fills (its chain does not render, or ``render.spell`` sends it
    down the line-built path) takes ``pair_line`` on the real labels, so an
    error names them."""
    def prefix_line(end, chain):
        return pair_line(ReasoningInstance(chain.labels[:end], chain.source_id),
                         representation, style)

    # chain shape -> its prefixes' templates, built on the whole chain so
    # one spelling of a record fills them all; none if a prefix does not
    # render or they spell labels in different ways
    by_shape: dict[tuple[int, ...], list] = {}
    for record in records:
        labels = record.labels
        shape = tuple(map(labels.index, labels))
        templates = by_shape.get(shape)
        if templates is None:
            found = [build_template(functools.partial(prefix_line, end), shape, LINE_SPELLINGS)
                     for end in range(3, len(shape) + 1, 2)]
            templates = by_shape[shape] = [] if None in found or len(
                {used for _, _, used in found}) > 1 else found
        texts = spell(labels, templates[-1]) if templates else None
        if texts is not None:
            for fmt, pick, _ in templates:
                yield fmt % pick(texts)
            continue
        for end in range(3, len(labels) + 1, 2):
            try:
                line = prefix_line(end, record)
            except ValueError as exc:
                raise ValueError(f"record {record.source_id}: {exc}") from exc
            yield line
