"""Knowledge-graph core: triplets of label strings, reasoning chains, and
the hop-by-hop inference oracle.

Entities and relations are their labels, plain ``str``, and a chain is its
flat label tuple.  A knowledge graph is a ``dict`` mapping each
``(head, relation)`` key to exactly one tail.  Real knowledge bases have
multi-valued relations, but the datasets this toolkit targets are
single-answer, and a functional store keeps inference deterministic.
Conflicting rows are rejected upstream during ingestion (see
:mod:`hopkit.dataset`).
"""

from __future__ import annotations

from collections import namedtuple


class Triplet(namedtuple("Triplet", "head relation tail")):
    """One atomic fact, ``head --relation--> tail``, as three label strings.
    Also one reasoning hop."""

    __slots__ = ()


class ReasoningInstance(namedtuple("ReasoningInstance", "labels source_id")):
    """An n-hop chain, n >= 1, as its entity/relation labels
    ``(e1, r1, e2, ..., rn, e(n+1))``: hops bridge by construction."""

    __slots__ = ()

    def __new__(cls, labels: tuple[str, ...], source_id: str | None = None):
        if len(labels) < 3 or len(labels) % 2 == 0:
            raise ValueError("expected e1, r1, e2 [, r2, e3, ...]")
        return tuple.__new__(cls, (tuple(labels), source_id))

    @property
    def hops(self) -> tuple[Triplet, ...]:
        return tuple(map(Triplet, self.labels[:-2:2], self.labels[1::2], self.labels[2::2]))

    @property
    def n_hops(self) -> int:
        return len(self.labels) // 2

    @property
    def start(self) -> str:
        return self.labels[0]

    @property
    def answer(self) -> str:
        """Gold final entity of the chain."""
        return self.labels[-1]

    @property
    def relations(self) -> list[str]:
        """Relations in traversal order (first hop first)."""
        return list(self.labels[1::2])


def add_fact(kg: dict[tuple[str, str], str], t: Triplet) -> bool:
    """Insert ``t`` into the graph ``kg``.

    Returns True when an existing fact under the same (head, relation) key
    was replaced by a different tail.  Re-inserting an identical fact is a
    no-op and returns False.
    """
    key = (t.head, t.relation)
    previous = kg.get(key)
    kg[key] = t.tail
    return previous is not None and previous != t.tail


def infer(kg: dict[tuple[str, str], str], start: str, relations: list[str]) -> str | None:
    """Walk ``relations`` left to right from ``start`` through the graph ``kg``.

    Returns the final entity, or None as soon as any (entity, relation) key
    is missing.  An empty relation list returns ``start`` unchanged.
    """
    current = start
    for relation in relations:
        current = kg.get((current, relation))
        if current is None:
            return None
    return current


def first_bad_label(labels) -> int | None:
    """The position of the first of ``labels`` that is not a non-blank
    string, or None when every one is."""
    try:
        if all(map(str.strip, labels)):
            return None
    except TypeError:  # a label that is not a string
        pass
    return next(i for i, label in enumerate(labels)
                if not isinstance(label, str) or not label.strip())


def check_labels(labels) -> None:
    """Raise ValueError naming the first of the alternating entity/relation
    ``labels`` that is not a non-blank string."""
    i = first_bad_label(labels)
    if i is not None:
        kind = "relation" if i % 2 else "entity"
        if isinstance(labels[i], str):
            raise ValueError(f"{kind} label must be non-empty")
        raise ValueError(f"{kind} label must be a string, not {labels[i]!r}")


def make_chain(*labels: str, source_id: str | None = None) -> ReasoningInstance:
    """Build a chain from alternating entity/relation labels.

    ``make_chain("e1", "r1", "e2", "r2", "e3")`` gives a two-hop chain.
    """
    chain = ReasoningInstance(labels, source_id)  # refuses a wrong count first
    check_labels(labels)
    return chain
