"""Knowledge-graph core: triplets of label strings, reasoning chains, and
the hop-by-hop inference oracle.

Entities and relations are their labels, plain ``str``.  A knowledge graph
is a ``dict`` mapping each ``(head, relation)`` key to exactly one tail.
Real knowledge bases have multi-valued relations, but the datasets this
toolkit targets are single-answer, and a functional store keeps inference
deterministic.  Conflicting rows are rejected upstream during ingestion
(see :mod:`hopkit.dataset`).
"""

from __future__ import annotations

from collections import namedtuple


class Triplet(namedtuple("Triplet", "head relation tail")):
    """One atomic fact, ``head --relation--> tail``, as three label strings.
    Also one reasoning hop."""

    __slots__ = ()


class ReasoningInstance(namedtuple("ReasoningInstance", "hops source_id")):
    """An n-hop chain of triplets where each hop's tail is the next hop's head.

    ``hops`` must be non-empty; the datasets in this toolkit use n in
    {1, 2, 3} but any n >= 1 is accepted.
    """

    __slots__ = ()

    def __new__(cls, hops: tuple[Triplet, ...], source_id: str | None = None):
        if not hops:
            raise ValueError("a reasoning chain needs at least one hop")
        return tuple.__new__(cls, (hops, source_id))

    @property
    def n_hops(self) -> int:
        return len(self.hops)

    @property
    def start(self) -> str:
        return self.hops[0].head

    @property
    def answer(self) -> str:
        """Gold final entity of the chain."""
        return self.hops[-1].tail

    @property
    def relations(self) -> list[str]:
        """Relations in traversal order (first hop first)."""
        return [hop.relation for hop in self.hops]


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


def validate_instance(chain: ReasoningInstance) -> list[str]:
    """Return one description per violated invariant, empty when valid."""
    problems = []
    for i in range(len(chain.hops) - 1):
        if chain.hops[i].tail != chain.hops[i + 1].head:
            problems.append(
                f"hop {i}: tail {chain.hops[i].tail!r} does not bridge to "
                f"hop {i + 1} head {chain.hops[i + 1].head!r}"
            )
    return problems


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
    if len(labels) < 3 or len(labels) % 2 == 0:
        raise ValueError("expected e1, r1, e2 [, r2, e3, ...]")
    check_labels(labels)
    return ReasoningInstance(
        hops=tuple(map(Triplet, labels[:-2:2], labels[1::2], labels[2::2])),
        source_id=source_id)
