"""Knowledge-graph core: entities, relations, triplets, and the hop-by-hop
inference oracle.

The fact store is functional: each (head, relation) key maps to exactly one
tail entity.  Real knowledge bases have multi-valued relations, but the
datasets this toolkit targets are single-answer, and a functional store keeps
inference deterministic.  Conflicting rows are rejected upstream during
ingestion (see :mod:`hopkit.dataset`).
"""

from __future__ import annotations

from collections import namedtuple


class _Label:
    """An immutable non-blank label, equal only to one of the same class and
    text, so ``Entity("x")`` equals neither ``Relation("x")`` nor ``("x",)``."""

    __slots__ = ("label",)

    def __init__(self, label: str):
        if not label.strip():
            raise ValueError(f"{type(self).__name__.lower()} label must be non-empty")
        object.__setattr__(self, "label", label)

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other):
        return type(other) is type(self) and other.label == self.label

    def __hash__(self):
        return hash((type(self), self.label))

    def __repr__(self):
        return f"{type(self).__name__}(label={self.label!r})"


class Entity(_Label):
    """A node identified by its surface form, e.g. ``Entity("David Shire")``."""

    __slots__ = ()


class Relation(_Label):
    """A directed edge label, e.g. ``Relation("composer")``."""

    __slots__ = ()


class Triplet(namedtuple("Triplet", "head relation tail")):
    """One atomic fact: ``head --relation--> tail``.  Also one reasoning hop."""

    __slots__ = ()


class KnowledgeGraph:
    """Functional fact store mapping (head, relation) to a single tail."""

    def __init__(self):
        self.facts: dict[tuple[Entity, Relation], Entity] = {}


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
    def start(self) -> Entity:
        return self.hops[0].head

    @property
    def answer(self) -> Entity:
        """Gold final entity of the chain."""
        return self.hops[-1].tail

    @property
    def relations(self) -> list[Relation]:
        """Relations in traversal order (first hop first)."""
        return [hop.relation for hop in self.hops]


def add_fact(kg: KnowledgeGraph, t: Triplet) -> bool:
    """Insert ``t`` into the fact store.

    Returns True when an existing fact under the same (head, relation) key
    was replaced by a different tail.  Re-inserting an identical fact is a
    no-op and returns False.
    """
    key = (t.head, t.relation)
    previous = kg.facts.get(key)
    kg.facts[key] = t.tail
    return previous is not None and previous != t.tail


def infer(kg: KnowledgeGraph, start: Entity, relations: list[Relation]) -> Entity | None:
    """Walk ``relations`` left to right from ``start``.

    Returns the final entity, or None as soon as any (entity, relation) key
    is missing.  An empty relation list returns ``start`` unchanged.
    """
    current = start
    for relation in relations:
        nxt = kg.facts.get((current, relation))
        if nxt is None:
            return None
        current = nxt
    return current


def validate_instance(chain: ReasoningInstance) -> list[str]:
    """Return one description per violated invariant, empty when valid."""
    problems = []
    for i in range(len(chain.hops) - 1):
        if chain.hops[i].tail != chain.hops[i + 1].head:
            problems.append(
                f"hop {i}: tail {chain.hops[i].tail.label!r} does not bridge to "
                f"hop {i + 1} head {chain.hops[i + 1].head.label!r}"
            )
    return problems


def make_chain(*labels: str, source_id: str | None = None) -> ReasoningInstance:
    """Build a chain from alternating entity/relation labels.

    ``make_chain("e1", "r1", "e2", "r2", "e3")`` gives a two-hop chain.
    """
    if len(labels) < 3 or len(labels) % 2 == 0:
        raise ValueError("expected e1, r1, e2 [, r2, e3, ...]")
    hops = []
    for i in range(0, len(labels) - 2, 2):
        hops.append(
            Triplet(Entity(labels[i]), Relation(labels[i + 1]), Entity(labels[i + 2]))
        )
    return ReasoningInstance(hops=tuple(hops), source_id=source_id)
