"""Knowledge-graph core: entities, relations, triplets, and the hop-by-hop
inference oracle.

The fact store is functional: each (head, relation) key maps to exactly one
tail entity.  Real knowledge bases have multi-valued relations, but the
datasets this toolkit targets are single-answer, and a functional store keeps
inference deterministic.  Conflicting rows are rejected upstream during
ingestion (see :mod:`hopkit.dataset`).
"""

from __future__ import annotations

from dataclasses import dataclass, field


class ChainError(ValueError):
    """A reasoning chain violates the bridge-entity invariant."""

    def __init__(self, message: str, hop_index: int):
        super().__init__(message)
        self.hop_index = hop_index


@dataclass(frozen=True, order=True)
class Entity:
    """A node identified by its surface form, e.g. ``Entity("David Shire")``."""

    label: str

    def __post_init__(self):
        if not self.label.strip():
            raise ValueError("entity label must be non-empty")


@dataclass(frozen=True, order=True)
class Relation:
    """A directed edge label, e.g. ``Relation("composer")``."""

    label: str

    def __post_init__(self):
        if not self.label.strip():
            raise ValueError("relation label must be non-empty")


@dataclass(frozen=True)
class Triplet:
    """One atomic fact: ``head --relation--> tail``.  Also one reasoning hop."""

    head: Entity
    relation: Relation
    tail: Entity


@dataclass
class KnowledgeGraph:
    """Functional fact store mapping (head, relation) to a single tail."""

    facts: dict[tuple[Entity, Relation], Entity] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.facts)

    def triplets(self) -> list[Triplet]:
        return [Triplet(h, r, t) for (h, r), t in self.facts.items()]

    def lookup(self, head: Entity, relation: Relation) -> Entity | None:
        return self.facts.get((head, relation))


@dataclass(frozen=True)
class ReasoningInstance:
    """An n-hop chain of triplets where each hop's tail is the next hop's head.

    ``hops`` must be non-empty; the datasets in this toolkit use n in
    {1, 2, 3} but any n >= 1 is accepted.
    """

    hops: tuple[Triplet, ...]
    source_id: str | None = None

    def __post_init__(self):
        if not self.hops:
            raise ValueError("a reasoning chain needs at least one hop")

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

    @property
    def bridges(self) -> list[Entity]:
        """Intermediate entities shared by consecutive hops."""
        return [hop.tail for hop in self.hops[:-1]]


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


def chain_to_graph(chain: ReasoningInstance) -> KnowledgeGraph:
    """Build a graph containing exactly the chain's facts.

    Raises ChainError naming the first offending hop index when the chain
    breaks the bridge invariant.
    """
    for i in range(len(chain.hops) - 1):
        if chain.hops[i].tail != chain.hops[i + 1].head:
            raise ChainError(
                f"hop {i}: tail {chain.hops[i].tail.label!r} does not bridge to "
                f"hop {i + 1} head {chain.hops[i + 1].head.label!r}",
                hop_index=i,
            )
    kg = KnowledgeGraph()
    for hop in chain.hops:
        add_fact(kg, hop)
    return kg


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
