import random

import pytest

from hopkit import (Entity, KnowledgeGraph, Relation, Triplet, add_fact,
                    chain_to_graph, infer, make_chain, validate_instance)
from hopkit.kg import ChainError, ReasoningInstance


def fact(h, r, t):
    return Triplet(Entity(h), Relation(r), Entity(t))


def test_add_fact_and_lookup():
    kg = KnowledgeGraph()
    replaced = add_fact(kg, fact("It Goes Like It Goes", "composer", "David Shire"))
    assert not replaced
    assert kg.lookup(Entity("It Goes Like It Goes"), Relation("composer")) == Entity(
        "David Shire"
    )


def test_add_fact_idempotent_reinsert():
    kg = KnowledgeGraph()
    t = fact("A", "r", "B")
    add_fact(kg, t)
    assert add_fact(kg, t) is False
    assert len(kg) == 1


def test_add_fact_overwrite_reported():
    kg = KnowledgeGraph()
    add_fact(kg, fact("A", "r", "B"))
    assert add_fact(kg, fact("A", "r", "C")) is True
    assert kg.lookup(Entity("A"), Relation("r")) == Entity("C")


def test_infer_one_and_two_hops():
    kg = KnowledgeGraph()
    add_fact(kg, fact("It Goes Like It Goes", "composer", "David Shire"))
    add_fact(kg, fact("David Shire", "spouse", "Didi Conn"))
    start = Entity("It Goes Like It Goes")
    assert infer(kg, start, [Relation("composer")]) == Entity("David Shire")
    assert infer(kg, start, [Relation("composer"), Relation("spouse")]) == Entity(
        "Didi Conn"
    )
    assert infer(kg, start, [Relation("spouse")]) is None
    assert infer(kg, Entity("X"), []) == Entity("X")


def test_chain_to_graph_roundtrip(example_chain):
    kg = chain_to_graph(example_chain)
    assert len(kg) == 2
    assert infer(kg, example_chain.start, example_chain.relations) == example_chain.answer


def test_chain_to_graph_single_hop():
    kg = chain_to_graph(make_chain("a", "r", "b"))
    assert len(kg) == 1


def test_chain_to_graph_rejects_broken_bridge():
    broken = ReasoningInstance(hops=(fact("a", "r", "b"), fact("c", "r2", "d")))
    with pytest.raises(ChainError) as excinfo:
        chain_to_graph(broken)
    assert excinfo.value.hop_index == 0


def test_validate_instance():
    assert validate_instance(make_chain("a", "r", "b", "r2", "c")) == []
    broken = ReasoningInstance(
        hops=(fact("a", "r", "b"), fact("b", "r2", "c"), fact("x", "r3", "y"))
    )
    problems = validate_instance(broken)
    assert len(problems) == 1 and "hop 1" in problems[0]


def test_empty_labels_rejected():
    with pytest.raises(ValueError):
        Entity("   ")
    with pytest.raises(ValueError):
        Relation("")
    with pytest.raises(ValueError):
        Relation(" \t")


def brute_force_infer(triplets, start, relations):
    """Independent edge-walk over the raw triplet list."""
    current = start
    for rel in relations:
        matches = [t.tail for t in triplets if t.head == current and t.relation == rel]
        if not matches:
            return None
        current = matches[0]
    return current


def test_infer_matches_brute_force_small():
    rng = random.Random(7)
    for _ in range(50):
        entities = [Entity(f"e{i}") for i in range(rng.randint(3, 15))]
        relations = [Relation(f"r{i}") for i in range(rng.randint(1, 3))]
        kg = KnowledgeGraph()
        for _ in range(rng.randint(1, 40)):
            add_fact(kg, Triplet(rng.choice(entities), rng.choice(relations),
                                 rng.choice(entities)))
        triplets = kg.triplets()
        for start in entities:
            for _ in range(10):
                seq = [rng.choice(relations) for _ in range(rng.randint(0, 3))]
                assert infer(kg, start, seq) == brute_force_infer(triplets, start, seq)


def test_infer_composes():
    rng = random.Random(11)
    entities = [Entity(f"e{i}") for i in range(10)]
    relations = [Relation(f"r{i}") for i in range(3)]
    kg = KnowledgeGraph()
    for _ in range(30):
        add_fact(kg, Triplet(rng.choice(entities), rng.choice(relations),
                             rng.choice(entities)))
    for start in entities:
        for r1 in relations:
            for r2 in relations:
                inner = infer(kg, start, [r1])
                composed = infer(kg, start, [r1, r2])
                if inner is None:
                    assert composed is None
                else:
                    assert composed == infer(kg, inner, [r2])
