import random

import pytest

from hopkit import Triplet, add_fact, infer, make_chain


def test_add_fact_and_lookup():
    kg = {}
    replaced = add_fact(kg, Triplet("It Goes Like It Goes", "composer", "David Shire"))
    assert not replaced
    assert kg == {("It Goes Like It Goes", "composer"): "David Shire"}


def test_add_fact_idempotent_reinsert():
    kg = {}
    t = Triplet("A", "r", "B")
    add_fact(kg, t)
    assert add_fact(kg, t) is False
    assert len(kg) == 1


def test_add_fact_overwrite_reported():
    kg = {}
    add_fact(kg, Triplet("A", "r", "B"))
    assert add_fact(kg, Triplet("A", "r", "C")) is True
    assert kg["A", "r"] == "C"


def test_infer_one_and_two_hops():
    kg = {}
    add_fact(kg, Triplet("It Goes Like It Goes", "composer", "David Shire"))
    add_fact(kg, Triplet("David Shire", "spouse", "Didi Conn"))
    start = "It Goes Like It Goes"
    assert infer(kg, start, ["composer"]) == "David Shire"
    assert infer(kg, start, ["composer", "spouse"]) == "Didi Conn"
    assert infer(kg, start, ["spouse"]) is None
    assert infer(kg, "X", []) == "X"


def test_empty_labels_rejected():
    with pytest.raises(ValueError):
        make_chain("   ", "r", "b")
    with pytest.raises(ValueError):
        make_chain("a", "", "b")
    with pytest.raises(ValueError):
        make_chain("a", " \t", "b")


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
        entities = [f"e{i}" for i in range(rng.randint(3, 15))]
        relations = [f"r{i}" for i in range(rng.randint(1, 3))]
        kg = {}
        for _ in range(rng.randint(1, 40)):
            add_fact(kg, Triplet(rng.choice(entities), rng.choice(relations),
                                 rng.choice(entities)))
        triplets = [Triplet(h, r, t) for (h, r), t in kg.items()]
        for start in entities:
            for _ in range(10):
                seq = [rng.choice(relations) for _ in range(rng.randint(0, 3))]
                assert infer(kg, start, seq) == brute_force_infer(triplets, start, seq)


def test_infer_composes():
    rng = random.Random(11)
    entities = [f"e{i}" for i in range(10)]
    relations = [f"r{i}" for i in range(3)]
    kg = {}
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
