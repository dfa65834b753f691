"""Build a tiny knowledge graph and walk relation chains through it.

Facts are directed edges (head, relation) -> tail.  Multi-hop inference
composes relations: the spouse of the composer of a song is found by two
consecutive lookups.
"""

from hopkit import (Entity, KnowledgeGraph, Relation, Triplet, add_fact,
                    infer, make_chain, validate_instance)

# Step 1: assemble the graph fact by fact.
kg = KnowledgeGraph()
facts = [
    ("It Goes Like It Goes", "composer", "David Shire"),
    ("David Shire", "spouse", "Didi Conn"),
    ("Didi Conn", "birthplace", "Brooklyn"),
    ("Norma Rae", "theme song", "It Goes Like It Goes"),
]
for head, relation, tail in facts:
    replaced = add_fact(kg, Triplet(Entity(head), Relation(relation), Entity(tail)))
    print(f"added ({head}, {relation}) -> {tail}" + ("  [replaced]" if replaced else ""))

# Step 2: single and multi-hop lookups.
print()
one_hop = infer(kg, Entity("It Goes Like It Goes"), [Relation("composer")])
print("composer:", one_hop.label)

three_hop = infer(
    kg,
    Entity("Norma Rae"),
    [Relation("theme song"), Relation("composer"), Relation("spouse")],
)
print("spouse of composer of theme song:", three_hop.label)

missing = infer(kg, Entity("Brooklyn"), [Relation("composer")])
print("missing path returns:", missing)

# Step 3: reasoning instances are validated chains of hops.
chain = make_chain("It Goes Like It Goes", "composer", "David Shire",
                   "spouse", "Didi Conn")
print()
print("chain start:", chain.start.label)
print("chain answer:", chain.answer.label)
print("bridge entities:", [hop.tail.label for hop in chain.hops[:-1]])
print("validation problems:", validate_instance(chain))
