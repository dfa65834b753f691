"""Build a tiny knowledge graph and walk relation chains through it.

Entities and relations are plain label strings, and the graph is a dict
mapping each (head, relation) key to its tail.  Multi-hop inference
composes relations: the spouse of the composer of a song is found by two
consecutive lookups.
"""

from hopkit import Triplet, add_fact, infer, make_chain

# Step 1: assemble the graph fact by fact.
kg = {}
facts = [
    ("It Goes Like It Goes", "composer", "David Shire"),
    ("David Shire", "spouse", "Didi Conn"),
    ("Didi Conn", "birthplace", "Brooklyn"),
    ("Norma Rae", "theme song", "It Goes Like It Goes"),
]
for head, relation, tail in facts:
    replaced = add_fact(kg, Triplet(head, relation, tail))
    print(f"added ({head}, {relation}) -> {tail}" + ("  [replaced]" if replaced else ""))

# Step 2: single and multi-hop lookups.
print()
one_hop = infer(kg, "It Goes Like It Goes", ["composer"])
print("composer:", one_hop)

three_hop = infer(kg, "Norma Rae", ["theme song", "composer", "spouse"])
print("spouse of composer of theme song:", three_hop)

missing = infer(kg, "Brooklyn", ["composer"])
print("missing path returns:", missing)

# Step 3: a reasoning chain is its alternating entity/relation labels, so
# each hop's tail is the next hop's head by construction.
chain = make_chain("It Goes Like It Goes", "composer", "David Shire",
                   "spouse", "Didi Conn")
print()
print("chain start:", chain.start)
print("chain answer:", chain.answer)
print("chain labels:", chain.labels)
print("bridge entities:", [hop.tail for hop in chain.hops[:-1]])
