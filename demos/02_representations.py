"""Render one reasoning chain in all four textual representations.

Each representation encodes the same facts differently: prose sentences, a
nested JSON map, a static Python dict with chained lookups, and a dynamic
fact store with an inference routine.  Every rendered body parses back to
the original facts, as (head, relation, tail) label strings.
"""

from hopkit import make_chain, parse, render
from hopkit.render import RepresentationTag

chain = make_chain("It Goes Like It Goes", "composer", "David Shire",
                   "spouse", "Didi Conn")

for tag in RepresentationTag:
    example = render(chain, tag)
    print("=" * 60)
    print(tag.value)
    print("=" * 60)
    print(example.body)
    print()
    print("answer envelope:")
    print(example.envelope[:120] + ("..." if len(example.envelope) > 120 else ""))

    # Round-trip: the body alone is enough to recover the facts.
    # parse returns (head, relation, tail) label strings, one per fact.
    recovered = parse(tag, example.body).triplets
    assert sorted(recovered) == sorted(chain.hops)
    print(f"round-trip recovered {len(recovered)} triplets")
    print()
