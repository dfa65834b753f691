"""Run the dataset pipeline in memory: partition, cap, extend, and report.

The split keeps bridge entities disjoint between train and test, so a model
cannot answer test questions by memorizing train bridges.  Capping bounds
how many rows any one relation pair contributes.
"""

import random

from hopkit import (SourceRecord, SplitSpec, Triplet, cap_relation_pairs,
                    compute_overlap_stats, extend_to_three_hops,
                    partition_by_bridge)

rng = random.Random(7)

# Step 1: a synthetic two-hop source dataset.  Several rows share each
# bridge entity, mirroring how real extractions repeat popular entities.
records = []
for i in range(600):
    bridge = f"person{rng.randrange(80)}"
    pair = rng.choice([("composer", "spouse"), ("director", "child"),
                       ("author", "birthplace")])
    records.append(SourceRecord(
        str(i), (f"work{i}", pair[0], bridge, pair[1], f"tail-{bridge}-{pair[1]}"),
    ))
print(f"source rows: {len(records)}")

# Step 2: bridge-entity partitioning.
spec = SplitSpec(num_partitions=8, train_partition_index=2, test_partition_index=4)
train, test, partition_map = partition_by_bridge(records, spec)
print(f"train rows: {len(train)}, test rows: {len(test)}")
print(f"bridge entities assigned: {len(partition_map)}")

stats = compute_overlap_stats(train, test)
print()
print(stats.to_table())
assert stats.bridge_overlap == 0

# Step 3: cap rows per relation pair.
capped = cap_relation_pairs(train, cap=20, seed=0)
print()
print(f"after cap 20 per relation pair: {len(capped)} rows")

# Step 4: extend two-hop rows to three hops with extra facts.
extra_facts = [
    Triplet(r.answer, "country", "Freedonia")
    for r in capped[: len(capped) // 2]
]
whitelist = {r.answer for r in capped}
three_hop = extend_to_three_hops(capped, extra_facts, whitelist)
print(f"extended to three hops: {len(three_hop)} rows")
print("sample:", three_hop[0].to_dict())
