"""Generate prompts, answer them with the graph-traversal oracle, and score
the results with conditional accuracy.

The oracle backend answers by exact traversal, so a clean run scores 100%.
A fault-injected oracle corrupts the second hop with some probability, which
shows up as a smaller all-hops-correct denominator, not as a lower
conditional accuracy: answers built on correct hops remain correct.
"""

import random

from hopkit import (FaultSpec, Gateway, KnowledgeGraph, OracleBackend,
                    add_fact, build_prompt, compute_metrics, emit_report,
                    judge, make_chain)
from hopkit.prompts import DatasetStyle, PromptMode
from hopkit.render import RepresentationTag

NL = RepresentationTag.NATURAL_LANGUAGE
rng = random.Random(3)

# Step 1: a dataset of 100 two-hop chains plus the graph that contains them.
chains = [
    make_chain(f"work{i}", "composer", f"person{i}", "spouse", f"partner{i}")
    for i in range(100)
]
kg = KnowledgeGraph()
for chain in chains:
    for hop in chain.hops:
        add_fact(kg, hop)

prompts = [
    build_prompt(c, PromptMode.ZERO_SHOT, DatasetStyle.STATEMENT).full_prompt
    for c in chains
]
print("sample prompt:")
print(" ", prompts[0])

# Step 2: clean oracle run.
gateway = Gateway(backend=OracleBackend(kg, NL))
results = gateway.complete_batch(prompts)
records = [
    judge(c.source_id or str(i), c, r.text, NL)
    for i, (c, r) in enumerate(zip(chains, results))
]
print()
print("clean oracle run:")
print(emit_report(compute_metrics(records)))

# Step 3: fault-injected run corrupting hop 2 thirty percent of the time.
fault = FaultSpec(hop_index=1, probability=0.3, seed=11)
gateway = Gateway(backend=OracleBackend(kg, NL, corrupt=fault))
results = gateway.complete_batch(prompts)
records = [
    judge(c.source_id or str(i), c, r.text, NL)
    for i, (c, r) in enumerate(zip(chains, results))
]
print("fault-injected run (hop 2 corrupted with p=0.3):")
print(emit_report(compute_metrics(records)))
