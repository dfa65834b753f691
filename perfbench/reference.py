"""Fixed reference work whose run time tracks the speed of the host.

    python3 perfbench/reference.py

run.py runs it in its own process before every hopkit command and scales
its CPU-bound time metrics by how long it took (README.md, "Host speed").
It imports no hopkit code, so no change to hopkit can move it.  The mix
follows what hopkit's commands spend their time on: scanning lists of
objects by attribute, string formatting, regular expressions, dicts and
sets, JSON, and parsing and compiling small Python sources.
"""

from __future__ import annotations

import ast
import json
import re

ROUNDS = 1000
FACT = re.compile(r"The (\w+) of (\w+) is (\w+)\.")


class Chain:
    """Stands in for a reasoning chain in a demonstration pool."""

    __slots__ = ("start", "relations", "answer")

    def __init__(self, i: int):
        self.start = f"ent{i % 997}"
        self.relations = (f"rel{i % 37}", f"rel{i % 41}")
        self.answer = f"ent{i * 31 % 1009}"


def work() -> int:
    total = 0
    pool = [Chain(i) for i in range(600)]
    for query in pool[:150]:
        total += len([c for c in pool
                      if c.start != query.start and c.answer != query.answer])
    for i in range(ROUNDS):
        text = " ".join(f"The rel{(i + j) % 37} of ent{i * j} is ent{(i * 7 + j) % 101}."
                        for j in range(4))
        facts = {(rel, head): tail for rel, head, tail in FACT.findall(text)}
        nested = {f"{rel}:{head}": {"tail": tail, "hops": [i, len(tail)]}
                  for (rel, head), tail in facts.items()}
        total += len(json.loads(json.dumps(nested, indent=2)))
        total += len(set(text.lower().split()) - {"the", "of", "is"})
        if i % 10 == 0:
            source = f"def f(x):\n    return {{'r{i}': {{x: 'e{i}'}}}}\nresult = f('s')\n"
            scope: dict = {}
            exec(compile(ast.parse(source), "<reference>", "exec"), scope)
            total += len(scope["result"])
    return total


if __name__ == "__main__":
    work()
