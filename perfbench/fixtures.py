"""Seeded input generator for the benchmark.

Every file is a pure function of the seed.  Records are conflict-free:
each (head, relation) key maps to one tail across the whole file, bridge
entities (e2) are drawn from a Zipf distribution, and the dataset input
carries an exact, known number of invalid and conflicting rows.

Relation labels never contain " of ": the oracle backend reads a query
core as "<relation> of <relation> of <entity>" and splits on " of ", so
such a label would make the oracle answer UNKNOWN for a well-formed
record.  Start entities sometimes do contain " of ", which gives the
oracle's candidate-path search real misses to skip.

Run directly to write the inputs of every workload for one seed:

    python3 perfbench/fixtures.py --seed 7 --out /tmp/fixtures
    python3 perfbench/fixtures.py --seed 7 --holdout-seed 1007 --out /tmp/fixtures

A held-out seed writes a second set under ``<out>/holdout`` so that a
claim tuned on one seed can be re-checked on inputs nobody looked at.
"""

from __future__ import annotations

import argparse
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

RELATIONS_1 = ["composer", "director", "author", "founder", "producer",
               "designer", "architect", "publisher"]
RELATIONS_2 = ["spouse", "mother", "father", "employer", "sibling",
               "mentor", "teacher", "partner"]
RELATIONS_3 = ["birthplace", "alma mater", "nationality", "religion",
               "residence", "agent"]

_ONSETS = ["b", "c", "d", "f", "g", "h", "j", "k", "l", "m", "n", "p", "r",
           "s", "t", "v", "w", "z", "br", "dr", "kr", "st", "th", "sh"]
_VOWELS = ["a", "e", "i", "o", "u", "ai", "ea", "ou"]
_OF_KINDS = ["Duchy", "Treaty", "Battle", "Songs", "House", "Order"]

HEADER_2 = ["id", "e1", "r1", "e2", "r2", "e3"]
HEADER_3 = HEADER_2 + ["r3", "e4"]

ZIPF_EXPONENT = 1.1

# Input size of each workload: (records, hops) for the evaluate workloads,
# data rows before planting for the dataset pipeline.
EVAL_INPUTS = {"oracle-code": (400, 2), "oracle-oneshot": (600, 3),
               "http-stub": (400, 2)}
DATASET_ROWS = 25000


class _Namer:
    """Unique, case-insensitively distinct entity labels."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used: set[str] = set()

    def _word(self) -> str:
        n = self.rng.choice((2, 2, 3))
        return "".join(
            self.rng.choice(_ONSETS) + self.rng.choice(_VOWELS) for _ in range(n)
        ).capitalize()

    def name(self, of_share: float = 0.0) -> str:
        while True:
            if self.rng.random() < of_share:
                label = f"{self.rng.choice(_OF_KINDS)} of {self._word()}"
            else:
                label = f"{self._word()} {self._word()}"
            if label.lower() not in self.used:
                self.used.add(label.lower())
                return label

    def names(self, n: int, of_share: float = 0.0) -> list[str]:
        return [self.name(of_share) for _ in range(n)]


@dataclass
class Graph:
    """The functional facts every record of one input is drawn from."""

    bridges: list[str]
    bridge_weights: list[float]
    second: dict[tuple[str, str], str] = field(default_factory=dict)
    third: dict[tuple[str, str], str] = field(default_factory=dict)


def _graph(rng: random.Random, namer: _Namer, n_bridges: int) -> Graph:
    bridges = namer.names(n_bridges)
    targets = namer.names(max(8, n_bridges // 2))
    finals = namer.names(max(8, n_bridges // 4))
    cum, total = [], 0.0
    for k in range(n_bridges):
        total += 1.0 / (k + 1) ** ZIPF_EXPONENT
        cum.append(total)
    graph = Graph(bridges=bridges, bridge_weights=cum)
    for b in bridges:
        for r in RELATIONS_2:
            graph.second[(b, r)] = rng.choice(targets)
    for t in targets:
        for r in RELATIONS_3:
            graph.third[(t, r)] = rng.choice(finals)
    return graph


def _chains(rng: random.Random, namer: _Namer, graph: Graph, n: int,
            hops: int, id_prefix: str = "") -> list[tuple[str, ...]]:
    starts = namer.names(n, of_share=0.1)
    bridges = rng.choices(graph.bridges, cum_weights=graph.bridge_weights, k=n)
    rows = []
    for i, (e1, e2) in enumerate(zip(starts, bridges)):
        r1 = rng.choice(RELATIONS_1)
        r2 = rng.choice(RELATIONS_2)
        e3 = graph.second[(e2, r2)]
        row = (f"{id_prefix}{i}", e1, r1, e2, r2, e3)
        if hops == 3:
            r3 = rng.choice(RELATIONS_3)
            row += (r3, graph.third[(e3, r3)])
        rows.append(row)
    return rows


def _write_tsv(path: Path, header: list[str], rows) -> None:
    lines = ["\t".join(header)] + ["\t".join(row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def eval_records(seed: int, n: int, hops: int) -> list[tuple[str, ...]]:
    """``n`` conflict-free records of ``hops`` hops (2 or 3)."""
    rng = random.Random(f"eval:{seed}:{n}:{hops}")
    namer = _Namer(rng)
    graph = _graph(rng, namer, max(16, n // 5))
    return _chains(rng, namer, graph, n, hops)


def write_eval_input(path: Path, rows: list[tuple[str, ...]]) -> None:
    _write_tsv(path, HEADER_3 if len(rows[0]) == 8 else HEADER_2, rows)


@dataclass
class DatasetInput:
    """The dataset workload's input plus everything needed to check it."""

    accepted: list[tuple[str, ...]]   # rows ingest must accept, in file order
    n_invalid: int
    n_conflicting: int
    third_hop: dict[str, list[tuple[str, str]]]  # head -> [(r3, e4)]
    n_rows: int                       # data rows in the file, planted included


def dataset_input(seed: int, n: int, tsv: Path, facts: Path) -> DatasetInput:
    """Write ``n`` valid two-hop rows plus planted bad rows, and a facts TSV
    for ``extend3``.  Planted rows: n/200 invalid (four kinds in turn) and
    n/250 conflicting (a first-hop or second-hop clash with an earlier row).
    """
    rng = random.Random(f"dataset:{seed}:{n}")
    namer = _Namer(rng)
    graph = _graph(rng, namer, max(16, n // 10))
    valid = _chains(rng, namer, graph, n, 2, id_prefix="r")
    n_invalid, n_conflicting = n // 200, n // 250
    slots = sorted(rng.sample(range(1, n), n_invalid + n_conflicting))
    kinds = ["invalid"] * n_invalid + ["conflict"] * n_conflicting
    rng.shuffle(kinds)
    planted: dict[int, list[tuple[str, ...]]] = {}
    wrong_targets = namer.names(16)
    for k, (slot, kind) in enumerate(zip(slots, kinds)):
        earlier = valid[rng.randrange(slot)]
        _, e1, r1, e2, r2, e3 = earlier
        fresh = namer.name()
        if kind == "invalid":
            variant = k % 4
            if variant == 0:       # a field short
                row = (f"x{k}", fresh, r1, e2, r2)
            elif variant == 1:     # empty bridge
                row = (f"x{k}", fresh, r1, "", r2, e3)
            elif variant == 2:     # whitespace-only answer
                row = (f"x{k}", fresh, r1, e2, r2, "  ")
            else:                  # id of an accepted row
                row = (earlier[0], fresh, r1, e2, r2, e3)
        elif k % 2 == 0:           # (e1, r1) already maps to e2
            other = next(b for b in graph.bridges if b != e2)
            row = (f"x{k}", e1, r1, other, r2, graph.second[(other, r2)])
        else:                      # (e2, r2) already maps to e3
            row = (f"x{k}", fresh, r1, e2, r2, wrong_targets[k % 16])
        planted.setdefault(slot, []).append(row)
    rows = []
    for i, row in enumerate(valid):
        rows.extend(planted.get(i, ()))
        rows.append(row)
    _write_tsv(tsv, HEADER_2, rows)

    heads = sorted({row[5] for row in valid})
    third_hop: dict[str, list[tuple[str, str]]] = {}
    lines = []
    for head in heads:
        if rng.random() >= 0.6:
            continue
        for r3 in rng.sample(RELATIONS_3, rng.choice((1, 2))):
            e4 = graph.third[(head, r3)]
            third_hop.setdefault(head, []).append((r3, e4))
            lines.append(f"{head}\t{r3}\t{e4}")
    facts.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return DatasetInput(accepted=valid, n_invalid=n_invalid,
                        n_conflicting=n_conflicting, third_hop=third_hop,
                        n_rows=len(rows))


def write_all(seed: int, out: Path) -> dict:
    """Write every workload's input for ``seed`` under ``out``."""
    out.mkdir(parents=True, exist_ok=True)
    manifest: dict = {"seed": seed}
    for workload, (n, hops) in EVAL_INPUTS.items():
        write_eval_input(out / f"{workload}.tsv", eval_records(seed, n, hops))
        manifest[workload] = {"records": n, "hops": hops}
    data = dataset_input(seed, DATASET_ROWS, out / "dataset-pipeline.tsv",
                         out / "dataset-pipeline.facts.tsv")
    manifest["dataset-pipeline"] = {
        "rows": data.n_rows, "accepted": len(data.accepted),
        "invalid": data.n_invalid, "conflicting": data.n_conflicting}
    return manifest


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--holdout-seed", type=int)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    if args.holdout_seed == args.seed:
        parser.error("the held-out seed must differ from --seed")
    manifests = [write_all(args.seed, Path(args.out))]
    if args.holdout_seed is not None:
        manifests.append(write_all(args.holdout_seed, Path(args.out) / "holdout"))
    print(json.dumps(manifests))


if __name__ == "__main__":
    main()
