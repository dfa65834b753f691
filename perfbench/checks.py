"""Correctness checks of one iteration's outputs.  A failed check raises
CheckFailed, which fails the whole run; it never becomes a number.

Expectations are recomputed here from the generated inputs, not read back
from hopkit: the fault set from the seeded per-prompt draw, the partition
from the grouping rule, the cap and the extension from the input rows.
"""

from __future__ import annotations

import json
import random
import re
from collections import Counter, defaultdict
from pathlib import Path


class CheckFailed(AssertionError):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def read_jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()
            if line.strip()]


def read_tsv(path: Path) -> list[tuple[str, ...]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return [tuple(line.split("\t")) for line in lines[1:] if line.strip()]


def faulted_ids(rows, prompts: list[str], seed: int, probability: float) -> set[str]:
    """The records the fault-injected oracle corrupts: the same seeded
    per-prompt draw acceptance criterion 5 replicates."""
    return {row[0] for row, prompt in zip(rows, prompts)
            if random.Random(f"{seed}:{prompt}").random() < probability}


def evaluation(out: Path, rows, bad: set[str], transport: set[str],
               conditions: list[list[int]]) -> int:
    """Check an evaluate output directory; return the records delivered.

    ``bad`` records must be judged wrong on some hop and on the final
    answer, ``transport`` records must be transport failures, and every
    other record must be judged right on every hop and the final answer.
    """
    records = read_jsonl(out / "eval_records.jsonl")
    ids = [r["instance_id"] for r in records]
    expect(Counter(ids) == Counter(row[0] for row in rows),
           f"{out.name}: record log holds {len(ids)} records, not each of "
           f"{len(rows)} once")
    for r in records:
        rid = r["instance_id"]
        if rid in transport:
            expect(r["failure_class"] == "transport",
                   f"{out.name}: record {rid} should be a transport failure")
            continue
        expect(r["failure_class"] is None,
               f"{out.name}: record {rid} failed as {r['failure_class']}")
        good = rid not in bad
        expect(all(r["hop_correct"]) == good and r["final_correct"] == good,
               f"{out.name}: record {rid} judged {r['hop_correct']}/"
               f"{r['final_correct']}, expected all {good}")
    report = read_jsonl(out / "report.jsonl")
    summary, rows_out = report[0], report[1:]
    expect(summary["total"] == len(rows)
           and summary["transport_failures"] == len(transport)
           and summary["final_correct_count"] == len(rows) - len(bad) - len(transport),
           f"{out.name}: report totals {summary}")
    expect([r["condition"] for r in rows_out] == conditions,
           f"{out.name}: report conditions {[r['condition'] for r in rows_out]}")
    expect(all(r["final_accuracy"] == 1.0 for r in rows_out),
           f"{out.name}: oracle closure broken: {rows_out}")
    return len(records) - len(transport)


def _groups(rows) -> dict[str, list]:
    groups: dict[str, list] = defaultdict(list)
    for row in rows:
        groups[row[3]].append(row)
    return groups


def expected_partitions(rows, n: int) -> tuple[list[list], dict[str, int]]:
    """Bridge groups by descending size then label, dealt round-robin."""
    ordered = sorted(_groups(rows).items(), key=lambda kv: (-len(kv[1]), kv[0]))
    parts: list[list] = [[] for _ in range(n)]
    mapping = {}
    for k, (e2, members) in enumerate(ordered):
        mapping[e2] = k % n
        parts[k % n].extend(members)
    return parts, mapping


def pipeline(it: Path, data, train_idx: int, test_idx: int, n_parts: int,
             cap: int, partition_err: str, partition_out: str) -> int:
    """Check the dataset pipeline outputs; return the input rows accounted
    for (dealt to a partition, or rejected with a reason)."""
    m = re.search(r"(\d+) records, (\d+) invalid, (\d+) conflicting", partition_err)
    expect(m is not None, f"partition printed no rejection counts: {partition_err!r}")
    accepted, invalid, conflicting = map(int, m.groups())
    expect((accepted, invalid, conflicting)
           == (len(data.accepted), data.n_invalid, data.n_conflicting),
           f"ingest accepted/invalid/conflicting {accepted}/{invalid}/{conflicting}, "
           f"planted {len(data.accepted)}/{data.n_invalid}/{data.n_conflicting}")
    m = re.search(r"partition sizes:([\d ]+)", partition_out)
    expect(m is not None, "partition printed no sizes")
    dealt = sum(int(s) for s in m.group(1).split())
    parts, mapping = expected_partitions(data.accepted, n_parts)
    expect(dealt == len(data.accepted), f"partitions hold {dealt} records")

    train = read_tsv(it / "split" / "train.tsv")
    test = read_tsv(it / "split" / "test.tsv")
    expect(train == parts[train_idx], "train split differs from the grouping rule")
    expect(test == parts[test_idx], "test split differs from the grouping rule")
    expect(not ({r[3] for r in train} & {r[3] for r in test}),
           "train and test share a bridge entity")
    written_map = json.loads((it / "split" / "partition_map.json").read_text())
    expect(written_map == mapping, "partition map differs from the grouping rule")

    stats = json.loads((it / "stats.json").read_text())
    train_pairs = {(r[2], r[4]) for r in train}
    test_pairs = {(r[2], r[4]) for r in test}
    shared = train_pairs & test_pairs
    expect(stats == {
        "train_size": len(train), "test_size": len(test),
        "bridge_entities_train": len({r[3] for r in train}),
        "bridge_entities_test": len({r[3] for r in test}),
        "bridge_overlap": 0,
        "relation_pairs_train": len(train_pairs),
        "relation_pairs_test": len(test_pairs),
        "relation_pair_overlap": len(shared),
        "rows_covered_by_shared_pairs": sum((r[2], r[4]) in shared for r in test),
    }, f"overlap stats {stats}")

    capped = read_tsv(it / "capped.tsv")
    kept = iter(train)
    expect(all(any(row == t for t in kept) for row in capped),
           "capped rows are not an order-preserving subset of train")
    per_pair = Counter((r[2], r[4]) for r in train)
    capped_pair = Counter((r[2], r[4]) for r in capped)
    expect(all(capped_pair[p] == min(cap, c) for p, c in per_pair.items()),
           f"cap {cap} not applied per relation pair")

    extended = read_tsv(it / "three_hop.tsv")
    want = [row + min(data.third_hop[row[5]]) for row in capped
            if row[5] in data.third_hop]
    expect(extended == want,
           f"extend3 wrote {len(extended)} rows, expected {len(want)}")

    corpus = read_jsonl(it / "corpus.jsonl")
    expect(len(corpus) == 2 * len(capped), f"corpus has {len(corpus)} pairs")
    for k, row in enumerate(capped):
        for entry, hops, answer in ((corpus[2 * k], 1, row[3]),
                                    (corpus[2 * k + 1], 2, row[5])):
            expect(entry["hops"] == hops and entry["representation"] == "python_static"
                   and json.loads(entry["response"])["Answer"] == answer,
                   f"corpus pair for record {row[0]} ({hops} hops) is wrong")
    return dealt + invalid + conflicting
