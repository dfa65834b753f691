"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts.
"""

import functools
import itertools
import json
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from hopkit import (EvalRecord, SourceRecord, SplitSpec,
                    Triplet, add_fact, build_prompt, cap_relation_pairs,
                    compute_metrics, compute_overlap_stats,
                    extend_to_three_hops, infer, make_chain,
                    partition_by_bridge, render)
from hopkit.cli import REP_FLAGS, main
from hopkit.dataset import all_partitions
from hopkit.prompts import DatasetStyle, PromptMode
from hopkit.render import RepresentationTag, parse
from tests.conftest import GOLDEN_DIR, random_chain

ALL_TAGS = list(RepresentationTag)


def criterion(number, description, budget):
    """Print one PASS/FAIL line per criterion and enforce its time budget."""

    def decorator(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.monotonic()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number}: FAIL - {description}")
                raise
            elapsed = time.monotonic() - start
            print(f"ACCEPTANCE {number}: PASS - {description} ({elapsed:.1f}s)")
            assert elapsed < budget, f"criterion {number} over budget: {elapsed:.1f}s"

        return wrapper

    return decorator


def synth_records(final_incorrect, final_correct):
    chain = make_chain("x", "r", "y", "s", "z")
    out = []
    for i in range(final_incorrect + final_correct):
        out.append(EvalRecord(
            instance_id=f"i{i}",
            gold=chain,
            completion="",
            extracted_answer="z",
            final_correct=i >= final_incorrect,
            hop_correct=(True, True),
        ))
    return out


# (final incorrect, final correct) -> printed accuracy, reconcilable rows only
TWO_HOP_COUNT_PAIRS = [
    (615, 1979, 76.3), (965, 776, 44.6), (995, 352, 26.1), (408, 609, 59.9),
    (145, 1005, 87.4), (82, 569, 87.4), (102, 1093, 91.5), (119, 882, 88.1),
]
THREE_HOP_COUNT_PAIRS = [
    (51, 14, 21.5), (164, 195, 54.3), (82, 25, 23.4), (19, 4, 17.4),
    (50, 29, 36.7), (35, 12, 25.5), (97, 164, 62.8), (61, 157, 72.0),
    (44, 191, 81.3), (38, 203, 84.2),
]


@criterion(1, "metric reproduction from published count pairs", budget=1.0)
def test_criterion_1_metric_reproduction():
    for incorrect, correct, printed in TWO_HOP_COUNT_PAIRS + THREE_HOP_COUNT_PAIRS:
        report = compute_metrics(synth_records(incorrect, correct))
        row = report.rows[-1]
        assert (row.final_incorrect, row.final_correct) == (incorrect, correct)
        assert round(100 * row.conditional_accuracy, 1) == printed


@criterion(2, "golden-format fidelity for renders and prompts", budget=1.0)
def test_criterion_2_golden_format_fidelity(example_chain):
    produced = {}
    for tag in ALL_TAGS:
        example = render(example_chain, tag)
        produced[f"body_{tag.value}.txt"] = example.body
        produced[f"envelope_{tag.value}.txt"] = example.envelope
    for style in DatasetStyle:
        produced[f"prompt_zero_{style.value}.txt"] = build_prompt(
            example_chain, PromptMode.ZERO_SHOT, style
        ).full_prompt
        produced[f"prompt_context_{style.value}.txt"] = build_prompt(
            example_chain, PromptMode.WITH_CONTEXT, style
        ).full_prompt
        for tag in ALL_TAGS:
            produced[f"prompt_one_{tag.value}_{style.value}.txt"] = build_prompt(
                example_chain, PromptMode.ONE_SHOT, style, tag,
                demonstration=example_chain,
            ).full_prompt
    golden_files = sorted(p.name for p in GOLDEN_DIR.glob("*.txt"))
    assert golden_files == sorted(produced)
    for name, text in produced.items():
        golden = (GOLDEN_DIR / name).read_text(encoding="utf-8")
        assert text + "\n" == golden, f"golden mismatch: {name}"


@criterion(3, "round-trip and syntax/execution of 1000 random chains", budget=60.0)
def test_criterion_3_round_trip_property(tmp_path):
    rng = random.Random(20240301)
    chains = [random_chain(rng) for _ in range(1000)]
    python_files = []
    dynamic_manifest = []
    for i, chain in enumerate(chains):
        for tag in ALL_TAGS:
            example = render(chain, tag)
            parsed = parse(tag, example.body)
            assert sorted(parsed.triplets) == sorted(chain.hops)
            if tag in (RepresentationTag.PYTHON_STATIC, RepresentationTag.PYTHON_DYNAMIC):
                path = tmp_path / f"chain{i}_{tag.value}.py"
                path.write_text(example.body, encoding="utf-8")
                python_files.append(str(path))
                if tag is RepresentationTag.PYTHON_DYNAMIC and len(dynamic_manifest) < 50:
                    dynamic_manifest.append([str(path), chain.answer])
    # one external interpreter call syntax-checks every python body
    subprocess.run(
        [sys.executable, "-m", "py_compile", *python_files], check=True
    )
    # one more executes the 50-chain dynamic sample and checks final output
    driver = tmp_path / "driver.py"
    driver.write_text(
        "import contextlib, io, json, sys\n"
        "for path, expected in json.load(open(sys.argv[1])):\n"
        "    buf = io.StringIO()\n"
        "    with contextlib.redirect_stdout(buf):\n"
        "        exec(compile(open(path).read(), path, 'exec'), {})\n"
        "    lines = [l for l in buf.getvalue().splitlines() if l.strip()]\n"
        "    assert lines and lines[-1] == expected, path\n"
        "print('all-ok')\n",
        encoding="utf-8",
    )
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(dynamic_manifest), encoding="utf-8")
    result = subprocess.run(
        [sys.executable, str(driver), str(manifest)],
        capture_output=True, text=True, check=True,
    )
    assert result.stdout.strip() == "all-ok"


def random_dataset(rng, n_records, n_bridges):
    return [
        SourceRecord(str(i), (f"h{i}", f"r{rng.randrange(3)}",
                              f"b{rng.randrange(n_bridges)}",
                              f"s{rng.randrange(3)}", f"t{i}"))
        for i in range(n_records)
    ]


@criterion(4, "partition disjointness, conservation, and balance", budget=30.0)
def test_criterion_4_partition_properties():
    rng = random.Random(7)
    for _ in range(1000):
        records = random_dataset(rng, rng.randrange(2, 40), rng.randrange(1, 12))
        n = rng.randrange(2, 9)
        partitions = all_partitions(records, n)
        bridge_sets = [{r.bridge for r in p} for p in partitions]
        for a, b in itertools.combinations(bridge_sets, 2):
            assert not (a & b)
        combined = sorted(r.id for p in partitions for r in p)
        assert combined == sorted(r.id for r in records)
        sizes = [len(p) for p in partitions]
        group_sizes = [
            sum(1 for r in records if r.bridge == e2) for e2 in {r.bridge for r in records}
        ]
        assert max(sizes) - min(sizes) <= max(group_sizes)
    # a fixture shaped like the two-hop source dataset: many rows, shared
    # bridge entities, train/test from different partitions
    records = random_dataset(rng, 2000, 150)
    train, test, _ = partition_by_bridge(records, SplitSpec())
    stats = compute_overlap_stats(train, test)
    assert stats.bridge_overlap == 0


def eval_labels(i, n_hops):
    """The labels of record i: work{i} -> bridge{i} -> person{i} -> place{i}."""
    return [f"work{i}", "composer", f"bridge{i}", "spouse", f"person{i}",
            "birthplace", f"place{i}"][:2 * n_hops + 1]


def write_eval_dataset(path, n, n_hops=2):
    header = ["id", "e1", "r1", "e2", "r2", "e3", "r3", "e4"][:2 * n_hops + 2]
    lines = ["\t".join(header)]
    for i in range(n):
        lines.append("\t".join([str(i), *eval_labels(i, n_hops)]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@criterion(5, "oracle closure and fault-injection recount", budget=60.0)
def test_criterion_5_oracle_closure(tmp_path, capsys):
    source = tmp_path / "records.tsv"
    write_eval_dataset(source, 500)

    clean_out = tmp_path / "clean"
    assert main(["evaluate", "--input", str(source), "--output", str(clean_out),
                 "--oracle"]) == 0
    report = [json.loads(l)
              for l in (clean_out / "report.jsonl").read_text().splitlines()]
    assert report[0]["overall_accuracy"] == 1.0
    for row in report[1:]:
        assert row["final_accuracy"] == 1.0

    # Faulting hop k, in every representation and at every k, makes hops k
    # and k + 1 of exactly the replicated faulted records False, leaves the
    # other hops True, and keeps the final answer unless k is the last hop.
    seed = 123
    for n_hops in (2, 3):
        source = tmp_path / f"records{n_hops}.tsv"
        write_eval_dataset(source, 500, n_hops)
        chains = [make_chain(*eval_labels(i, n_hops)) for i in range(500)]
        for flag, tag in REP_FLAGS.items():
            # replicate the per-prompt corruption decisions independently
            corrupted_ids = set()
            for i, chain in enumerate(chains):
                prompt = build_prompt(chain, PromptMode.ZERO_SHOT, DatasetStyle.STATEMENT,
                                      RepresentationTag(tag)).full_prompt
                if random.Random(f"{seed}:{prompt}").random() < 0.3:
                    corrupted_ids.add(str(i))
            assert 0 < len(corrupted_ids) < 500
            for hop in range(n_hops):
                fault_out = tmp_path / f"fault{n_hops}-{flag}-{hop}"
                assert main(["evaluate", "--input", str(source), "--output",
                             str(fault_out), "--oracle", "--rep", flag,
                             "--fault-hop", str(hop), "--fault-prob", "0.3",
                             "--seed", str(seed)]) == 0
                records = [json.loads(l) for l in
                           (fault_out / "eval_records.jsonl").read_text().splitlines()]
                assert len(records) == 500
                for r in records:
                    faulted = r["instance_id"] in corrupted_ids
                    assert r["hop_correct"] == [
                        not (faulted and k in (hop, hop + 1)) for k in range(n_hops)
                    ], (flag, hop, r["instance_id"])
                    assert r["final_correct"] is not (faulted and hop == n_hops - 1)
                fault_report = [json.loads(l) for l in
                                (fault_out / "report.jsonl").read_text().splitlines()]
                assert fault_report[0]["final_correct_count"] == sum(
                    r["final_correct"] for r in records)
                for row in fault_report[1:]:
                    matching = [r for r in records
                                if all(r["hop_correct"][h - 1] for h in row["condition"])]
                    assert row["final_correct"] == sum(r["final_correct"] for r in matching)
                    assert row["final_incorrect"] == sum(
                        not r["final_correct"] for r in matching)
                # uncorrupted oracle answers stay exact
                assert fault_report[-1]["final_accuracy"] == 1.0
    capsys.readouterr()


def brute_force_walk(triplets, start, relations):
    current = start
    for relation in relations:
        matches = [t.tail for t in triplets if t.head == current and t.relation == relation]
        if not matches:
            return None
        current = matches[0]
    return current


@criterion(6, "infer equals brute-force edge walk on 1000 random graphs", budget=30.0)
def test_criterion_6_inference_oracle_equivalence():
    rng = random.Random(99)
    for _ in range(1000):
        n_entities = rng.randrange(3, 13)
        entities = [f"n{j}" for j in range(n_entities)]
        vocab = [f"r{j}" for j in range(rng.choice([2, 3]))]
        kg = {}
        triplets = []
        for head in entities:
            for relation in vocab:
                if rng.random() < 0.6:
                    fact = Triplet(head, relation, rng.choice(entities))
                    add_fact(kg, fact)
                    triplets.append(fact)
        sequences = [
            seq for length in (1, 2, 3)
            for seq in itertools.product(vocab, repeat=length)
        ]
        for start in entities:
            for seq in sequences:
                assert infer(kg, start, list(seq)) == brute_force_walk(
                    triplets, start, seq
                )


@criterion(7, "three-hop extension invariants on random fixtures", budget=10.0)
def test_criterion_7_three_hop_extension():
    rng = random.Random(17)
    for _ in range(200):
        records = [
            SourceRecord(str(i), (f"h{i}", "r", f"b{i}", "s", f"c{rng.randrange(8)}"))
            for i in range(rng.randrange(1, 30))
        ]
        facts = [
            Triplet(f"c{j}", f"u{k}", f"d{j}{k}")
            for j in range(8) for k in range(rng.randrange(0, 3))
        ]
        whitelist = {f"c{j}" for j in range(8) if rng.random() < 0.5}
        fact_keys = set(facts)
        extended = extend_to_three_hops(records, facts, whitelist)
        assert len(extended) <= len(records)
        answers = {record.id: record.answer for record in records}
        for record in extended:
            assert record.n_hops == 3
            assert record.labels[4] in whitelist
            assert tuple(record.labels[4:7]) in fact_keys
            assert record.hops[2].head == answers[record.id]


@criterion(8, "relation-pair cap of 700 to exactly 500, deterministic", budget=5.0)
def test_criterion_8_cap_determinism():
    records = [
        SourceRecord(str(i), (f"h{i}", "composer", f"b{i}", "spouse", f"t{i}"))
        for i in range(700)
    ]
    first = cap_relation_pairs(records, cap=500, seed=41)
    second = cap_relation_pairs(records, cap=500, seed=41)
    assert len(first) == 500
    assert first == second
    assert set(r.id for r in first) <= set(r.id for r in records)
