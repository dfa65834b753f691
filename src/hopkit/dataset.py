"""Dataset pipeline: ingestion, bridge-entity partitioning, relation-pair
capping, the three-hop extension, overlap statistics, and fine-tuning corpus
assembly.

All operations are pure functions over value data and deterministic given
their seed, so whole pipelines are reproducible byte for byte.
"""

from __future__ import annotations

import functools
import json
import random
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from . import prompts
from .kg import Entity, ReasoningInstance, Triplet, make_chain
from .prompts import DatasetStyle
from .render import RepresentationTag, render as render_instance


class IngestError(ValueError):
    pass


@functools.lru_cache(maxsize=None)
def _columns(n_labels: int) -> tuple[str, ...]:
    """Column names of a label chain: ``e1 r1 e2 r2 e3 ...``."""
    return tuple(f"{'er'[i % 2]}{i // 2 + 1}" for i in range(n_labels))


@dataclass(frozen=True, slots=True)
class SourceRecord:
    """One row from the input dataset: an id and the alternating
    entity/relation labels ``(e1, r1, e2, ..., rn, e(n+1))`` of an n-hop
    chain, n >= 2.
    """

    id: str
    labels: tuple[str, ...]

    def __post_init__(self):
        if not isinstance(self.id, str) or not self.id.strip():
            raise ValueError(f"record id must be a non-blank string, got {self.id!r}")
        n = len(self.labels)
        if n < 5 or n % 2 == 0:
            missing = _columns(max(5, n + 1))[n:]
            raise ValueError(f"record {self.id}: missing fields: {', '.join(missing)}")
        for name, label in zip(_columns(n), self.labels):
            if not isinstance(label, str) or not label.strip():
                raise ValueError(f"record {self.id}: empty field {name}")

    @property
    def n_hops(self) -> int:
        return len(self.labels) // 2

    @property
    def triples(self) -> list[tuple[str, str, str]]:
        """(head, relation, tail) labels of each hop."""
        labels = self.labels
        return list(zip(labels[0::2], labels[1::2], labels[2::2]))

    @property
    def bridge(self) -> str:
        """The first bridge entity, e2."""
        return self.labels[2]

    @property
    def relation_pair(self) -> tuple[str, str]:
        """The first two relations, (r1, r2)."""
        return self.labels[1], self.labels[3]

    @property
    def answer(self) -> str:
        return self.labels[-1]

    def to_chain(self) -> ReasoningInstance:
        return make_chain(*self.labels, source_id=self.id)

    def to_dict(self) -> dict:
        return {"id": self.id, **dict(zip(_columns(len(self.labels)), self.labels))}


@dataclass(frozen=True)
class SplitSpec:
    """Round-robin partition count plus which partitions become train/test."""

    num_partitions: int = 8
    train_partition_index: int = 2
    test_partition_index: int = 4

    def __post_init__(self):
        if self.num_partitions < 2:
            raise ValueError("need at least 2 partitions to pick train and test")
        for idx in (self.train_partition_index, self.test_partition_index):
            if not 0 <= idx < self.num_partitions:
                raise ValueError(f"partition index {idx} out of range")
        if self.train_partition_index == self.test_partition_index:
            raise ValueError("train and test partitions must differ")


@dataclass(frozen=True)
class OverlapStats:
    """Train/test intersection counts, one field per report row."""

    train_size: int
    test_size: int
    bridge_entities_train: int
    bridge_entities_test: int
    bridge_overlap: int
    relation_pairs_train: int
    relation_pairs_test: int
    relation_pair_overlap: int
    rows_covered_by_shared_pairs: int

    def to_dict(self) -> dict:
        return dict(self.__dict__)

    def to_table(self) -> str:
        rows = [
            ("Dataset Size", self.train_size, self.test_size, "-"),
            ("Bridge Entities (e2)", self.bridge_entities_train,
             self.bridge_entities_test, self.bridge_overlap),
            ("Relations (r1, r2)", self.relation_pairs_train,
             self.relation_pairs_test, self.relation_pair_overlap),
            ("No. of row with (r1, r2)", self.train_size, self.test_size,
             self.rows_covered_by_shared_pairs),
        ]
        header = f"{'':28} {'Train':>8} {'Test':>8} {'Intersection':>14}"
        lines = [header]
        for label, train, test, inter in rows:
            lines.append(f"{label:28} {train:>8} {test:>8} {str(inter):>14}")
        return "\n".join(lines)


@dataclass(frozen=True)
class FinetuneRecord:
    """One prompt/response training pair."""

    prompt: str
    response: str
    hops: int
    representation: str

    def to_dict(self) -> dict:
        return {"prompt": self.prompt, "response": self.response,
                "hops": self.hops, "representation": self.representation}


@dataclass
class IngestResult:
    """Accepted records plus per-row rejection bookkeeping."""

    records: list[SourceRecord]
    invalid_rows: list[tuple[int, str]] = field(default_factory=list)
    conflicting_rows: list[tuple[int, str]] = field(default_factory=list)

    @property
    def n_rejected(self) -> int:
        return len(self.invalid_rows) + len(self.conflicting_rows)


def _record_from_fields(fields: dict) -> SourceRecord:
    """A record from one row's column -> cell map.  Trailing empty cells,
    which a shorter chain leaves in a file of longer ones, are dropped.
    """
    labels = [fields.get(c) for c in _columns(len(fields) + 1)]
    while labels and labels[-1] in (None, ""):
        labels.pop()
    return SourceRecord(fields.get("id"), tuple(labels))


def _iter_rows(path: Path, format: str):
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    if format == "tsv":
        if not lines:
            return
        header = lines[0].split("\t")
        columns = {"id", *_columns(len(header) - 1)}
        if len(header) < 6 or len(header) % 2 or set(header) != columns:
            raise IngestError(
                f"TSV header must be id e1 r1 ... rn e(n+1) with n >= 2, got {header}"
            )
        for lineno, line in enumerate(lines[1:], start=2):
            if not line.strip():
                continue
            values = line.split("\t")
            if len(values) != len(header):
                yield lineno, None, f"expected {len(header)} fields, got {len(values)}"
                continue
            yield lineno, dict(zip(header, values)), None
    elif format == "json_lines":
        for lineno, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                yield lineno, None, f"bad JSON: {exc}"
                continue
            if not isinstance(obj, dict):
                yield lineno, None, "row is not an object"
                continue
            yield lineno, obj, None
    else:
        raise IngestError(f"unknown format {format!r}")


def ingest(path: str | Path, format: str = "tsv") -> IngestResult:
    """Read source records from a TSV or line-delimited JSON file.

    Invalid rows and rows whose facts conflict with an earlier accepted row
    (same (head, relation) key, different tail) are counted and reported.
    More than 50% invalid rows aborts with a diagnostic.
    """
    path = Path(path)
    if not path.exists():
        raise IngestError(f"no such file: {path}")
    result = IngestResult(records=[])
    facts: dict[tuple[str, str], str] = {}
    seen_ids: set[str] = set()
    total = 0
    for lineno, fields, problem in _iter_rows(path, format):
        total += 1
        if problem is not None:
            result.invalid_rows.append((lineno, problem))
            continue
        try:
            record = _record_from_fields(fields)
        except (ValueError, TypeError) as exc:
            result.invalid_rows.append((lineno, str(exc)))
            continue
        if record.id in seen_ids:
            result.invalid_rows.append((lineno, f"duplicate id {record.id!r}"))
            continue
        hops = record.triples
        conflict = None
        for head, rel, tail in hops:
            existing = facts.get((head, rel))
            if existing is not None and existing != tail:
                conflict = f"({head!r}, {rel!r}) already maps to {existing!r}, not {tail!r}"
                break
        if conflict is not None:
            result.conflicting_rows.append((lineno, conflict))
            continue
        for head, rel, tail in hops:
            facts[(head, rel)] = tail
        seen_ids.add(record.id)
        result.records.append(record)
    if total and len(result.invalid_rows) > total / 2:
        raise IngestError(
            f"{len(result.invalid_rows)} of {total} rows invalid; "
            f"first problem at line {result.invalid_rows[0][0]}: {result.invalid_rows[0][1]}"
        )
    return result


def write_records(records: list[SourceRecord], path: str | Path, format: str = "tsv") -> None:
    path = Path(path)
    if format == "tsv":
        # Shorter chains leave their trailing cells empty.
        width = max((len(r.labels) for r in records), default=5)
        lines = ["\t".join(("id", *_columns(width)))]
        for r in records:
            lines.append("\t".join((r.id, *r.labels)) + "\t" * (width - len(r.labels)))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    elif format == "json_lines":
        path.write_text(
            "".join(json.dumps(r.to_dict()) + "\n" for r in records), encoding="utf-8"
        )
    else:
        raise IngestError(f"unknown format {format!r}")


def _deal(
    records: list[SourceRecord], num_partitions: int
) -> tuple[list[list[SourceRecord]], dict[str, int]]:
    """Group records by bridge entity (e2), order the groups by descending
    size with an ascending label tiebreak, and deal them to partitions
    round-robin.  Returns the partitions and the e2 -> partition map.
    """
    groups: dict[str, list[SourceRecord]] = defaultdict(list)
    for record in records:
        groups[record.bridge].append(record)
    ordered = sorted(groups.items(), key=lambda kv: (-len(kv[1]), kv[0]))
    partition_map = {e2: k % num_partitions for k, (e2, _) in enumerate(ordered)}
    partitions: list[list[SourceRecord]] = [[] for _ in range(num_partitions)]
    for e2, members in ordered:
        partitions[partition_map[e2]].extend(members)
    return partitions, partition_map


def partition_by_bridge(
    records: list[SourceRecord], spec: SplitSpec
) -> tuple[list[SourceRecord], list[SourceRecord], dict[str, int]]:
    """Split records into round-robin partitions keyed by the bridge entity,
    so every unique bridge entity lands in exactly one partition.  Returns
    the partitions at the spec's train/test indices plus the full
    e2 -> partition map.
    """
    if not records:
        raise ValueError("no records to partition")
    partitions, partition_map = _deal(records, spec.num_partitions)
    return (
        partitions[spec.train_partition_index],
        partitions[spec.test_partition_index],
        partition_map,
    )


def all_partitions(
    records: list[SourceRecord], num_partitions: int
) -> list[list[SourceRecord]]:
    """Every partition under the same grouping rule as partition_by_bridge."""
    return _deal(records, num_partitions)[0]


def cap_relation_pairs(
    records: list[SourceRecord], cap: int, seed: int
) -> list[SourceRecord]:
    """Keep at most ``cap`` records per (r1, r2) pair, sampled without
    replacement with a seeded RNG.  Output preserves input order.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    by_pair: dict[tuple[str, str], list[int]] = defaultdict(list)
    for i, record in enumerate(records):
        by_pair[record.relation_pair].append(i)
    rng = random.Random(seed)
    keep: set[int] = set()
    for pair in sorted(by_pair):
        indices = by_pair[pair]
        if len(indices) <= cap:
            keep.update(indices)
        else:
            keep.update(rng.sample(indices, cap))
    return [record for i, record in enumerate(records) if i in keep]


def extend_to_three_hops(
    two_hop: list[SourceRecord],
    extra_facts: list[Triplet],
    e3_whitelist: set[Entity],
) -> list[SourceRecord]:
    """Extend two-hop records with a third hop (e3, r3, e4) from extra_facts.

    Only records whose e3 is in the whitelist and has at least one outgoing
    fact are emitted; among multiple candidate third hops the
    lexicographically smallest (r3, e4) label pair wins.
    """
    whitelist = {e.label for e in e3_whitelist}
    candidates: dict[str, list[tuple[str, str]]] = defaultdict(list)
    for fact in extra_facts:
        candidates[fact.head.label].append((fact.relation.label, fact.tail.label))
    out = []
    for record in two_hop:
        if record.n_hops != 2:
            raise ValueError(f"record {record.id} is not two-hop")
        if record.answer not in whitelist or record.answer not in candidates:
            continue
        out.append(SourceRecord(record.id, record.labels + min(candidates[record.answer])))
    return out


def compute_overlap_stats(
    train: list[SourceRecord], test: list[SourceRecord]
) -> OverlapStats:
    """Distinct bridge-entity and relation-pair counts plus intersections."""
    train_bridges = {r.bridge for r in train}
    test_bridges = {r.bridge for r in test}
    train_pairs = {r.relation_pair for r in train}
    test_pairs = {r.relation_pair for r in test}
    shared_pairs = train_pairs & test_pairs
    return OverlapStats(
        train_size=len(train),
        test_size=len(test),
        bridge_entities_train=len(train_bridges),
        bridge_entities_test=len(test_bridges),
        bridge_overlap=len(train_bridges & test_bridges),
        relation_pairs_train=len(train_pairs),
        relation_pairs_test=len(test_pairs),
        relation_pair_overlap=len(shared_pairs),
        rows_covered_by_shared_pairs=sum(
            1 for r in test if r.relation_pair in shared_pairs
        ),
    )


def build_finetune_corpus(
    records: list[SourceRecord],
    representation: RepresentationTag,
    style: DatasetStyle,
) -> list[FinetuneRecord]:
    """Training pairs: per record, one one-hop example built from the first
    hop and one two-hop example for the full chain.  Responses are answer
    envelopes whose body is the record rendered in ``representation``.
    """
    out = []
    for record in records:
        if record.n_hops != 2:
            raise ValueError(f"record {record.id} is not two-hop")
        chain = record.to_chain()
        one_hop = ReasoningInstance(hops=chain.hops[:1], source_id=record.id)
        for sub_chain, hops in ((one_hop, 1), (chain, 2)):
            try:
                example = render_instance(sub_chain, representation)
                prompt = prompts.build_prompt(
                    sub_chain, mode=prompts.PromptMode.ZERO_SHOT, style=style,
                    representation=representation,
                ).full_prompt
            except ValueError as exc:
                raise ValueError(f"record {record.id}: {exc}") from exc
            out.append(FinetuneRecord(
                prompt=prompt,
                response=example.envelope,
                hops=hops,
                representation=representation.value,
            ))
    return out


def write_finetune_corpus(corpus: list[FinetuneRecord], path: str | Path) -> None:
    Path(path).write_text(
        "".join(json.dumps(r.to_dict()) + "\n" for r in corpus), encoding="utf-8"
    )
