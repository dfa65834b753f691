"""Dataset pipeline: ingestion, bridge-entity partitioning, relation-pair
capping, the three-hop extension, overlap statistics, and fine-tuning corpus
assembly.

All operations are pure functions over value data and deterministic given
their seed, so whole pipelines are reproducible byte for byte.
"""

from __future__ import annotations

import functools
import itertools
import json
import operator
import random
from collections import defaultdict, namedtuple
from collections.abc import Iterable, Iterator
from json.encoder import encode_basestring_ascii as _json_string
from pathlib import Path
from typing import TYPE_CHECKING

from .kg import ReasoningInstance, Triplet, first_bad_label
from .render import RepresentationTag, render as render_instance

if TYPE_CHECKING:
    from .prompts import DatasetStyle


@functools.lru_cache(maxsize=None)
def _columns(n_labels: int) -> tuple[str, ...]:
    """Column names of a label chain: ``e1 r1 e2 r2 e3 ...``."""
    return tuple(f"{'er'[i % 2]}{i // 2 + 1}" for i in range(n_labels))


class SourceRecord(ReasoningInstance):
    """One row from the input dataset: a chain of n >= 2 hops whose
    ``source_id`` is the row's id, built as ``SourceRecord(id, labels)``.
    """

    __slots__ = ()

    def __new__(cls, id: str, labels: tuple[str, ...]):
        if not isinstance(id, str) or not id.strip():
            raise ValueError(f"record id must be a non-blank string, got {id!r}")
        n = len(labels)
        if n < 5 or n % 2 == 0:
            missing = _columns(max(5, n + 1))[n:]
            raise ValueError(f"record {id}: missing fields: {', '.join(missing)}")
        bad = first_bad_label(labels)
        if bad is not None:
            raise ValueError(f"record {id}: empty field {_columns(n)[bad]}")
        return tuple.__new__(cls, (tuple(labels), id))

    def __getnewargs__(self):  # copy and pickle call __new__ with these
        return self.id, self.labels

    @property
    def id(self) -> str:
        return self.source_id

    @property
    def bridge(self) -> str:
        """The first bridge entity, e2."""
        return self.labels[2]

    @property
    def relation_pair(self) -> tuple[str, str]:
        """The first two relations, (r1, r2)."""
        return self.labels[1], self.labels[3]

    def to_dict(self) -> dict:
        return {"id": self.id, **dict(zip(_columns(len(self.labels)), self.labels))}


class SplitSpec(namedtuple(
        "SplitSpec", "num_partitions train_partition_index test_partition_index")):
    """Round-robin partition count plus which partitions become train/test."""

    __slots__ = ()

    def __new__(cls, num_partitions: int = 8, train_partition_index: int = 2,
                test_partition_index: int = 4):
        if num_partitions < 2:
            raise ValueError("need at least 2 partitions to pick train and test")
        for idx in (train_partition_index, test_partition_index):
            if not 0 <= idx < num_partitions:
                raise ValueError(f"partition index {idx} out of range")
        if train_partition_index == test_partition_index:
            raise ValueError("train and test partitions must differ")
        return tuple.__new__(cls, (num_partitions, train_partition_index,
                                   test_partition_index))


class OverlapStats(namedtuple("OverlapStats", (
        "train_size test_size bridge_entities_train bridge_entities_test "
        "bridge_overlap relation_pairs_train relation_pairs_test "
        "relation_pair_overlap rows_covered_by_shared_pairs"))):
    """Train/test intersection counts, one field per report row."""

    __slots__ = ()

    def to_dict(self) -> dict:
        return self._asdict()

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


class IngestResult:
    """Accepted records plus per-row rejection bookkeeping."""

    def __init__(self):
        self.records: list[SourceRecord] = []
        self.invalid_rows: list[tuple[int, str]] = []
        self.conflicting_rows: list[tuple[int, str]] = []

    @property
    def n_rejected(self) -> int:
        return len(self.invalid_rows) + len(self.conflicting_rows)


def read_lines(path: str | Path) -> list[str]:
    """The lines of the text file at ``path``, less a byte-order mark, split
    at line ends only: ``str.splitlines`` would also split at U+2028 and the like."""
    lines = Path(path).read_text(encoding="utf-8-sig").split("\n")
    if not lines[-1]:
        lines.pop()
    return lines


def _rows(path: Path, format: str):
    """Yield ``(lineno, id, labels)`` for each non-blank row, or
    ``(lineno, problem, None)`` for a row with no fields to read.  TSV
    columns are matched by header name, in any order.
    """
    lines = read_lines(path)
    if format == "tsv":
        if not lines:
            return
        header = lines[0].split("\t")
        width = len(header)
        if width < 6 or width % 2 or set(header) != {"id", *_columns(width - 1)}:
            raise ValueError(
                f"TSV header must be id e1 r1 ... rn e(n+1) with n >= 2, got {header}"
            )
        id_at = header.index("id")
        pick_labels = operator.itemgetter(*map(header.index, _columns(width - 1)))
        for lineno, line in enumerate(lines[1:], start=2):
            if not line.strip():
                continue
            values = line.split("\t")
            if len(values) != width:
                yield lineno, f"expected {width} fields, got {len(values)}", None
                continue
            yield lineno, values[id_at], pick_labels(values)
    elif format == "json_lines":
        for lineno, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                yield lineno, f"bad JSON: {exc}", None
                continue
            if not isinstance(obj, dict):
                yield lineno, "row is not an object", None
                continue
            yield lineno, obj.get("id"), tuple(map(obj.get, _columns(len(obj) + 1)))
    else:
        raise ValueError(f"unknown format {format!r}")


def ingest(path: str | Path, format: str = "tsv") -> IngestResult:
    """Read source records from a TSV or line-delimited JSON file.

    Invalid rows and rows whose facts conflict with an earlier accepted row
    (same (head, relation) key, different tail) are counted and reported.
    More than 50% invalid rows raises ValueError.
    """
    path = Path(path)
    if not path.exists():
        raise ValueError(f"no such file: {path}")
    result = IngestResult()
    facts: dict[tuple[str, str], str] = {}
    seen_ids: set[str] = set()
    for lineno, id, labels in _rows(path, format):
        if labels is None:  # a row without fields: ``id`` is its problem
            result.invalid_rows.append((lineno, id))
            continue
        # Trailing empty cells are what a shorter chain leaves in a file of
        # longer ones.
        while labels and labels[-1] in (None, ""):
            labels = labels[:-1]
        try:
            record = SourceRecord(id, labels)
        except (ValueError, TypeError) as exc:
            result.invalid_rows.append((lineno, str(exc)))
            continue
        if id in seen_ids:
            result.invalid_rows.append((lineno, f"duplicate id {id!r}"))
            continue
        hops = range(0, len(labels) - 2, 2)
        for i in hops:
            existing = facts.get((labels[i], labels[i + 1]))
            if existing is not None and existing != labels[i + 2]:
                head, rel, tail = labels[i:i + 3]
                conflict = f"({head!r}, {rel!r}) already maps to {existing!r}, not {tail!r}"
                result.conflicting_rows.append((lineno, conflict))
                break
        else:
            for i in hops:
                facts[labels[i], labels[i + 1]] = labels[i + 2]
            seen_ids.add(id)
            result.records.append(record)
    total = len(result.records) + result.n_rejected
    if len(result.invalid_rows) > total / 2:
        raise ValueError(
            f"{len(result.invalid_rows)} of {total} rows invalid; "
            f"first problem at line {result.invalid_rows[0][0]}: {result.invalid_rows[0][1]}"
        )
    return result


def write_lines(path: str | Path, lines: Iterable[str]) -> int:
    """Write each string of ``lines`` as one line, as it is made, and return
    how many were written.  They go to a sibling ``.part`` file that replaces
    ``path`` only after the last one, so an error while making a line leaves
    ``path`` as it was.
    """
    path = Path(path)
    part = path.with_name(path.name + ".part")
    count = 0
    try:
        with part.open("w", encoding="utf-8") as fh:
            for count, line in enumerate(lines, start=1):
                fh.write(line + "\n")
        part.replace(path)
    finally:
        part.unlink(missing_ok=True)
    return count


def check_tsv_cells(records: list[SourceRecord]) -> None:
    """Refuse, naming its record and column, a tab or line break in any cell."""
    cells = "".join(itertools.chain(map(operator.attrgetter("source_id"), records),
                                    *map(operator.attrgetter("labels"), records)))
    if "\t" in cells or "\n" in cells or "\r" in cells:  # look for it cell by cell
        for r in records:
            for column, cell in zip(("id", *_columns(len(r.labels))), (r.id, *r.labels)):
                if "\t" in cell or "\n" in cell or "\r" in cell:
                    raise ValueError(f"record {r.id!r}: {column} holds a tab or a "
                                     "line break, which a TSV cell cannot hold")


def write_records(records: list[SourceRecord], path: str | Path, format: str = "tsv") -> None:
    if format == "tsv":
        check_tsv_cells(records)
        # Shorter chains leave their trailing cells empty.
        width = max((len(r.labels) for r in records), default=5)
        header = "\t".join(("id", *_columns(width)))
        write_lines(path, itertools.chain((header,), (
            "\t".join((r.id, *r.labels)) + "\t" * (width - len(r.labels))
            for r in records)))
    elif format == "json_lines":
        write_lines(path, (json.dumps(r.to_dict()) for r in records))
    else:
        raise ValueError(f"unknown format {format!r}")


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
    records: list[SourceRecord],
    extra_facts: list[Triplet],
    whitelist: set[str],
) -> list[SourceRecord]:
    """Extend n-hop records by one hop (answer, r, e) from extra_facts; the
    name is from the two-hop source data, which this makes three-hop.

    Only records whose answer is in the whitelist and has at least one
    outgoing fact are emitted; among multiple candidate next hops the
    lexicographically smallest (r, e) label pair wins.
    """
    candidates: dict[str, list[tuple[str, str]]] = defaultdict(list)
    for head, relation, tail in extra_facts:
        candidates[head].append((relation, tail))
    out = []
    for record in records:
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
) -> Iterator[dict]:
    """Yield training pairs as dicts keyed ``prompt``, ``response``, ``hops``
    and ``representation``: per record, one pair for each prefix of its
    chain, the first hop alone up to the full chain.  Responses are answer
    envelopes whose body is the prefix rendered in ``representation``.
    """
    from . import prompts  # through the module, where a tracer wraps build_prompt

    for record in records:
        for hops in range(1, record.n_hops + 1):
            sub_chain = ReasoningInstance(record.labels[:2 * hops + 1], record.id)
            try:
                example = render_instance(sub_chain, representation)
                prompt = prompts.build_prompt(
                    sub_chain, mode=prompts.PromptMode.ZERO_SHOT, style=style,
                    representation=representation,
                ).full_prompt
            except ValueError as exc:
                raise ValueError(f"record {record.id}: {exc}") from exc
            yield {"prompt": prompt, "response": example.envelope, "hops": hops,
                   "representation": representation.value}


_PAIR_KEYS = ["prompt", "response", "hops", "representation"]


def _pair_line(pair: dict) -> str:
    """``json.dumps(pair)``, joined from its encoded strings when ``pair``
    is a training pair as build_finetune_corpus yields it."""
    if list(pair) == _PAIR_KEYS:
        prompt, response, hops, representation = pair.values()
        if type(hops) is int:
            try:
                return (f'{{"prompt": {_json_string(prompt)}, '
                        f'"response": {_json_string(response)}, "hops": {hops}, '
                        f'"representation": {_json_string(representation)}}}')
            except TypeError:  # a value that is not a string
                pass
    return json.dumps(pair)


def write_finetune_corpus(corpus: Iterable[dict], path: str | Path) -> int:
    """Write one JSON line per training pair as ``corpus`` yields it; returns
    the number of pairs."""
    return write_lines(path, map(_pair_line, corpus))
