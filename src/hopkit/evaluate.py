"""Completion judging and conditional-accuracy metrics.

The headline metric is final-answer accuracy conditioned on the correctness
of intermediate hops: among records where the stated hops were inferred
correctly, the fraction whose final answer is also correct.  Hop judging
matches (head, tail) pairs only, since models routinely paraphrase relation
labels.  Final answers use exact match after normalization; no alias table.
"""

from __future__ import annotations

import json
import re
import unicodedata
from dataclasses import dataclass
from pathlib import Path

from .kg import Entity, ReasoningInstance, Relation, Triplet
from .render import ENVELOPE_BODY_KEY, RepresentationTag, parse as parse_body

_QUOTES = "\"'“”‘’"


def normalize_answer(text: str) -> str:
    """Canonical form for answer comparison: NFKC, trimmed, surrounding
    quotes and terminal punctuation stripped, whitespace collapsed, lowered.
    """
    text = unicodedata.normalize("NFKC", text).strip()
    while True:
        stripped = text.strip(_QUOTES).rstrip(".?!,;:").strip()
        if stripped == text:
            break
        text = stripped
    text = re.sub(r"\s+", " ", text)
    return text.lower()


def _find_envelopes(completion: str) -> list[dict]:
    """Every well-formed JSON object embedded in the completion, in order."""
    decoder = json.JSONDecoder()
    found = []
    pos = 0
    while True:
        start = completion.find("{", pos)
        if start < 0:
            return found
        try:
            obj, end = decoder.raw_decode(completion[start:])
        except (json.JSONDecodeError, RecursionError):  # deep nesting is malformed too
            pos = start + 1
            continue
        if isinstance(obj, dict):
            found.append(obj)
        pos = start + end


def _extract_answer(completion: str, envelopes: list[dict]) -> str | None:
    """The Answer value of the first well-formed envelope, falling back to
    the trailing "is X" clause of the last sentence.  None when neither
    succeeds.
    """
    for obj in envelopes:
        answer = obj.get("Answer")
        if isinstance(answer, str) and answer.strip():
            return answer
    sentences = [s for s in re.split(r"(?<=[.?!])\s+", completion.strip()) if s.strip()]
    if sentences:
        last = sentences[-1].rstrip(".?!").strip()
        m = re.search(r"\bis\s+(.+)$", last)
        if m and m.group(1).strip("_ ").strip():
            return m.group(1).strip()
    return None


def _judge_hops(
    completion: str,
    envelopes: list[dict],
    gold: ReasoningInstance,
    representation: RepresentationTag,
) -> tuple[bool, ...]:
    """Per-hop verdicts: hop i is correct when the first envelope body (or
    else the whole completion) that parses to any triplet holds one whose
    normalized head and tail match gold hop i, or (fallback) the completion
    states "<head> is <tail>" with neither entity part of a longer word.
    """
    key = ENVELOPE_BODY_KEY[representation]
    bodies = [obj[key] for obj in envelopes
              if isinstance(obj.get(key), str) and obj[key].strip()]
    for body in [*bodies, completion]:
        triplets = parse_body(representation, body).triplets
        if triplets:
            break
    pairs = {
        (normalize_answer(t.head.label), normalize_answer(t.tail.label))
        for t in triplets
    }
    flat = None  # the sentence fallback's text, built for the first missing hop
    verdicts = []
    for hop in gold.hops:
        head = normalize_answer(hop.head.label)
        tail = normalize_answer(hop.tail.label)
        if (head, tail) in pairs:
            verdicts.append(True)
            continue
        if flat is None:
            flat = re.sub(r"\s+", " ", unicodedata.normalize("NFKC", completion)).lower()
        verdicts.append(re.search(
            rf"(?<!\w){re.escape(head)} is {re.escape(tail)}(?!\w)", flat
        ) is not None)
    return tuple(verdicts)


@dataclass(frozen=True)
class EvalRecord:
    """One judged model interaction."""

    instance_id: str
    gold: ReasoningInstance
    completion: str
    extracted_answer: str | None
    final_correct: bool
    hop_correct: tuple[bool, ...]
    failure_class: str | None = None  # "transport" or "unparseable"

    def to_dict(self) -> dict:
        return {
            "instance_id": self.instance_id,
            "gold": [
                [h.head.label, h.relation.label, h.tail.label] for h in self.gold.hops
            ],
            "completion": self.completion,
            "extracted_answer": self.extracted_answer,
            "final_correct": self.final_correct,
            "hop_correct": list(self.hop_correct),
            "failure_class": self.failure_class,
            "gold_source_id": self.gold.source_id,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "EvalRecord":
        hops = tuple(
            Triplet(Entity(h), Relation(r), Entity(t)) for h, r, t in d["gold"]
        )
        return cls(
            instance_id=d["instance_id"],
            gold=ReasoningInstance(hops=hops, source_id=d.get("gold_source_id")),
            completion=d["completion"],
            extracted_answer=d["extracted_answer"],
            final_correct=d["final_correct"],
            hop_correct=tuple(d["hop_correct"]),
            failure_class=d.get("failure_class"),
        )


def judge(
    instance_id: str,
    gold: ReasoningInstance,
    completion: str | None,
    representation: RepresentationTag,
    transport_failed: bool = False,
) -> EvalRecord:
    """Build one EvalRecord from a raw completion (or a transport failure)."""
    if transport_failed or completion is None:
        return EvalRecord(
            instance_id=instance_id,
            gold=gold,
            completion=completion or "",
            extracted_answer=None,
            final_correct=False,
            hop_correct=tuple([False] * gold.n_hops),
            failure_class="transport",
        )
    envelopes = _find_envelopes(completion)
    answer = _extract_answer(completion, envelopes)
    final_correct = answer is not None and (
        normalize_answer(answer) == normalize_answer(gold.answer.label)
    )
    return EvalRecord(
        instance_id=instance_id,
        gold=gold,
        completion=completion,
        extracted_answer=answer,
        final_correct=final_correct,
        hop_correct=_judge_hops(completion, envelopes, gold, representation),
        failure_class=None if answer is not None else "unparseable",
    )


@dataclass(frozen=True)
class ConditionRow:
    """Counts for one hop-correctness condition (1-based hop numbers)."""

    hops: tuple[int, ...]
    final_incorrect: int
    final_correct: int

    @property
    def label(self) -> str:
        ordinal = {1: "1st", 2: "2nd", 3: "3rd"}
        names = [ordinal.get(h, f"{h}th") for h in self.hops]
        return " & ".join(names) + " hop correct"

    @property
    def conditional_accuracy(self) -> float | None:
        denominator = self.final_incorrect + self.final_correct
        if denominator == 0:
            return None
        return self.final_correct / denominator


@dataclass(frozen=True)
class MetricsReport:
    total: int
    transport_failures: int
    unparseable: int
    final_correct_count: int
    rows: tuple[ConditionRow, ...]

    @property
    def overall_accuracy(self) -> float | None:
        # transport failures are excluded from the denominator entirely
        denominator = self.total - self.transport_failures
        if denominator == 0:
            return None
        return self.final_correct_count / denominator


def _conditions(n_hops: int) -> list[tuple[int, ...]]:
    """Each pair of contiguous hops, then all hops (listed once when n = 2)."""
    pairs = [(h, h + 1) for h in range(1, n_hops)]
    every = tuple(range(1, n_hops + 1))
    return pairs if every in pairs else [*pairs, every]


def compute_metrics(records: list[EvalRecord]) -> MetricsReport:
    """Aggregate counts and conditional accuracies over judged records.

    All records must share one hop count.  Transport failures are kept out
    of every denominator; unparseable completions count as incorrect.
    """
    if not records:
        return MetricsReport(0, 0, 0, 0, rows=())
    hop_counts = {r.gold.n_hops for r in records}
    if len(hop_counts) != 1:
        raise ValueError(f"records mix hop counts: {sorted(hop_counts)}")
    n = hop_counts.pop()
    usable = [r for r in records if r.failure_class != "transport"]
    rows = []
    for condition in _conditions(n):
        matching = [
            r for r in usable if all(r.hop_correct[h - 1] for h in condition)
        ]
        correct = sum(1 for r in matching if r.final_correct)
        rows.append(ConditionRow(
            hops=condition,
            final_incorrect=len(matching) - correct,
            final_correct=correct,
        ))
    return MetricsReport(
        total=len(records),
        transport_failures=len(records) - len(usable),
        unparseable=sum(1 for r in usable if r.failure_class == "unparseable"),
        final_correct_count=sum(1 for r in usable if r.final_correct),
        rows=tuple(rows),
    )


def _ratio(value: float | None) -> str:
    return "-" if value is None else f"{100 * value:.1f}%"


def emit_report(report: MetricsReport, format: str = "text_table") -> str:
    """Render a report as an aligned text table or line-delimited JSON."""
    if format == "machine":
        lines = [json.dumps({
            "total": report.total,
            "transport_failures": report.transport_failures,
            "unparseable": report.unparseable,
            "final_correct_count": report.final_correct_count,
            "overall_accuracy": report.overall_accuracy,
        })]
        for row in report.rows:
            lines.append(json.dumps({
                "condition": list(row.hops),
                "final_incorrect": row.final_incorrect,
                "final_correct": row.final_correct,
                "final_accuracy": row.conditional_accuracy,
            }))
        return "\n".join(lines) + "\n"
    if format != "text_table":
        raise ValueError(f"unknown report format {format!r}")
    lines = [
        f"Records:            {report.total}",
        f"Transport failures: {report.transport_failures}",
        f"Unparseable:        {report.unparseable}",
        f"Accuracy:           {_ratio(report.overall_accuracy)}",
        "",
        f"{'Condition':26} {'final incorrect':>16} {'final correct':>14} {'final accuracy':>15}",
    ]
    for row in report.rows:
        lines.append(
            f"{row.label:26} {row.final_incorrect:>16} {row.final_correct:>14} "
            f"{_ratio(row.conditional_accuracy):>15}"
        )
    return "\n".join(lines) + "\n"


def parse_machine_report(text: str) -> MetricsReport:
    """Inverse of ``emit_report(..., format="machine")``."""
    lines = [json.loads(line) for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("empty report")
    summary, row_objs = lines[0], lines[1:]
    rows = tuple(
        ConditionRow(
            hops=tuple(o["condition"]),
            final_incorrect=o["final_incorrect"],
            final_correct=o["final_correct"],
        )
        for o in row_objs
    )
    return MetricsReport(
        total=summary["total"],
        transport_failures=summary["transport_failures"],
        unparseable=summary["unparseable"],
        final_correct_count=summary["final_correct_count"],
        rows=rows,
    )


def write_eval_records(records: list[EvalRecord], path) -> None:
    """Append one JSON line per record to the record log at ``path``."""
    with Path(path).open("a", encoding="utf-8") as fh:
        fh.write("".join(json.dumps(r.to_dict()) + "\n" for r in records))


def read_eval_records(path) -> list[EvalRecord]:
    return [
        EvalRecord.from_dict(json.loads(line))
        for line in Path(path).read_text(encoding="utf-8").splitlines()
        if line.strip()
    ]
