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
from collections import namedtuple
from collections.abc import Callable, Iterable
from json.encoder import encode_basestring_ascii as _json_string
from pathlib import Path

from .kg import ReasoningInstance, check_labels
from .render import ENVELOPE_BODY_KEY, RepresentationTag, parse as parse_body

_QUOTES = "\"'“”‘’"
_JSON_DECODER = json.JSONDecoder()  # keeps no state between decodes
_TRAILING_IS = re.compile(r"\bis\s+(.+)$")  # X of a last sentence "... is X"
_CLAUSE_OPENERS = "\"“(["  # what may stand just before a stated hop
_CLAUSE_END = re.compile(r'["”)\]]?(?:[\s.,;:!?]|\Z)')  # and what may follow it


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
    return " ".join(text.split()).lower()


def _find_envelopes(completion: str) -> list[dict]:
    """Every well-formed JSON object embedded in the completion, in order."""
    found = []
    pos = 0
    while True:
        start = completion.find("{", pos)
        if start < 0:
            return found
        try:
            obj, pos = _JSON_DECODER.raw_decode(completion, start)
        except (json.JSONDecodeError, RecursionError):  # deep nesting is malformed too
            pos = start + 1
            continue
        if isinstance(obj, dict):
            found.append(obj)


def _extract_answer(completion: str, envelopes: list[dict]) -> str | None:
    """The Answer value of the first well-formed envelope, falling back to
    the trailing "is X" clause of the last sentence.  None when neither
    succeeds.
    """
    for obj in envelopes:
        answer = obj.get("Answer")
        if isinstance(answer, str) and answer.strip():
            return answer
    last = re.split(r"(?<=[.?!])\s+", completion.strip())[-1].rstrip(".?!").strip()
    # X holds no line break: "is" matches in the last line, or just before its whitespace
    line = last.rfind("\n") + 1
    m = _TRAILING_IS.search(last, max(len(last[:line].rstrip()) - 2, 0))
    if m and m.group(1).strip("_ ").strip():
        return m.group(1).strip()
    return None


def _judge_hops(
    completion: str,
    envelopes: list[dict],
    gold: ReasoningInstance,
    representation: RepresentationTag,
    normalize: Callable[[str], str],
) -> tuple[bool, ...]:
    """Per-hop verdicts: hop i is correct when the first envelope body (or
    else the whole completion) that states a fact with a non-blank head and
    tail holds one whose normalized head and tail match gold hop i, or
    (fallback) the completion states "<head> is <tail>" as a clause of its
    own.  A fact with a blank head or tail is dropped.
    """
    key = ENVELOPE_BODY_KEY[representation]
    bodies = [obj[key] for obj in envelopes
              if isinstance(obj.get(key), str) and obj[key].strip()]
    for body in [*bodies, completion]:
        pairs = {(normalize(head), normalize(tail))
                 for head, _, tail in parse_body(representation, body).triplets
                 if head.strip() and tail.strip()}
        if pairs:
            break
    flat = None  # the sentence fallback's text, built for the first missing hop
    verdicts = []
    for head, tail in zip(gold.labels[:-2:2], gold.labels[2::2]):
        head = normalize(head)
        tail = normalize(tail)
        if (head, tail) in pairs:
            verdicts.append(True)
            continue
        if flat is None:
            flat = " ".join(unicodedata.normalize("NFKC", completion).split()).lower()
        verdicts.append(_states(flat, f"{head} is {tail}"))
    return tuple(verdicts)


def _states(flat: str, claim: str) -> bool:
    """Whether ``claim`` occurs in ``flat`` as a clause of its own: after the
    text's start, whitespace or an opening quote or bracket, and before the
    text's end, whitespace or sentence punctuation, with one closing quote
    or bracket allowed first.  A hyphen, slash or apostrophe (a straight
    ``'`` included) never bounds a claim.
    """
    at = flat.find(claim)
    while at >= 0:
        if ((at == 0 or flat[at - 1] in _CLAUSE_OPENERS or flat[at - 1].isspace())
                and _CLAUSE_END.match(flat, at + len(claim))):
            return True
        at = flat.find(claim, at + 1)
    return False


class EvalRecord(namedtuple("EvalRecord", (
        "instance_id gold completion extracted_answer final_correct hop_correct "
        "failure_class"), defaults=(None,))):
    """One judged model interaction; ``failure_class`` is None, "transport" or
    "unparseable"."""

    __slots__ = ()

    def to_dict(self) -> dict:
        labels = self.gold.labels
        return {
            "instance_id": self.instance_id,
            "gold": [list(labels[i:i + 3]) for i in range(0, len(labels) - 2, 2)],
            "completion": self.completion,
            "extracted_answer": self.extracted_answer,
            "final_correct": self.final_correct,
            "hop_correct": list(self.hop_correct),
            "failure_class": self.failure_class,
            "gold_source_id": self.gold.source_id,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "EvalRecord":
        """The record ``to_dict`` wrote; raises ValueError on an instance id
        that is not a non-blank string, on a completion that is not a string,
        on an extracted answer that is neither a string nor None, on a verdict
        that is not a bool, on a failure class other than None, "transport"
        and "unparseable", on a gold hop that is not three non-blank label
        strings, on gold hops that do not bridge, and on a hop verdict count
        other than the hop count."""
        instance_id, final_correct = d["instance_id"], d["final_correct"]
        completion, extracted_answer = d["completion"], d["extracted_answer"]
        if not isinstance(instance_id, str) or not instance_id.strip():
            raise ValueError(f"instance_id must be a non-blank string, got {instance_id!r}")
        if not isinstance(completion, str):
            raise ValueError(f"completion must be a string, got {completion!r}")
        if extracted_answer is not None and not isinstance(extracted_answer, str):
            raise ValueError(f"extracted_answer must be a string or null, "
                             f"got {extracted_answer!r}")
        if type(final_correct) is not bool:
            raise ValueError(f"final_correct must be a bool, got {final_correct!r}")
        labels = []
        for i, hop in enumerate(d["gold"]):
            if not isinstance(hop, (list, tuple)) or len(hop) != 3:
                raise ValueError(f"gold hop {i} must be three labels, got {hop!r}")
            check_labels(hop)
            if labels and labels[-1] != hop[0]:
                raise ValueError(f"gold hop {i - 1}: tail {labels[-1]!r} does not "
                                 f"bridge to hop {i} head {hop[0]!r}")
            labels += hop[1:] if labels else hop
        failure_class = d.get("failure_class")
        if failure_class not in (None, "transport", "unparseable"):
            raise ValueError(f"failure_class must be null, 'transport' or 'unparseable', "
                             f"got {failure_class!r}")
        hop_correct = tuple(d["hop_correct"])
        if not all(type(verdict) is bool for verdict in hop_correct):
            raise ValueError(f"hop_correct must hold bools, got {d['hop_correct']!r}")
        if len(hop_correct) != len(labels) // 2:
            raise ValueError(f"hop_correct has {len(hop_correct)} verdicts "
                             f"for {len(labels) // 2} gold hops")
        return cls(
            instance_id=instance_id,
            gold=ReasoningInstance(labels, d.get("gold_source_id")),
            completion=completion,
            extracted_answer=extracted_answer,
            final_correct=final_correct,
            hop_correct=hop_correct,
            failure_class=failure_class,
        )


def judge(
    instance_id: str,
    gold: ReasoningInstance,
    completion: str | None,
    representation: RepresentationTag,
) -> EvalRecord:
    """Build one EvalRecord from a raw completion; None is a transport failure."""
    if completion is None:
        return EvalRecord(
            instance_id=instance_id,
            gold=gold,
            completion="",
            extracted_answer=None,
            final_correct=False,
            hop_correct=tuple([False] * gold.n_hops),
            failure_class="transport",
        )
    normalized = {}  # label -> normalize_answer(label), for this call only

    def normalize(label: str) -> str:
        if label not in normalized:
            normalized[label] = normalize_answer(label)
        return normalized[label]

    envelopes = _find_envelopes(completion)
    answer = _extract_answer(completion, envelopes)
    final_correct = answer is not None and (
        normalize(answer) == normalize(gold.answer)
    )
    return EvalRecord(
        instance_id=instance_id,
        gold=gold,
        completion=completion,
        extracted_answer=answer,
        final_correct=final_correct,
        hop_correct=_judge_hops(completion, envelopes, gold, representation, normalize),
        failure_class=None if answer is not None else "unparseable",
    )


class ConditionRow(namedtuple("ConditionRow", "hops final_incorrect final_correct")):
    """Counts for one hop-correctness condition (1-based hop numbers)."""

    __slots__ = ()

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


class MetricsReport(namedtuple("MetricsReport", (
        "total transport_failures unparseable final_correct_count rows"))):
    """Counts over judged records, and one ConditionRow per condition."""

    __slots__ = ()

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


def common_hop_count(chains: Iterable[ReasoningInstance]) -> int:
    """The hop count every chain shares; raises ValueError on a mix."""
    hop_counts = {chain.n_hops for chain in chains}
    if len(hop_counts) != 1:
        raise ValueError(f"records mix hop counts: {sorted(hop_counts)}")
    return hop_counts.pop()


def compute_metrics(records: list[EvalRecord]) -> MetricsReport:
    """Aggregate counts and conditional accuracies over judged records.

    All records must share one hop count.  Transport failures are kept out
    of every denominator; unparseable completions count as incorrect.
    """
    if not records:
        return MetricsReport(0, 0, 0, 0, rows=())
    n = common_hop_count(r.gold for r in records)
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


def _json_scalar(value) -> str:
    """A string, None or a bool as ``json.dumps`` spells it; a TypeError for
    any other value."""
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    return _json_string(value)


def _record_line(record: EvalRecord) -> str:
    """``json.dumps(record.to_dict())`` and a newline, joined from the encoded
    strings when every field has a type ``judge`` gives it."""
    instance_id, gold, completion, answer, final_correct, hop_correct, failure = record
    try:
        labels = list(map(_json_string, gold.labels))
        hops = ", ".join(f"[{labels[i]}, {labels[i + 1]}, {labels[i + 2]}]"
                         for i in range(0, len(labels) - 2, 2))
        return (f'{{"instance_id": {_json_scalar(instance_id)}, "gold": [{hops}], '
                f'"completion": {_json_scalar(completion)}, '
                f'"extracted_answer": {_json_scalar(answer)}, '
                f'"final_correct": {_json_scalar(final_correct)}, '
                f'"hop_correct": [{", ".join(map(_json_scalar, hop_correct))}], '
                f'"failure_class": {_json_scalar(failure)}, '
                f'"gold_source_id": {_json_scalar(gold.source_id)}}}\n')
    except TypeError:  # a value of another type: json.dumps spells it
        return json.dumps(record.to_dict()) + "\n"


def write_eval_records(records: list[EvalRecord], path) -> None:
    """Append one JSON line per record to the record log at ``path``."""
    with Path(path).open("a", encoding="utf-8") as fh:
        fh.write("".join(map(_record_line, records)))


def read_eval_records(path) -> list[EvalRecord]:
    """Every record of the log at ``path``; a line that does not decode to a
    record raises ``ValueError`` naming ``path:line``.
    """
    records = []
    with Path(path).open(encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                records.append(EvalRecord.from_dict(json.loads(line)))
            except (ValueError, KeyError, TypeError) as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
    return records


def repair_cut_tail(path) -> int:
    """Make the log at ``path`` end with a whole line before records are
    appended to it, and return how many bytes were dropped.

    A run killed while appending can leave a last line without its newline.
    That line is dropped when it does not decode to a record, and ended with
    a newline when it does.
    """
    with Path(path).open("rb+") as fh:
        data = fh.read()
        if not data or data.endswith(b"\n"):
            return 0
        start = data.rfind(b"\n") + 1
        try:
            EvalRecord.from_dict(json.loads(data[start:]))
        except (ValueError, KeyError, TypeError):
            fh.truncate(start)
            return len(data) - start
        fh.write(b"\n")
        return 0
