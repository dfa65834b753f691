"""``dataset.ingest`` against a frozen copy of the dict-per-row reader it
replaced, on seeded random TSV and JSON-lines files with planted defects.
Both must accept the same records and reject the same rows, with the same
line numbers, messages and order, and raise the same ``ValueError`` text.
"""

import json
import random

import pytest

from hopkit.dataset import SourceRecord, ingest


# ---- the reference: the dict-per-row reader, frozen ----------------------

def _columns(n_labels):
    return tuple(f"{'er'[i % 2]}{i // 2 + 1}" for i in range(n_labels))


def _reference_record(id, labels):
    """The checks of ``SourceRecord.__new__`` when it walked every label."""
    if not isinstance(id, str) or not id.strip():
        raise ValueError(f"record id must be a non-blank string, got {id!r}")
    n = len(labels)
    if n < 5 or n % 2 == 0:
        missing = _columns(max(5, n + 1))[n:]
        raise ValueError(f"record {id}: missing fields: {', '.join(missing)}")
    for name, label in zip(_columns(n), labels):
        if not isinstance(label, str) or not label.strip():
            raise ValueError(f"record {id}: empty field {name}")
    return id, labels


def _record_from_fields(fields):
    labels = [fields.get(c) for c in _columns(len(fields) + 1)]
    while labels and labels[-1] in (None, ""):
        labels.pop()
    return _reference_record(fields.get("id"), tuple(labels))


def _iter_rows(path, format):
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    if format == "tsv":
        if not lines:
            return
        header = lines[0].split("\t")
        columns = {"id", *_columns(len(header) - 1)}
        if len(header) < 6 or len(header) % 2 or set(header) != columns:
            raise ValueError(
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
        raise ValueError(f"unknown format {format!r}")


def reference_ingest(path, format):
    """(records, invalid_rows, conflicting_rows), records as (id, labels)."""
    records, invalid_rows, conflicting_rows = [], [], []
    facts = {}
    seen_ids = set()
    total = 0
    for lineno, fields, problem in _iter_rows(path, format):
        total += 1
        if problem is not None:
            invalid_rows.append((lineno, problem))
            continue
        try:
            record = _record_from_fields(fields)
        except (ValueError, TypeError) as exc:
            invalid_rows.append((lineno, str(exc)))
            continue
        id, labels = record
        if id in seen_ids:
            invalid_rows.append((lineno, f"duplicate id {id!r}"))
            continue
        hops = list(zip(labels[0::2], labels[1::2], labels[2::2]))
        conflict = None
        for head, rel, tail in hops:
            existing = facts.get((head, rel))
            if existing is not None and existing != tail:
                conflict = f"({head!r}, {rel!r}) already maps to {existing!r}, not {tail!r}"
                break
        if conflict is not None:
            conflicting_rows.append((lineno, conflict))
            continue
        for head, rel, tail in hops:
            facts[(head, rel)] = tail
        seen_ids.add(id)
        records.append(record)
    if total and len(invalid_rows) > total / 2:
        raise ValueError(
            f"{len(invalid_rows)} of {total} rows invalid; "
            f"first problem at line {invalid_rows[0][0]}: {invalid_rows[0][1]}"
        )
    return records, invalid_rows, conflicting_rows


# ---- seeded files with planted defects ------------------------------------

# A small vocabulary, so that (head, relation) keys recur and conflict.
ENTITIES = ["a", "b", "c", "d", "Ana Gomez", "x_1", "é"]
RELATIONS = ["r", "s", "spouse", "composer"]
BLANKS = ["", " ", "\u3000", " \t "]


def _chain(rng, n_hops):
    labels = []
    for i in range(2 * n_hops + 1):
        labels.append(rng.choice(RELATIONS if i % 2 else ENTITIES))
    return labels


def _good_row(rng, max_hops, ids):
    """(id, labels) of a well-formed chain no longer than max_hops, maybe
    reusing an earlier id or an earlier (head, relation) with a new tail."""
    id = rng.choice(ids) if ids and rng.random() < 0.08 else f"r{len(ids)}"
    ids.append(id)
    return id, _chain(rng, rng.randint(2, max_hops))


def _tsv_text(rng, bad_share):
    max_hops = rng.randint(2, 4)
    names = ["id", *_columns(2 * max_hops + 1)]
    header = list(names)
    if rng.random() < 0.5:
        rng.shuffle(header)
    if rng.random() < 0.04:  # a header that is not a chain
        header = rng.choice([header[:-1], header + ["r9"], header[:-1] + ["id"],
                             ["id", "e1", "r1"], [""]])
    lines = ["\t".join(header)]
    ids = []
    for _ in range(rng.randint(0, 40)):
        id, labels = _good_row(rng, max_hops, ids)
        cells = dict(zip(names[1:], labels + [""] * (len(names) - 1 - len(labels))))
        cells["id"] = id
        kind = rng.random()
        if kind < bad_share:
            planted = rng.choice(["blank id", "blank label", "gap", "short", "long",
                                  "missing tail"])
            if planted == "blank id":
                cells["id"] = rng.choice(BLANKS)
            elif planted == "blank label":
                cells[rng.choice(names[1:len(labels) + 1])] = rng.choice(BLANKS)
            elif planted == "gap":
                cells[rng.choice(names[2:len(labels)])] = ""
            elif planted == "missing tail":
                cells[names[len(labels)]] = ""
            row = [cells[name] for name in header if name in cells]
            if planted == "short":
                row = row[:rng.randrange(len(row))]
            elif planted == "long":
                row += [rng.choice(ENTITIES)] * rng.randint(1, 2)
        else:
            row = [cells.get(name, "") for name in header]
        lines.append("\t".join(row))
        if rng.random() < 0.1:
            lines.append(rng.choice(["", "   ", "\t\t", "\u3000"]))
    return "\n".join(lines) + rng.choice(["\n", "", "\r\n"])


def _json_value(rng):
    return rng.choice([7, 0, None, True, ["a"], {"k": "v"}, 1.5, ""])


def _jsonl_text(rng, bad_share):
    max_hops = rng.randint(2, 4)
    lines = []
    ids = []
    for _ in range(rng.randint(0, 40)):
        id, labels = _good_row(rng, max_hops, ids)
        obj = dict(zip(_columns(len(labels)), labels))
        obj["id"] = id
        kind = rng.random()
        if kind < bad_share:
            planted = rng.choice(["blank id", "id not a string", "blank label",
                                  "label not a string", "gap", "trailing empty",
                                  "extra key", "not an object", "bad JSON", "no id"])
            keys = [k for k in obj if k != "id"]
            if planted == "blank id":
                obj["id"] = rng.choice(BLANKS)
            elif planted == "id not a string":
                obj["id"] = _json_value(rng)
            elif planted == "blank label":
                obj[rng.choice(keys)] = rng.choice(BLANKS)
            elif planted == "label not a string":
                obj[rng.choice(keys)] = _json_value(rng)
            elif planted == "gap":
                del obj[rng.choice(keys[1:-1])]
            elif planted == "trailing empty":
                obj.update(dict.fromkeys(_columns(len(labels) + 2)[len(labels):],
                                         rng.choice([None, ""])))
            elif planted == "extra key":
                obj[rng.choice(["note", "e9", "r7", "ID"])] = rng.choice(ENTITIES)
            elif planted == "no id":
                del obj["id"]
            if planted == "not an object":
                lines.append(rng.choice(["[1, 2]", "3", '"row"', "null", "[]"]))
            elif planted == "bad JSON":
                lines.append(rng.choice(["{", "{'id': 1}", '{"id": "1",}', "nope"]))
            else:
                items = list(obj.items())
                rng.shuffle(items)
                lines.append(json.dumps(dict(items), ensure_ascii=rng.random() < 0.5))
        else:
            lines.append(json.dumps(obj))
        if rng.random() < 0.1:
            lines.append(rng.choice(["", "  ", "\t"]))
    return "\n".join(lines) + ("\n" if lines else "")


def _outcome(read, path, format):
    try:
        records, invalid_rows, conflicting_rows = read(path, format)
    except ValueError as exc:
        return "IngestError", str(exc)
    return [tuple(r) for r in records], invalid_rows, conflicting_rows


def _ingest(path, format):
    result = ingest(path, format)
    assert all(type(r) is SourceRecord for r in result.records)
    return ([(r.id, r.labels) for r in result.records], result.invalid_rows,
            result.conflicting_rows)


# Each kind of verdict the planted defects must reach at least once.
VERDICTS = {
    "tsv": ["accepted", "IngestError: TSV header", "IngestError: rows invalid",
            "expected", "record id must", "missing fields", "empty field",
            "duplicate id", "already maps"],
    "json_lines": ["accepted", "IngestError: rows invalid", "record id must",
                   "missing fields", "empty field", "duplicate id",
                   "already maps", "bad JSON", "row is not an object"],
}


def _verdicts(outcome):
    if outcome[0] == "IngestError":
        text = outcome[1]
        return {"IngestError: TSV header" if text.startswith("TSV header")
                else "IngestError: rows invalid"}
    records, invalid_rows, conflicting_rows = outcome
    seen = {"accepted"} if records else set()
    for _, message in invalid_rows + conflicting_rows:
        seen.update(v for v in VERDICTS["tsv"] + VERDICTS["json_lines"] if v in message)
    return seen


@pytest.mark.parametrize("format, make", [("tsv", _tsv_text), ("json_lines", _jsonl_text)])
def test_ingest_matches_the_reference_reader(tmp_path, format, make):
    rng = random.Random(f"ingest-reference:{format}")
    path = tmp_path / "in"
    seen = set()
    for case in range(300):
        # Most files are mostly valid; some are past the 50% invalid bound.
        text = make(rng, rng.choice([0.15, 0.3, 0.8]))
        path.write_text(text, encoding="utf-8")
        expected = _outcome(reference_ingest, path, format)
        assert _outcome(_ingest, path, format) == expected, (case, text)
        seen |= _verdicts(expected)
    assert seen >= set(VERDICTS[format])


@pytest.mark.parametrize("format", ["tsv", "json_lines", "xml"])
def test_ingest_matches_the_reference_reader_on_an_empty_file(tmp_path, format):
    path = tmp_path / "empty"
    path.write_text("", encoding="utf-8")
    assert _outcome(_ingest, path, format) == _outcome(reference_ingest, path, format)
