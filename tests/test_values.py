"""Value semantics of hopkit's immutable record types: equality, hashing,
immutability and the checks their constructors make."""

import copy
import json
import pickle
import random
import re

import pytest

from hopkit import (EvalRecord, FaultSpec, OracleBackend, OverlapStats,
                    SourceRecord, SplitSpec, Triplet, ingest, judge, make_chain, render)
from hopkit.cli import main
from hopkit.dataset import write_records
from hopkit.kg import ReasoningInstance
from hopkit.render import RepresentationTag
from tests.conftest import RECORD_SUFFIX, random_chain


def exactly(message):
    return "^" + re.escape(message) + "$"


# Labels as a seeded fuzz draws them: each starts with a letter, so none is
# blank, and the rest mixes spaces, punctuation, " of " and " is ".
LABEL_PIECES = ["a", "Z", "0", " ", ".", "'", '"', "\u00e9", "\u3000", " of ", " is "]
BLANKS = ["", " ", "\u3000", " \t "]
CELL_BLANKS = [" ", "\u3000"]  # blanks a TSV cell can hold
NON_STRINGS = [1, 2.5, True, ["a"], {"k": "v"}]


def random_labels(rng, n_hops):
    return [rng.choice("abcXYZ") + "".join(rng.choices(LABEL_PIECES, k=rng.randrange(5)))
            + str(i) for i in range(2 * n_hops + 1)]


def all_label_strings(hops):
    return all(type(label) is str for hop in hops for label in hop)


def label_kind(slot):
    return "relation" if slot % 2 else "entity"


def refusal(slot, bad):
    """The message a label check gives for ``bad`` at chain position ``slot``."""
    if isinstance(bad, str):
        return f"{label_kind(slot)} label must be non-empty"
    return f"{label_kind(slot)} label must be a string, not {bad!r}"


class TestLabels:
    """Every layer holds a chain's hops as plain ``str`` labels, and every
    entry point refuses a label that is blank or not a string."""

    @pytest.mark.parametrize("value", [Triplet("a", "r", "b")], ids=["triplet"])
    def test_no_attribute_can_be_set_or_deleted(self, value):
        for name in ("label", "head", "relation", "tail", "other"):
            with pytest.raises(AttributeError):
                setattr(value, name, "z")
            with pytest.raises(AttributeError):
                delattr(value, name)

    @pytest.mark.parametrize("kind, label, message", [
        ("Entity", "   ", "entity label must be non-empty"),
        ("Entity", "", "entity label must be non-empty"),
        ("Relation", " \t", "relation label must be non-empty"),
    ])
    def test_a_blank_label_is_refused(self, kind, label, message):
        labels = ["a", "r", "b"]
        labels[1 if kind == "Relation" else 0] = label
        with pytest.raises(ValueError, match=exactly(message)):
            make_chain(*labels)

    def test_chains_records_and_logs_hold_str_labels(self):
        rng = random.Random(16)
        for i in range(200):
            labels = random_labels(rng, rng.randint(2, 4))
            chain = make_chain(*labels, source_id=str(i))
            assert all_label_strings(chain.hops)
            from_record = SourceRecord(str(i), tuple(labels))
            assert from_record == chain and all_label_strings(from_record.hops)
            record = judge(str(i), chain, rng.choice([None, "x", chain.answer]),
                           rng.choice(list(RepresentationTag)))
            logged = EvalRecord.from_dict(json.loads(json.dumps(record.to_dict())))
            assert logged == record and all_label_strings(logged.gold.hops)

    def test_a_corrupted_hop_holds_str_labels(self):
        rng = random.Random(17)
        for i in range(200):
            chain = make_chain(*random_labels(rng, rng.randint(1, 4)))
            hop = rng.randrange(chain.n_hops)
            corrupted = FaultSpec(hop, 1.0, i).apply(chain, f"prompt {i}")
            assert corrupted.hops[hop].tail == "NOT-" + chain.hops[hop].tail
            assert all_label_strings(corrupted.hops)

    def test_the_oracle_graph_holds_str_labels(self, tmp_path, monkeypatch):
        rng = random.Random(18)
        path = tmp_path / "records.tsv"
        rows = ["\t".join(["id", "e1", "r1", "e2", "r2", "e3"])]
        rows += ["\t".join([str(i), *random_labels(rng, 2)]) for i in range(30)]
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        graphs = []
        real_send = OracleBackend.send
        monkeypatch.setattr(OracleBackend, "send",
                            lambda self, prompt: graphs.append(self.kg) or real_send(self, prompt))
        assert main(["evaluate", "--input", str(path), "--oracle",
                     "--output", str(tmp_path / "eval")]) == 0
        assert len(graphs) == 30 and len(graphs[0]) == 60
        assert all(type(label) is str
                   for (head, relation), tail in graphs[0].items()
                   for label in (head, relation, tail))

    def test_make_chain_refuses_a_blank_or_non_string_label(self):
        rng = random.Random(19)
        for _ in range(200):
            labels = random_labels(rng, rng.randint(1, 4))
            slot = rng.randrange(len(labels))
            labels[slot] = bad = rng.choice(BLANKS + NON_STRINGS)
            with pytest.raises(ValueError, match=exactly(refusal(slot, bad))):
                make_chain(*labels)

    def test_every_chain_refuses_a_blank_or_non_string_label(self):
        """``ReasoningInstance`` checks its labels too, so ``render`` never
        sees a chain that ``make_chain`` would refuse."""
        rng = random.Random(22)
        for _ in range(200):
            labels = random_labels(rng, rng.randint(1, 4))
            slot = rng.randrange(len(labels))
            labels[slot] = bad = rng.choice(BLANKS + NON_STRINGS)
            with pytest.raises(ValueError, match=exactly(refusal(slot, bad))):
                ReasoningInstance(tuple(labels))
        with pytest.raises(ValueError, match=exactly("entity label must be a string, not 1")):
            render(ReasoningInstance((1, "r", "b")), RepresentationTag.JSON)

    def test_from_dict_refuses_a_blank_or_non_string_gold_label(self):
        rng = random.Random(20)
        for i in range(200):
            chain = make_chain(*random_labels(rng, rng.randint(1, 4)))
            logged = judge(str(i), chain, "x", RepresentationTag.JSON).to_dict()
            hop, slot = rng.randrange(chain.n_hops), rng.randrange(3)
            logged["gold"][hop][slot] = bad = rng.choice(BLANKS + NON_STRINGS)
            with pytest.raises(ValueError, match=exactly(refusal(slot, bad))):
                EvalRecord.from_dict(json.loads(json.dumps(logged)))

    @pytest.mark.parametrize("gold, hop_correct, message", [
        (["abc", "cde"], [True, True], "gold hop 0 must be three labels, got 'abc'"),
        ([["a", "r", "b"], ["b", "s"]], [True, True],
         "gold hop 1 must be three labels, got ['b', 's']"),
        ([["a", "r", "b", "s"]], [True], "gold hop 0 must be three labels, "
                                         "got ['a', 'r', 'b', 's']"),
        ([["a", "r", "b"], ["x", "s", "d"]], [True, True],
         "gold hop 0: tail 'b' does not bridge to hop 1 head 'x'"),
        ([["a", "r", "b"], ["b", "s", "c"]], [True, True, False],
         "hop_correct has 3 verdicts for 2 gold hops"),
        ([["a", "r", "b"], ["b", "s", "c"]], [True],
         "hop_correct has 1 verdicts for 2 gold hops"),
    ], ids=["string-hops", "two-labels", "four-labels", "unbridged",
            "extra-verdict", "missing-verdict"])
    def test_from_dict_refuses_a_misshapen_gold_chain(self, gold, hop_correct, message):
        logged = judge("1", make_chain("a", "r", "b", "s", "c"), "x",
                       RepresentationTag.JSON).to_dict()
        logged.update(gold=gold, hop_correct=hop_correct)
        with pytest.raises(ValueError, match=exactly(message)):
            EvalRecord.from_dict(logged)

    @pytest.mark.parametrize("field, value, message", [
        ("instance_id", 7, "instance_id must be a non-blank string, got 7"),
        ("instance_id", None, "instance_id must be a non-blank string, got None"),
        ("instance_id", " ", "instance_id must be a non-blank string, got ' '"),
        ("final_correct", "no", "final_correct must be a bool, got 'no'"),
        ("final_correct", 1, "final_correct must be a bool, got 1"),
        ("final_correct", None, "final_correct must be a bool, got None"),
        ("hop_correct", "ab", "hop_correct must hold bools, got 'ab'"),
        ("hop_correct", [True, 1], "hop_correct must hold bools, got [True, 1]"),
        ("hop_correct", [None, False], "hop_correct must hold bools, got [None, False]"),
        ("failure_class", "Transport", "failure_class must be null, 'transport' or "
                                       "'unparseable', got 'Transport'"),
        ("failure_class", "", "failure_class must be null, 'transport' or "
                              "'unparseable', got ''"),
        ("failure_class", False, "failure_class must be null, 'transport' or "
                                 "'unparseable', got False"),
        ("failure_class", ["transport"], "failure_class must be null, 'transport' or "
                                         "'unparseable', got ['transport']"),
        ("completion", 5, "completion must be a string, got 5"),
        ("completion", None, "completion must be a string, got None"),
        ("extracted_answer", ["c"], "extracted_answer must be a string or null, got ['c']"),
        ("extracted_answer", 0, "extracted_answer must be a string or null, got 0"),
        ("gold_source_id", ["x", {"y": 1}],
         "gold_source_id must be a string or null, got ['x', {'y': 1}]"),
    ], ids=["int-id", "null-id", "blank-id", "string-verdict", "int-verdict",
            "null-verdict", "string-hop-verdicts", "int-hop-verdict", "null-hop-verdict",
            "capitalized-class", "blank-class", "bool-class", "list-class",
            "int-completion", "null-completion", "list-answer", "int-answer",
            "list-source-id"])
    def test_from_dict_refuses_a_field_of_the_wrong_type(self, field, value, message):
        """The log line and the constructor refuse a value with one message."""
        record = judge("1", make_chain("a", "r", "b", "s", "c"), "x", RepresentationTag.JSON)
        logged = {**record.to_dict(), field: value}
        fields = record._asdict()
        if field == "gold_source_id":
            fields["gold"] = ReasoningInstance(record.gold.labels, value)
        else:
            fields[field] = value
        for build in (lambda: EvalRecord.from_dict(logged), lambda: EvalRecord(**fields)):
            with pytest.raises(ValueError, match=exactly(message)):
                build()

    @pytest.mark.parametrize("change, message", [
        ({"instance_id": " "}, "instance_id must be a non-blank string, got ' '"),
        ({"failure_class": "Transport"}, "failure_class must be null, 'transport' or "
                                         "'unparseable', got 'Transport'"),
        ({"hop_correct": (True,)}, "hop_correct has 1 verdicts for 2 gold hops"),
    ], ids=["blank-id", "capitalized-class", "missing-verdict"])
    def test_a_record_the_reader_would_refuse_is_never_built(self, change, message):
        """Built directly, through ``_replace``, copied or unpickled."""
        record = judge("1", make_chain("a", "r", "b", "s", "c"), None,
                       RepresentationTag.NATURAL_LANGUAGE)
        fields = {**record._asdict(), **change}
        smuggled = tuple.__new__(EvalRecord, fields.values())  # skips every check
        for build in (lambda: EvalRecord(**fields), lambda: record._replace(**change),
                      lambda: copy.copy(smuggled),
                      lambda: pickle.loads(pickle.dumps(smuggled))):
            with pytest.raises(ValueError, match=exactly(message)):
                build()
        assert copy.copy(record) == record == pickle.loads(pickle.dumps(record))

    @pytest.mark.parametrize("fmt", ["tsv", "json_lines"])
    def test_ingest_refuses_a_blank_or_non_string_label(self, tmp_path, fmt):
        rng = random.Random(21)
        columns = ["e1", "r1", "e2", "r2", "e3"]
        # A TSV cell is always a string; an empty last cell reads as a
        # shorter chain, and a JSON null as a missing field.
        bad_values = CELL_BLANKS + (NON_STRINGS if fmt == "json_lines" else [])
        for case in range(50):
            rows = [dict(zip(["id", *columns], [f"{case}-{i}", *random_labels(rng, 2)]))
                    for i in range(4)]
            bad_row = rng.randrange(4)
            column = rng.choice(columns)
            rows[bad_row][column] = rng.choice(bad_values)
            path = tmp_path / f"records{case}{RECORD_SUFFIX[fmt]}"
            if fmt == "tsv":
                lines = ["\t".join(["id", *columns])]
                lines += ["\t".join(row.values()) for row in rows]
            else:
                lines = [json.dumps(row) for row in rows]
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            result = ingest(path)
            lineno = bad_row + (2 if fmt == "tsv" else 1)
            bad_id = rows[bad_row]["id"]
            assert result.invalid_rows == [(lineno, f"record {bad_id}: empty field {column}")]
            assert [r.id for r in result.records] == [
                row["id"] for row in rows if row["id"] != bad_id]
            assert all(all_label_strings(r.hops) for r in result.records)

    def test_extend3_refuses_a_blank_fact_label_naming_file_and_line(self, tmp_path,
                                                                     capsys):
        rng = random.Random(22)
        path = tmp_path / "records.tsv"
        path.write_text("id\te1\tr1\te2\tr2\te3\n1\ta\tr\tb\ts\tc\n", encoding="utf-8")
        for case in range(20):
            facts = [random_labels(rng, 1) for _ in range(rng.randint(1, 4))]
            bad_line, slot = rng.randrange(len(facts)), rng.randrange(3)
            facts[bad_line][slot] = bad = rng.choice(CELL_BLANKS)
            facts_path = tmp_path / f"facts{case}.tsv"
            facts_path.write_text("".join("\t".join(f) + "\n" for f in facts),
                                  encoding="utf-8")
            out = tmp_path / f"out{case}.tsv"
            assert main(["extend3", "--input", str(path), "--facts", str(facts_path),
                         "--output", str(out)]) == 1
            assert capsys.readouterr().err == (
                f"error: {facts_path}:{bad_line + 1}: {refusal(slot, bad)}\n")
            assert not out.exists()


class TestChains:
    def test_equal_chains_give_equal_values_with_equal_hashes(self):
        a = make_chain("a", "r", "b", "s", "c", source_id="1")
        b = make_chain("a", "r", "b", "s", "c", source_id="1")
        assert a == b and hash(a) == hash(b)
        assert a.hops[0] == Triplet("a", "r", "b")
        assert a != make_chain("a", "r", "b", "s", "c", source_id="2")

    def test_hops_bridge_and_the_labels_rebuild_the_chain(self):
        rng = random.Random(23)
        for _ in range(300):
            chain = random_chain(rng, rng.randint(1, 5))
            hops = chain.hops
            assert len(hops) == chain.n_hops
            assert all(hop.tail == after.head for hop, after in zip(hops, hops[1:]))
            assert (hops[0].head, hops[-1].tail) == (chain.start, chain.answer)
            assert [hop.relation for hop in hops] == chain.relations
            assert make_chain(*chain.labels, source_id=chain.source_id) == chain

    def test_a_fault_corrupts_the_chain_a_hop_rewrite_does(self):
        def rewrite(chain, fault, prompt):
            """The hops of ``fault.apply(chain, prompt)``, rewritten hop by hop."""
            rng = random.Random(f"{fault.seed}:{prompt}")
            hops = list(chain.hops)
            if rng.random() >= fault.probability or fault.hop_index >= len(hops):
                return tuple(hops)
            head, relation, tail = hops[fault.hop_index]
            bad = "NOT-" + tail
            hops[fault.hop_index] = Triplet(head, relation, bad)
            if fault.hop_index + 1 < len(hops):
                _, relation, tail = hops[fault.hop_index + 1]
                hops[fault.hop_index + 1] = Triplet(bad, relation, tail)
            return tuple(hops)

        rng = random.Random(24)
        for i in range(400):
            chain = random_chain(rng, rng.randint(1, 4))
            fault = FaultSpec(rng.randrange(5), rng.choice([0.0, 0.5, 1.0]), rng.randrange(9))
            corrupted = fault.apply(chain, f"prompt {i}")
            assert corrupted.hops == rewrite(chain, fault, f"prompt {i}")
            assert corrupted.source_id == chain.source_id

    def test_a_judged_source_record_reads_back_equal(self):
        rng = random.Random(25)
        for i in range(200):
            record = SourceRecord(f"r{i}", tuple(random_labels(rng, rng.randint(2, 4))))
            tag = rng.choice(list(RepresentationTag))
            completion = rng.choice([None, "x", record.answer, render(record, tag).envelope])
            judged = judge(record.id, record, completion, tag)
            logged = EvalRecord.from_dict(json.loads(json.dumps(judged.to_dict())))
            assert logged == judged and logged.gold.source_id == record.id

    @pytest.mark.parametrize("fmt", ["tsv", "json_lines"])
    def test_records_with_any_label_text_round_trip_through_a_file(self, tmp_path, fmt):
        # quotes, non-BMP text, and the characters str.splitlines splits at
        pieces = ['"', "'", "\U0001f600", "\u2028", "\x85", "\x0b", "\x0c", " ", "a"]
        rng = random.Random(f"round-trip:{fmt}")
        path = tmp_path / f"records{RECORD_SUFFIX[fmt]}"
        for case in range(40):
            records = [SourceRecord(f"id{i}{rng.choice(pieces)}", tuple(
                f"{'er'[k % 2]}{''.join(rng.choices(pieces, k=rng.randrange(6)))}{i}.{k}"
                for k in range(2 * rng.randint(2, 4) + 1))) for i in range(rng.randint(1, 8))]
            write_records(records, path)
            result = ingest(path)
            assert result.records == records and result.n_rejected == 0, case

    def test_an_empty_chain_is_refused(self):
        for labels in [(), ("a",), ("a", "r"), ("a", "r", "b", "s")]:  # no whole hops
            with pytest.raises(ValueError, match=exactly("expected e1, r1, e2 [, r2, e3, ...]")):
                ReasoningInstance(labels)


class TestConstructorChecks:
    @pytest.mark.parametrize("kwargs, message", [
        ({"num_partitions": 1}, "need at least 2 partitions to pick train and test"),
        ({"train_partition_index": 8}, "partition index 8 out of range"),
        ({"test_partition_index": -1}, "partition index -1 out of range"),
        ({"train_partition_index": 3, "test_partition_index": 3},
         "train and test partitions must differ"),
    ])
    def test_a_bad_split_spec_is_refused(self, kwargs, message):
        with pytest.raises(ValueError, match=exactly(message)):
            SplitSpec(**kwargs)

    def test_split_spec_defaults(self):
        assert SplitSpec() == SplitSpec(8, 2, 4)
        assert SplitSpec().test_partition_index == 4

    @pytest.mark.parametrize("args, message", [
        ((-1, 0.5, 0), "fault hop index must be >= 0, not -1"),
        ((0, 1.5, 0), "fault probability must be in [0, 1], not 1.5"),
        ((0, -0.1, 0), "fault probability must be in [0, 1], not -0.1"),
        # a bool is not an integer or a number here, though Python counts it one
        ((1.5, 1.0, 0), "fault hop index must be an integer, not 1.5"),
        (("1", 1.0, 0), "fault hop index must be an integer, not '1'"),
        ((True, 1.0, 0), "fault hop index must be an integer, not True"),
        ((0, "0.5", 0), "fault probability must be a number, not '0.5'"),
        ((0, None, 0), "fault probability must be a number, not None"),
        ((0, True, 0), "fault probability must be a number, not True"),
        ((0, float("nan"), 0), "fault probability must be in [0, 1], not nan"),
    ])
    def test_a_bad_fault_spec_is_refused(self, args, message):
        with pytest.raises(ValueError, match=exactly(message)):
            FaultSpec(*args)

    @pytest.mark.parametrize("representation", ["bogus", "natural_language", None])
    def test_an_oracle_refuses_a_representation_that_is_no_tag(self, representation):
        message = f"oracle representation must be a RepresentationTag, not {representation!r}"
        with pytest.raises(ValueError, match=exactly(message)):
            OracleBackend({}, representation)

    @pytest.mark.parametrize("args, message", [
        ((None, ("a", "r", "b", "s", "c")), "record id must be a non-blank string, got None"),
        (("7", ("a", "r", "b")), "record 7: missing fields: r2, e3"),
        (("7", ("a", "r", "b", "s", "c", "t")), "record 7: missing fields: e4"),
        (("7", ("a", "r", " ", "s", "c")), "record 7: empty field e2"),
        (("7", ("a", "r", "b", "s", " \t ")), "record 7: empty field e3"),
        (("7", ("a", "\u3000", "b", "s", "c")), "record 7: empty field r1"),
        (("7", (1, "r", "b", "s", "c")), "record 7: empty field e1"),
        (("7", ("a", "r", "b", None, "c")), "record 7: empty field r2"),
        (("7", ("a", "r", "", "s", 0)), "record 7: empty field e2"),
        (("7", ("a", "r", "b", ["s"], " ")), "record 7: empty field r2"),
    ])
    def test_a_bad_source_record_is_refused(self, args, message):
        with pytest.raises(ValueError, match=exactly(message)):
            SourceRecord(*args)


def test_overlap_stats_dict_keeps_the_report_order():
    stats = OverlapStats(*range(9))
    assert list(stats._asdict().items()) == [
        ("train_size", 0), ("test_size", 1), ("bridge_entities_train", 2),
        ("bridge_entities_test", 3), ("bridge_overlap", 4),
        ("relation_pairs_train", 5), ("relation_pairs_test", 6),
        ("relation_pair_overlap", 7), ("rows_covered_by_shared_pairs", 8),
    ]


@pytest.mark.parametrize("completion", [
    None, "no envelope here", '{"Answer": "c", "Explanation": "The r of a is b."}',
])
def test_eval_record_round_trips_through_its_dict(completion):
    gold = make_chain("a", "r", "b", "s", "c", source_id="src")
    record = judge("7", gold, completion, RepresentationTag.NATURAL_LANGUAGE)
    assert EvalRecord.from_dict(record.to_dict()) == record
