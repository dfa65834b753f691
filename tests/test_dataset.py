import collections
import json
import random

import pytest

from hopkit import (Entity, SourceRecord, SplitSpec, Triplet,
                    build_finetune_corpus, cap_relation_pairs,
                    compute_overlap_stats, extend_to_three_hops, ingest,
                    partition_by_bridge)
from hopkit.dataset import IngestError, all_partitions, write_records
from hopkit.kg import Relation
from hopkit.prompts import DatasetStyle
from hopkit.render import ENVELOPE_BODY_KEY, RepresentationTag, parse


def rec(i, *labels):
    return SourceRecord(str(i), labels)


def write_tsv(path, rows, three_hop=False):
    columns = ["id", "e1", "r1", "e2", "r2", "e3"] + (["r3", "e4"] if three_hop else [])
    lines = ["\t".join(columns)] + ["\t".join(row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestIngest:
    def test_well_formed_tsv(self, tmp_path):
        path = tmp_path / "in.tsv"
        write_tsv(path, [
            ["1", "a", "r", "b", "s", "c"],
            ["2", "d", "r", "e", "s", "f"],
            ["3", "g", "r", "h", "s", "i"],
        ])
        result = ingest(path, "tsv")
        assert len(result.records) == 3 and result.n_rejected == 0

    def test_missing_field_rejected_with_row_number(self, tmp_path):
        path = tmp_path / "in.tsv"
        path.write_text(
            "id\te1\tr1\te2\tr2\te3\n"
            "1\ta\tr\tb\ts\tc\n"
            "2\td\tr\te\ts\n"  # missing e3
            "3\tg\tr\th\ts\ti\n",
            encoding="utf-8",
        )
        result = ingest(path, "tsv")
        assert [r.id for r in result.records] == ["1", "3"]
        assert result.invalid_rows[0][0] == 3

    def test_conflicting_fact_rejected(self, tmp_path):
        path = tmp_path / "in.tsv"
        write_tsv(path, [
            ["1", "a", "r", "b", "s", "c"],
            ["2", "a", "r", "DIFFERENT", "s", "c2"],
        ])
        result = ingest(path, "tsv")
        assert len(result.records) == 1
        assert len(result.conflicting_rows) == 1

    def test_json_lines(self, tmp_path):
        path = tmp_path / "in.jsonl"
        rows = [{"id": "1", "e1": "a", "r1": "r", "e2": "b", "r2": "s", "e3": "c"}]
        path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
        result = ingest(path, "json_lines")
        assert result.records[0].bridge == "b"

    def test_mostly_invalid_aborts(self, tmp_path):
        path = tmp_path / "in.tsv"
        path.write_text(
            "id\te1\tr1\te2\tr2\te3\n1\ta\tr\tb\ts\tc\nbad\nworse\n", encoding="utf-8"
        )
        with pytest.raises(IngestError):
            ingest(path, "tsv")

    def test_unknown_format(self, tmp_path):
        path = tmp_path / "in.xml"
        path.write_text("x", encoding="utf-8")
        with pytest.raises(IngestError):
            ingest(path, "xml")

    def test_roundtrip_write_read(self, tmp_path):
        records = [rec(1, "a", "r", "b", "s", "c"), rec(2, "d", "r", "e", "s", "f")]
        for fmt, name in (("tsv", "out.tsv"), ("json_lines", "out.jsonl")):
            path = tmp_path / name
            write_records(records, path, format=fmt)
            assert ingest(path, fmt).records == records

    @pytest.mark.parametrize("fmt", ["tsv", "json_lines"])
    @pytest.mark.parametrize("hops", ["two", "three", "mixed"])
    def test_written_bytes_pinned(self, tmp_path, hops, fmt):
        two = rec(1, "It Goes Like It Goes", "composer", "David Shire", "spouse",
                  "Didi Conn")
        three = rec(2, "a", "r", "b", "s", "c", "u", "d")
        records = {"two": [two], "three": [three],
                   "mixed": [two, three, rec(3, "x", "r", "y", "s", "z")]}[hops]
        path = tmp_path / "out"
        write_records(records, path, format=fmt)
        assert path.read_bytes() == WRITTEN[hops, fmt]
        assert ingest(path, fmt).records == records

    def test_four_hop_header(self, tmp_path):
        path = tmp_path / "in.tsv"
        path.write_text("id\te1\tr1\te2\tr2\te3\tr3\te4\tr4\te5\n"
                        "1\ta\tr\tb\ts\tc\tu\td\tv\te\n", encoding="utf-8")
        [record] = ingest(path, "tsv").records
        assert record.n_hops == record.to_chain().n_hops == 4
        assert record.to_chain().answer == Entity("e")

    @pytest.mark.parametrize("header", [
        "id\te1\tr1\te2\tr2\te3\tr3",
        "id\te1\tr1\te2\tr2\te4",
        "id\te1\tr1\te2",
        "e1\tr1\te2\tr2\te3\tr3",
    ])
    def test_header_must_be_a_chain(self, tmp_path, header):
        path = tmp_path / "in.tsv"
        path.write_text(header + "\n", encoding="utf-8")
        with pytest.raises(IngestError):
            ingest(path, "tsv")

    def test_gap_in_chain_rejected(self, tmp_path):
        path = tmp_path / "in.jsonl"
        rows = [{"id": "1", "e1": "a", "r1": "r", "e2": "b", "r2": "s", "e3": "c"},
                {"id": "2", "e1": "d", "r1": "r", "e2": "e", "r2": "s", "e3": "f",
                 "e4": "g"}]
        path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
        result = ingest(path, "json_lines")
        assert [r.id for r in result.records] == ["1"]
        assert result.invalid_rows == [(2, "record 2: empty field r3")]

    @pytest.mark.parametrize("bad_id", [[1], 7, {"n": 1}, None, "", "  "])
    def test_id_must_be_a_non_blank_string(self, tmp_path, bad_id):
        path = tmp_path / "in.jsonl"
        rows = [{"id": "1", "e1": "a", "r1": "r", "e2": "b", "r2": "s", "e3": "c"},
                {"id": bad_id, "e1": "d", "r1": "r", "e2": "e", "r2": "s", "e3": "f"}]
        path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
        result = ingest(path, "json_lines")
        assert [r.id for r in result.records] == ["1"]
        [(lineno, reason)] = result.invalid_rows
        assert lineno == 2 and "id" in reason

    @pytest.mark.parametrize("bad_id", [[1], 7, None, "", " "])
    def test_record_rejects_bad_id(self, bad_id):
        with pytest.raises(ValueError, match="id"):
            SourceRecord(bad_id, ("a", "r", "b", "s", "c"))


# write_records output as of the fixed-field record format, byte for byte.
WRITTEN = {
    ("two", "tsv"):
        b"id\te1\tr1\te2\tr2\te3\n"
        b"1\tIt Goes Like It Goes\tcomposer\tDavid Shire\tspouse\tDidi Conn\n",
    ("two", "json_lines"):
        b'{"id": "1", "e1": "It Goes Like It Goes", "r1": "composer", '
        b'"e2": "David Shire", "r2": "spouse", "e3": "Didi Conn"}\n',
    ("three", "tsv"):
        b"id\te1\tr1\te2\tr2\te3\tr3\te4\n2\ta\tr\tb\ts\tc\tu\td\n",
    ("three", "json_lines"):
        b'{"id": "2", "e1": "a", "r1": "r", "e2": "b", "r2": "s", "e3": "c", '
        b'"r3": "u", "e4": "d"}\n',
    ("mixed", "tsv"):
        b"id\te1\tr1\te2\tr2\te3\tr3\te4\n"
        b"1\tIt Goes Like It Goes\tcomposer\tDavid Shire\tspouse\tDidi Conn\t\t\n"
        b"2\ta\tr\tb\ts\tc\tu\td\n"
        b"3\tx\tr\ty\ts\tz\t\t\n",
    ("mixed", "json_lines"):
        b'{"id": "1", "e1": "It Goes Like It Goes", "r1": "composer", '
        b'"e2": "David Shire", "r2": "spouse", "e3": "Didi Conn"}\n'
        b'{"id": "2", "e1": "a", "r1": "r", "e2": "b", "r2": "s", "e3": "c", '
        b'"r3": "u", "e4": "d"}\n'
        b'{"id": "3", "e1": "x", "r1": "r", "e2": "y", "r2": "s", "e3": "z"}\n',
}


class TestPartition:
    def test_uniform_groups_one_per_partition(self):
        records = [rec(i, f"h{i}", "r", f"b{i}", "s", f"t{i}") for i in range(8)]
        partitions = all_partitions(records, 8)
        assert all(len(p) == 1 for p in partitions)

    def test_frequency_ordering_fixture(self):
        # bridge frequencies 5,4,3,2,1 over 2 partitions
        records = []
        for bridge, freq in [("b1", 5), ("b2", 4), ("b3", 3), ("b4", 2), ("b5", 1)]:
            for j in range(freq):
                records.append(rec(f"{bridge}-{j}", f"h{bridge}{j}", "r", bridge, "s", f"t{j}"))
        spec = SplitSpec(num_partitions=2, train_partition_index=0, test_partition_index=1)
        train, test, partition_map = partition_by_bridge(records, spec)
        assert {r.bridge for r in train} == {"b1", "b3", "b5"}
        assert {r.bridge for r in test} == {"b2", "b4"}
        assert len(train) == 9 and len(test) == 6
        assert partition_map == {"b1": 0, "b2": 1, "b3": 0, "b4": 1, "b5": 0}

    def test_train_test_bridges_disjoint(self):
        rng = random.Random(3)
        records = [
            rec(i, f"h{i}", "r", f"b{rng.randrange(20)}", "s", f"t{i}")
            for i in range(200)
        ]
        train, test, _ = partition_by_bridge(records, SplitSpec())
        assert not ({r.bridge for r in train} & {r.bridge for r in test})

    def test_union_preserves_multiset(self):
        rng = random.Random(4)
        records = [
            rec(i, f"h{i}", "r", f"b{rng.randrange(7)}", "s", f"t{i}")
            for i in range(60)
        ]
        partitions = all_partitions(records, 4)
        combined = [r for p in partitions for r in p]
        assert collections.Counter(r.id for r in combined) == collections.Counter(
            r.id for r in records
        )

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            partition_by_bridge([], SplitSpec())


class TestCap:
    def make(self, n, pair=("r", "s")):
        return [rec(i, f"h{i}", pair[0], f"b{i}", pair[1], f"t{i}") for i in range(n)]

    def test_under_cap_kept(self):
        records = self.make(3)
        assert cap_relation_pairs(records, cap=500, seed=1) == records

    def test_over_cap_truncated(self):
        capped = cap_relation_pairs(self.make(700), cap=500, seed=1)
        assert len(capped) == 500

    def test_deterministic(self):
        records = self.make(700)
        assert cap_relation_pairs(records, 500, seed=9) == cap_relation_pairs(
            records, 500, seed=9
        )

    def test_submultiset_and_per_pair_bound(self):
        rng = random.Random(5)
        records = [
            rec(i, f"h{i}", f"r{rng.randrange(3)}", f"b{i}", f"s{rng.randrange(3)}", f"t{i}")
            for i in range(300)
        ]
        capped = cap_relation_pairs(records, cap=20, seed=2)
        assert set(r.id for r in capped) <= set(r.id for r in records)
        counts = collections.Counter(r.relation_pair for r in capped)
        assert all(v <= 20 for v in counts.values())


class TestExtend:
    def fact(self, h, r, t):
        return Triplet(Entity(h), Relation(r), Entity(t))

    def test_single_extension(self):
        records = [rec(1, "a", "r", "b", "s", "c")]
        out = extend_to_three_hops(records, [self.fact("c", "u", "d")], {Entity("c")})
        assert len(out) == 1 and out[0].labels[5:] == ("u", "d")

    def test_no_extension_omitted(self):
        records = [rec(1, "a", "r", "b", "s", "c")]
        assert extend_to_three_hops(records, [], {Entity("c")}) == []

    def test_whitelist_excludes(self):
        records = [rec(1, "a", "r", "b", "s", "c")]
        out = extend_to_three_hops(records, [self.fact("c", "u", "d")], {Entity("zzz")})
        assert out == []

    def test_lexicographic_tiebreak(self):
        records = [rec(1, "a", "r", "b", "s", "c")]
        facts = [self.fact("c", "z", "a1"), self.fact("c", "u", "x"), self.fact("c", "u", "d")]
        out = extend_to_three_hops(records, facts, {Entity("c")})
        assert out[0].labels[5:] == ("u", "d")

    def test_output_chains_are_valid(self):
        records = [rec(i, f"h{i}", "r", f"b{i}", "s", f"c{i % 3}") for i in range(9)]
        facts = [self.fact(f"c{i}", "u", f"d{i}") for i in range(2)]
        whitelist = {Entity("c0"), Entity("c1")}
        for record in extend_to_three_hops(records, facts, whitelist):
            chain = record.to_chain()
            assert chain.n_hops == 3
            assert record.labels[4] in {"c0", "c1"}


class TestOverlapStats:
    def test_disjoint(self):
        train = [rec(1, "a", "r", "b", "s", "c")]
        test = [rec(2, "x", "u", "y", "v", "z")]
        stats = compute_overlap_stats(train, test)
        assert stats.bridge_overlap == 0
        assert stats.relation_pair_overlap == 0
        assert stats.rows_covered_by_shared_pairs == 0

    def test_self_overlap(self):
        records = [rec(i, f"h{i}", f"r{i % 2}", f"b{i}", "s", f"t{i}") for i in range(6)]
        stats = compute_overlap_stats(records, records)
        assert stats.bridge_overlap == stats.bridge_entities_train == 6
        assert stats.relation_pair_overlap == stats.relation_pairs_train == 2
        assert stats.rows_covered_by_shared_pairs == 6

    def test_table_shaped_counts(self):
        # fixture with 5 train pairs, 6 test pairs, 3 shared
        train = [rec(f"tr{i}", f"h{i}", f"r{i}", f"b{i}", f"s{i}", f"t{i}") for i in range(5)]
        test = [rec(f"te{i}", f"H{i}", f"r{i}", f"B{i}", f"s{i}", f"T{i}") for i in range(3)]
        test += [rec(f"tx{i}", f"X{i}", f"q{i}", f"Y{i}", f"w{i}", f"Z{i}") for i in range(3)]
        stats = compute_overlap_stats(train, test)
        assert stats.relation_pairs_train == 5
        assert stats.relation_pairs_test == 6
        assert stats.relation_pair_overlap == 3
        assert stats.rows_covered_by_shared_pairs == 3
        assert stats.to_dict()["train_size"] == 5
        assert "Bridge Entities" in stats.to_table()


class TestFinetuneCorpus:
    def test_two_records_per_row(self):
        records = [rec(1, "a", "r", "b", "s", "c")]
        corpus = build_finetune_corpus(
            records, RepresentationTag.NATURAL_LANGUAGE, DatasetStyle.STATEMENT
        )
        assert [c.hops for c in corpus] == [1, 2]

    def test_dynamic_response_contains_template(self):
        records = [rec(1, "It Goes Like It Goes", "composer", "David Shire",
                       "spouse", "Didi Conn")]
        corpus = build_finetune_corpus(
            records, RepresentationTag.PYTHON_DYNAMIC, DatasetStyle.STATEMENT
        )
        body = json.loads(corpus[1].response)["Python code snippet"]
        assert "kb.add_fact(e1, r1, e2)" in body
        assert "class KnowledgeBase" in body

    @pytest.mark.parametrize("tag", list(RepresentationTag))
    def test_responses_roundtrip(self, tag):
        records = [rec(i, f"h{i}", "r", f"b{i}", "s", f"t{i}") for i in range(5)]
        corpus = build_finetune_corpus(records, tag, DatasetStyle.QUESTION)
        assert len(corpus) == 2 * len(records)
        for item in corpus:
            envelope = json.loads(item.response)
            parsed = parse(tag, envelope[ENVELOPE_BODY_KEY[tag]])
            assert len(parsed.triplets) == item.hops
