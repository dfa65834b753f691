import codecs
import collections
import contextlib
import copy
import json
import pickle
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from hopkit import (SourceRecord, SplitSpec, Triplet,
                    build_finetune_corpus, cap_relation_pairs,
                    compute_overlap_stats, extend_to_three_hops, ingest,
                    partition_by_bridge)
from hopkit.corpus import pair_line
from hopkit.dataset import all_partitions, write_finetune_corpus, write_records
from hopkit.kg import ReasoningInstance
from hopkit.prompts import DatasetStyle, PromptMode, build_prompt
from hopkit.render import ENVELOPE_BODY_KEY, RepresentationTag, parse
from tests.conftest import JSON_TEXT, RECORD_SUFFIX, line_built, render_module


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
        result = ingest(path)
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
        result = ingest(path)
        assert [r.id for r in result.records] == ["1", "3"]
        assert result.invalid_rows[0][0] == 3

    def test_conflicting_fact_rejected(self, tmp_path):
        path = tmp_path / "in.tsv"
        write_tsv(path, [
            ["1", "a", "r", "b", "s", "c"],
            ["2", "a", "r", "DIFFERENT", "s", "c2"],
        ])
        result = ingest(path)
        assert len(result.records) == 1
        assert len(result.conflicting_rows) == 1

    @pytest.mark.parametrize("rows, three_hop, accepted, conflicts", [
        ([["1", "A", "r", "A", "r", "C"], ["2", "X", "p", "Y", "q", "Z"]], False, ["2"],
         [(2, "('A', 'r') already maps to 'A', not 'C'")]),
        ([["1", "Ann", "sibling", "Bob", "sibling", "Ann", "sibling", "Cat"]], True, [],
         [(2, "('Ann', 'sibling') already maps to 'Bob', not 'Cat'")]),
        # the rejected row's own facts are taken back: (A, r) is free again
        ([["1", "A", "r", "A", "r", "C"], ["2", "A", "r", "D", "s", "E"]], False, ["2"],
         [(2, "('A', 'r') already maps to 'A', not 'C'")]),
        ([["1", "Ann", "sibling", "Bob", "sibling", "Ann", "sibling", "Bob"],
          ["2", "A", "r", "A", "r", "A", "s", "B"]], True, ["1", "2"], []),
    ], ids=["two-hop", "sibling-cycle", "taken-back", "a-fact-repeated"])
    def test_a_row_whose_own_hops_conflict_is_rejected(self, tmp_path, rows, three_hop,
                                                       accepted, conflicts):
        path = tmp_path / "in.tsv"
        write_tsv(path, rows, three_hop=three_hop)
        result = ingest(path)
        assert [r.id for r in result.records] == accepted
        assert result.conflicting_rows == conflicts and result.invalid_rows == []

    def test_every_record_ingest_accepts_renders(self, tmp_path):
        """Rows over three labels map one key to two tails within a row and
        across rows; whatever ingest keeps, every representation renders."""
        rng = random.Random("ingest-renders")
        path = tmp_path / "in.tsv"
        conflicts = 0
        for _ in range(200):
            pool = ["a", "b", "c"][:rng.randint(1, 3)]
            rows = []
            for i in range(rng.randint(1, 12)):
                labels = [rng.choice(pool) for _ in range(2 * rng.randint(2, 3) + 1)]
                rows.append([str(i), *labels, *[""] * (7 - len(labels))])
            write_tsv(path, rows, three_hop=True)
            result = ingest(path)
            conflicts += len(result.conflicting_rows)
            for record in result.records:
                for tag in RepresentationTag:
                    render_module.render(record, tag)
        assert conflicts > 0

    def test_json_lines(self, tmp_path):
        path = tmp_path / "in.jsonl"
        rows = [{"id": "1", "e1": "a", "r1": "r", "e2": "b", "r2": "s", "e3": "c"}]
        path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
        result = ingest(path)
        assert result.records[0].bridge == "b"

    @pytest.mark.parametrize("fmt", ["tsv", "json_lines"])
    def test_rows_split_at_line_ends_only(self, tmp_path, fmt):
        odd = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"  # str.splitlines splits at each
        rows = [("1", "a" + odd, "r", "b", "s" + odd, "c"),
                ("2", "d", "r", "e", "s", f"f{odd}g")]
        if fmt == "tsv":
            lines = ["id\te1\tr1\te2\tr2\te3"] + ["\t".join(row) for row in rows]
        else:
            lines = [json.dumps(dict(zip(["id", "e1", "r1", "e2", "r2", "e3"], row)),
                                ensure_ascii=False) for row in rows]
        path = tmp_path / f"in{RECORD_SUFFIX[fmt]}"
        path.write_text("\r\n".join([*lines, "bad"]) + "\n", encoding="utf-8")
        result = ingest(path)
        assert [(r.id, r.labels) for r in result.records] == [(r[0], r[1:]) for r in rows]
        assert [lineno for lineno, _ in result.invalid_rows] == [len(lines) + 1]

    @pytest.mark.parametrize("fmt", ["tsv", "json_lines"])
    def test_byte_order_mark_is_not_part_of_the_first_row(self, tmp_path, fmt):
        records = [rec(1, "a", "r", "b", "s", "c"), rec(2, "d", "r", "e", "s", "f")]
        path = tmp_path / f"in{RECORD_SUFFIX[fmt]}"
        write_records(records, path)
        path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
        result = ingest(path)
        assert result.records == records and result.n_rejected == 0

    def test_mostly_invalid_aborts(self, tmp_path):
        path = tmp_path / "in.tsv"
        path.write_text(
            "id\te1\tr1\te2\tr2\te3\n1\ta\tr\tb\ts\tc\nbad\nworse\n", encoding="utf-8"
        )
        with pytest.raises(ValueError, match="^2 of 3 rows invalid; first problem at line 3: "
                                             "expected 6 fields, got 1$"):
            ingest(path)

    def test_roundtrip_write_read(self, tmp_path):
        records = [rec(1, "a", "r", "b", "s", "c"), rec(2, "d", "r", "e", "s", "f")]
        for name in ("out.tsv", "out.jsonl"):
            path = tmp_path / name
            write_records(records, path)
            assert ingest(path).records == records

    @pytest.mark.parametrize("fmt", ["tsv", "json_lines"])
    @pytest.mark.parametrize("hops", ["two", "three", "mixed"])
    def test_written_bytes_pinned(self, tmp_path, hops, fmt):
        two = rec(1, "It Goes Like It Goes", "composer", "David Shire", "spouse",
                  "Didi Conn")
        three = rec(2, "a", "r", "b", "s", "c", "u", "d")
        records = {"two": [two], "three": [three],
                   "mixed": [two, three, rec(3, "x", "r", "y", "s", "z")]}[hops]
        path = tmp_path / f"out{RECORD_SUFFIX[fmt]}"
        write_records(records, path)
        assert path.read_bytes() == WRITTEN[hops, fmt]
        assert ingest(path).records == records

    def test_four_hop_header(self, tmp_path):
        path = tmp_path / "in.tsv"
        path.write_text("id\te1\tr1\te2\tr2\te3\tr3\te4\tr4\te5\n"
                        "1\ta\tr\tb\ts\tc\tu\td\tv\te\n", encoding="utf-8")
        [record] = ingest(path).records
        assert record.n_hops == len(record.hops) == 4
        assert record.answer == record.hops[-1].tail == "e"

    def test_columns_are_read_by_header_name(self, tmp_path):
        path = tmp_path / "in.tsv"
        path.write_text("e1\tid\tr1\te2\tr2\te3\n"
                        "a\t1\tr\tb\ts\tc\n"
                        "d\t2\tr\te\ts\t\n", encoding="utf-8")
        result = ingest(path)
        assert result.records == [rec(1, "a", "r", "b", "s", "c")]
        assert result.invalid_rows == [(3, "record 2: missing fields: e3")]

    @pytest.mark.parametrize("header", [
        "id\te1\tr1\te2\tr2\te3\tr3",
        "id\te1\tr1\te2\tr2\te4",
        "id\te1\tr1\te2",
        "e1\tr1\te2\tr2\te3\tr3",
    ])
    def test_header_must_be_a_chain(self, tmp_path, header):
        path = tmp_path / "in.tsv"
        path.write_text(header + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(
                "TSV header must be id e1 r1 ... rn e(n+1) with n >= 2, got ")):
            ingest(path)

    def test_gap_in_chain_rejected(self, tmp_path):
        path = tmp_path / "in.jsonl"
        rows = [{"id": "1", "e1": "a", "r1": "r", "e2": "b", "r2": "s", "e3": "c"},
                {"id": "2", "e1": "d", "r1": "r", "e2": "e", "r2": "s", "e3": "f",
                 "e4": "g"}]
        path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
        result = ingest(path)
        assert [r.id for r in result.records] == ["1"]
        assert result.invalid_rows == [(2, "record 2: empty field r3")]

    @pytest.mark.parametrize("bad_id", [[1], 7, {"n": 1}, None, "", "  "])
    def test_id_must_be_a_non_blank_string(self, tmp_path, bad_id):
        path = tmp_path / "in.jsonl"
        rows = [{"id": "1", "e1": "a", "r1": "r", "e2": "b", "r2": "s", "e3": "c"},
                {"id": bad_id, "e1": "d", "r1": "r", "e2": "e", "r2": "s", "e3": "f"}]
        path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
        result = ingest(path)
        assert [r.id for r in result.records] == ["1"]
        [(lineno, reason)] = result.invalid_rows
        assert lineno == 2 and "id" in reason

    @pytest.mark.parametrize("bad_id", [[1], 7, None, "", " "])
    def test_record_rejects_bad_id(self, bad_id):
        with pytest.raises(ValueError, match="id"):
            SourceRecord(bad_id, ("a", "r", "b", "s", "c"))

    def test_record_survives_copy_and_pickle(self):
        record = rec(7, "a", "r", "b", "s", "c", "u", "d")
        for twin in (copy.copy(record), copy.deepcopy(record),
                     pickle.loads(pickle.dumps(record))):
            assert type(twin) is SourceRecord
            assert (twin, twin.id, twin.labels) == (record, "7", record.labels)


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
    def test_single_extension(self):
        records = [rec(1, "a", "r", "b", "s", "c")]
        out = extend_to_three_hops(records, [Triplet("c", "u", "d")], {"c"})
        assert len(out) == 1 and out[0].labels[5:] == ("u", "d")

    def test_three_hop_record_becomes_four_hop(self):
        records = [rec(1, "a", "r", "b", "s", "c", "t", "d")]
        [out] = extend_to_three_hops(records, [Triplet("d", "u", "e")], {"d"})
        assert out.labels == ("a", "r", "b", "s", "c", "t", "d", "u", "e")
        assert out.n_hops == 4

    def test_no_extension_omitted(self):
        records = [rec(1, "a", "r", "b", "s", "c")]
        assert extend_to_three_hops(records, [], {"c"}) == []

    def test_whitelist_excludes(self):
        records = [rec(1, "a", "r", "b", "s", "c")]
        out = extend_to_three_hops(records, [Triplet("c", "u", "d")], {"zzz"})
        assert out == []

    def test_lexicographic_tiebreak(self):
        records = [rec(1, "a", "r", "b", "s", "c")]
        facts = [Triplet("c", "z", "a1"), Triplet("c", "u", "x"), Triplet("c", "u", "d")]
        out = extend_to_three_hops(records, facts, {"c"})
        assert out[0].labels[5:] == ("u", "d")

    def test_output_chains_are_valid(self):
        records = [rec(i, f"h{i}", "r", f"b{i}", "s", f"c{i % 3}") for i in range(9)]
        facts = [Triplet(f"c{i}", "u", f"d{i}") for i in range(2)]
        whitelist = {"c0", "c1"}
        for record in extend_to_three_hops(records, facts, whitelist):
            assert record.n_hops == 3
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
        assert stats._asdict()["train_size"] == 5
        assert "Bridge Entities" in stats.to_table()


PAIR_KEYS = ["prompt", "response", "hops", "representation"]

# Label pieces a corpus line must carry through, half of them plain: quotes,
# backslashes, format specifiers, NUL, control characters, DEL, U+2028, a
# lone surrogate, non-BMP text and line breaks.
PLAIN_PIECES = ["a", "b c", "Zed", "{0}", "x-y", "("]
ODD_PIECES = ['"', "'", "\\", "%", "%s", "%%", "\0", "\x1f", "\t", "\x7f", "\u2028", "\ud800",
              "\U0001f600", "\u00e9", "\n", "\r", "\\u0000"]
LABEL = st.lists(st.one_of(st.sampled_from(PLAIN_PIECES), st.sampled_from(ODD_PIECES)),
                 min_size=1, max_size=3).map("".join).filter(str.strip)


@st.composite
def corpus_chains(draw, source_id):
    """A chain of 1 to 3 hops over a pool of at most three labels, so
    labels repeat (merged relations, cycles, ambiguous facts)."""
    pool = draw(st.lists(LABEL, min_size=1, max_size=3, unique=True))
    n_labels = 2 * draw(st.integers(1, 3)) + 1
    return ReasoningInstance(tuple(draw(st.lists(st.sampled_from(pool), min_size=n_labels,
                                                 max_size=n_labels))), source_id)


def reference_line(chain, tag, style):
    """The training pair of ``chain`` as it was built before templates,
    through no template: rendered line by line, prompted and
    ``json.dumps``-ed."""
    _, response = line_built(chain, tag)
    prompt = build_prompt(chain, PromptMode.ZERO_SHOT, style, tag).full_prompt
    return json.dumps({"prompt": prompt, "response": response, "hops": chain.n_hops,
                       "representation": tag.value})


def reference_lines(chains, tag, style):
    """The reference lines of every prefix of ``chains``, and the error text
    of the first prefix that does not render, or None."""
    lines = []
    for chain in chains:
        for end in range(3, len(chain.labels) + 1, 2):
            try:
                lines.append(reference_line(ReasoningInstance(chain.labels[:end]), tag, style))
            except ValueError as exc:
                return lines, f"record {chain.source_id}: {exc}"
    return lines, None


class TestFinetuneCorpus:
    def test_two_records_per_row(self):
        records = [rec(1, "a", "r", "b", "s", "c")]
        corpus = list(map(json.loads, build_finetune_corpus(
            records, RepresentationTag.NATURAL_LANGUAGE, DatasetStyle.STATEMENT
        )))
        assert [c["hops"] for c in corpus] == [1, 2]

    def test_three_hop_record_yields_a_pair_per_prefix(self):
        records = [rec(1, "a", "r", "b", "s", "c", "t", "d")]
        corpus = list(map(json.loads, build_finetune_corpus(
            records, RepresentationTag.JSON, DatasetStyle.STATEMENT
        )))
        assert [c["hops"] for c in corpus] == [1, 2, 3]
        assert [json.loads(c["response"])["Answer"] for c in corpus] == ["b", "c", "d"]
        assert [c["prompt"] for c in corpus] == [
            "Given the incomplete statement: r of a is _ , provide answer and "
            "generate JSON structure for completing the statement",
            "Given the incomplete statement: s of r of a is _ , provide answer and "
            "generate JSON structure for completing the statement",
            "Given the incomplete statement: t of s of r of a is _ , provide answer "
            "and generate JSON structure for completing the statement",
        ]

    def test_dynamic_response_contains_template(self):
        records = [rec(1, "It Goes Like It Goes", "composer", "David Shire",
                       "spouse", "Didi Conn")]
        corpus = list(map(json.loads, build_finetune_corpus(
            records, RepresentationTag.PYTHON_DYNAMIC, DatasetStyle.STATEMENT
        )))
        body = json.loads(corpus[1]["response"])["Python code snippet"]
        assert "kb.add_fact(e1, r1, e2)" in body
        assert "class KnowledgeBase" in body

    @settings(max_examples=100, database=None, derandomize=True)
    @given(pairs=st.lists(max_size=4, elements=st.tuples(JSON_TEXT, JSON_TEXT, st.integers(),
                                                         JSON_TEXT)))
    def test_written_lines_are_those_of_json_dumps(self, pairs, tmp_path_factory):
        lines = [json.dumps(dict(zip(PAIR_KEYS, pair))) for pair in pairs]
        path = tmp_path_factory.mktemp("corpus") / "corpus.jsonl"
        assert write_finetune_corpus(iter(lines), path) == len(lines)
        assert path.read_text(encoding="utf-8").splitlines() == lines

    @settings(max_examples=200, database=None, derandomize=True, deadline=None)
    @given(chain=corpus_chains(None), tag=st.sampled_from(list(RepresentationTag)),
           style=st.sampled_from(list(DatasetStyle)))
    def test_a_pair_line_is_json_dumps(self, chain, tag, style):
        """``corpus.pair_line``, which templates are built from, is
        ``json.dumps`` of the rendered and prompted pair."""
        try:
            expected = reference_line(chain, tag, style)
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                pair_line(chain, tag, style)
        else:
            assert pair_line(chain, tag, style) == expected

    @settings(max_examples=400, database=None, derandomize=True, deadline=None)
    @given(chains=st.integers(1, 3).flatmap(
               lambda n: st.tuples(*(corpus_chains(f"r{i}") for i in range(n)))),
           tag=st.sampled_from(list(RepresentationTag)),
           style=st.sampled_from(list(DatasetStyle)))
    def test_template_lines_are_the_reference_lines(self, chains, tag, style, tmp_path_factory):
        """Seeded: chains of 1 to 3 hops, plain or not, in every
        representation and style, yield the reference lines byte for byte.
        A record the reference refuses raises its error after the same
        lines, and the output file is left as it was."""
        expected, error = reference_lines(chains, tag, style)
        lines, corpus = [], build_finetune_corpus(list(chains), tag, style)
        with pytest.raises(ValueError) if error else contextlib.nullcontext() as refused:
            lines.extend(corpus)
        assert lines == expected
        path = tmp_path_factory.mktemp("corpus") / "corpus.jsonl"
        path.write_text("old\n", encoding="utf-8")
        if error:
            assert str(refused.value) == error
            with pytest.raises(ValueError):
                write_finetune_corpus(build_finetune_corpus(list(chains), tag, style), path)
            assert sorted(path.parent.iterdir()) == [path]
            assert path.read_text(encoding="utf-8") == "old\n"
        else:
            write_finetune_corpus(build_finetune_corpus(list(chains), tag, style), path)
            assert path.read_text(encoding="utf-8") == "".join(f"{line}\n" for line in expected)

    def test_prefixes_that_spell_labels_differently_take_pair_line(self, monkeypatch):
        """A renderer whose one-hop body spells labels in JSON strings and
        whose two-hop body spells them in Python string literals leaves no
        one spelling of a record that fills both prefixes' lines: each line
        is still the reference line."""
        tag = RepresentationTag.NATURAL_LANGUAGE

        def quoted(chain):
            spelling = json.dumps if chain.n_hops == 1 else (
                lambda label: f"'{render_module._in_py_str(label)}'")
            return " ".join(map(spelling, chain.labels))

        chain = ReasoningInstance(("O'Brien \"Jr\"", "r", "caf\u00e9", "s", "c\\d"), "0")
        monkeypatch.setitem(render_module._RENDERERS, tag, quoted)
        render_module._template.cache_clear()
        try:
            expected, error = reference_lines([chain], tag, DatasetStyle.STATEMENT)
            assert error is None and len(expected) == 2
            assert list(build_finetune_corpus([chain], tag, DatasetStyle.STATEMENT)) == expected
        finally:
            render_module._template.cache_clear()

    @pytest.mark.parametrize("tag", list(RepresentationTag))
    def test_responses_roundtrip(self, tag):
        records = [rec(i, f"h{i}", "r", f"b{i}", "s", f"t{i}") for i in range(5)]
        corpus = list(map(json.loads, build_finetune_corpus(records, tag, DatasetStyle.QUESTION)))
        assert len(corpus) == 2 * len(records)
        for item in corpus:
            envelope = json.loads(item["response"])
            parsed = parse(tag, envelope[ENVELOPE_BODY_KEY[tag]])
            assert len(parsed.triplets) == item["hops"]
