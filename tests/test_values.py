"""Value semantics of hopkit's immutable record types: equality, hashing,
immutability and the checks their constructors make."""

import re

import pytest

from hopkit import (Entity, EvalRecord, FaultSpec, OverlapStats, Relation,
                    SourceRecord, SplitSpec, Triplet, judge, make_chain)
from hopkit.kg import ReasoningInstance
from hopkit.render import RepresentationTag


def exactly(message):
    return "^" + re.escape(message) + "$"


class TestLabels:
    @pytest.mark.parametrize("cls", [Entity, Relation])
    def test_equal_labels_give_equal_values_with_equal_hashes(self, cls):
        assert cls("x") == cls("x") and not cls("x") != cls("x")
        assert hash(cls("x")) == hash(cls("x"))
        assert cls("x") != cls("y")
        assert len({cls("x"), cls("x"), cls("y")}) == 2

    def test_an_entity_equals_no_relation_and_no_tuple(self):
        for other in (Relation("x"), ("x",), "x"):
            assert Entity("x") != other and other != Entity("x")
            assert not Entity("x") == other
        assert len({Entity("x"), Relation("x"), ("x",)}) == 3

    def test_repr_names_the_class_and_label(self):
        assert repr(Entity("x")) == "Entity(label='x')"
        assert repr(Relation("r")) == "Relation(label='r')"

    @pytest.mark.parametrize("value", [
        Entity("x"), Relation("r"), Triplet(Entity("a"), Relation("r"), Entity("b")),
    ], ids=["entity", "relation", "triplet"])
    def test_no_attribute_can_be_set_or_deleted(self, value):
        for name in ("label", "head", "relation", "tail", "other"):
            with pytest.raises(AttributeError):
                setattr(value, name, Entity("z"))
            with pytest.raises(AttributeError):
                delattr(value, name)

    @pytest.mark.parametrize("cls, label, message", [
        (Entity, "   ", "entity label must be non-empty"),
        (Entity, "", "entity label must be non-empty"),
        (Relation, " \t", "relation label must be non-empty"),
    ])
    def test_a_blank_label_is_refused(self, cls, label, message):
        with pytest.raises(ValueError, match=exactly(message)):
            cls(label)


class TestChains:
    def test_equal_chains_give_equal_values_with_equal_hashes(self):
        a = make_chain("a", "r", "b", "s", "c", source_id="1")
        b = make_chain("a", "r", "b", "s", "c", source_id="1")
        assert a == b and hash(a) == hash(b)
        assert a.hops[0] == Triplet(Entity("a"), Relation("r"), Entity("b"))
        assert a != make_chain("a", "r", "b", "s", "c", source_id="2")

    def test_an_empty_chain_is_refused(self):
        with pytest.raises(ValueError, match=exactly("a reasoning chain needs at least one hop")):
            ReasoningInstance(hops=())


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
    ])
    def test_a_bad_fault_spec_is_refused(self, args, message):
        with pytest.raises(ValueError, match=exactly(message)):
            FaultSpec(*args)

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
    assert list(stats.to_dict().items()) == [
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
