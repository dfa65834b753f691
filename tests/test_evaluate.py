import json
import random

import pytest

from hopkit import (EvalRecord, compute_metrics, emit_report, extract_answer,
                    judge, judge_hops, make_chain, normalize_answer, render)
from hopkit.evaluate import (ConditionRow, parse_machine_report,
                             read_eval_records, write_eval_records)
from hopkit.render import RepresentationTag

NL = RepresentationTag.NATURAL_LANGUAGE


class TestNormalize:
    @pytest.mark.parametrize("raw,expected", [
        ("  David Shire. ", "david shire"),
        ('"Didi Conn"', "didi conn"),
        ("", ""),
        ("José   Saramago!", "josé saramago"),
        ("'The  Answer';", "the answer"),
    ])
    def test_examples(self, raw, expected):
        assert normalize_answer(raw) == expected


class TestExtractAnswer:
    def test_envelope(self):
        completion = '{"Answer": "Didi Conn", "Explanation": "whatever"}'
        assert extract_answer(completion, NL) == "Didi Conn"

    def test_envelope_embedded_in_prose(self):
        completion = 'Sure! Here it is: {"Answer": "X", "Explanation": "y"} done.'
        assert extract_answer(completion, NL) == "X"

    def test_trailing_is_clause(self):
        completion = "The spouse of the composer of It Goes Like It Goes is Didi Conn"
        assert extract_answer(completion, NL) == "Didi Conn"

    def test_no_answer(self):
        assert extract_answer("I cannot determine this.", NL) is None

    def test_blank_placeholder_not_an_answer(self):
        assert extract_answer("spouse of composer of X is _", NL) is None


class TestJudgeHops:
    def test_natural_language_sentence(self, example_chain):
        completion = "The composer of It Goes Like It Goes is David Shire."
        verdicts = judge_hops(completion, example_chain, NL)
        assert verdicts == [True, False]

    def test_wrong_bridge(self, example_chain):
        completion = "The composer of It Goes Like It Goes is John Williams."
        assert judge_hops(completion, example_chain, NL) == [False, False]

    def test_relation_paraphrase_still_matches(self, example_chain):
        completion = ("The man who wrote It Goes Like It Goes is David Shire. "
                      "The wife of David Shire is Didi Conn.")
        # (head, tail) containment is what counts, not the relation words
        assert judge_hops(completion, example_chain, NL) == [True, True]

    def test_dynamic_code_hops_judged_from_add_fact(self, example_chain):
        body = render(example_chain, RepresentationTag.PYTHON_DYNAMIC).body
        # break the final answer without touching the facts
        broken = body.replace("print(result3)", "print('nonsense')")
        assert judge_hops(broken, example_chain, RepresentationTag.PYTHON_DYNAMIC) == [
            True, True,
        ]

    def test_unparseable_all_false(self, example_chain):
        assert judge_hops("???", example_chain, NL) == [False, False]

    def test_case_and_punctuation_invariant(self, example_chain):
        completion = "the COMPOSER of it goes like it goes is DAVID SHIRE!"
        verdicts = judge_hops(completion.replace("!", "."), example_chain, NL)
        assert verdicts[0] is True

    @pytest.mark.parametrize("completion,verdict", [
        ("Paris is Francesca's home town.", False),
        ("Sparis is France.", False),
        ("Paris is France.", True),
        ("(Paris is France)", True),
    ])
    def test_fallback_matches_whole_entities(self, completion, verdict):
        chain = make_chain("Paris", "country", "France")
        assert judge_hops(completion, chain, NL) == [verdict]


class TestJudge:
    def test_oracle_completion_fully_correct(self, example_chain):
        completion = render(example_chain, NL).envelope
        record = judge("id1", example_chain, completion, NL)
        assert record.final_correct
        assert record.hop_correct == (True, True)
        assert record.failure_class is None

    def test_transport_failure(self, example_chain):
        record = judge("id1", example_chain, None, NL, transport_failed=True)
        assert record.failure_class == "transport"
        assert not record.final_correct
        assert record.hop_correct == (False, False)

    def test_unparseable_flagged(self, example_chain):
        record = judge("id1", example_chain, "no idea, sorry", NL)
        assert record.failure_class == "unparseable"
        assert not record.final_correct

    @pytest.mark.parametrize("tag", list(RepresentationTag))
    def test_deep_nesting_is_unparseable(self, example_chain, tag):
        record = judge("id1", example_chain, '{"a": ' * 1000, tag)
        assert record.failure_class == "unparseable"
        assert record.hop_correct == (False, False)


def synth_records(final_incorrect, final_correct, n_hops=2):
    """Records with all hops correct and the given final-correct split."""
    chain = make_chain(*["x", "r", "y", "s", "z", "t", "w"][: 2 * n_hops + 1])
    out = []
    for i in range(final_incorrect + final_correct):
        out.append(EvalRecord(
            instance_id=f"i{i}",
            gold=chain,
            completion="",
            extracted_answer="z",
            final_correct=i >= final_incorrect,
            hop_correct=tuple([True] * n_hops),
        ))
    return out


class TestComputeMetrics:
    def test_table_style_counts(self):
        report = compute_metrics(synth_records(615, 1979))
        row = report.rows[-1]
        assert (row.final_incorrect, row.final_correct) == (615, 1979)
        assert round(100 * row.conditional_accuracy, 1) == 76.3

    def test_all_correct(self):
        report = compute_metrics(synth_records(0, 10))
        assert report.overall_accuracy == 1.0
        assert all(r.conditional_accuracy == 1.0 for r in report.rows)

    def test_empty(self):
        report = compute_metrics([])
        assert report.total == 0
        assert report.overall_accuracy is None

    def test_undefined_conditional_not_zero(self, example_chain):
        records = [judge("a", example_chain, "nope", NL)]
        report = compute_metrics(records)
        assert report.rows[-1].conditional_accuracy is None

    def test_three_hop_conditions(self):
        report = compute_metrics(synth_records(1, 3, n_hops=3))
        assert [row.hops for row in report.rows] == [(1, 2), (2, 3), (1, 2, 3)]

    def test_mixed_hop_counts_rejected(self):
        with pytest.raises(ValueError):
            compute_metrics(synth_records(0, 1, 2) + synth_records(0, 1, 3))

    def test_transport_excluded_from_denominators(self, example_chain):
        good = judge("a", example_chain, render(example_chain, NL).envelope, NL)
        bad = judge("b", example_chain, None, NL, transport_failed=True)
        report = compute_metrics([good, bad])
        assert report.transport_failures == 1
        assert report.overall_accuracy == 1.0

    def test_counts_match_brute_force_recount(self):
        rng = random.Random(13)
        chain = make_chain("x", "r", "y", "s", "z")
        records = []
        for i in range(300):
            hops = (rng.random() < 0.7, rng.random() < 0.6)
            final = all(hops) and rng.random() < 0.8
            records.append(EvalRecord(
                instance_id=f"i{i}", gold=chain, completion="",
                extracted_answer="z" if final else "nope",
                final_correct=final, hop_correct=hops,
            ))
        report = compute_metrics(records)
        row = report.rows[-1]
        both = [r for r in records if all(r.hop_correct)]
        assert row.final_correct == sum(1 for r in both if r.final_correct)
        assert row.final_incorrect == sum(1 for r in both if not r.final_correct)


class TestReports:
    def test_text_table_columns(self):
        text = emit_report(compute_metrics(synth_records(5, 5)), "text_table")
        assert "Accuracy" in text and "final accuracy" in text

    def test_empty_report_dashes(self):
        text = emit_report(compute_metrics([]), "text_table")
        assert "-" in text

    def test_machine_roundtrip(self):
        report = compute_metrics(synth_records(5, 15))
        text = emit_report(report, "machine")
        assert parse_machine_report(text) == report

    def test_condition_labels(self):
        assert ConditionRow((1, 2), 0, 0).label == "1st & 2nd hop correct"
        assert ConditionRow((2, 3), 0, 0).label == "2nd & 3rd hop correct"

    def test_eval_record_file_roundtrip(self, tmp_path, example_chain):
        records = [
            judge("a", example_chain, render(example_chain, NL).envelope, NL),
            judge("b", example_chain, None, NL, transport_failed=True),
        ]
        path = tmp_path / "records.jsonl"
        write_eval_records(records, path)
        assert read_eval_records(path) == records
