import ast
import collections
import hashlib
import importlib
import json
import random
import re

import pytest

from hopkit import (EvalRecord, FaultSpec, compute_metrics, emit_report, judge,
                    make_chain, normalize_answer, render)
from hopkit import evaluate
from hopkit.evaluate import ConditionRow, read_eval_records, write_eval_records
from hopkit.render import DYNAMIC_PREAMBLE, ENVELOPE_BODY_KEY, RepresentationTag
from tests.conftest import random_chain

NL = RepresentationTag.NATURAL_LANGUAGE
ALL_TAGS = list(RepresentationTag)
CODE_TAGS = (RepresentationTag.PYTHON_STATIC, RepresentationTag.PYTHON_DYNAMIC)
# the package's ``render`` attribute is the function, not the module
render_module = importlib.import_module("hopkit.render")


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


def extracted(completion):
    return judge("id", make_chain("x", "r", "y"), completion, NL).extracted_answer


def hop_verdicts(completion, chain, tag=NL):
    return judge("id", chain, completion, tag).hop_correct


class TestExtractAnswer:
    def test_envelope(self):
        completion = '{"Answer": "Didi Conn", "Explanation": "whatever"}'
        assert extracted(completion) == "Didi Conn"

    def test_envelope_embedded_in_prose(self):
        completion = 'Sure! Here it is: {"Answer": "X", "Explanation": "y"} done.'
        assert extracted(completion) == "X"

    def test_trailing_is_clause(self):
        completion = "The spouse of the composer of It Goes Like It Goes is Didi Conn"
        assert extracted(completion) == "Didi Conn"

    def test_no_answer(self):
        assert extracted("I cannot determine this.") is None

    def test_blank_placeholder_not_an_answer(self):
        assert extracted("spouse of composer of X is _") is None


class TestJudgeHops:
    def test_natural_language_sentence(self, example_chain):
        completion = "The composer of It Goes Like It Goes is David Shire."
        verdicts = hop_verdicts(completion, example_chain)
        assert verdicts == (True, False)

    def test_wrong_bridge(self, example_chain):
        completion = "The composer of It Goes Like It Goes is John Williams."
        assert hop_verdicts(completion, example_chain) == (False, False)

    def test_relation_paraphrase_still_matches(self, example_chain):
        completion = ("The man who wrote It Goes Like It Goes is David Shire. "
                      "The wife of David Shire is Didi Conn.")
        # (head, tail) containment is what counts, not the relation words
        assert hop_verdicts(completion, example_chain) == (True, True)

    def test_dynamic_code_hops_judged_from_add_fact(self, example_chain):
        body = render(example_chain, RepresentationTag.PYTHON_DYNAMIC).body
        # break the final answer without touching the facts
        broken = body.replace("print(result3)", "print('nonsense')")
        assert hop_verdicts(broken, example_chain, RepresentationTag.PYTHON_DYNAMIC) == (
            True, True,
        )

    def test_unparseable_all_false(self, example_chain):
        assert hop_verdicts("???", example_chain) == (False, False)

    def test_case_and_punctuation_invariant(self, example_chain):
        completion = "the COMPOSER of it goes like it goes is DAVID SHIRE!"
        verdicts = hop_verdicts(completion.replace("!", "."), example_chain)
        assert verdicts[0] is True

    @pytest.mark.parametrize("completion,verdict", [
        ("Paris is Francesca's home town.", False),
        ("Sparis is France.", False),
        ("Paris is France.", True),
        ("(Paris is France)", True),
    ])
    def test_fallback_matches_whole_entities(self, completion, verdict):
        chain = make_chain("Paris", "country", "France")
        assert hop_verdicts(completion, chain) == (verdict,)


class TestJudge:
    def test_oracle_completion_fully_correct(self, example_chain):
        completion = render(example_chain, NL).envelope
        record = judge("id1", example_chain, completion, NL)
        assert record.final_correct
        assert record.hop_correct == (True, True)
        assert record.failure_class is None

    def test_transport_failure(self, example_chain):
        record = judge("id1", example_chain, None, NL)
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

    @pytest.mark.parametrize("tag", ALL_TAGS)
    def test_one_envelope_scan_and_one_ast_walk_per_parse(
        self, monkeypatch, example_chain, tag
    ):
        # One tree traversal per code parse: the statement traversal, and no
        # full ast.walk, since neither body hides a call in an expression.
        calls = collections.Counter()

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(evaluate, "_find_envelopes",
                            counted("scan", evaluate._find_envelopes))
        monkeypatch.setattr(evaluate, "parse_body", counted("parse", evaluate.parse_body))
        monkeypatch.setattr(ast, "walk", counted("walk", ast.walk))
        monkeypatch.setattr(render_module, "_statements",
                            counted("statements", render_module._statements))
        # the first envelope's body states no fact, so two bodies are parsed
        completion = ('{"Answer": "x", "%s": "x = 1"} ' % ENVELOPE_BODY_KEY[tag]
                      + render(example_chain, tag).envelope)
        record = judge("id1", example_chain, completion, tag)
        assert record.hop_correct == (True, True)
        assert calls["scan"] == 1 and calls["parse"] == 2
        assert calls["statements"] == (2 if tag in CODE_TAGS else 0)
        assert calls["walk"] == 0


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
        bad = judge("b", example_chain, None, NL)
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

    def test_condition_labels(self):
        assert ConditionRow((1, 2), 0, 0).label == "1st & 2nd hop correct"
        assert ConditionRow((2, 3), 0, 0).label == "2nd & 3rd hop correct"

    def test_eval_record_file_roundtrip(self, tmp_path, example_chain):
        records = [
            judge("a", example_chain, render(example_chain, NL).envelope, NL),
            judge("b", example_chain, None, NL),
        ]
        path = tmp_path / "records.jsonl"
        write_eval_records(records[:1], path)
        write_eval_records(records[1:], path)  # appends
        assert read_eval_records(path) == records

    @pytest.mark.parametrize("bad", ['{"instance_id": ', "[1]", '{"gold": []}'])
    def test_bad_log_line_names_file_and_line(self, tmp_path, example_chain, bad):
        path = tmp_path / "records.jsonl"
        write_eval_records([judge("a", example_chain, None, NL)], path)
        with path.open("a", encoding="utf-8") as fh:
            fh.write("\n" + bad + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:3: "):
            read_eval_records(path)


# SHA-256 of the verdict tuples of the frozen fixture below.  It pins every
# verdict: a rewrite of the judge or the parsers must leave it unchanged.
FROZEN_VERDICTS_SHA256 = "67335a426ce453f35e61555643afbf61256a5672f4869d4c02eb5c5a94b8feab"
EXTRA_CODE = [
    "kb.infer(e1, r1)",
    "result0 = kb.infer('Nowhere', r1)",
    "print(kb.infer(e1, r1, r2, r3, r4))",
    "unused = 'spare label'",
    "e1 = 'Rebound start'",
    "kb.add_fact(e1, r1, 'Extra tail')",
    "value = relationships[r1][e1]",
    "relationships = {'spare': {'A': 'B'}}",
]


def _perturbed_body(rng, body, tag):
    if tag in CODE_TAGS and rng.random() < 0.2:
        body = 'if __name__ == "__main__":\n' + "\n".join(
            "    " + line for line in body.split("\n"))
    if rng.random() < 0.15:
        lines = body.split("\n") if "\n" in body else body.split(". ")
        rng.shuffle(lines)
        body = ("\n" if "\n" in body else ". ").join(lines)
    if tag in CODE_TAGS and rng.random() < 0.3:
        lines = body.split("\n")
        for _ in range(rng.randint(1, 3)):
            top_level = [i for i, line in enumerate(lines) if not line.startswith(" ")]
            lines.insert(rng.choice(top_level + [len(lines)]), rng.choice(EXTRA_CODE))
        body = "\n".join(lines)
    if rng.random() < 0.1:
        body = body[: rng.randrange(len(body) + 1)]
    return body


def _perturbed_completion(rng, index):
    """One seeded (gold, completion, representation) judge input."""
    tag = rng.choice(ALL_TAGS)
    gold = random_chain(rng, rng.randint(1, 4))
    replied = gold
    if rng.random() < 0.3:
        fault = FaultSpec(hop_index=rng.randrange(gold.n_hops), probability=1.0,
                          seed=index)
        replied = fault.apply(gold, f"prompt {index}")
    rendered_tag = rng.choice(ALL_TAGS) if rng.random() < 0.1 else tag
    body = _perturbed_body(rng, render(replied, rendered_tag).body, rendered_tag)
    answer = replied.answer.label
    if rng.random() < 0.15:
        answer = rng.choice(["", "   ", None, 42, ["x"], {"k": "v"}])
    envelope = {"Answer": answer, ENVELOPE_BODY_KEY[rendered_tag]: body}
    if rng.random() < 0.05:
        del envelope["Answer"]
    completion = body if rng.random() < 0.1 else json.dumps(envelope)
    if rng.random() < 0.15:
        other = render(random_chain(rng, gold.n_hops) if rng.random() < 0.5 else gold,
                       tag).envelope
        pair = [completion, other]
        rng.shuffle(pair)
        completion = "\n".join(pair)
    if rng.random() < 0.3:
        completion = (rng.choice(["Sure! Here it is: ", "Answer:\n", "Let me think. "])
                      + completion
                      + rng.choice(["", " Hope that helps.",
                                    f" So the answer is {gold.answer.label}."]))
    if rng.random() < 0.01:
        completion = '{"a": ' * rng.randint(1, 1500) + completion
    if rng.random() < 0.1:
        completion = completion[: rng.randrange(len(completion) + 1)]
    return gold, completion, tag


def test_frozen_verdicts():
    rng = random.Random(20241210)
    rows = []
    for index in range(2000):
        gold, completion, tag = _perturbed_completion(rng, index)
        record = judge(f"i{index}", gold, completion, tag)
        rows.append([record.extracted_answer, record.final_correct,
                     list(record.hop_correct), record.failure_class])
    digest = hashlib.sha256(json.dumps(rows).encode("utf-8")).hexdigest()
    assert digest == FROZEN_VERDICTS_SHA256


# Pieces of brace-, quote- and code-heavy text for the judge fuzz below.
FUZZ_FRAGMENTS = [
    "{", "}", "[", "]", "(", ")", '"', "'", "\\", ":", ",", ".", " ", "\n", "    ",
    '{"a": ', '"Answer": ', '{"Answer": "', '"JSON structure": ', '"Explanation": ',
    '"Python code snippet": ', "null", "1e999", "\x00", "\ud800",
    "kb.add_fact(", "add_fact", "e1 = ", "r1", "'Didi Conn'", ")\n", "try:", "except:",
    "except ValueError as exc:", "match e1:", "case _:", "def f():", "lambda: ",
    "relationships = {", "ｅ1 = ", "kb.ａｄｄ_ｆａｃｔ(", "The spouse of ", " is ",
    "David Shire", DYNAMIC_PREAMBLE,
]


def _fuzz_text(rng):
    return "".join(rng.choice(FUZZ_FRAGMENTS) for _ in range(rng.randint(0, 60)))


def test_judge_never_raises_on_fuzzed_text(example_chain):
    rng = random.Random(1210)
    for tag in ALL_TAGS:
        for _ in range(300):
            text = _fuzz_text(rng)
            roll = rng.random()
            if roll < 0.3:  # the fuzz as an envelope body
                text = json.dumps({"Answer": _fuzz_text(rng), ENVELOPE_BODY_KEY[tag]: text})
            elif roll < 0.4:  # the fuzz around a well-formed envelope
                text = text + render(example_chain, tag).envelope + _fuzz_text(rng)
            record = judge("id1", example_chain, text, tag)
            assert len(record.hop_correct) == example_chain.n_hops
            assert record.failure_class in (None, "unparseable")
