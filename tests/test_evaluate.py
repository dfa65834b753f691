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
from hopkit import evaluate, kg
from hopkit.evaluate import ConditionRow, read_eval_records, write_eval_records
from hopkit.render import (DYNAMIC_PREAMBLE, ENVELOPE_BODY_KEY, RepresentationTag,
                           wrap_answer_envelope)
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

    def test_split_whitespace_is_the_regex_whitespace(self):
        # normalize_answer collapses runs with str.split, which splits on
        # exactly the characters str.isspace accepts.
        space = re.compile(r"\s").match
        assert all(c.isspace() is (space(c) is not None)
                   for c in map(chr, range(0x110000)))


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

    @staticmethod
    def _whole_sentence_fallback(completion):
        """The answer fallback searching the whole last sentence: the
        reference that the bounded search must match."""
        sentences = [s for s in re.split(r"(?<=[.?!])\s+", completion.strip()) if s.strip()]
        if sentences:
            last = sentences[-1].rstrip(".?!").strip()
            m = re.search(r"\bis\s+(.+)$", last)
            if m and m.group(1).strip("_ ").strip():
                return m.group(1).strip()
        return None

    def test_fallback_agrees_with_the_whole_sentence_search(self):
        rng = random.Random(20261019)
        pieces = ["is", "is ", " is ", "his", "isx", "is\n", "\nis", "\n", " \n ", " ",
                  "\t", "\r", "\x85", "\u3000", ".", "?", "!", "_", "a", "é", "1"]
        outcomes = collections.Counter()
        for _ in range(30000):
            text = "".join(rng.choice(pieces) for _ in range(rng.randint(0, 12)))
            expected = self._whole_sentence_fallback(text)
            assert evaluate._extract_answer(text, []) == expected, text
            outcomes[expected is None, "\n" in text.strip()] += 1
        # an answer and none, each with and without a line break inside
        assert len(outcomes) == 4

    def test_fallback_searches_the_last_line_only(self, monkeypatch):
        # An "is" before the last line can match only where whitespace alone
        # parts it from that line, so nothing before it is searched.
        searched = []
        trailing_is = evaluate._TRAILING_IS

        class Recording:
            def search(self, text, pos):
                searched.append(len(text) - pos)
                return trailing_is.search(text, pos)

        monkeypatch.setattr(evaluate, "_TRAILING_IS", Recording())
        for n in (10, 1000, 32000):
            assert extracted("is " * n + "\nx") == "x"
            assert extracted("is " * n + "x\ny") is None
        assert searched == [len("is \nx"), len(" x\ny")] * 3


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

    @pytest.mark.parametrize("completion, labels", [
        ("  is Paris", ("!", "r", "Paris")), ("Paris is \n", ("Paris", "r", "...")),
    ])
    def test_edge_whitespace_stands_in_for_no_label(self, completion, labels):
        # A label of punctuation alone normalizes to "", so its claim starts
        # or ends with the space; the fallback text has no space at its edges.
        assert hop_verdicts(completion, make_chain(*labels)) == (False,)

    @pytest.mark.parametrize("completion, verdict", [
        ("New York is USA-adjacent.", False),
        ("New York is USA's biggest city.", False),
        ("New York is USA/Canada.", False),
        ("The pre-New York is USA.", False),
        ("'New York is USA'", False),           # a straight ' is an apostrophe
        ("New York is USA.", True),
        ("(New York is USA)", True),
        ("New York is USA and more.", True),
        ('He said "New York is USA".', True),
        ("“New York is USA”", True),
    ])
    def test_a_hop_is_stated_only_as_a_clause(self, completion, verdict):
        chain = make_chain("New York", "country", "USA")
        assert hop_verdicts(completion, chain) == (verdict,)

    @staticmethod
    def _regex_states(flat, head, tail):
        """The sentence fallback as a clause-boundary regex."""
        pattern = (rf'(?:^|(?<=[\s"“(\[])){re.escape(head)} is {re.escape(tail)}'
                   rf'(?=["”)\]]?(?:[\s.,;:!?]|\Z))')
        return re.search(pattern, flat) is not None

    @staticmethod
    def _word_bounded_states(flat, claim):
        """The sentence fallback before the clause rule: any non-word
        character (or the text's edge) bounded a claim."""
        at = flat.find(claim)
        while at >= 0:
            end = at + len(claim)
            before, after = flat[at - 1:at], flat[end:end + 1]
            if not (before.isalnum() or before == "_" or after.isalnum() or after == "_"):
                return True
            at = flat.find(claim, at + 1)
        return False

    @pytest.mark.parametrize("flat, expected", [
        ("a is b", True),                       # both text edges
        ("_a is b", False), ("a is b_", False),
        ("٣a is b", False), ("a is b²", False),  # a Unicode decimal and digit
        ("½a is b", False), ("a is bⅫ", False),  # Unicode numerics
        ("\u0301a is b", False),                # a combining mark is no boundary
        ("xa is b, a is b", True),              # the second occurrence counts
        ("ba is b is b", False),
        ("-a is b", False), ("a is b-c", False), ("a is b/c", False),
        ("a is b's", False), ("'a is b'", False),
        ('"a is b"', True), ("[a is b];", True), ("“a is b”!", True),
        ("a is b\u3000c", True),                # any whitespace
        ("(a is b))", False),                   # one closing bracket at most
        ("a is b.)", True),
    ])
    def test_fallback_scan_edges(self, flat, expected):
        assert evaluate._states(flat, "a is b") is expected
        assert self._regex_states(flat, "a", "b") is expected

    def test_fallback_scan_overlaps(self):
        # The only whole-clause occurrence overlaps a rejected one.
        assert evaluate._states("xa is a is a", "a is a")
        assert self._regex_states("xa is a is a", "a", "a")

    PIECES = ["a", "b", "_", " ", ".", "-", "is", " is ", "1", "٣", "²", "½", "Ⅻ", "é",
              "\u0301", "ß", "\u3000", '"', "'", "(", ")", "[", "]", "“", "”", "/", ",",
              "?"]

    def _random_case(self, rng):
        """A seeded (flat, head, tail) with zero to three copies of the claim."""
        entity_pieces = [p for p in self.PIECES if "is" not in p]
        head, tail = ("".join(rng.choice(entity_pieces) for _ in range(rng.randint(0, 2)))
                      for _ in "ht")
        parts = [rng.choice(self.PIECES) for _ in range(rng.randint(0, 6))]
        for _ in range(rng.randint(0, 3)):
            parts.insert(rng.randint(0, len(parts)), f"{head} is {tail}")
        return "".join(parts), head, tail

    def test_fallback_scan_agrees_with_the_regex(self):
        rng = random.Random(20261018)
        outcomes = collections.Counter()
        for _ in range(20000):
            flat, head, tail = self._random_case(rng)
            claim = f"{head} is {tail}"
            expected = self._regex_states(flat, head, tail)
            assert evaluate._states(flat, claim) is expected, (flat, head, tail)
            outcomes[expected, claim in flat] += 1
        # every kind of case is reached: no occurrence, only occurrences that
        # are no clause, and a clause
        assert set(outcomes) == {(False, False), (False, True), (True, True)}

    def test_the_clause_rule_never_turns_a_false_verdict_true(self, monkeypatch):
        rng = random.Random(20261020)
        outcomes = collections.Counter()
        for _ in range(20000):
            flat, head, tail = self._random_case(rng)
            claim = f"{head} is {tail}"
            verdicts = evaluate._states(flat, claim), self._word_bounded_states(flat, claim)
            assert verdicts != (True, False), (flat, head, tail)
            outcomes[verdicts] += 1
        assert set(outcomes) == {(False, False), (False, True), (True, True)}
        # and no hop of a completion in the frozen fixture below turns True
        rng = random.Random(20241210)
        cases = [_perturbed_completion(rng, index) for index in range(2000)]
        clause = [judge("i", *case) for case in cases]
        monkeypatch.setattr(evaluate, "_states", self._word_bounded_states)
        for new, old in zip(clause, (judge("i", *case) for case in cases)):
            assert new._replace(hop_correct=()) == old._replace(hop_correct=())
            assert all(o or not n for n, o in zip(new.hop_correct, old.hop_correct))

    def test_word_characters_are_alphanumerics_and_underscore(self):
        word = re.compile(r"\w").match
        assert all((c.isalnum() or c == "_") is (word(c) is not None)
                   for c in map(chr, range(0x110000)))


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


BLANKS = ["", " ", "\u3000"]


def _blank_fact(rng, chain):
    """A fact naming the chain's labels, with one label blank.  A blank tail
    goes under a fresh relation, so it never replaces a rendered fact."""
    entities = [chain.start] + [hop.tail for hop in chain.hops]
    fact = [rng.choice(entities), rng.choice(chain.relations),
            rng.choice(entities)]
    slot = rng.randrange(3)
    fact[slot] = rng.choice(BLANKS)
    if slot == 2:
        fact[1] = "extra"
    return tuple(fact)


def _with_fact(rng, tag, chain, fact):
    """The chain's rendered body, stating ``fact`` as well."""
    head, rel, tail = fact
    body = render(chain, tag).body
    if tag is NL:
        sentences = re.split(r"(?<=\.) ", body)
        sentences.insert(rng.randrange(len(sentences) + 1), f"The {rel} of {head} is {tail}.")
        return " ".join(sentences)
    if tag is RepresentationTag.PYTHON_DYNAMIC:
        lines = body[len(DYNAMIC_PREAMBLE):].split("\n")
        lines.insert(rng.randrange(len(lines) + 1), f"kb.add_fact({head!r}, {rel!r}, {tail!r})")
        return DYNAMIC_PREAMBLE + "\n".join(lines)
    mapping = {}
    for hop in chain.hops:
        mapping.setdefault(hop.relation, {})[hop.head] = hop.tail
    mapping.setdefault(rel, {})[head] = tail
    if tag is RepresentationTag.JSON:
        return json.dumps(mapping, indent=4)
    start, end = body.index("relationships = {"), body.index("\n}\n") + 2
    return body[:start] + f"relationships = {mapping!r}" + body[end:]


@pytest.mark.parametrize("tag", ALL_TAGS)
def test_a_blank_labelled_fact_never_turns_a_true_hop_false(tag):
    rng = random.Random(f"blank-{tag.value}")
    for _ in range(150):
        chain = random_chain(rng, rng.randint(1, 4))
        fact = _blank_fact(rng, chain)
        body = _with_fact(rng, tag, chain, fact)
        if not (tag is NL and "" in fact):  # "" leaves no sentence slot to fill
            assert fact in render_module.parse(tag, body).triplets, body
        record = judge("id1", chain, wrap_answer_envelope(body, tag, chain.answer), tag)
        assert record.hop_correct == (True,) * chain.n_hops, body
        assert record.final_correct


def test_a_blank_key_costs_one_fact_not_the_body():
    chain = make_chain("A", "r", "B", "s", "C")
    body = json.dumps({"r": {"A": "B"}, "s": {"B": "C"}, "t": {" ": "D"}})
    completion = json.dumps({"Answer": "C", "JSON structure": body})
    assert hop_verdicts(completion, chain, RepresentationTag.JSON) == (True, True)


def test_a_non_string_relation_key_costs_its_facts_only():
    chain = make_chain("A", "r", "B", "s", "C")
    body = "relationships = {'r': {'A': 'B'}, 1: {'B': 'X'}, ('s',): {'B': 'Y'}, 's': {'B': 'C'}}"
    assert hop_verdicts(body, chain, RepresentationTag.PYTHON_STATIC) == (True, True)


def test_judge_reads_the_first_body_with_a_non_blank_pair():
    chain = make_chain("A", "r", "B", "s", "C")
    blank = json.dumps({"JSON structure": json.dumps({"r": {" ": "B", "A": "\u3000"}})})
    stated = render(chain, RepresentationTag.JSON).envelope
    assert hop_verdicts(blank + stated, chain, RepresentationTag.JSON) == (True, True)


@pytest.mark.parametrize("tag", ALL_TAGS)
def test_judging_normalizes_each_label_once_and_builds_no_label_object(
    monkeypatch, tag
):
    chain = make_chain("It Goes Like It Goes", "composer", "David Shire",
                       "spouse", "Didi Conn", "birthplace", "New York")
    envelope = render(chain, tag).envelope
    calls = collections.Counter()
    real_normalize = evaluate.normalize_answer

    def counted(text):
        calls[text] += 1
        return real_normalize(text)

    def forbidden(*args, **kwargs):
        raise AssertionError("a label object was built while judging")

    monkeypatch.setattr(evaluate, "normalize_answer", counted)
    for cls in (kg.Triplet, kg.ReasoningInstance):
        monkeypatch.setattr(cls, "__new__", forbidden)
    record = judge("id1", chain, envelope, tag)
    assert record.hop_correct == (True, True, True) and record.final_correct
    assert calls == collections.Counter(
        ["It Goes Like It Goes", "David Shire", "Didi Conn", "New York"])


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

    def test_unknown_format(self):
        with pytest.raises(ValueError, match="^unknown report format 'xml'$"):
            emit_report(compute_metrics([]), "xml")

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
FROZEN_VERDICTS_SHA256 = "593090739e75f185df919bf00a93289b4261093d56ed7ffc49ed601676015e5c"
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
    answer = replied.answer
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
                                    f" So the answer is {gold.answer}."]))
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


# Blank labels as the four parsers read them: JSON keys and values, code
# literals and bindings, and sentence slots; as pieces, and as whole facts.
BLANK_FRAGMENTS = [
    '{"": ', '{" ": ', '{"\u3000": ', '"": ""', '" ": "x"', '"r": {" ": "Didi Conn"}',
    "''", "' '", "'\u3000'", "kb.add_fact('', r1, e2)", "kb.add_fact(e1, ' ', e2)",
    "kb.add_fact(e1, r1, '\u3000')", "e2 = ''", "r1 = ' '", "The   of ", " is \u3000.",
    "relationships = {'r': {' ': 'x'}, 1: {'a': 'b'}}",
]
BLANK_FACTS = [
    "The spouse of \u3000 is Didi Conn.", "The   of David Shire is Didi Conn.",
    '{"spouse": {" ": "Didi Conn", "David Shire": "\u3000"}}',
    "relationships = {' ': {'David Shire': 'Didi Conn'}, 'spouse': {'': 'x'}}",
    "kb.add_fact('', 'spouse', 'Didi Conn')", "kb.add_fact(' ', r1, e2)",
    "e1 = '\u3000'", "r1 = ''",
]


def test_judge_never_raises_on_fuzzed_blank_labels(monkeypatch, example_chain):
    reached = collections.Counter()  # parses that returned a blank label, per tag
    real_parse = evaluate.parse_body

    def recording_parse(tag, body):
        parsed = real_parse(tag, body)
        reached[tag] += any(not label.strip() for fact in parsed.triplets for label in fact)
        return parsed

    monkeypatch.setattr(evaluate, "parse_body", recording_parse)
    rng = random.Random(1211)
    for tag in ALL_TAGS:
        for _ in range(300):
            if rng.random() < 0.4:
                text = "\n".join(rng.choice(BLANK_FACTS) for _ in range(rng.randint(1, 3)))
            else:
                text = "".join(rng.choice(FUZZ_FRAGMENTS + BLANK_FRAGMENTS)
                               for _ in range(rng.randint(0, 60)))
            roll = rng.random()
            if roll < 0.5:  # the text as an envelope body
                text = json.dumps({"Answer": _fuzz_text(rng), ENVELOPE_BODY_KEY[tag]: text})
            elif roll < 0.6:  # the text around a well-formed envelope
                text = text + render(example_chain, tag).envelope + _fuzz_text(rng)
            record = judge("id1", example_chain, text, tag)
            assert len(record.hop_correct) == example_chain.n_hops
            assert record.failure_class in (None, "unparseable")
    assert all(reached[tag] for tag in ALL_TAGS), reached
