import hashlib
import json
import random
from pathlib import Path

import pytest

from hopkit.cli import main


def write_tsv(path, rows):
    lines = ["\t".join(["id", "e1", "r1", "e2", "r2", "e3"])]
    lines += ["\t".join(row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.fixture
def input_tsv(tmp_path):
    # 20 rows over 10 bridge entities, two relation pairs
    rows = []
    for i in range(20):
        pair = ("composer", "spouse") if i % 2 == 0 else ("director", "child")
        rows.append([str(i), f"work{i}", pair[0], f"bridge{i % 10}", pair[1], f"person{i % 10}"])
    path = tmp_path / "records.tsv"
    write_tsv(path, rows)
    return path


class TestPartition:
    def test_writes_three_outputs(self, input_tsv, tmp_path, capsys):
        out = tmp_path / "split"
        code = main(["partition", "--input", str(input_tsv), "--output", str(out),
                     "--partitions", "4", "--train-idx", "0", "--test-idx", "1"])
        assert code == 0
        assert (out / "train.tsv").exists()
        assert (out / "test.tsv").exists()
        partition_map = json.loads((out / "partition_map.json").read_text())
        assert set(partition_map.values()) <= {0, 1, 2, 3}
        assert "partition sizes:" in capsys.readouterr().out

    def test_refuses_overwrite_without_force(self, input_tsv, tmp_path, capsys):
        out = tmp_path / "split"
        args = ["partition", "--input", str(input_tsv), "--output", str(out)]
        assert main(args) == 0
        assert main(args) == 1
        assert "exists" in capsys.readouterr().err
        assert main(args + ["--force"]) == 0

    def test_train_test_bridges_disjoint(self, input_tsv, tmp_path):
        out = tmp_path / "split"
        main(["partition", "--input", str(input_tsv), "--output", str(out)])
        train = (out / "train.tsv").read_text().splitlines()[1:]
        test = (out / "test.tsv").read_text().splitlines()[1:]
        train_bridges = {line.split("\t")[3] for line in train}
        test_bridges = {line.split("\t")[3] for line in test}
        assert not (train_bridges & test_bridges)


class TestStats:
    def test_table_and_json(self, input_tsv, tmp_path, capsys):
        out = tmp_path / "stats.json"
        code = main(["stats", "--train", str(input_tsv), "--test", str(input_tsv),
                     "--output", str(out)])
        assert code == 0
        assert "Bridge Entities" in capsys.readouterr().out
        stats = json.loads(out.read_text())
        assert stats["train_size"] == 20
        assert stats["bridge_overlap"] == 10


class TestCap:
    def test_caps_per_pair(self, input_tsv, tmp_path, capsys):
        out = tmp_path / "capped.tsv"
        code = main(["cap", "--input", str(input_tsv), "--output", str(out),
                     "--cap", "3", "--seed", "7"])
        assert code == 0
        assert "kept 6 of 20" in capsys.readouterr().out
        assert len(out.read_text().splitlines()) == 7  # header + 6 rows

    def test_deterministic_across_runs(self, input_tsv, tmp_path):
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        for out in (a, b):
            main(["cap", "--input", str(input_tsv), "--output", str(out),
                  "--cap", "3", "--seed", "7"])
        assert a.read_text() == b.read_text()


    @pytest.mark.parametrize("bad_id", [[1], 7])
    def test_non_string_id_is_rejected_not_raised(self, tmp_path, bad_id, capsys):
        path = tmp_path / "rows.jsonl"
        rows = [{"id": "1", "e1": "a", "r1": "r", "e2": "b", "r2": "s", "e3": "c"},
                {"id": bad_id, "e1": "d", "r1": "r", "e2": "e", "r2": "s", "e3": "f"}]
        path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
        out = tmp_path / "out.tsv"
        assert main(["cap", "--input", str(path), "--output", str(out)]) == 0
        captured = capsys.readouterr()
        assert "1 records, 1 invalid" in captured.err
        assert "kept 1 of 1" in captured.out
        assert out.read_text().splitlines()[1:] == ["1\ta\tr\tb\ts\tc"]


class TestExtend3:
    def test_adds_third_hop(self, input_tsv, tmp_path, capsys):
        facts = tmp_path / "facts.tsv"
        facts.write_text("person0\tbirthplace\tParis\n", encoding="utf-8")
        out = tmp_path / "three.tsv"
        code = main(["extend3", "--input", str(input_tsv), "--facts", str(facts),
                     "--output", str(out)])
        assert code == 0
        assert "extended 2 of 20" in capsys.readouterr().out
        lines = out.read_text().splitlines()
        assert lines[0].split("\t") == ["id", "e1", "r1", "e2", "r2", "e3", "r3", "e4"]
        assert lines[1].endswith("birthplace\tParis")


class TestGenerate:
    def test_corpus_has_two_pairs_per_row(self, input_tsv, tmp_path, capsys):
        out = tmp_path / "corpus.jsonl"
        code = main(["generate", "--input", str(input_tsv), "--output", str(out),
                     "--kind", "corpus", "--rep", "nl"])
        assert code == 0
        lines = [json.loads(l) for l in out.read_text().splitlines()]
        assert len(lines) == 40
        assert {l["hops"] for l in lines} == {1, 2}

    def test_prompts_deterministic(self, input_tsv, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for out in (a, b):
            main(["generate", "--input", str(input_tsv), "--output", str(out),
                  "--kind", "prompts", "--mode", "one", "--rep", "json",
                  "--seed", "11"])
        assert a.read_text() == b.read_text()
        assert len(a.read_text().splitlines()) == 20

    def test_context_prompts_mention_context(self, input_tsv, tmp_path):
        out = tmp_path / "p.jsonl"
        main(["generate", "--input", str(input_tsv), "--output", str(out),
              "--kind", "prompts", "--mode", "context"])
        first = json.loads(out.read_text().splitlines()[0])
        assert "Given context:" in first["prompt"]

    def test_one_shot_without_a_leak_free_demonstration_fails(self, tmp_path, capsys):
        path = tmp_path / "one.tsv"
        write_tsv(path, [["1", "a", "r", "b", "s", "c"]])
        code = main(["generate", "--input", str(path), "--output", str(tmp_path / "p"),
                     "--kind", "prompts", "--mode", "one", "--rep", "json"])
        assert code == 1
        assert "error: no demonstration" in capsys.readouterr().err


# SHA-256 of `generate --kind prompts --mode one --seed 5` on one_shot_tsv,
# as written by the linear-scan demonstration pick.
ONE_SHOT_PROMPTS_SHA256 = {
    ("nl", "statement"): "9d3f9c44f5af167de0aa47ded3b0ec92d379e01a845889d01deafcd8c9189897",
    ("nl", "question"): "849f313afaef28d512bdc9579baa1ea789e6fdd073deab241c9841cb4c548c98",
    ("json", "statement"): "cf604d531547b207d1925951d9ec55f7d225739f4c3202cf1a582b6adae9016a",
    ("json", "question"): "2e0f1881994f18fd35d2529d250bb00d44997310dabccec9f08ba34193038391",
    ("py-static", "statement"): "9c1d9dbc95ea454646b1370e717d81b90416dc64b8da9ae19349b9cec7cc0737",
    ("py-static", "question"): "7e0a804c4f63d7db8e0367e8cdca2bf1ff606aa33110b7611eec77240784897e",
    ("py-dynamic", "statement"): "7b4a6f086912e755bf2eab23f2bae889c8f6998e1ec37772755e79c1d9e31d56",
    ("py-dynamic", "question"): "bb0f0accc665f223271dce811ff93fe73d9310f51df42d5c5a998810ac90c301",
}


@pytest.fixture
def one_shot_tsv(tmp_path):
    """Mixed two- and three-hop rows whose starts and answers collide often,
    so many demonstrations are excluded for leaking."""
    rng = random.Random(5)
    header = ["id", "e1", "r1", "e2", "r2", "e3", "r3", "e4"]
    rows = []
    for i in range(30):
        start, answer = f"work{rng.randrange(4)}", f"person{rng.randrange(3)}"
        if rng.random() < 0.5:
            rows.append([str(i), start, f"r{i}", f"mid{i}", "spouse", answer, "", ""])
        else:
            rows.append([str(i), start, f"r{i}", f"mid{i}", "spouse", f"far{i}",
                         "country", answer])
    path = tmp_path / "collide.tsv"
    path.write_text("\n".join("\t".join(r) for r in [header, *rows]) + "\n",
                    encoding="utf-8")
    return path


@pytest.mark.parametrize("rep", ["nl", "json", "py-static", "py-dynamic"])
@pytest.mark.parametrize("style", ["statement", "question"])
def test_one_shot_prompt_bytes_pinned(one_shot_tsv, tmp_path, rep, style):
    out = tmp_path / "prompts.jsonl"
    assert main(["generate", "--input", str(one_shot_tsv), "--output", str(out),
                 "--kind", "prompts", "--mode", "one", "--rep", rep,
                 "--style", style, "--seed", "5"]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == ONE_SHOT_PROMPTS_SHA256[rep, style]


class TestEvaluate:
    def test_oracle_closure_is_perfect(self, input_tsv, tmp_path, capsys):
        out = tmp_path / "eval"
        code = main(["evaluate", "--input", str(input_tsv), "--output", str(out),
                     "--oracle", "--rep", "nl"])
        assert code == 0
        report = [json.loads(l) for l in (out / "report.jsonl").read_text().splitlines()]
        assert report[0]["final_correct_count"] == 20
        assert report[0]["overall_accuracy"] == 1.0
        assert len((out / "eval_records.jsonl").read_text().splitlines()) == 20
        assert "100.0%" in (out / "report.txt").read_text()

    def test_resume_skips_done_instances(self, input_tsv, tmp_path, capsys):
        out = tmp_path / "eval"
        main(["evaluate", "--input", str(input_tsv), "--output", str(out), "--oracle"])
        capsys.readouterr()
        code = main(["evaluate", "--input", str(input_tsv), "--output", str(out),
                     "--oracle", "--resume"])
        assert code == 0
        assert "skipping 20" in capsys.readouterr().out
        # the record log did not grow
        assert len((out / "eval_records.jsonl").read_text().splitlines()) == 20

    @pytest.mark.parametrize("k", [0, 7, 20])
    def test_partial_resume_reproduces_a_fresh_run(self, input_tsv, tmp_path, k):
        args = ["evaluate", "--input", str(input_tsv), "--oracle", "--rep",
                "py-dynamic", "--fault-prob", "0.3", "--seed", "3"]
        fresh, resumed = tmp_path / "fresh", tmp_path / "resumed"
        assert main([*args, "--output", str(fresh)]) == 0
        resumed.mkdir()
        log = (fresh / "eval_records.jsonl").read_text(encoding="utf-8")
        (resumed / "eval_records.jsonl").write_text(
            "".join(log.splitlines(keepends=True)[:k]), encoding="utf-8")
        assert main([*args, "--output", str(resumed), "--resume"]) == 0
        report = json.loads((fresh / "report.jsonl").read_text().splitlines()[0])
        assert 0 < report["final_correct_count"] < 20
        for name in ("eval_records.jsonl", "report.txt", "report.jsonl"):
            assert (resumed / name).read_bytes() == (fresh / name).read_bytes()

    @pytest.mark.parametrize("config", [
        {"concurrency": "4"}, {"temperature": "hot"}, {"retries": "3"},
    ])
    def test_wrongly_typed_config_is_an_error(self, input_tsv, tmp_path, capsys,
                                              config):
        path = tmp_path / "gw.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        code = main(["evaluate", "--input", str(input_tsv), "--output",
                     str(tmp_path / "eval"), "--oracle", "--config", str(path)])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_requires_a_backend(self, input_tsv, tmp_path, capsys):
        code = main(["evaluate", "--input", str(input_tsv),
                     "--output", str(tmp_path / "eval")])
        assert code == 1
        assert "backend" in capsys.readouterr().err

    @pytest.mark.parametrize("rep", ["nl", "json", "py-static", "py-dynamic"])
    def test_four_hop_oracle_closure(self, tmp_path, rep):
        path = tmp_path / "four.tsv"
        header = ["id", "e1", "r1", "e2", "r2", "e3", "r3", "e4", "r4", "e5"]
        rows = [[str(i), f"work{i}", "composer", f"bridge{i}", "spouse",
                 f"person{i}", "birthplace", f"town{i}", "country", f"land{i % 3}"]
                for i in range(12)]
        path.write_text("\n".join("\t".join(r) for r in [header, *rows]) + "\n",
                        encoding="utf-8")
        out = tmp_path / "eval"
        assert main(["evaluate", "--input", str(path), "--output", str(out),
                     "--oracle", "--rep", rep]) == 0
        records = [json.loads(l) for l in (out / "eval_records.jsonl").read_text().splitlines()]
        assert len(records) == 12
        assert all(r["hop_correct"] == [True] * 4 and r["final_correct"] for r in records)
        report = [json.loads(l) for l in (out / "report.jsonl").read_text().splitlines()]
        assert [r["condition"] for r in report[1:]] == [[1, 2], [2, 3], [3, 4], [1, 2, 3, 4]]
        assert all(r["final_accuracy"] == 1.0 for r in report[1:])

    def test_fault_injection_lowers_accuracy(self, input_tsv, tmp_path):
        out = tmp_path / "eval"
        main(["evaluate", "--input", str(input_tsv), "--output", str(out),
              "--oracle", "--fault-hop", "1", "--fault-prob", "1.0"])
        report = json.loads((out / "report.jsonl").read_text().splitlines()[0])
        assert report["final_correct_count"] == 0


class TestReport:
    def test_recomputes_from_log(self, input_tsv, tmp_path, capsys):
        out = tmp_path / "eval"
        main(["evaluate", "--input", str(input_tsv), "--output", str(out), "--oracle"])
        capsys.readouterr()
        machine = tmp_path / "machine.jsonl"
        code = main(["report", "--input", str(out / "eval_records.jsonl"),
                     "--output", str(machine)])
        assert code == 0
        assert "Accuracy" in capsys.readouterr().out
        assert machine.read_text() == (out / "report.jsonl").read_text()


class TestErrors:
    def test_missing_input_file(self, tmp_path, capsys):
        code = main(["partition", "--input", str(tmp_path / "nope.tsv"),
                     "--output", str(tmp_path / "out")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["report", "--input", "{missing}"],
        ["extend3", "--input", "{records}", "--facts", "{missing}",
         "--output", "{out}"],
        ["extend3", "--input", "{records}", "--facts", "{facts}",
         "--whitelist", "{missing}", "--output", "{out}"],
        ["evaluate", "--input", "{records}", "--oracle", "--config", "{missing}",
         "--output", "{out}"],
    ], ids=["report-input", "extend3-facts", "extend3-whitelist", "evaluate-config"])
    def test_missing_file_is_an_error(self, input_tsv, tmp_path, capsys, command):
        facts = tmp_path / "facts.tsv"
        facts.write_text("person0\tbirthplace\tParis\n", encoding="utf-8")
        paths = {"missing": tmp_path / "missing.jsonl", "records": input_tsv,
                 "facts": facts, "out": tmp_path / "out"}
        code = main([arg.format(**paths) for arg in command])
        assert code == 1
        assert "error:" in capsys.readouterr().err
