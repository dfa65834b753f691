import json
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
