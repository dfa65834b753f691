"""Command-line pipeline: ingest -> partition -> stats -> generate ->
evaluate -> report.

Every command is deterministic given its inputs, flags, and seed (remote
endpoint content aside), refuses to overwrite outputs without --force, and
exits nonzero with a diagnostic on any pipeline error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import dataset, evaluate, gateway, prompts
from .gateway import (DecodeConfig, FaultSpec, Gateway, GatewayConfigError,
                      OpenAIChatBackend, OracleBackend)
from .kg import Entity, KnowledgeGraph, Relation, Triplet, add_fact
from .prompts import DatasetStyle, PromptMode
from .render import RepresentationTag, hop_sentences, render as render_instance

REP_FLAGS = {
    "nl": RepresentationTag.NATURAL_LANGUAGE,
    "json": RepresentationTag.JSON,
    "py-static": RepresentationTag.PYTHON_STATIC,
    "py-dynamic": RepresentationTag.PYTHON_DYNAMIC,
}
MODE_FLAGS = {
    "zero": PromptMode.ZERO_SHOT,
    "one": PromptMode.ONE_SHOT,
    "context": PromptMode.WITH_CONTEXT,
}


class CliError(RuntimeError):
    pass


def _check_output(path: Path, force: bool) -> None:
    if path.exists() and not force:
        raise CliError(f"{path} exists; pass --force to overwrite")


def _load_records(path: str, format: str) -> list[dataset.SourceRecord]:
    result = dataset.ingest(path, format=format)
    if result.n_rejected:
        print(
            f"ingest: {len(result.records)} records, "
            f"{len(result.invalid_rows)} invalid, "
            f"{len(result.conflicting_rows)} conflicting rows rejected",
            file=sys.stderr,
        )
    if not result.records:
        raise CliError(f"no usable records in {path}")
    return result.records


def _format_of(path: str) -> str:
    return "json_lines" if path.endswith((".jsonl", ".ndjson", ".json")) else "tsv"


def cmd_partition(args) -> int:
    records = _load_records(args.input, args.format or _format_of(args.input))
    spec = dataset.SplitSpec(
        num_partitions=args.partitions,
        train_partition_index=args.train_idx,
        test_partition_index=args.test_idx,
    )
    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    train_path = out / "train.tsv"
    test_path = out / "test.tsv"
    map_path = out / "partition_map.json"
    for path in (train_path, test_path, map_path):
        _check_output(path, args.force)
    train, test, partition_map = dataset.partition_by_bridge(records, spec)
    dataset.write_records(train, train_path)
    dataset.write_records(test, test_path)
    map_path.write_text(json.dumps(partition_map, indent=2), encoding="utf-8")
    sizes = [0] * spec.num_partitions
    for record in records:
        sizes[partition_map[record.bridge]] += 1
    print("partition sizes:", " ".join(str(s) for s in sizes))
    print(f"train (partition {spec.train_partition_index}): {len(train)} records")
    print(f"test (partition {spec.test_partition_index}): {len(test)} records")
    return 0


def cmd_stats(args) -> int:
    train = _load_records(args.train, args.format or _format_of(args.train))
    test = _load_records(args.test, args.format or _format_of(args.test))
    stats = dataset.compute_overlap_stats(train, test)
    print(stats.to_table())
    if args.output:
        path = Path(args.output)
        _check_output(path, args.force)
        path.write_text(json.dumps(stats.to_dict(), indent=2) + "\n", encoding="utf-8")
    return 0


def cmd_cap(args) -> int:
    records = _load_records(args.input, args.format or _format_of(args.input))
    capped = dataset.cap_relation_pairs(records, cap=args.cap, seed=args.seed)
    path = Path(args.output)
    _check_output(path, args.force)
    dataset.write_records(capped, path, format=_format_of(args.output))
    print(f"kept {len(capped)} of {len(records)} records (cap {args.cap})")
    return 0


def _load_facts(path: str) -> list[Triplet]:
    facts = []
    for lineno, line in enumerate(
        Path(path).read_text(encoding="utf-8").splitlines(), start=1
    ):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise CliError(f"{path}:{lineno}: expected head<TAB>relation<TAB>tail")
        facts.append(Triplet(Entity(parts[0]), Relation(parts[1]), Entity(parts[2])))
    return facts


def cmd_extend3(args) -> int:
    records = _load_records(args.input, args.format or _format_of(args.input))
    facts = _load_facts(args.facts)
    if args.whitelist:
        whitelist = {
            Entity(line.strip())
            for line in Path(args.whitelist).read_text(encoding="utf-8").splitlines()
            if line.strip()
        }
    else:
        whitelist = {Entity(r.answer) for r in records}
    extended = dataset.extend_to_three_hops(records, facts, whitelist)
    path = Path(args.output)
    _check_output(path, args.force)
    dataset.write_records(extended, path, format=_format_of(args.output))
    print(f"extended {len(extended)} of {len(records)} records to three hops")
    return 0


def _demonstrations(mode, chains):
    """The indexed demonstration pool, built only where one-shot uses it."""
    return prompts.DemonstrationPool(chains) if mode is PromptMode.ONE_SHOT else None


def _prompt_for(record, mode, style, rep, demos, seed):
    chain = record.to_chain()
    demonstration = None
    context = None
    if mode is PromptMode.ONE_SHOT:
        demo_chain = demos.pick(chain, seed)
        demonstration = render_instance(demo_chain, rep)
    elif mode is PromptMode.WITH_CONTEXT:
        context = " ".join(hop_sentences(chain))
    return prompts.build_prompt(
        chain, mode=mode, style=style, representation=rep,
        demonstration=demonstration, context=context,
    ).full_prompt


def cmd_generate(args) -> int:
    records = _load_records(args.input, args.format or _format_of(args.input))
    rep = REP_FLAGS[args.rep]
    style = DatasetStyle(args.style)
    path = Path(args.output)
    _check_output(path, args.force)
    if args.kind == "corpus":
        corpus = dataset.build_finetune_corpus(records, rep, style)
        dataset.write_finetune_corpus(corpus, path)
        print(f"wrote {len(corpus)} training pairs to {path}")
        return 0
    mode = MODE_FLAGS[args.mode]
    demos = _demonstrations(mode, [r.to_chain() for r in records])
    lines = []
    for record in records:
        prompt = _prompt_for(record, mode, style, rep, demos, args.seed)
        lines.append(json.dumps({"id": record.id, "prompt": prompt}))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {len(lines)} prompts to {path}")
    return 0


def _build_gateway(args, chains) -> Gateway:
    file_config = gateway.load_gateway_config(args.config) if args.config else {}
    model = args.model or file_config.get("model", "oracle")
    decode = DecodeConfig(
        model_name=model,
        temperature=file_config.get("temperature", 0.0),
        max_tokens=file_config.get("max_tokens", 512),
    )
    concurrency = file_config.get("concurrency", 4)
    retries = file_config.get("retries", 3)
    endpoint = args.endpoint or file_config.get("endpoint")
    if args.oracle or not endpoint:
        if not args.oracle and not endpoint:
            raise CliError("pick a backend: --oracle or --endpoint")
        kg = KnowledgeGraph()
        for chain in chains:
            for hop in chain.hops:
                add_fact(kg, hop)
        fault = None
        if args.fault_prob > 0:
            fault = FaultSpec(
                hop_index=args.fault_hop, probability=args.fault_prob, seed=args.seed
            )
        backend = OracleBackend(kg, REP_FLAGS[args.rep], corrupt=fault)
    else:
        backend = OpenAIChatBackend(
            endpoint, token_env=file_config.get("token_env", "OPENAI_API_KEY")
        )
    return Gateway(backend=backend, config=decode, concurrency=concurrency,
                   retries=retries)


def cmd_evaluate(args) -> int:
    records = _load_records(args.input, args.format or _format_of(args.input))
    rep = REP_FLAGS[args.rep]
    style = DatasetStyle(args.style)
    mode = MODE_FLAGS[args.mode]
    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    records_path = out / "eval_records.jsonl"
    report_path = out / "report.txt"
    machine_path = out / "report.jsonl"

    resumed: list[evaluate.EvalRecord] = []
    if args.resume and records_path.exists():
        resumed = evaluate.read_eval_records(records_path)
    else:
        for path in (records_path, report_path, machine_path):
            _check_output(path, args.force)
        if records_path.exists():
            records_path.unlink()

    chains = [r.to_chain() for r in records]
    gw = _build_gateway(args, chains)
    gw.check()  # fail before the first request on misconfiguration

    demos = _demonstrations(mode, chains)
    done_ids = {r.instance_id for r in resumed}
    pending = [(r, chain) for r, chain in zip(records, chains) if r.id not in done_ids]
    if done_ids:
        print(f"resume: skipping {len(done_ids)} already-evaluated instances")
    prompt_texts = [
        _prompt_for(record, mode, style, rep, demos, args.seed) for record, _ in pending
    ]
    results = gw.complete_batch(prompt_texts)
    judged = [
        evaluate.judge(
            record.id, chain, result.text, rep, transport_failed=not result.ok
        )
        for (record, chain), result in zip(pending, results)
    ]
    evaluate.write_eval_records(judged, records_path)
    report = evaluate.compute_metrics(resumed + judged)
    report_path.write_text(evaluate.emit_report(report, "text_table"), encoding="utf-8")
    machine_path.write_text(evaluate.emit_report(report, "machine"), encoding="utf-8")
    print(evaluate.emit_report(report, "text_table"))
    return 0


def cmd_report(args) -> int:
    records = evaluate.read_eval_records(args.input)
    report = evaluate.compute_metrics(records)
    print(evaluate.emit_report(report, "text_table"))
    if args.output:
        path = Path(args.output)
        _check_output(path, args.force)
        path.write_text(evaluate.emit_report(report, "machine"), encoding="utf-8")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hopkit",
        description="Multi-hop KG reasoning benchmark pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, output=True):
        p.add_argument("--input", required=True, help="input records file")
        if output:
            p.add_argument("--output", required=True)
        p.add_argument("--format", choices=["tsv", "json_lines"],
                       help="input format (default: by file extension)")
        p.add_argument("--force", action="store_true",
                       help="overwrite existing outputs")
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("partition", help="round-robin split by bridge entity")
    common(p)
    p.add_argument("--partitions", type=int, default=8)
    p.add_argument("--train-idx", type=int, default=2)
    p.add_argument("--test-idx", type=int, default=4)
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("stats", help="train/test overlap statistics")
    p.add_argument("--train", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--output")
    p.add_argument("--format", choices=["tsv", "json_lines"])
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("cap", help="cap records per relation pair")
    common(p)
    p.add_argument("--cap", type=int, default=500)
    p.set_defaults(func=cmd_cap)

    p = sub.add_parser("extend3", help="extend two-hop records with a third hop")
    common(p)
    p.add_argument("--facts", required=True,
                   help="TSV of third-hop facts: head, relation, tail")
    p.add_argument("--whitelist",
                   help="file of allowed e3 labels (default: e3 values of --input)")
    p.set_defaults(func=cmd_extend3)

    def eval_flags(p):
        p.add_argument("--rep", choices=sorted(REP_FLAGS), default="nl")
        p.add_argument("--style", choices=[s.value for s in DatasetStyle],
                       default="statement")
        p.add_argument("--mode", choices=sorted(MODE_FLAGS), default="zero")

    p = sub.add_parser("generate", help="write prompts or a fine-tune corpus")
    common(p)
    eval_flags(p)
    p.add_argument("--kind", choices=["corpus", "prompts"], default="corpus")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("evaluate", help="run completions and judge them")
    common(p)
    eval_flags(p)
    p.add_argument("--endpoint", help="OpenAI-compatible base URL")
    p.add_argument("--model", help="model name for the endpoint")
    p.add_argument("--oracle", action="store_true",
                   help="use the built-in graph-traversal oracle")
    p.add_argument("--config", help="JSON gateway config file")
    p.add_argument("--resume", action="store_true",
                   help="skip instances already in the output record log")
    p.add_argument("--fault-hop", type=int, default=1,
                   help="0-based hop the fault-injected oracle corrupts")
    p.add_argument("--fault-prob", type=float, default=0.0,
                   help="corruption probability for the oracle backend")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("report", help="recompute metrics from an eval record log")
    p.add_argument("--input", required=True, help="eval_records.jsonl")
    p.add_argument("--output", help="machine-readable report destination")
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, GatewayConfigError, dataset.IngestError, ValueError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
