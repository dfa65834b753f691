"""Command-line pipeline: ingest -> partition -> stats -> generate ->
evaluate -> report.

Every command is deterministic given its inputs, flags, and seed (remote
endpoint content aside), refuses to overwrite outputs without --force, and
exits 1 with one ``error: <message>`` line on any user error.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__, dataset
from .kg import Triplet, add_fact, check_labels
from .render import RepresentationTag

if TYPE_CHECKING:
    from .gateway import Gateway

# The values of RepresentationTag, PromptMode and DatasetStyle, as strings:
# prompts, gateway and evaluate are imported only by the commands that run
# them.
REP_FLAGS = {
    "nl": "natural_language",
    "json": "json",
    "py-static": "python_static",
    "py-dynamic": "python_dynamic",
}
MODE_FLAGS = {
    "zero": "zero_shot",
    "one": "one_shot",
    "context": "with_context",
}
STYLES = ["statement", "question"]
# The keys a --config file may hold, each named like the OpenAIChatBackend or
# Gateway parameter it sets; the class that reads a value checks it.
CONFIG_KEYS = ("endpoint", "model", "token_env", "temperature", "max_tokens",
               "concurrency", "retries")


def _check_output(path: Path, force: bool) -> None:
    if path.exists() and not force:
        raise ValueError(f"{path} exists; pass --force to overwrite")


def _load_records(path: str) -> list[dataset.SourceRecord]:
    result = dataset.ingest(path)
    if result.n_rejected:
        print(
            f"ingest: {len(result.records)} records, "
            f"{len(result.invalid_rows)} invalid, "
            f"{len(result.conflicting_rows)} conflicting rows rejected",
            file=sys.stderr,
        )
    if not result.records:
        raise ValueError(f"no usable records in {path}")
    return result.records


def cmd_partition(args) -> int:
    out = Path(args.output)
    train_path = out / "train.tsv"
    test_path = out / "test.tsv"
    map_path = out / "partition_map.json"
    for path in (train_path, test_path, map_path):
        _check_output(path, args.force)
    records = _load_records(args.input)
    spec = dataset.SplitSpec(
        num_partitions=args.partitions,
        train_partition_index=args.train_idx,
        test_partition_index=args.test_idx,
    )
    out.mkdir(parents=True, exist_ok=True)
    train, test, partition_map = dataset.partition_by_bridge(records, spec)
    dataset.check_tsv_cells(train + test)  # before either file is replaced
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
    if args.output:
        _check_output(Path(args.output), args.force)
    train = _load_records(args.train)
    test = _load_records(args.test)
    stats = dataset.compute_overlap_stats(train, test)
    print(stats.to_table())
    if args.output:
        Path(args.output).write_text(json.dumps(stats._asdict(), indent=2) + "\n", encoding="utf-8")
    return 0


def cmd_cap(args) -> int:
    path = Path(args.output)
    _check_output(path, args.force)
    records = _load_records(args.input)
    capped = dataset.cap_relation_pairs(records, cap=args.cap, seed=args.seed)
    dataset.write_records(capped, path)
    print(f"kept {len(capped)} of {len(records)} records (cap {args.cap})")
    return 0


def _load_facts(path: str) -> list[Triplet]:
    facts = []
    for lineno, line in enumerate(dataset.read_lines(path), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise ValueError(f"{path}:{lineno}: expected head<TAB>relation<TAB>tail")
        try:
            check_labels(parts)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from exc
        facts.append(Triplet(*parts))
    return facts


def cmd_extend3(args) -> int:
    path = Path(args.output)
    _check_output(path, args.force)
    records = _load_records(args.input)
    facts = _load_facts(args.facts)
    if args.whitelist:
        whitelist = {line for line in dataset.read_lines(args.whitelist) if line.strip()}
    else:
        whitelist = {r.answer for r in records}
    extended = dataset.extend_to_three_hops(records, facts, whitelist)
    dataset.write_records(extended, path)
    print(f"extended {len(extended)} of {len(records)} records by one hop")
    return 0


def _prompt_for(record, mode, style, rep, demos):
    """The prompt for ``record``; ``demos`` is the pool of a one-shot run,
    else None."""
    if demos is not None:
        return demos.prompt(record)
    from . import prompts

    return prompts.build_prompt(record, mode=mode, style=style, representation=rep).full_prompt


def cmd_generate(args) -> int:
    from . import prompts

    if args.kind == "corpus" and args.mode != "zero":
        raise ValueError(f"--mode {args.mode} does not apply to --kind corpus, "
                         "whose prompts are zero-shot")
    path = Path(args.output)
    _check_output(path, args.force)
    records = _load_records(args.input)
    rep = RepresentationTag(REP_FLAGS[args.rep])
    style = prompts.DatasetStyle(args.style)
    if args.kind == "corpus":
        n = dataset.write_finetune_corpus(
            dataset.build_finetune_corpus(records, rep, style), path)
        print(f"wrote {n} training pairs to {path}")
        return 0
    mode = prompts.PromptMode(MODE_FLAGS[args.mode])
    demos = (prompts.DemonstrationPool(records, args.seed, style, rep)
             if mode is prompts.PromptMode.ONE_SHOT else None)
    n = dataset.write_lines(path, (
        json.dumps({"id": record.id, "prompt": _prompt_for(record, mode, style, rep, demos)})
        for record in records))
    print(f"wrote {n} prompts to {path}")
    return 0


def _read_config(path: str) -> dict:
    """The object in the JSON file at ``path``, holding none but CONFIG_KEYS."""
    try:
        config = json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # non-UTF-8 bytes and deep nesting too
        raise ValueError(f"config file {path} is not JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ValueError(f"config file {path} must hold an object")
    unknown = set(config) - set(CONFIG_KEYS)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return config


def _build_gateway(args, records, n_hops: int, rep: RepresentationTag) -> Gateway:
    """The gateway for the flags and the --config file; a setting neither
    names keeps the default of the class that reads it, and that class checks
    the value it is given."""
    from .gateway import FaultSpec, Gateway, OracleBackend

    config = _read_config(args.config) if args.config else {}
    # The cli reads these two itself, and a flag replaces the file's value: the
    # file's is checked first, to be a string as a flag's is.
    for key in ("endpoint", "model"):
        if not isinstance(config.get(key, ""), str):
            raise ValueError(f"config key {key!r} must be a string, got {config[key]!r}")
        if getattr(args, key):
            config[key] = getattr(args, key)
    runner = {key: config.pop(key) for key in ("concurrency", "retries") if key in config}
    endpoint = config.pop("endpoint", None)
    if args.oracle == bool(endpoint):
        raise ValueError("pick a backend: --oracle or --endpoint")
    if args.oracle:
        if config:  # only the endpoint's own settings are left in it
            raise ValueError(f"the oracle takes no model settings: {', '.join(sorted(config))}")
        fault = FaultSpec(
            hop_index=args.fault_hop, probability=args.fault_prob, seed=args.seed
        )
        if fault.probability and fault.hop_index >= n_hops:
            raise ValueError(f"fault hop {fault.hop_index} is past the last hop of "
                             f"these {n_hops}-hop records")
        kg = {}
        for record in records:
            for hop in record.hops:
                add_fact(kg, hop)
        backend = OracleBackend(kg, rep, corrupt=fault if fault.probability else None)
    else:
        from .http1 import OpenAIChatBackend  # only an endpoint run compiles the client

        backend = OpenAIChatBackend(endpoint, config.pop("model", None), **config)
    return Gateway(backend=backend, **runner)


def _manifest(args, gw: Gateway) -> dict:
    """The settings a resumed run must share with the run that wrote the log.

    A setting that cannot change the output is null: the model and decoding
    settings on the oracle, the fault flags when no fault is applied, and the
    seed when it picks neither a demonstration nor a fault."""
    import hashlib  # deferred: only evaluate hashes, and OpenSSL is slow to load

    backend = gw.backend
    fault = backend.corrupt if args.oracle else None
    seeded = fault is not None or args.mode == "one"
    return {
        "version": __version__,
        "rep": args.rep, "mode": args.mode, "style": args.style,
        "seed": args.seed if seeded else None,
        "fault_hop": fault.hop_index if fault else None,
        "fault_prob": fault.probability if fault else None,
        "backend": "oracle" if args.oracle else backend.endpoint,
        **{key: None if args.oracle else getattr(backend, key)
           for key in ("model", "temperature", "max_tokens")},
        "input_sha256": hashlib.sha256(Path(args.input).read_bytes()).hexdigest(),
    }


def _check_manifest(path: Path, manifest: dict) -> None:
    """Refuse to resume a log written with other settings.  A key that one
    manifest lacks reads as null, so an older manifest resumes only where
    this run's value is null."""
    try:
        logged = dict(json.loads(path.read_text(encoding="utf-8")))
    except (ValueError, TypeError, RecursionError) as exc:
        raise ValueError(f"{path}: not a run manifest: {exc}") from exc
    differ = [f"{key} {logged.get(key)!r} -> {manifest.get(key)!r}"
              for key in {**manifest, **logged} if logged.get(key) != manifest.get(key)]
    if differ:
        raise ValueError(f"{path}: the log was written with other settings: "
                         f"{', '.join(differ)}; resume with the same ones")


def cmd_evaluate(args) -> int:
    from . import evaluate, prompts

    out = Path(args.output)
    records_path = out / "eval_records.jsonl"
    report_path = out / "report.txt"
    machine_path = out / "report.jsonl"
    manifest_path = out / "manifest.json"
    # a run stopped before its first log write leaves only the manifest
    resume = args.resume and (records_path.exists() or manifest_path.exists())
    if not resume:
        for path in (records_path, report_path, machine_path, manifest_path):
            _check_output(path, args.force)
    elif not manifest_path.exists():
        raise ValueError(f"cannot resume {records_path}: no {manifest_path} records its "
                         "settings; pass --force without --resume to start over")

    records = _load_records(args.input)
    rep = RepresentationTag(REP_FLAGS[args.rep])
    style = prompts.DatasetStyle(args.style)
    mode = prompts.PromptMode(MODE_FLAGS[args.mode])
    n_hops = evaluate.common_hop_count(records)  # the report needs one hop count
    gw = _build_gateway(args, records, n_hops, rep)  # refuses a misconfiguration
    manifest = _manifest(args, gw)
    out.mkdir(parents=True, exist_ok=True)

    resumed: list[evaluate.EvalRecord] = []
    if resume:
        _check_manifest(manifest_path, manifest)
        if records_path.exists():
            dropped = evaluate.repair_cut_tail(records_path)
            if dropped:
                print(f"resume: dropped {dropped} bytes of a cut last line in "
                      f"{records_path}", file=sys.stderr)
            resumed = evaluate.read_eval_records(records_path)
    elif records_path.exists():
        records_path.unlink()
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")

    demos = (prompts.DemonstrationPool(records, args.seed, style, rep)
             if mode is prompts.PromptMode.ONE_SHOT else None)
    done_ids = {r.instance_id for r in resumed}
    pending = [r for r in records if r.id not in done_ids]
    if done_ids:
        print(f"resume: skipping {len(done_ids)} already-evaluated instances",
              file=sys.stderr)
    prompt_texts = [_prompt_for(record, mode, style, rep, demos) for record in pending]
    results = gw.complete_batch(prompt_texts)
    judged = [evaluate.judge(record.id, record, result.text, rep)
              for record, result in zip(pending, results)]
    evaluate.write_eval_records(judged, records_path)
    report = evaluate.compute_metrics(resumed + judged)
    table = evaluate.emit_report(report, "text_table")
    report_path.write_text(table, encoding="utf-8")
    machine_path.write_text(evaluate.emit_report(report, "machine"), encoding="utf-8")
    print(table)
    return 0


def cmd_report(args) -> int:
    from . import evaluate

    if args.output:
        _check_output(Path(args.output), args.force)
    records = evaluate.read_eval_records(args.input)
    report = evaluate.compute_metrics(records)
    print(evaluate.emit_report(report, "text_table"))
    if args.output:
        Path(args.output).write_text(evaluate.emit_report(report, "machine"), encoding="utf-8")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hopkit",
        description="Multi-hop KG reasoning benchmark pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--input", required=True, help="input records file")
        p.add_argument("--output", required=True)
        p.add_argument("--force", action="store_true",
                       help="overwrite existing outputs")

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
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("cap", help="cap records per relation pair")
    common(p)
    p.add_argument("--cap", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_cap)

    p = sub.add_parser("extend3", help="extend records of any hop count by one hop")
    common(p)
    p.add_argument("--facts", required=True,
                   help="TSV of next-hop facts: head, relation, tail")
    p.add_argument("--whitelist",
                   help="file of allowed answers to extend from "
                        "(default: the answers of --input)")
    p.set_defaults(func=cmd_extend3)

    def eval_flags(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--rep", choices=sorted(REP_FLAGS), default="nl")
        p.add_argument("--style", choices=STYLES, default="statement")
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
    # Records hold no reference cycles, so a collection would only walk them again;
    # paused before parsing too, so no pass hangs on what the imports allocated.
    enabled = gc.isenabled()
    gc.disable()
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
