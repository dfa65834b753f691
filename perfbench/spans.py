"""Span tracing of hopkit from outside the program, and the per-layer
metrics derived from the spans.

``Tracer.install`` replaces public functions with timing wrappers at the
names their callers look up.  ``cli`` imported ``render_instance`` and
``add_fact`` into its own namespace, ``gateway`` did the same with
``infer`` and ``render_instance``, and ``evaluate`` with ``parse_body``;
a wrapper on the defining module alone would miss those calls.  Methods
are wrapped on their class, which every importer shares.

Spans are kept in memory, from the gateway's worker threads too, and
written out when the command ends.  A span is
``(id, name, start, end, parent id, record id, info)``.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import statistics
import threading
import time
from collections import defaultdict
from pathlib import Path

# (module, attribute, span name); "Class.method" wraps on the class.
TARGETS = [
    ("hopkit.dataset", "ingest", "dataset.ingest"),
    ("hopkit.dataset", "partition_by_bridge", "dataset.transform"),
    ("hopkit.dataset", "all_partitions", "dataset.transform"),
    ("hopkit.dataset", "cap_relation_pairs", "dataset.transform"),
    ("hopkit.dataset", "extend_to_three_hops", "dataset.transform"),
    ("hopkit.dataset", "compute_overlap_stats", "dataset.transform"),
    ("hopkit.dataset", "build_finetune_corpus", "dataset.corpus"),
    ("hopkit.dataset", "write_records", "dataset.write"),
    ("hopkit.dataset", "write_finetune_corpus", "dataset.write"),
    ("hopkit.prompts", "build_prompt", "prompts.build"),
    ("hopkit.prompts", "pick_demonstration", "prompts.pick_demo"),
    ("hopkit.cli", "render_instance", "render.render"),
    ("hopkit.gateway", "render_instance", "render.render"),
    ("hopkit.dataset", "render_instance", "render.render"),
    ("hopkit.evaluate", "parse_body", "render.parse"),
    ("hopkit.gateway", "infer", "kg.infer"),
    ("hopkit.gateway", "Gateway.complete_batch", "gateway.batch"),
    ("hopkit.gateway", "Gateway.complete", "gateway.complete"),
    ("hopkit.gateway", "OracleBackend.send", "gateway.send"),
    ("hopkit.gateway", "OpenAIChatBackend.send", "gateway.send"),
    ("hopkit.evaluate", "judge", "evaluate.judge"),
    ("hopkit.evaluate", "compute_metrics", "evaluate.metrics"),
    ("hopkit.evaluate", "read_eval_records", "evaluate.read"),
    ("hopkit.evaluate", "emit_report", "evaluate.report"),
]


def _resolve(module: str, attr: str):
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._batch: tuple | None = None   # parent for gateway worker threads
        self.prompt_ids: dict[str, str] = {}
        self.add_fact = {"calls": 0, "first": None, "last": None}
        self.missing: list[str] = []

    def _wrap(self, fn, name, rid_of=None, info_of=None, batch=False):
        local = self._local

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent_id, parent_rid = stack[-1] if stack else (self._batch or (None, None))
            rid = rid_of(args) if rid_of else parent_rid
            sid = next(self._ids)
            stack.append((sid, rid))
            if batch:
                self._batch = (sid, None)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.spans.append((sid, name, start, time.perf_counter(),
                                   parent_id, rid, "raised"))
                raise
            else:
                end = time.perf_counter()
                self.spans.append((sid, name, start, end, parent_id, rid,
                                   info_of(args, result) if info_of else None))
                return result
            finally:
                stack.pop()
                if batch:
                    self._batch = None

        return wrapper

    def _count_add_fact(self, fn):
        counter = self.add_fact

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            if counter["first"] is None:
                counter["first"] = start
            counter["last"] = time.perf_counter()
            counter["calls"] += 1
            return result

        return wrapper

    def _map_prompt(self, fn):
        ids = self.prompt_ids

        @functools.wraps(fn)
        def wrapper(record, *args, **kwargs):
            prompt = fn(record, *args, **kwargs)
            ids[prompt] = getattr(record, "id", None)
            return prompt

        return wrapper

    def install(self):
        """Wrap every target that exists; record the ones that do not.
        Returns the wrapped ``hopkit.cli.main``."""
        special = {
            "evaluate.judge": dict(rid_of=lambda a: a[0]),
            "gateway.complete": dict(
                rid_of=lambda a: self.prompt_ids.get(a[1]),
                info_of=lambda a, r: [r.retries, r.ok]),
            "gateway.batch": dict(batch=True),
            "render.parse": dict(
                info_of=lambda a, r: [getattr(a[0], "value", str(a[0])),
                                      bool(r.triplets)]),
            "kg.infer": dict(info_of=lambda a, r: r is not None),
            "dataset.ingest": dict(
                info_of=lambda a, r: [len(r.records) + r.n_rejected, r.n_rejected]),
        }
        for module, attr, name in TARGETS:
            try:
                owner, leaf = _resolve(module, attr)
                fn = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.missing.append(f"{module}.{attr}")
                continue
            setattr(owner, leaf, self._wrap(fn, name, **special.get(name, {})))
        cli = importlib.import_module("hopkit.cli")
        for attr, wrap in (("add_fact", self._count_add_fact),
                           ("_prompt_for", self._map_prompt)):
            if hasattr(cli, attr):
                setattr(cli, attr, wrap(getattr(cli, attr)))
            else:
                self.missing.append(f"hopkit.cli.{attr}")
        return self._wrap(cli.main, "cli.main")

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps({"spans": self.spans, "add_fact": self.add_fact,
                                    "missing": self.missing}), encoding="utf-8")


# ---------------------------------------------------------------------------
# Aggregation, in the benchmark process

PARSE_REPS = ["natural_language", "json", "python_static", "python_dynamic"]

PER_LAYER = [
    ("cli.self_s", "s"),
    ("dataset.ingest_s", "s"), ("dataset.ingest_rows", "count"),
    ("dataset.ingest_rejected", "count"), ("dataset.transform_s", "s"),
    ("dataset.corpus_self_s", "s"), ("dataset.write_s", "s"),
    ("kg.build_s", "s"), ("kg.add_fact_calls", "count"),
    ("kg.infer_calls", "count"), ("kg.infer_s", "s"), ("kg.infer_hit_ratio", "ratio"),
    ("prompts.build_calls", "count"), ("prompts.build_s", "s"),
    ("prompts.pick_demo_calls", "count"), ("prompts.pick_demo_s", "s"),
    ("render.render_calls", "count"), ("render.render_s", "s"),
    ("render.parse_calls", "count"),
    *[(f"render.parse_s.{rep}", "s") for rep in PARSE_REPS],
    ("render.parse_hit_ratio", "ratio"),
    ("gateway.batch_s", "s"), ("gateway.send_s", "s"), ("gateway.backoff_s", "s"),
    ("gateway.queue_wait_s", "s"), ("gateway.requests", "count"),
    ("gateway.retries", "count"), ("gateway.transport_failures", "count"),
    ("gateway.request_p50_ms", "ms"), ("gateway.request_p99_ms", "ms"),
    ("gateway.request_samples", "count"),
    ("evaluate.judge_calls", "count"), ("evaluate.judge_s", "s"),
    ("evaluate.judge_self_s", "s"), ("evaluate.metrics_s", "s"),
    ("evaluate.read_s", "s"), ("evaluate.report_s", "s"),
    ("trace.overhead_s", "s"),
]


def _union(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def command_metrics(trace: dict) -> tuple[dict, list[float]]:
    """Per-layer totals of one traced command, and its send latencies (s)."""
    spans = trace["spans"]
    by_id = {s[0]: s for s in spans}
    children: dict[int, list] = defaultdict(list)
    for s in spans:
        if s[4] is not None:
            children[s[4]].append(s)

    def self_time(s) -> float:
        kids = [(c[2], c[3]) for c in children.get(s[0], ())]
        return (s[3] - s[2]) - _union(kids, s[2], s[3])

    m: dict[str, float] = defaultdict(float)
    sends = []
    for s in spans:
        _, name, start, end, parent, _, info = s
        dur = end - start
        if name == "cli.main":
            m["cli.self_s"] += self_time(s)
        elif name == "dataset.ingest":
            m["dataset.ingest_s"] += dur
            if isinstance(info, list):
                m["dataset.ingest_rows"] += info[0]
                m["dataset.ingest_rejected"] += info[1]
        elif name == "dataset.transform":
            m["dataset.transform_s"] += dur
        elif name == "dataset.corpus":
            m["dataset.corpus_self_s"] += self_time(s)
        elif name == "dataset.write":
            m["dataset.write_s"] += dur
        elif name == "kg.infer":
            m["kg.infer_calls"] += 1
            m["kg.infer_s"] += dur
            m["_infer_hits"] += bool(info)
        elif name == "prompts.build":
            m["prompts.build_calls"] += 1
            m["prompts.build_s"] += dur
        elif name == "prompts.pick_demo":
            m["prompts.pick_demo_calls"] += 1
            m["prompts.pick_demo_s"] += dur
        elif name == "render.render":
            m["render.render_calls"] += 1
            m["render.render_s"] += dur
        elif name == "render.parse":
            m["render.parse_calls"] += 1
            if isinstance(info, list):
                m[f"render.parse_s.{info[0]}"] += dur
                m["_parse_hits"] += info[1]
        elif name == "gateway.batch":
            m["gateway.batch_s"] += dur
        elif name == "gateway.complete":
            m["_complete_s"] += dur
            if isinstance(info, list):
                m["gateway.retries"] += info[0]
                m["gateway.transport_failures"] += not info[1]
            batch = by_id.get(parent)
            if batch is not None and batch[1] == "gateway.batch":
                m["gateway.queue_wait_s"] += start - batch[2]
        elif name == "gateway.send":
            m["gateway.send_s"] += dur
            m["gateway.requests"] += 1
            sends.append(dur)
        elif name == "evaluate.judge":
            m["evaluate.judge_calls"] += 1
            m["evaluate.judge_s"] += dur
            m["evaluate.judge_self_s"] += self_time(s)
        elif name == "evaluate.metrics":
            m["evaluate.metrics_s"] += dur
        elif name == "evaluate.read":
            m["evaluate.read_s"] += dur
        elif name == "evaluate.report":
            m["evaluate.report_s"] += dur
    if m["_complete_s"]:
        m["gateway.backoff_s"] = m["_complete_s"] - m["gateway.send_s"]
    add = trace["add_fact"]
    m["kg.add_fact_calls"] = add["calls"]
    if add["calls"]:
        m["kg.build_s"] = add["last"] - add["first"]
    return dict(m), sends


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(iterations: list[dict], sends: list[float],
                  overhead_s: float) -> dict[str, float]:
    """Median over traced iterations of each per-iteration total; request
    latency percentiles pool every traced iteration.  A layer a workload
    never calls reports 0."""
    out = {}
    for name, _ in PER_LAYER:
        values = [it.get(name, 0.0) for it in iterations]
        out[name] = statistics.median(values) if values else 0.0
    out["kg.infer_hit_ratio"] = (
        sum(it.get("_infer_hits", 0) for it in iterations)
        / max(1, sum(it.get("kg.infer_calls", 0) for it in iterations)))
    out["render.parse_hit_ratio"] = (
        sum(it.get("_parse_hits", 0) for it in iterations)
        / max(1, sum(it.get("render.parse_calls", 0) for it in iterations)))
    out["gateway.request_samples"] = len(sends)
    if sends:
        out["gateway.request_p50_ms"] = 1000 * _percentile(sends, 0.50)
        out["gateway.request_p99_ms"] = 1000 * _percentile(sends, 0.99)
    out["trace.overhead_s"] = overhead_s
    return out
