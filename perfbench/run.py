"""hopkit benchmark: seeded workloads driven through the real CLI.

    python3 perfbench/run.py --workload oracle-code --seed 1 --seconds 20 --trace 0

Run from the root of a hopkit checkout (the package is imported from
./src).  Each hopkit command runs as its own process, as a user runs it.
After one unmeasured warm-up iteration the workload's command sequence
repeats until ``--seconds`` have passed; every iteration's outputs are
checked, and a failed check fails the run.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``attempted`` counts
hopkit command runs and ``failed`` the ones that exited non-zero or whose
outputs failed a check.  With ``--trace 0`` the metrics are the
end-to-end ones, with CPU-bound times scaled to a reference host speed
measured by reference.py; with ``--trace 1`` traced and untraced iterations
alternate and the metrics are the per-layer ones from spans.py.  The line
before it holds provenance, the host's slowdown, every sample scaled and
unscaled, and the reference runs' wall and CPU seconds.

Workloads (why each exists is in BENCHMARK.json; details in README.md):
  oracle-code       evaluate --oracle --fault-prob 0.3, py-static then
                    py-dynamic, 400 two-hop records each
  oracle-oneshot    evaluate --oracle --rep nl --mode one --style question,
                    600 three-hop records
  http-stub         evaluate --endpoint <loopback stub> --rep json,
                    concurrency = nproc, 400 two-hop records, 10 ms stub
  dataset-pipeline  partition, stats, cap, extend3, generate --kind corpus
                    --rep py-static on 25,000 rows plus planted bad rows
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import checks
import fixtures
import spans
import stub
from checks import CheckFailed, expect

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
NPROC = len(os.sched_getaffinity(0))
COMMAND_TIMEOUT_S = 120
RUN_LIMIT_S = 150       # stop iterating early enough to exit within 180 s
MIN_ITERATIONS = 3

END_TO_END = [
    ("records_per_s", "records/s"),
    ("setup_s", "s"),
    ("cpu_ms_per_record", "ms"),
    ("peak_rss_mb", "MiB"),
    ("delivered_share", "ratio"),
]
# Throughput and CPU cost are totals over the run: every iteration completes
# the same records, so the harmonic mean of the rates is total records over
# total wall time.  The other metrics are medians.
AGGREGATE = {"records_per_s": statistics.harmonic_mean,
             "cpu_ms_per_record": statistics.mean}
# The time reference.py takes on the host that the scaled metrics are
# reported for.  On a shared host the speed of a vCPU swings by up to 1.8x
# within seconds and drifts over minutes, with the load of other tenants.
# reference.py runs between the hopkit commands, for at least
# REFERENCE_SHARE of their time, so over a run it sees the same host speed
# they do; dividing the run's CPU-bound times by its mean slowdown against
# this constant removes most of the drift (README.md, "Host speed").
REFERENCE_S = 0.125
REFERENCE_SHARE = 0.15


@dataclass
class Command:
    argv: list[str]
    probe: str = "none"        # "send", "ingest" or "none"


@dataclass
class CommandRun:
    launched: float            # time.monotonic() just before the spawn
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    probe: dict
    stdout: str
    stderr: str


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k.lower() not in ("http_proxy", "https_proxy", "all_proxy")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["NO_PROXY"] = env["no_proxy"] = "127.0.0.1,localhost"
    env["OPENAI_API_KEY"] = "perfbench"
    return env


def run_command(cmd: Command, it_dir: Path, tag: str, trace: bool) -> CommandRun:
    """Run one hopkit command to completion; time it and take its rusage."""
    probe_file = it_dir / f"{tag}.probe.json"
    argv = [sys.executable, str(HERE / "child.py"), "--probe", cmd.probe,
            "--out-file", str(probe_file)]
    argv += (["--trace"] if trace else []) + ["--"] + cmd.argv
    out_path, err_path = it_dir / f"{tag}.out", it_dir / f"{tag}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        launched = time.monotonic()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=it_dir,
                                env=_child_env())
        watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        ended = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    stdout = out_path.read_text(encoding="utf-8", errors="replace")
    stderr = err_path.read_text(encoding="utf-8", errors="replace")
    expect(proc.returncode == 0,
           f"hopkit {cmd.argv[0]} exited {proc.returncode}: {stderr.strip()[-500:]}")
    probe = json.loads(probe_file.read_text()) if probe_file.exists() else {}
    return CommandRun(launched=launched, wall_s=ended - launched,
                      cpu_s=usage.ru_utime + usage.ru_stime,
                      maxrss_kb=usage.ru_maxrss, probe=probe,
                      stdout=stdout, stderr=stderr)


def run_reference() -> tuple[float, float]:
    """Run reference.py once; return its wall and CPU seconds."""
    start = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(HERE / "reference.py")],
                            stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    expect(proc.returncode == 0, f"reference.py exited {proc.returncode}")
    return wall, usage.ru_utime + usage.ru_stime


def _hopkit_prompts(rows, rep_name: str) -> list[str]:
    """Zero-shot statement prompts as hopkit builds them for ``rep_name``."""
    from hopkit.kg import make_chain
    from hopkit.prompts import DatasetStyle, PromptMode, build_prompt
    from hopkit.render import RepresentationTag

    rep = RepresentationTag(rep_name)
    return [build_prompt(make_chain(*row[1:], source_id=row[0]),
                         PromptMode.ZERO_SHOT, DatasetStyle.STATEMENT,
                         representation=rep).full_prompt for row in rows]


class Workload:
    """One input set and command sequence.  ``records`` is the number of
    input records one iteration completes.  ``wall_scaled`` says whether
    its wall time is CPU-bound, and so is scaled by the host's slowdown."""

    records: int
    wall_scaled = True

    def __init__(self, seed: int):
        self.seed = seed

    def describe(self) -> dict:
        raise NotImplementedError

    def commands(self, it: Path) -> list[Command]:
        raise NotImplementedError

    def before(self) -> None:
        pass

    def setup_times(self, runs: list[CommandRun]) -> list[float]:
        return [r.probe["first_work"] - r.launched for r in runs
                if "first_work" in r.probe]

    def check(self, it: Path, runs: list[CommandRun]) -> int:
        """Check the iteration's outputs; return the records delivered."""
        raise NotImplementedError

    def check_layers(self, layers: dict) -> None:
        """Check a traced iteration's per-layer counts."""

    def close(self) -> None:
        pass


class EvalWorkload(Workload):
    """An evaluate workload on generated records (sizes in fixtures.py)."""

    name: str

    def __init__(self, seed, workdir):
        super().__init__(seed)
        self.n, self.hops = fixtures.EVAL_INPUTS[self.name]
        self.rows = fixtures.eval_records(seed, self.n, self.hops)
        self.input = workdir / f"{self.name}.tsv"
        fixtures.write_eval_input(self.input, self.rows)
        self.records = self.n

    def describe(self):
        return {"records": self.n, "hops": self.hops}


class OracleCode(EvalWorkload):
    name = "oracle-code"
    fault_prob = 0.3
    reps = [("py-static", "python_static"), ("py-dynamic", "python_dynamic")]

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.records = self.n * len(self.reps)
        self.faulted = {flag: checks.faulted_ids(self.rows, _hopkit_prompts(self.rows, rep),
                                                 seed, self.fault_prob)
                        for flag, rep in self.reps}

    def describe(self):
        return {**super().describe(), "fault_prob": self.fault_prob,
                "faulted": {k: len(v) for k, v in self.faulted.items()}}

    def commands(self, it):
        return [Command(["evaluate", "--input", str(self.input), "--output",
                         str(it / flag), "--oracle", "--rep", flag,
                         "--fault-prob", str(self.fault_prob),
                         "--seed", str(self.seed)], probe="send")
                for flag, _ in self.reps]

    def check(self, it, runs):
        return sum(checks.evaluation(it / flag, self.rows, self.faulted[flag],
                                     set(), [[1, 2]])
                   for flag, _ in self.reps)


class OracleOneShot(EvalWorkload):
    name = "oracle-oneshot"

    def commands(self, it):
        return [Command(["evaluate", "--input", str(self.input), "--output",
                         str(it / "oneshot"), "--oracle", "--rep", "nl",
                         "--mode", "one", "--style", "question",
                         "--seed", str(self.seed)], probe="send")]

    def check(self, it, runs):
        return checks.evaluation(it / "oneshot", self.rows, set(), set(),
                                 [[1, 2], [2, 3], [1, 2, 3]])


class HttpStub(EvalWorkload):
    name = "http-stub"
    wall_scaled = False         # bound by the stub's fixed latency
    retried = 2                 # first attempts answered 429, then 503
    permanent = 5               # records answered 400 on every attempt

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = random.Random(f"stub:{seed}")
        # Retried records sit at fixed shares of the input, so the backoff
        # sleep overlaps the same amount of other work for every seed.
        retry_at = [rng.randrange(int(self.n * (k + 0.45) / self.retried),
                                  int(self.n * (k + 0.55) / self.retried))
                    for k in range(self.retried)]
        others = [i for i in range(self.n) if i not in retry_at]
        perm_at = set(rng.sample(others, self.permanent))
        shapes = [k % 3 for k in range(self.n)]
        rng.shuffle(shapes)
        schedule = {}
        self.transport = set()
        self.by_status = {"200": self.n - self.permanent, "400": self.permanent}
        for i, (row, prompt) in enumerate(zip(self.rows, _hopkit_prompts(self.rows, "json"))):
            first = (429, 503)[retry_at.index(i) % 2] if i in retry_at else None
            if first:
                self.by_status[str(first)] = self.by_status.get(str(first), 0) + 1
            if i in perm_at:
                self.transport.add(row[0])
            key = hashlib.sha256(prompt.encode("utf-8")).hexdigest()
            schedule[key] = {"reply": self._reply(row, shapes[i]), "first": first,
                             "permanent": i in perm_at}
        (workdir / "schedule.json").write_text(json.dumps(schedule), encoding="utf-8")
        self.config = workdir / "gateway.json"
        self.config.write_text(json.dumps(
            {"concurrency": NPROC, "retries": 3, "model": "perfbench-stub"}))
        self._start_stub(workdir)

    @staticmethod
    def _reply(row, shape: int) -> str:
        _, e1, r1, e2, r2, e3 = row
        relations: dict[str, dict[str, str]] = {}
        relations.setdefault(r1, {})[e1] = e2
        relations.setdefault(r2, {})[e2] = e3
        envelope = json.dumps({"Answer": e3,
                               "JSON structure": json.dumps(relations, indent=4)})
        if shape == 0:
            return envelope
        if shape == 1:
            return (f"Sure. Here is the completed statement as JSON:\n{envelope}\n"
                    f"It follows the two facts step by step.")
        return (f"The {r1} of {e1} is {e2}. The {r2} of {e2} is {e3}. "
                f"So the {r2} of the {r1} of {e1} is {e3}.")

    def _start_stub(self, workdir: Path):
        ready = workdir / "stub.port"
        log = open(workdir / "stub.err", "wb")
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "stub.py"), "--schedule",
             str(workdir / "schedule.json"), "--ready-file", str(ready),
             "--workers", str(NPROC)],
            stdout=subprocess.DEVNULL, stderr=log)
        log.close()
        self.proc = proc
        deadline = time.monotonic() + 20
        while not ready.exists():
            if proc.poll() is not None or time.monotonic() > deadline:
                self.close()
                raise CheckFailed("stub did not start: "
                                  + (workdir / "stub.err").read_text()[-500:])
            time.sleep(0.02)
        self.port = int(ready.read_text())

    def _control(self, method: str, path: str) -> dict:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
        try:
            conn.request(method, path, headers={"Connection": "close"})
            return json.loads(conn.getresponse().read() or b"{}")
        finally:
            conn.close()

    def describe(self):
        return {**super().describe(), "stub_latency_ms": stub.LATENCY_MS,
                "stub_workers": NPROC, "concurrency": NPROC,
                "retried_first_attempts": self.retried,
                "permanent_failures": self.permanent}

    def before(self):
        self._control("POST", "/_reset")

    def commands(self, it):
        return [Command(["evaluate", "--input", str(self.input), "--output",
                         str(it / "http"), "--endpoint", f"http://127.0.0.1:{self.port}",
                         "--rep", "json", "--config", str(self.config)])]

    def setup_times(self, runs):
        return [self.stats["first_request"] - runs[0].launched]

    def check(self, it, runs):
        self.stats = self._control("GET", "/_stats")
        expect(self.stats["requests"] == self.n + self.retried,
               f"stub saw {self.stats['requests']} requests, expected "
               f"{self.n + self.retried}")
        expect(self.stats["by_status"] == self.by_status,
               f"stub answered {self.stats['by_status']}, scheduled {self.by_status}")
        return checks.evaluation(it / "http", self.rows, set(), self.transport,
                                 [[1, 2]])

    def check_layers(self, layers):
        counted = (layers.get("gateway.requests"), layers.get("gateway.retries"),
                   layers.get("gateway.transport_failures"))
        expect(counted == (self.stats["requests"], self.retried, self.permanent),
               f"gateway counted requests/retries/transport failures {counted}; "
               f"stub saw {self.stats['requests']} requests, scheduled "
               f"{self.retried} retries and {self.permanent} permanent failures")

    def close(self):
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


class DatasetPipeline(Workload):
    cap = 60
    partitions, train_idx, test_idx = 8, 2, 4
    outputs = ["split/train.tsv", "split/test.tsv", "split/partition_map.json",
               "stats.json", "capped.tsv", "three_hop.tsv", "corpus.jsonl"]

    def __init__(self, seed, workdir):
        super().__init__(seed)
        self.input, self.facts = workdir / "dataset.tsv", workdir / "facts.tsv"
        self.data = fixtures.dataset_input(seed, fixtures.DATASET_ROWS,
                                           self.input, self.facts)
        self.records = self.data.n_rows
        self.digests: dict[str, str] | None = None

    def describe(self):
        return {"rows": self.data.n_rows, "valid": len(self.data.accepted),
                "planted_invalid": self.data.n_invalid,
                "planted_conflicting": self.data.n_conflicting, "cap": self.cap,
                "zipf_exponent": fixtures.ZIPF_EXPONENT}

    def commands(self, it):
        split, capped = it / "split", it / "capped.tsv"
        return [
            Command(["partition", "--input", str(self.input), "--output", str(split),
                     "--partitions", str(self.partitions),
                     "--train-idx", str(self.train_idx),
                     "--test-idx", str(self.test_idx)], probe="ingest"),
            Command(["stats", "--train", str(split / "train.tsv"),
                     "--test", str(split / "test.tsv"),
                     "--output", str(it / "stats.json")], probe="ingest"),
            Command(["cap", "--input", str(split / "train.tsv"), "--output",
                     str(capped), "--cap", str(self.cap), "--seed", str(self.seed)],
                    probe="ingest"),
            Command(["extend3", "--input", str(capped), "--facts", str(self.facts),
                     "--output", str(it / "three_hop.tsv")], probe="ingest"),
            Command(["generate", "--input", str(capped), "--output",
                     str(it / "corpus.jsonl"), "--kind", "corpus", "--rep", "py-static"],
                    probe="ingest"),
        ]

    def check(self, it, runs):
        delivered = checks.pipeline(it, self.data, self.train_idx, self.test_idx,
                                    self.partitions, self.cap, runs[0].stderr,
                                    runs[0].stdout)
        digests = {name: hashlib.sha256((it / name).read_bytes()).hexdigest()
                   for name in self.outputs}
        if self.digests is None:
            self.digests = digests
        changed = [n for n in self.outputs if digests[n] != self.digests[n]]
        expect(not changed, f"outputs differ from the first iteration: {changed}")
        return delivered


WORKLOADS = {
    "oracle-code": OracleCode,
    "oracle-oneshot": OracleOneShot,
    "http-stub": HttpStub,
    "dataset-pipeline": DatasetPipeline,
}


@dataclass
class Iteration:
    wall_s: float
    runs: list[CommandRun]
    reference: list[tuple[float, float]]
    delivered: int
    traced: bool
    setup: list = field(default_factory=list)
    layers: dict = field(default_factory=dict)
    sends: list = field(default_factory=list)
    missing: set = field(default_factory=set)


def run_iteration(wl: Workload, it: Path, trace: bool,
                  previous: Iteration | None) -> Iteration:
    """Run and check one iteration.  ``previous`` is the one before it,
    whose command times set how many reference runs precede each command."""
    it.mkdir()
    wl.before()
    runs, reference = [], []
    for k, cmd in enumerate(wl.commands(it)):
        repeats = 1 if previous is None else max(
            1, round(REFERENCE_SHARE * previous.runs[k].wall_s / REFERENCE_S))
        reference += [run_reference() for _ in range(repeats)]
        runs.append(run_command(cmd, it, f"cmd{k}", trace))
    result = Iteration(wall_s=sum(r.wall_s for r in runs), runs=runs,
                       reference=reference, delivered=wl.check(it, runs),
                       traced=trace)
    if not trace:
        result.setup = wl.setup_times(runs)
        return result
    for k in range(len(runs)):
        trace_data = json.loads((it / f"cmd{k}.probe.json").read_text())
        metrics, sends = spans.command_metrics(trace_data)
        for name, value in metrics.items():
            result.layers[name] = result.layers.get(name, 0.0) + value
        result.sends.extend(sends)
        result.missing.update(trace_data["missing"])
    if not result.missing:
        wl.check_layers(result.layers)
    return result


def host_slowdown(iterations: list[Iteration]) -> dict[str, float]:
    """The run's mean reference.py wall and CPU time over REFERENCE_S."""
    walls, cpus = zip(*(ref for it in iterations for ref in it.reference))
    return {"wall": statistics.mean(walls) / REFERENCE_S,
            "cpu": statistics.mean(cpus) / REFERENCE_S}


def end_to_end_samples(wl: Workload, iterations: list[Iteration],
                       slowdown: dict[str, float]) -> dict[str, list]:
    """Per-iteration samples, the CPU-bound times divided by the slowdown."""
    wall_scale = slowdown["wall"] if wl.wall_scaled else 1.0
    samples: dict[str, list] = {name: [] for name, _ in END_TO_END}
    for it in iterations:
        samples["records_per_s"].append(wl.records / it.wall_s * wall_scale)
        samples["setup_s"].extend(t / slowdown["wall"] for t in it.setup)
        samples["cpu_ms_per_record"].append(
            1000 * sum(r.cpu_s for r in it.runs) / wl.records / slowdown["cpu"])
        samples["peak_rss_mb"].append(max(r.maxrss_kb for r in it.runs) / 1024)
        samples["delivered_share"].append(it.delivered / wl.records)
    return samples


def aggregate(name: str, samples: dict[str, list]) -> float:
    """One run's value of an end-to-end metric from its samples."""
    return AGGREGATE.get(name, statistics.median)(samples.get(name) or [0.0])


def provenance(seed: int) -> dict:
    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = nonblank = 0
    for path in files:
        data = path.read_bytes()
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
        text = data.decode("utf-8").splitlines()
        lines += len(text)
        nonblank += sum(1 for line in text if line.strip())
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or None
    return {"nproc": NPROC, "python": platform.python_version(),
            "git_commit": commit, "src_sha256": digest.hexdigest(),
            "src_lines": lines, "src_nonblank_lines": nonblank, "seed": seed}


def main() -> int:
    parser = argparse.ArgumentParser(description="hopkit benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not (SRC / "hopkit" / "cli.py").is_file():
        print(f"error: no hopkit sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    started = time.monotonic()
    root = ROOT / ".perfbench_run" / f"{args.workload}-{args.seed}-{os.getpid()}"
    root.mkdir(parents=True)
    wl = None
    iterations: list[Iteration] = []
    commands = 0
    error = None
    try:
        wl = WORKLOADS[args.workload](args.seed, root)
        warmup_from = time.monotonic()
        previous = run_iteration(wl, root / "warmup", trace=False, previous=None)
        measure_from = time.monotonic()
        took = measure_from - warmup_from
        k = 0
        while True:
            now = time.monotonic()
            if k >= MIN_ITERATIONS and now - measure_from >= args.seconds:
                break
            if now - started + 2 * took > RUN_LIMIT_S:
                break
            traced = bool(args.trace) and k % 2 == 1
            it = root / f"it{k}"
            previous = run_iteration(wl, it, traced, previous)
            took = time.monotonic() - now
            iterations.append(previous)
            commands += len(iterations[-1].runs)
            shutil.rmtree(it)
            k += 1
    except CheckFailed as exc:
        error = str(exc)
    except Exception as exc:  # a crash on the program's outputs fails the run
        error = f"{type(exc).__name__}: {exc}"
        traceback.print_exc()
    finally:
        if wl is not None:
            wl.close()
        shutil.rmtree(root, ignore_errors=True)
        try:
            root.parent.rmdir()
        except OSError:
            pass

    untraced = [it for it in iterations if not it.traced]
    detail = {"workload": args.workload, "provenance": provenance(args.seed),
              "input": wl.describe() if wl is not None else None,
              "iterations": len(iterations), "error": error}
    if args.trace:
        traced = [it for it in iterations if it.traced]
        overhead = (statistics.median(it.wall_s for it in traced)
                    - statistics.median(it.wall_s for it in untraced)
                    if traced and untraced else 0.0)
        values = spans.layer_metrics([it.layers for it in traced],
                                     [s for it in traced for s in it.sends], overhead)
        detail["missing_trace_targets"] = sorted(
            set().union(*(it.missing for it in traced)))
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in spans.PER_LAYER}
    else:
        samples = {}
        if untraced:
            detail["host_slowdown"] = slowdown = host_slowdown(untraced)
            samples = end_to_end_samples(wl, untraced, slowdown)
            unscaled = end_to_end_samples(wl, untraced, {"wall": 1.0, "cpu": 1.0})
            detail["unscaled"] = {
                "samples": unscaled,
                "values": {name: aggregate(name, unscaled) for name, _ in END_TO_END}}
            detail["reference_s"] = [it.reference for it in untraced]
        detail["samples"] = samples
        metrics = {name: {"value": aggregate(name, samples), "unit": unit}
                   for name, unit in END_TO_END}
    print(json.dumps({"perfbench": detail}))
    if error:
        print(f"check failed: {error}", file=sys.stderr)
    print(json.dumps({"correct": error is None and bool(iterations),
                      "attempted": max(1, commands + (1 if error else 0)),
                      "failed": 1 if error else 0, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
