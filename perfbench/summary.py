"""Run every workload over several seeds and print each end-to-end metric.

    python3 perfbench/summary.py --seeds 1 2 3 4 5 --seconds 20
    python3 perfbench/summary.py --seeds 1 2 3 --holdout-seeds 1001 1002 --seconds 20
    python3 perfbench/summary.py --seeds 1 --trace --workloads oracle-code

Run from the root of a hopkit checkout.  Each (workload, seed) is one
``run.py`` process.  For every workload and metric the table shows:

- across runs: the median of the per-run values, the first and third
  quartiles, the spread (quartile distance / median) that the
  benchmark's bound is compared with, and the spread the same runs would
  have without the host-speed scaling (README.md, "Host speed");
- pooled over every iteration of every run: the median, the most extreme
  percentile on the worse side that still has ten samples beyond it, and
  the sample count.

Held-out seeds are reported in their own block, so a claim tuned on the
first seeds can be re-checked on inputs that were not looked at.  With
``--trace`` the per-layer metrics are printed instead, median over seeds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
LOWER_IS_BETTER = {m["name"]: m["better"] == "lower" for m in BENCHMARK["end_to_end"]}


def run_one(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
        capture_output=True, text=True, timeout=240)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed} failed:\n{done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["detail"] = json.loads(lines[-2])["perfbench"]
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: check failed: "
                         f"{result['detail']['error']}")
    return result


def tail_percentile(values: list[float], lower_is_better: bool):
    """(percentile, value) of the most extreme percentile on the worse side
    with at least ten samples beyond it, or None below 20 samples."""
    n = len(values)
    if n < 20:
        return None
    pct = (n - 10) * 100 // n
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    if lower_is_better:
        return f"p{pct}", cuts[pct - 1]
    return f"p{100 - pct}", cuts[100 - pct - 1]


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def print_block(title: str, results: dict[str, list[dict]]) -> None:
    print(f"\n== {title}")
    head = (f"{'workload':17} {'metric':18} {'unit':9} {'median':>11} {'q1':>11} "
            f"{'q3':>11} {'spread':>7} {'bound':>6} {'unscaled':>8} | "
            f"{'pooled med':>11} {'tail':>5} {'value':>11} {'n':>4}")
    print(head)
    for workload, runs in results.items():
        for metric in BENCHMARK["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in runs]
            med, q1, q3, sp = spread(values)
            unscaled = spread([r["detail"]["unscaled"]["values"][name] for r in runs])[3]
            pooled = [v for r in runs for v in r["detail"]["samples"][name]]
            tail = tail_percentile(pooled, LOWER_IS_BETTER[name])
            tail_s = f"{tail[0]:>5} {tail[1]:>11.5g}" if tail else f"{'-':>5} {'-':>11}"
            print(f"{workload:17} {name:18} {metric['unit']:9} {med:>11.5g} "
                  f"{q1:>11.5g} {q3:>11.5g} {sp:>7.3f} {metric['bound']:>6} "
                  f"{unscaled:>8.3f} | "
                  f"{statistics.median(pooled):>11.5g} {tail_s} {len(pooled):>4}")


def print_layers(results: dict[str, list[dict]]) -> None:
    for workload, runs in results.items():
        print(f"\n== per-layer, {workload} (median of {len(runs)} runs)")
        for name, metric in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            if med:
                print(f"  {name:32} {med:>12.5g} {metric['unit']}")


def main() -> None:
    workloads = [w["name"] for w in BENCHMARK["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3, 4, 5])
    parser.add_argument("--holdout-seeds", type=int, nargs="*", default=[])
    parser.add_argument("--seconds", type=int, default=BENCHMARK["run_seconds"])
    parser.add_argument("--workloads", nargs="+", default=workloads, choices=workloads)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    if set(args.seeds) & set(args.holdout_seeds):
        parser.error("held-out seeds must differ from --seeds")

    for title, seeds in (("seeds " + " ".join(map(str, args.seeds)), args.seeds),
                         ("held-out seeds " + " ".join(map(str, args.holdout_seeds)),
                          args.holdout_seeds)):
        if not seeds:
            continue
        results = {w: [] for w in args.workloads}
        for workload in args.workloads:
            for seed in seeds:
                results[workload].append(run_one(workload, seed, args.seconds,
                                                 args.trace))
                print(f"{workload} seed {seed}: ok", file=sys.stderr)
        provenance = results[args.workloads[0]][0]["detail"]["provenance"]
        print(f"\nprovenance: {json.dumps({k: v for k, v in provenance.items() if k != 'seed'})}")
        for workload, runs in results.items():
            print(f"input {workload}: {json.dumps(runs[0]['detail']['input'])}")
        if args.trace:
            print_layers(results)
        else:
            print_block(title, results)


if __name__ == "__main__":
    main()
