"""Steadiness mode: run one workload k times and show each metric's spread.

    python3 perfbench/steady.py --workload http_hits --runs 5 --seed 3
    python3 perfbench/steady.py --workload fleet_compare --runs 10 --seed 1

Runs ``perfbench/run.py`` k times one after another, with seeds
``seed .. seed+k-1``, and prints, per end-to-end metric, the median,
the quartiles of ``statistics.quantiles(values, n=4)`` and their
distance as a share of the median, next to the bound ``BENCHMARK.json``
fixes for the metric. It also prints the attempted and failed counts of
every run. A spread over distinct seeds holds the run-to-run noise of
one seed and the effect of the inputs on top of it.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from harness.stats import spread  # noqa: E402


def run_once(workload: str, seed: int, seconds: int) -> dict:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if completed.returncode != 0:
        raise RuntimeError(f"run failed ({completed.returncode}):\n"
                           f"{completed.stderr[-2000:]}")
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    # the unpaced figures the run prints for reference, when it does
    for line in lines[:-1]:
        if line.startswith('{"raw_'):
            result["raw"] = json.loads(line)
    return result


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    results = []
    for index in range(args.runs):
        seed = args.seed + index
        result = run_once(args.workload, seed, args.seconds)
        results.append(result)
        print(f"run {index + 1}/{args.runs} seed {seed}: "
              f"correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}",
              flush=True)
    print(f"\n{args.workload}: {args.runs} runs of {args.seconds} s")
    print(f"{'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>7}")
    steady = True
    for metric in spec["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in results]
        summary = spread(values)
        within = summary["spread"] <= metric["bound"] / 3
        steady &= within or metric["name"] == "setup_s"
        print(f"{metric['name']:<16} {summary['median']:>12.4f} "
              f"{summary['q1']:>12.4f} {summary['q3']:>12.4f} "
              f"{summary['spread']:>8.4f} {metric['bound']:>7.3f}"
              f"{'' if within else '  (above a third of the bound)'}")
    raws = [r["raw"] for r in results if "raw" in r]
    if len(raws) == len(results):
        for name in raws[0]:
            summary = spread([raw[name] for raw in raws])
            print(f"{name:<22} median {summary['median']:.4f} "
                  f"spread {summary['spread']:.4f} (unpaced, reference)")
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"failed share per run: {sorted(shares)}")
    return 0 if steady and len(shares) == 1 and all(
        r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
