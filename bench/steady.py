"""Steadiness of the benchmark: two sets of runs of the same code.

    python3 bench/steady.py

Runs bench/run.py on each workload in two sets of RUNS runs of SECONDS
seconds, every run with a seed of its own (from FIRST_SEED up), and
prints per metric each set's median and quartiles and the quartile
spread (q3 - q1) / median, for the normalised metric and for the raw
wall figure of the same runs side by side, then the same over all runs
and the shift of the second set's median from the first's. Run it from
the root of a source checkout.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
RUNS = 5
SECONDS = 30
FIRST_SEED = 1000
WORKLOADS = ("corpus", "codec", "assembly")


def one_run(workload: str, seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"],
        capture_output=True, text=True, check=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    raw = json.loads(next(line[4:] for line in lines if line.startswith("raw ")))
    return {"seed": seed, "result": result, "raw": raw}


def summary(values) -> str:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (f"median {median:10.4f}  q1 {q1:10.4f}  q3 {q3:10.4f}  "
            f"spread {(q3 - q1) / median:6.1%}")


def report(workload: str, sets: list) -> None:
    print(f"== {workload}")
    for i, runs in enumerate(sets, 1):
        shares = {(r["result"]["failed"], r["result"]["attempted"]) for r in runs}
        ok = all(r["result"]["correct"] for r in runs)
        print(f"  set {i}: correct {ok}; failed/attempted "
              f"{sorted(f / a for f, a in shares)}")
    everything = [r for runs in sets for r in runs]
    for metric in everything[0]["result"]["metrics"]:
        print(f"  {metric}")
        for label, runs in [(f"set {i}", runs) for i, runs in enumerate(sets, 1)] + [
                ("all", everything)]:
            norm = [r["result"]["metrics"][metric]["value"] for r in runs]
            print(f"    {label:5s} normalised {summary(norm)}")
            if metric in runs[0]["raw"]:
                raw = [r["raw"][metric] for r in runs]
                print(f"    {label:5s} raw        {summary(raw)}")
        medians = [statistics.median(r["result"]["metrics"][metric]["value"]
                                     for r in runs) for runs in sets]
        print(f"    median shift set 2 vs set 1: "
              f"{medians[1] / medians[0] - 1.0:+.1%}")
    for figure in everything[0]["raw"]:
        if figure not in everything[0]["result"]["metrics"]:
            raw = [r["raw"][figure] for r in everything]
            print(f"  {figure} (raw only, not a metric)\n    all   raw        "
                  f"{summary(raw)}")


def main() -> None:
    seed = FIRST_SEED
    for workload in WORKLOADS:
        sets = []
        for _ in range(2):
            runs = []
            for _ in range(RUNS):
                runs.append(one_run(workload, seed))
                seed += 1
            sets.append(runs)
        report(workload, sets)
        sys.stdout.flush()


if __name__ == "__main__":
    main()
