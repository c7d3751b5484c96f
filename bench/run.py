"""foldkit benchmark: one workload, one seed, one measured run.

    python3 bench/run.py --workload corpus|codec|assembly --seed N
        --seconds S --trace 0|1

Run from the root of a source checkout (foldkit is imported from src/).
It generates the workload's inputs from the seed, then with --trace 0:

* setup_s: a fresh interpreter's import of foldkit.cli (median of 9);
* a --jobs 1 pass of S seconds of whole rounds of the workload's
  commands, in a process of its own (residues_per_s, peak_rss_mb);
* one --jobs 2 round in another process, reported raw only;
* checks of the outputs against computations made apart from foldkit,
  and that every round and both passes wrote byte-identical trees.

With --trace 1 it runs one --jobs 1 pass of S seconds: a warm-up round,
then untraced and traced rounds in turn; it reports the per-layer
figures.

Timed figures are in reference seconds (see refkernel.py); raw wall
figures are printed beside them on the line before the result. The last
line of stdout is the result: {"correct", "attempted", "failed",
"metrics"}. Exits 2 without a result when it cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

import checks
import gen
import oracles
from refkernel import normalise
from tracing import LAYERS
from workloads import STEPS, GnnStep

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
BENCH = os.path.dirname(os.path.abspath(__file__))
SETUP_SPAWNS = 9
CHILD_TIMEOUT_S = 170

SELF_TIMED = [name for name, (_, _, kind) in LAYERS.items() if kind == "span"]
COUNTED = ["pdb.parse_pdb", "structure.select_granularity",
           "geometry.dihedral", "geometry.bond_angle", "codec.nerf_place",
           "featurise.positional_encoding"]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join((SRC, BENCH))
    env.pop("PYTHONSTARTUP", None)
    return env


def measure_setup() -> tuple[float, float]:
    """(normalised, raw) median seconds for a fresh interpreter to import
    foldkit.cli. Each child times the kernel right after its import, on
    its own CPU; one untimed spawn first compiles the bytecode caches."""
    code = ("import time; t = time.perf_counter(); import foldkit.cli; "
            "d = time.perf_counter() - t; import refkernel as r; "
            "k = [r.run_kernel()[0] for _ in range(20)][5:]; print(d, *k)")
    cmd = [sys.executable, "-c", code]
    # OpenBLAS's worker threads, started by the numpy import, spin on the
    # other hyperthread and slow the kernel passes after the import by up
    # to 1.8x; with one thread the kernel measures the machine.
    env = dict(child_env(), OPENBLAS_NUM_THREADS="1")
    normalised, raw = [], []
    for spawn in range(SETUP_SPAWNS + 1):
        done = subprocess.run(cmd, env=env, check=True,
                              capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        seconds, *kernel = (float(v) for v in done.stdout.split())
        if spawn:
            raw.append(seconds)
            normalised.append(normalise(seconds, kernel))
    return statistics.median(normalised), statistics.median(raw)


def run_pass(workload, inputs, out, jobs, seconds, trace) -> dict:
    result = out + ".json"
    subprocess.run([sys.executable, os.path.join(BENCH, "worker.py"),
                    "--workload", workload, "--inputs", inputs, "--out", out,
                    "--jobs", str(jobs), "--seconds", str(seconds),
                    "--trace", str(trace), "--result", result],
                   env=child_env(), check=True, timeout=CHILD_TIMEOUT_S)
    with open(result) as fh:
        return json.load(fh)


def round_seconds(rounds, key) -> float:
    return statistics.median(sum(c[key] for c in r["calls"]) for r in rounds)


def account(passes, ops, reference_tree) -> tuple[bool, int, int, list]:
    """Operations attempted and failed over every round of every pass."""
    correct = all(op.error is None for op in ops)
    problems = [f"{op.step} {op.name}: {op.error}" for op in ops if op.error]
    attempted = failed = 0
    per_round_failed = sum(op.failed for op in ops)
    for rounds in passes:
        for r in rounds:
            attempted += len(ops)
            failed += per_round_failed
            if r["tree"] != reference_tree:
                correct = False
                problems.append("output tree differs between rounds or "
                                "between --jobs 1 and --jobs 2")
            for call in r["calls"]:
                if call["rc"] != 0:
                    correct = False
                    problems.append(f"{call['step']} exit {call['rc']}: "
                                    f"{call['stderr'][-300:]}")
                    failed += sum(1 for op in ops if op.step == call["step"]
                                  and not op.failed)
    return correct, attempted, failed, problems


def trace_metrics(rounds) -> dict:
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds[1:] if not r["traced"]]  # after the warm-up
    metrics = {}
    for name in SELF_TIMED:
        value = statistics.mean(r["layer_self_s"].get(name, 0.0) for r in traced)
        metrics[f"{name}.self_s"] = (value, "s")
    calls = traced[0]["layer_calls"]
    for name in COUNTED:
        metrics[f"{name}.calls"] = (calls.get(name, 0), "count")
    metrics["tensorio.bytes_written"] = (
        calls.get("tensorio.bytes_written", 0), "bytes")
    kernels = [c["kernel_s"] for r in rounds for c in r["calls"]]
    metrics["bench.ref_kernel_s"] = (statistics.median(kernels), "s")
    metrics["bench.trace_overhead_s"] = (
        statistics.mean(sum(c["normalised_s"] for c in r["calls"]) for r in traced)
        - statistics.mean(sum(c["normalised_s"] for c in r["calls"]) for r in plain),
        "s")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description="foldkit benchmark run")
    parser.add_argument("--workload", required=True, choices=sorted(STEPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "foldkit", "cli.py")):
        print(f"no foldkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    work = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    try:
        inputs = os.path.join(work, "inputs")
        print(f"inputs sha256 {gen.generate(args.workload, args.seed, inputs)}")
        residues = sum(len(oracles.read_pdb(os.path.join(inputs, f)).residues)
                       for f in os.listdir(inputs))
        metrics, raw = {}, {}
        if args.trace:
            passes = [run_pass(args.workload, inputs, os.path.join(work, "j1"),
                               1, args.seconds, 1)]
            metrics = trace_metrics(passes[0]["rounds"])
        else:
            setup, raw["setup_s"] = measure_setup()
            # --jobs 1 is measured; one --jobs 2 round checks that the
            # output trees match and is reported raw only (see README.md).
            passes = [run_pass(args.workload, inputs, os.path.join(work, f"j{jobs}"),
                               jobs, seconds, 0)
                      for jobs, seconds in ((1, args.seconds), (2, 0))]
            metrics["setup_s"] = (setup, "s")
            metrics["residues_per_s"] = (
                residues / round_seconds(passes[0]["rounds"], "normalised_s"),
                "residues/s")
            raw["residues_per_s"] = residues / round_seconds(
                passes[0]["rounds"], "raw_s")
            raw["residues_per_s_jobs2"] = residues / round_seconds(
                passes[1]["rounds"], "raw_s")
            metrics["peak_rss_mb"] = (passes[0]["peak_rss_mb"], "MB")
        gnn_params = GnnStep().params if args.workload == "corpus" else None
        ops = checks.check(args.workload, inputs, os.path.join(work, "j1"),
                           gnn_params)
        correct, attempted, failed, problems = account(
            [p["rounds"] for p in passes], ops, passes[0]["rounds"][-1]["tree"])
        counts = [r["layer_calls"] for r in passes[0]["rounds"] if r["traced"]]
        if any(c != counts[0] for c in counts):
            correct = False
            problems.append("call counts differ between traced rounds")
        for problem in problems:
            print(f"check failed: {problem}", file=sys.stderr)
        faults = sorted({op.fault for op in ops if op.fault})
        rounds = [len(p["rounds"]) for p in passes]
        print(f"residues per round {residues}; rounds per pass {rounds}; "
              f"known faults {faults}")
        print("raw " + json.dumps(raw))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
