"""One measured pass of a workload, run in a process of its own.

    python3 bench/worker.py --workload W --inputs DIR --out DIR --jobs N
        --seconds S --trace 0|1 --result FILE

Runs whole rounds of the workload's steps until the next round would end
after S seconds (at least one round). With --trace 1 a warm-up round
comes first, then untraced and traced rounds in turn, ending on a traced
one. Every step is timed with the reference
kernel sampled during it. Outputs are deleted before each round and
hashed after it (untimed); the last round's outputs stay for checking.
The result file holds per-call raw and normalised seconds, per-round
output hashes, per-layer figures of traced rounds and the process's peak
resident set.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import time

import numpy as np

from gen import tree_sha256
from refkernel import Sampler
from tracing import Tracer
from workloads import STEPS, GnnStep, argv


def save_gnn_outputs(outputs: dict, out: str) -> None:
    # .npy, not .npz: zip members carry a timestamp, which would break the
    # byte-identical output trees.
    for graph, arrays in outputs.items():
        directory = os.path.join(out, "gnn", graph)
        os.makedirs(directory)
        for key, array in arrays.items():
            np.save(os.path.join(directory, f"{key}.npy"), array)


def run_round(workload, inputs, out, jobs, gnn_step, tracer) -> dict:
    from foldkit import cli
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    calls = []
    on_sample = tracer.on_sample if tracer else None
    # Beside worker threads an in-call kernel pass measures contention,
    # not speed: a --jobs 2 round is timed by the wall clock alone.
    sample_inside = jobs == 1
    layer_s: dict = {}
    layer_calls: dict = {}
    for step, template in STEPS[workload]:
        err = io.StringIO()
        with contextlib.redirect_stderr(err), Sampler(on_sample, sample_inside) as sampler:
            if template is None:
                rc = gnn_step(os.path.join(out, "features"))
            else:
                rc = cli.main(argv(template, inputs, out, jobs))
        calls.append({"step": step, "rc": rc, "raw_s": sampler.raw_s,
                      "normalised_s": sampler.normalised_s,
                      "kernel_s": sampler.kernel_s,
                      "stderr": err.getvalue()[-4000:] if rc else ""})
        if tracer:
            factor = sampler.normalised_s / sampler.raw_s
            self_s, counts = tracer.take()
            for name, value in self_s.items():
                layer_s[name] = layer_s.get(name, 0.0) + value * factor
            for name, value in counts.items():
                layer_calls[name] = layer_calls.get(name, 0) + value
    if gnn_step is not None:
        save_gnn_outputs(gnn_step.outputs, out)
    result = {"traced": tracer is not None, "calls": calls,
              "tree": tree_sha256(out)}
    if tracer:
        result["layer_self_s"] = layer_s
        result["layer_calls"] = layer_calls
    return result


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(STEPS))
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--jobs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", required=True)
    args = parser.parse_args()

    gnn_step = (GnnStep() if any(t is None for _, t in STEPS[args.workload])
                else None)
    tracer = Tracer() if args.trace else None
    rounds = []
    start = time.perf_counter()
    last = 0.0
    while True:
        # With --trace 1: a warm-up round, then untraced and traced rounds
        # in turn.
        traced = tracer is not None and len(rounds) % 2 == 0 and bool(rounds)
        began = time.perf_counter()
        if traced:
            tracer.install()
        try:
            rounds.append(run_round(args.workload, args.inputs, args.out,
                                    args.jobs, gnn_step,
                                    tracer if traced else None))
        finally:
            if traced:
                tracer.uninstall()
        last = max(last, time.perf_counter() - began)
        # With tracing, stop only after a traced round, so that untraced
        # and traced rounds pair up.
        if ((tracer is None or (len(rounds) >= 3 and len(rounds) % 2 == 1))
                and time.perf_counter() - start + last > args.seconds):
            break
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.result, "w") as fh:
        json.dump({"rounds": rounds, "peak_rss_mb": peak}, fh)


if __name__ == "__main__":
    main()
