#!/usr/bin/env python3
"""Run one DELRec benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload serve-fresh --seed 1 --seconds 10 --trace 0

Workloads: ``serve-fresh``, ``serve-routed``, ``train-cold`` (see README.md).
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
workload with tracing and prints the per-layer metrics.  The last line of
standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

The lines before it carry the environment block and run details.  Outputs
that differ from the offline reference fail the run (exit code 1).  Scratch
state (the shared serving bundle, trace dumps, per-run result files) lives
under ``.bench_build/perfbench`` in the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("serve-fresh", "serve-routed", "train-cold")
WORK_DIR = os.path.join(ROOT, ".bench_build", "perfbench")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="Run one DELRec benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the measured phase of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(args: argparse.Namespace) -> dict:
    """Run one workload; returns the result object (the last output line)."""
    from perfbench.env import environment
    from perfbench.layers import layer_values
    from perfbench.metrics import END_TO_END, PER_LAYER, Outcome, report
    from perfbench.serving import run_serving
    from perfbench.trace import Spans, Tracer
    from perfbench.training import prepare_bundle, run_train_cold

    if args.seconds <= 0:
        raise ValueError("--seconds must be positive")
    trace = bool(args.trace)
    scratch = os.path.join(WORK_DIR, f"run-{os.getpid()}")
    tracer = Tracer(os.path.join(scratch, "spans")) if trace else None
    try:
        if args.workload == "train-cold":
            outcome = run_train_cold(args.seed, args.seconds, trace, tracer,
                                     os.path.join(scratch, "train"))
        else:
            outcome = Outcome()
            prepared = prepare_bundle(os.path.join(WORK_DIR, "store"),
                                      os.path.join(scratch, "store"), trace, tracer, outcome)
            kind = "fresh" if args.workload == "serve-fresh" else "routed"
            try:
                run_serving(kind, args.seed, args.seconds, trace, tracer, prepared, outcome)
            finally:
                prepared.close()
        if trace:
            counters = outcome.details["counters"]
            tracer.collect_children()
            values = layer_values(Spans(tracer.spans), tracer.samples,
                                  served=int(counters.get("served", 0)),
                                  fits=int(counters.get("fits", 0)), counters=counters)
            tracer.write(os.path.join(WORK_DIR, f"spans-{args.workload}.json"))
            metrics = report(values, PER_LAYER)
        else:
            metrics = report(outcome.values, END_TO_END)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    details = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "environment": environment(ROOT), **outcome.details}
    with open(os.path.join(WORK_DIR, f"result-{tag}.json"), "w") as handle:
        json.dump({"details": details, "metrics": metrics}, handle, indent=1, default=str)
    print(json.dumps(details, default=str))
    return {"correct": outcome.failed == 0, "attempted": outcome.attempted,
            "failed": outcome.failed, "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    from perfbench.env import pin_threads

    pin_threads()  # before anything imports numpy
    os.makedirs(WORK_DIR, exist_ok=True)
    result = run(args)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
