"""Per-layer metrics, computed from the spans of the traced phases of a run.

A layer that a workload never enters reports 0 (no calls, no time): the
router and replicas on serve-fresh and train-cold, the training loops on the
serving workloads.
"""

from __future__ import annotations

import os
from typing import Dict, List

import numpy as np

from perfbench.metrics import SERVING_SPANS, TRAINING_SPANS
from perfbench.trace import Spans

#: The four training loops; their time minus backward and optimizer steps is
#: the forward residual.
STAGES = ("train.backbone", "train.pretrain", "train.stage1", "train.stage2")


def _mean_us(spans: Spans, name: str, pid=None) -> float:
    return spans.mean_ms(name, pid) * 1000.0


def layer_values(spans: Spans, samples: Dict[str, List[float]], served: int, fits: int,
                 counters: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric from the traced spans plus the workload's own counters.

    ``served`` counts the requests answered while traced, ``fits`` the traced
    fits.  ``counters`` carries what a workload reads from public APIs rather
    than spans: prefix-cache statistics, replica CPU, reroutes, the
    generator's lateness and the tracing overheads.
    """
    parent = os.getpid()
    values: Dict[str, float] = {}
    values["sessions.sync_us"] = _mean_us(spans, "sessions.sync")

    # the front-most result cache: the service's on serve-fresh, the router's
    # shared tier on serve-routed (replica caches live in other processes)
    lookups = spans.named("cache.get", parent)
    values["cache.hit_rate"] = (sum(span[7] for span in lookups) / len(lookups)
                                if lookups else 0.0)
    values["cache.get_us"] = _mean_us(spans, "cache.get", parent)
    values["cache.puts"] = spans.count("cache.put", parent)

    values["prefix.hit_rate"] = counters.get("prefix.hit_rate", 0.0)
    values["prefix.recompute_frac"] = counters.get("prefix.recompute_frac", 0.0)
    values["prefix.render_ms"] = spans.mean_ms("prefix.render")

    flushes = spans.named("score.flush")
    rows = sum(span[7] for span in flushes)
    values["batcher.mean_batch"] = rows / len(flushes) if flushes else 0.0
    waits = samples.get("batcher.queue_wait_ms", [])
    values["batcher.queue_wait_ms"] = float(np.median(waits)) if waits else 0.0
    values["score.flush_ms"] = spans.mean_ms("score.flush")
    values["score.us_per_req"] = spans.total_ms("score.flush") * 1000.0 / rows if rows else 0.0

    values["encoder.ms"] = spans.mean_ms("encoder")
    values["head.ms"] = spans.mean_ms("head")
    values["splice.ms"] = spans.mean_ms("splice")
    values["prompt.batch_ms"] = spans.mean_ms("prompt.batch")
    values["encoder.tape_fallbacks"] = sum(
        spans.ancestor(span, ("score.flush",)) is not None
        for span in spans.named("encoder.tape")
    )

    values["router.route_ms"] = spans.mean_ms("router.route")
    values["replica.call_ms"] = spans.mean_ms("replica.call")
    values["replica.cpu_s"] = counters.get("replica.cpu_s", 0.0)
    values["router.reroutes"] = counters.get("router.reroutes", 0.0)
    values["loadgen.late_p99_ms"] = counters.get("loadgen.late_p99_ms", 0.0)

    values["store.save_ms"] = spans.mean_ms("store.save")
    values["store.load_ms"] = spans.mean_ms("store.load")

    per_fit = 1.0 / fits if fits else 0.0
    for stage in STAGES:
        values[f"{stage}_s"] = spans.total_ms(stage) / 1000.0 * per_fit
    values["train.backward_s"] = spans.total_ms("train.backward") / 1000.0 * per_fit
    values["train.optim_s"] = spans.total_ms("train.optim") / 1000.0 * per_fit
    inner_ns = 0
    for name in ("train.backward", "train.optim"):
        for span in spans.named(name):
            if spans.ancestor(span, STAGES) is not None:
                inner_ns += span[4] - span[3]
    stage_ns = sum(spans.total_ms(stage) for stage in STAGES) * 1e6
    values["train.forward_s"] = (stage_ns - inner_ns) / 1e9 * per_fit
    values["train.steps"] = spans.count("train.optim") * per_fit

    values["trace.latency_p50_overhead"] = counters.get("trace.latency_p50_overhead", 0.0)
    values["trace.fit_overhead"] = counters.get("trace.fit_overhead", 0.0)

    for name in SERVING_SPANS:
        values[f"self_us.{name}"] = spans.self_ms(name) * 1000.0 / served if served else 0.0
    for name in TRAINING_SPANS:
        values[f"self_s.{name}"] = spans.self_ms(name) / 1000.0 * per_fit
    return values
