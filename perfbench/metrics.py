"""Metric declarations (names, units, bounds) and the summary statistics behind them.

``BENCHMARK.json`` at the repository root lists the same metrics; the
benchmark's tests check that the two agree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

#: (name, unit, better, bound): what every untraced run prints.
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("capacity_rps", "req/s", "higher", 0.25),
    ("cpu_ms_per_req", "ms", "lower", 0.25),
    ("fit_s", "s", "lower", 0.25),
    ("ndcg_at_10", "ratio", "higher", 0.05),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

#: Span names whose self time is reported per served request.
SERVING_SPANS = (
    "service.recommend", "sessions.sync", "cache.get", "cache.put", "batcher.submit",
    "score.flush", "prefix.render", "prompt.batch", "splice", "encoder", "encoder.tape",
    "head", "router.route", "replica.call",
)
#: Span names whose self time is reported per traced fit.
TRAINING_SPANS = (
    "fit", "train.backbone", "train.pretrain", "train.stage1", "train.stage2",
    "train.backward", "train.optim",
)

#: (name, unit, better): what every traced run prints.
PER_LAYER: List[Tuple[str, str, str]] = [
    ("sessions.sync_us", "us", "lower"),
    ("cache.hit_rate", "ratio", "higher"),
    ("cache.get_us", "us", "lower"),
    ("cache.puts", "count", "lower"),
    ("prefix.hit_rate", "ratio", "higher"),
    ("prefix.recompute_frac", "ratio", "lower"),
    ("prefix.render_ms", "ms", "lower"),
    ("batcher.mean_batch", "req", "higher"),
    ("batcher.queue_wait_ms", "ms", "lower"),
    ("score.flush_ms", "ms", "lower"),
    ("score.us_per_req", "us", "lower"),
    ("encoder.ms", "ms", "lower"),
    ("head.ms", "ms", "lower"),
    ("splice.ms", "ms", "lower"),
    ("prompt.batch_ms", "ms", "lower"),
    ("encoder.tape_fallbacks", "count", "lower"),
    ("router.route_ms", "ms", "lower"),
    ("replica.call_ms", "ms", "lower"),
    ("replica.cpu_s", "s", "lower"),
    ("router.reroutes", "count", "lower"),
    ("loadgen.late_p99_ms", "ms", "lower"),
    ("store.save_ms", "ms", "lower"),
    ("store.load_ms", "ms", "lower"),
    ("train.backbone_s", "s", "lower"),
    ("train.pretrain_s", "s", "lower"),
    ("train.stage1_s", "s", "lower"),
    ("train.stage2_s", "s", "lower"),
    ("train.backward_s", "s", "lower"),
    ("train.optim_s", "s", "lower"),
    ("train.forward_s", "s", "lower"),
    ("train.steps", "count", "lower"),
    ("trace.latency_p50_overhead", "ratio", "lower"),
    ("trace.fit_overhead", "ratio", "lower"),
]
PER_LAYER += [(f"self_us.{name}", "us", "lower") for name in SERVING_SPANS]
PER_LAYER += [(f"self_s.{name}", "s", "lower") for name in TRAINING_SPANS]


@dataclass
class Outcome:
    """What one workload run measured and how many of its operations failed."""

    values: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: everything else worth recording: digests, sample counts, offered rates
    details: Dict[str, object] = field(default_factory=dict)

    def count(self, attempted: int, failed: int = 0) -> None:
        self.attempted += int(attempted)
        self.failed += int(failed)


def median(values: Sequence[float]) -> float:
    return float(np.median(np.asarray(values, dtype=np.float64)))


def best(samples: Sequence[float]) -> float:
    """The best (lowest) of several timing samples spread over a run.

    On a shared machine, interference only ever makes a sample worse, and it
    comes and goes over seconds: the same work can take half as long again
    for stretches of up to half a minute.  A run's median lands on whichever
    mode held most of the run; the best sample stays put, because it is what
    the code costs when nothing else intervenes.
    """
    if not samples:
        raise ValueError("no samples")
    return float(min(samples))


def percentile_ms(latencies_s: Sequence[float], percentile: float) -> float:
    """A latency percentile in ms; failed requests (``inf``) count as the slowest."""
    values = np.sort(np.asarray(latencies_s, dtype=np.float64))
    if not len(values):
        return float("inf")
    # nearest-rank on the sorted sample, so an inf is never interpolated into
    # a finite neighbour
    rank = int(np.ceil(percentile / 100.0 * len(values))) - 1
    return float(values[max(rank, 0)] * 1000.0)


def samples_beyond(count: int, percentile: float) -> int:
    """How many of ``count`` samples lie beyond the given percentile."""
    return count - int(np.ceil(percentile / 100.0 * count))


def report(values: Dict[str, float], declared) -> Dict[str, Dict[str, object]]:
    """The ``metrics`` object of the result line: every declared metric, in order."""
    missing = [entry[0] for entry in declared if entry[0] not in values]
    if missing:
        raise KeyError(f"run did not measure {missing}")
    return {entry[0]: {"value": float(values[entry[0]]), "unit": entry[1]}
            for entry in declared}
