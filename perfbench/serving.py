"""The serving workloads (serve-fresh, serve-routed) and the phases they share.

A *pass* offers a request list to a freshly started service or tier, so no
pass sees another pass's cache entries.  Two kinds of pass exist:

* the capacity pass offers the whole list at once and reports completed
  requests per second and CPU time per request; every capacity pass offers
  the same list, in every run whatever its seed, so capacity compares code
  rather than request mixes;
* fixed-rate passes offer requests on a seeded Poisson schedule at the
  workload's frozen rate, and their latencies (from scheduled arrival) give
  the latency percentiles.

Every pass, set-up included, runs between two runs of the reference kernel
(:mod:`perfbench.calibrate`), and its set-up time, rate and CPU time per
request are scaled to the reference host with that pass's scale.  CPU time
takes the whole scale; wall-clock figures take it raised to the target's
``host_share``, the share of their time that moves with host speed as the
kernel does.

Every served score is compared bitwise with the offline per-example loop
(``replay_workload``) over the same requests.
"""

from __future__ import annotations

import gc
import os
import resource
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from perfbench.calibrate import scaled
from perfbench.loadgen import PassResult, offer
from perfbench.metrics import Outcome, best, median, percentile_ms, samples_beyond
from perfbench.workloads import (
    FRESH_RATE_RPS,
    REPLICAS,
    ROUTED_RATE_RPS,
    TOP_K,
    Request,
    example_pool,
    fresh_requests,
    pass_seed,
    routed_requests,
    warmup_requests,
)
from repro.eval.metrics import ndcg_at_k
from repro.serve import (
    RecommendationService,
    ReplicaConfig,
    ReplicatedService,
    ServiceConfig,
    arrival_schedule,
    replay_workload,
)
from repro.store.components import DELREC_KIND, load_recommender


#: Share of ``--seconds`` spent offering fixed-rate load; capacity passes,
#: which last about as long in all, take the rest.
FIXED_RATE_SHARE = 2.0 / 3.0
#: Requests per fixed-rate pass: short enough that the kernel runs around a
#: pass track the host through it, and the run's pooled p99 keeps more than
#: ten samples beyond it.
PASS_REQUESTS = 400
#: The smallest pass a short run shrinks to.
MIN_PASS_REQUESTS = 50
#: Capacity passes run before every fixed-rate pass, and the size of the one
#: request list they all offer: many short passes, each between its own
#: kernel runs, so their median settles even where the host changes speed
#: within a second.
CAPACITY_PER_PASS = 3
CAPACITY_REQUESTS = 200
#: Seed of the capacity list.  It is not the run's seed: on serve-routed a
#: 200-request list's share of cache hits varies by seed, and it moved
#: capacity by up to 0.2 between seeds.
CAPACITY_SEED = 0
#: Set-ups timed per run, at least (every pass contributes one).
SETUPS = 10


def dispatch_threads() -> int:
    """Dispatch threads for blocking targets: two, never more than the usable cores."""
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        usable = os.cpu_count() or 1
    return max(1, min(2, usable))


def own_peak_rss_mb() -> float:
    """This process's resident-set high-water mark (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def reference_scores(recommender, requests: Sequence[Request]) -> Dict[tuple, np.ndarray]:
    """Offline per-example scores of every distinct request, by cache key."""
    distinct: Dict[tuple, Request] = {}
    for request in requests:
        distinct.setdefault(request.key, request)
    scores = replay_workload(recommender, [request.served() for request in distinct.values()])
    return dict(zip(distinct, scores))


def prefix_counters(stats) -> Dict[str, int]:
    """Prompt prefix-cache counters summed over ``ServiceStats`` snapshots."""
    totals = dict.fromkeys(("prefix.lookups", "prefix.hits", "prefix.rendered",
                            "prefix.reused"), 0)
    for snapshot in stats:
        prefix = snapshot.prefix
        totals["prefix.lookups"] += prefix.lookups
        totals["prefix.hits"] += prefix.full_hits + prefix.partial_hits
        totals["prefix.rendered"] += prefix.rendered_positions
        totals["prefix.reused"] += prefix.reused_positions
    return totals


def bitwise_equal(served, expected: np.ndarray) -> bool:
    served = np.asarray(served)
    return (served.dtype == expected.dtype and served.shape == expected.shape
            and served.tobytes() == expected.tobytes())


# --------------------------------------------------------------------------- #
# targets: an in-process service or a replicated tier, started fresh per pass
# --------------------------------------------------------------------------- #
class InProcessTarget:
    """Fresh ``RecommendationService`` per pass, restored from the store."""

    threads = 1
    #: the service computes in this process without waiting on anything, so
    #: its wall-clock time moves with host speed as the kernel does
    host_share = 1.0

    def __init__(self, store, fingerprint: str, dataset, warmup: Sequence[Request]):
        self.store, self.fingerprint, self.dataset = store, fingerprint, dataset
        self.warmup = [(r.user_id, list(r.history), list(r.candidates)) for r in warmup]

    def start(self):
        """Bundle restore, service start and warm-up pass: the timed set-up."""
        service = RecommendationService.from_store(
            self.store, DELREC_KIND, self.fingerprint, dataset=self.dataset,
            config=ServiceConfig(),
        )
        service.recommend_many(self.warmup, k=TOP_K)
        return service

    def cpu_s(self, service) -> float:
        return 0.0

    def peak_rss_mb(self, service) -> float:
        return 0.0

    def counters(self, service) -> Dict[str, float]:
        return {**prefix_counters([service.stats()]), "router.reroutes": 0}

    def close(self, service) -> None:
        pass


class TierTarget:
    """Fresh ``ReplicatedService`` of mmap-restoring replicas per pass."""

    #: every replica call that misses the shared cache waits out its
    #: replica's 2 ms batcher deadline alone, which host speed does not
    #: change: about half of a pass's wall-clock time.  Over five runs on a
    #: 2-core host, capacity spread 0.13 of its median unscaled, 0.12 fully
    #: scaled and 0.07 with this exponent.
    host_share = 0.5

    def __init__(self, store, fingerprint: str, dataset, warmup: Sequence[Request]):
        self.store, self.fingerprint, self.dataset = store, fingerprint, dataset
        self.warmup = list(warmup)
        self.threads = dispatch_threads()

    def start(self):
        tier = ReplicatedService.start(
            self.store.root, ReplicaConfig(DELREC_KIND, self.fingerprint, mmap=True,
                                           service=ServiceConfig()),
            REPLICAS, dataset=self.dataset, default_k=TOP_K,
        )
        try:
            for request in self.warmup:
                tier.recommend(request.user_id, request.history, request.candidates, TOP_K)
        except BaseException:
            tier.close()
            raise
        return tier

    def cpu_s(self, tier) -> float:
        return sum(sample.cpu_seconds for sample in tier.resources())

    def peak_rss_mb(self, tier) -> float:
        return max(sample.peak_rss_mb for sample in tier.resources())

    def counters(self, tier) -> Dict[str, float]:
        # asking the replicas for stats also makes traced replicas dump spans
        return {**prefix_counters(tier.stats().values()), "router.reroutes": tier.reroutes}

    def close(self, tier) -> None:
        tier.close()


# --------------------------------------------------------------------------- #
# passes
# --------------------------------------------------------------------------- #
@dataclass
class Phase:
    """Accumulated results of the passes of one phase, one entry per pass."""

    latencies: List[np.ndarray] = field(default_factory=list)
    lateness: List[np.ndarray] = field(default_factory=list)
    #: CPU ms per completed request (this process plus replicas), scaled
    cpu_ms_per_req: List[float] = field(default_factory=list)
    #: completed requests per second of wall clock, scaled
    rates: List[float] = field(default_factory=list)
    #: the kernel scale of every pass (1.0 on the reference host)
    scales: List[float] = field(default_factory=list)
    offered_rps: List[float] = field(default_factory=list)
    completed: int = 0
    offered: int = 0
    counters: Dict[str, float] = field(default_factory=dict)
    #: NDCG@10 of every distinct served request with a known target, by key
    gains: Dict[tuple, float] = field(default_factory=dict)

    def add(self, requests: Sequence[Request], result: PassResult, cpu_s: float,
            scale: float, wall_scale: float) -> None:
        """One pass; CPU time takes ``scale``, its rate ``wall_scale``."""
        self.latencies.append(result.latencies)
        self.lateness.append(result.lateness)
        self.cpu_ms_per_req.append(cpu_s * 1000.0 / max(result.completed, 1) * scale)
        self.rates.append(result.completed / result.wall_s / wall_scale)
        self.scales.append(scale)
        self.offered_rps.append(result.offered_rps)
        self.completed += result.completed
        self.offered += len(result.responses)
        for request, response in zip(requests, result.responses, strict=True):
            if request.target is not None and response is not None:
                self.gains[request.key] = ndcg_at_k(response.items, request.target, TOP_K)

    def percentiles_ms(self, percentile: float) -> List[float]:
        """One latency percentile per pass."""
        return [percentile_ms(latencies, percentile) for latencies in self.latencies]

    def pooled_ms(self, percentile: float) -> float:
        """A latency percentile over every pass's requests together."""
        return percentile_ms(np.concatenate(self.latencies), percentile)

    def late_p99_ms(self) -> float:
        return percentile_ms(np.concatenate(self.lateness), 99.0)

    def prefix_values(self) -> Dict[str, float]:
        counters = self.counters
        lookups = counters.get("prefix.lookups", 0)
        positions = counters.get("prefix.rendered", 0) + counters.get("prefix.reused", 0)
        return {
            "prefix.hit_rate": counters.get("prefix.hits", 0) / lookups if lookups else 0.0,
            "prefix.recompute_frac": (counters.get("prefix.rendered", 0) / positions
                                      if positions else 0.0),
        }


class Runner:
    """Runs passes against fresh targets, checking every score and timing set-up.

    ``lists[i]`` is the request list of fixed-rate pass ``i``; every capacity
    pass offers ``capacity_requests``.
    ``between`` runs before every fixed-rate pass, outside the timed window
    (the serving workloads take their warm-fit samples there, so those
    samples spread over the whole run).
    """

    def __init__(self, target, lists: Sequence[Sequence[Request]],
                 capacity_requests: Sequence[Request], recommender,
                 outcome: Outcome, between: Optional[Callable[[], None]] = None):
        self.target = target
        self.lists = lists
        self.capacity_requests = capacity_requests
        self.outcome = outcome
        self.between = between
        self.reference = reference_scores(
            recommender,
            [request for requests in (*lists, capacity_requests) for request in requests])
        #: scaled seconds of every set-up: restore, start and warm-up
        self.setups: List[float] = []
        self.peak_rss_mb = 0.0

    def timed_start(self):
        """Start a fresh target; returns it and the seconds its set-up took."""
        began = time.perf_counter()
        instance = self.target.start()
        return instance, time.perf_counter() - began

    def serve(self, requests: Sequence[Request], arrivals: np.ndarray, tracer=None):
        """One pass against a fresh target: (set-up s, result, replica CPU s, counters)."""
        if tracer is not None:
            tracer.install()
        try:
            instance, setup_s = self.timed_start()
            try:
                cpu_before = self.target.cpu_s(instance)
                result = offer(instance, requests, arrivals, self.target.threads)
                replica_cpu = self.target.cpu_s(instance) - cpu_before
                self.peak_rss_mb = max(self.peak_rss_mb, self.target.peak_rss_mb(instance))
                counters = self.target.counters(instance)
            finally:
                self.target.close(instance)
        finally:
            if tracer is not None:
                tracer.uninstall()
                tracer.collect_children()
        return setup_s, result, replica_cpu, counters

    def run_pass(self, requests: Sequence[Request], arrivals: np.ndarray, phase: Phase,
                 tracer=None) -> PassResult:
        gc.collect()
        (setup_s, result, replica_cpu, counters), scale = scaled(
            lambda: self.serve(requests, arrivals, tracer))
        wall_scale = scale ** self.target.host_share
        self.setups.append(setup_s * wall_scale)
        for key, value in counters.items():
            phase.counters[key] = phase.counters.get(key, 0) + value
        phase.counters["replica.cpu_s"] = phase.counters.get("replica.cpu_s", 0.0) + replica_cpu
        phase.add(requests, result, result.cpu_s + replica_cpu, scale, wall_scale)
        self.check(requests, result)
        return result

    def check(self, requests: Sequence[Request], result: PassResult) -> None:
        """Count exceptions and scores that differ from the offline loop as failures."""
        failed = 0
        for request, response, error in zip(requests, result.responses, result.errors,
                                            strict=True):
            if error is not None or response is None:
                failed += 1
            elif not bitwise_equal(response.scores, self.reference[request.key]):
                failed += 1
        self.outcome.count(len(requests), failed)

    def capacity_pass(self, phase: Phase) -> PassResult:
        """The capacity list due at once, against a fresh target."""
        requests = self.capacity_requests
        return self.run_pass(requests, np.zeros(len(requests)), phase)

    def fixed_rate_pass(self, index: int, rate: float, seed: int, phase: Phase,
                        tracer=None) -> PassResult:
        """Pass ``index``'s requests on a seeded Poisson schedule at ``rate``."""
        if self.between is not None:
            self.between()
        requests = self.lists[index]
        arrivals = arrival_schedule(len(requests), rate, "poisson",
                                    seed=pass_seed(seed, 1, index))
        return self.run_pass(requests, arrivals, phase, tracer=tracer)

    def extra_setups(self, count: int) -> None:
        """Time further set-ups (start, warm-up, close) until ``count`` are recorded."""
        while len(self.setups) < count:
            gc.collect()
            (instance, setup_s), scale = scaled(self.timed_start)
            self.setups.append(setup_s * scale ** self.target.host_share)
            self.target.close(instance)


def serve_phases(runner: Runner, rate: float, passes: int, seed: int, trace: bool, tracer,
                 outcome: Outcome) -> Dict[str, float]:
    """Capacity and fixed-rate passes (untraced) or the traced comparison.

    Untraced, fills the end-to-end values into ``outcome``.  Traced, runs
    half the fixed-rate passes twice, alternately without and with the
    tracer installed, and returns the per-layer counters of the traced ones.
    """
    if not trace:
        # capacity and fixed-rate passes alternate, so slow stretches of a
        # shared machine land on both alike
        capacity, phase = Phase(), Phase()
        for index in range(passes):
            for _ in range(CAPACITY_PER_PASS):
                runner.capacity_pass(capacity)
            runner.fixed_rate_pass(index, rate, seed, phase)
        outcome.values["capacity_rps"] = median(capacity.rates)
        # from the capacity passes: a fixed-rate pass lasts seconds and idles
        # most of them, and kernel runs at its ends track its CPU time poorly
        # (scaled, its CPU per request spread 0.14 of the median over five
        # runs; unscaled 0.10)
        outcome.values["cpu_ms_per_req"] = median(capacity.cpu_ms_per_req)
        outcome.values["ndcg_at_10"] = float(np.mean(list(phase.gains.values())))
        outcome.details.update({
            "capacity_rps_passes": capacity.rates,
            "capacity_scales": capacity.scales,
            "fixed_rate_scales": phase.scales,
            "fixed_rate_cpu_ms_per_req_passes": phase.cpu_ms_per_req,
            "p50_ms_passes": phase.percentiles_ms(50.0),
            # reported, not declared: stalls of the shared machine's virtual
            # CPUs move latency by more than any bound the benchmark may set
            "latency_p50_ms": phase.pooled_ms(50.0),
            "latency_p99_ms": phase.pooled_ms(99.0),
            "p99_ms_passes": phase.percentiles_ms(99.0),
            "cpu_ms_per_req_passes": capacity.cpu_ms_per_req,
            "latency_samples": phase.completed,
            "samples_beyond_p99": samples_beyond(sum(map(len, phase.latencies)), 99.0),
            "offered_rps_realized": phase.offered_rps,
            "loadgen_late_p99_ms": phase.late_p99_ms(),
            "ndcg_requests": len(phase.gains),
        })
        return {}
    # the same passes without and with the tracer, alternating
    plain, traced = Phase(), Phase()
    for index in range(max(1, passes // 2)):
        runner.fixed_rate_pass(index, rate, seed, plain)
        runner.fixed_rate_pass(index, rate, seed, traced, tracer=tracer)
    plain_p50 = best(plain.percentiles_ms(50.0))
    traced_p50 = best(traced.percentiles_ms(50.0))
    counters = traced.prefix_values()
    counters["replica.cpu_s"] = traced.counters.get("replica.cpu_s", 0.0)
    counters["router.reroutes"] = traced.counters.get("router.reroutes", 0)
    counters["loadgen.late_p99_ms"] = traced.late_p99_ms()
    counters["trace.latency_p50_overhead"] = traced_p50 / plain_p50 - 1.0
    counters["served"] = traced.completed
    outcome.details.update({"untraced_p50_ms": plain_p50, "traced_p50_ms": traced_p50})
    return counters


def pass_plan(rate: float, seconds: float) -> Tuple[int, int]:
    """(fixed-rate passes, requests per pass) for a run of ``seconds``.

    The passes offer :data:`FIXED_RATE_SHARE` of ``seconds`` of load at
    ``rate``.  They hold :data:`PASS_REQUESTS` requests once the run is long
    enough; shorter runs shrink the passes, never below two of them.
    """
    total = rate * seconds * FIXED_RATE_SHARE
    passes = max(2, int(np.ceil(total / PASS_REQUESTS)))
    return passes, int(min(PASS_REQUESTS, max(MIN_PASS_REQUESTS, round(total / passes))))


def pass_lists(builder, pool, sampler, seed: int, passes: int, size: int,
               stream: int = 0) -> List[List[Request]]:
    """``passes`` request lists of ``size``, each from its own seeded order."""
    return [builder(pool, sampler, pass_seed(seed, stream, index), limit=size)
            for index in range(passes)]


def capacity_list(builder, pool, sampler) -> List[Request]:
    """The list every capacity pass of every run offers."""
    return builder(pool, sampler, pass_seed(CAPACITY_SEED, 2, 0), limit=CAPACITY_REQUESTS)


def run_serving(kind: str, seed: int, seconds: float, trace: bool, tracer, prepared,
                outcome: Outcome) -> None:
    """serve-fresh (``kind="fresh"``) or serve-routed (``kind="routed"``)."""
    store, context, fingerprint = prepared.store, prepared.context, prepared.fingerprint
    pool = example_pool(context.split)
    sampler = context.evaluator.sampler
    builder, rate, target_type = {
        "fresh": (fresh_requests, FRESH_RATE_RPS, InProcessTarget),
        "routed": (routed_requests, ROUTED_RATE_RPS, TierTarget),
    }[kind]
    passes, size = pass_plan(rate, seconds)
    runner = Runner(
        target_type(store, fingerprint, context.dataset, warmup_requests(pool, sampler)),
        pass_lists(builder, pool, sampler, seed, passes, size),
        capacity_list(builder, pool, sampler),
        load_recommender(store, DELREC_KIND, fingerprint, dataset=context.dataset),
        outcome,
        between=prepared.warm_fit,
    )
    counters = serve_phases(runner, rate, passes, seed, trace, tracer, outcome)
    runner.extra_setups(SETUPS)
    outcome.values["setup_s"] = median(runner.setups)
    outcome.values["fit_s"] = median(prepared.fit_samples)
    outcome.values["peak_rss_mb"] = max(own_peak_rss_mb(), runner.peak_rss_mb)
    outcome.details.update({"rate_rps": rate, "passes": passes,
                            "fit_samples_s": prepared.fit_samples,
                            "setup_samples": len(runner.setups)})
    outcome.details.setdefault("counters", {}).update(counters)
