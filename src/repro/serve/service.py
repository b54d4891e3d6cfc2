"""The online recommendation service.

:class:`RecommendationService` composes the fast primitives the offline
stack already has — warm artifact-store loading (PR 2), batched candidate
scoring (PR 1) through the restricted LM head (PR 3) — behind a single
per-user request API:

>>> service = RecommendationService(recommender, candidates_fn=sampler.candidates_for_request)
>>> response = service.recommend_sync(user_id=7, history=[3, 12, 9], k=5)
>>> response.items          # ranked item ids
>>> service.record_event(7, response.items[0])     # incremental session update
>>> service.recommend_sync(user_id=7, k=5)         # history comes from the session store

Requests flow through two cache tiers and a micro-batching scheduler:

1. the per-user :class:`~repro.serve.sessions.SessionStore` resolves (and
   incrementally updates) the request history;
2. the LRU :class:`~repro.serve.cache.ResultCache` answers repeats without
   touching the model (keyed by model fingerprint + history + candidates);
3. misses are queued on the :class:`~repro.serve.batcher.MicroBatcher`,
   which dispatches one ``score_candidates_batch`` call per flush.

Every served score is bitwise-identical to the offline per-example
``score_candidates`` loop for the same model and candidate set: batching is
batch-invariant by construction and the cache stores exactly what scoring
computed.

Failure model (PR 8)
--------------------
A service constructed with a :class:`~repro.serve.resilience.ResiliencePolicy`
and a :class:`~repro.serve.resilience.FallbackChain` *always answers*: primary
scoring failures are retried on a bounded deterministic backoff schedule, a
circuit breaker short-circuits a persistently failing primary, per-request
deadline budgets stop a slow request from waiting forever, and any request the
primary cannot answer exactly re-scores through the fallback chain and returns
``degraded=True`` with the fallback's fingerprint.  Degraded scores are never
published to the result cache — a cache hit is always a primary-exact score.
See :mod:`repro.serve.resilience` for the semantics and the determinism
argument, and :mod:`repro.serve.faults` for the seeded chaos harness that
proves them.
"""

from __future__ import annotations

import asyncio
import contextvars
import functools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.serve.batcher import BatcherStats, MicroBatcher
from repro.serve.cache import CacheStats, ResultCache
from repro.serve.prefix import PrefixCache, PrefixStats
from repro.serve.resilience import (
    CircuitBreaker,
    DeadlineBudget,
    DeadlineExceeded,
    FallbackChain,
    ResiliencePolicy,
    ResilienceStats,
)
from repro.serve.sessions import SessionStore
from repro.store.components import load_recommender, recommender_fingerprint
from repro.store.store import ArtifactStore

#: Provides candidate item ids for a request: (user_id, history) -> candidates.
CandidatesFn = Callable[[int, Sequence[int]], Sequence[int]]

#: Parks the request the current task serves inside a closed
#: :meth:`RecommendationService.recommend_many_async` call; unset for
#: open-loop ``recommend`` callers, whose partial batches wait out
#: ``max_wait_ms`` as before.
_PARK: "contextvars.ContextVar[Optional[Callable[[], None]]]" = contextvars.ContextVar(
    "repro_serve_park", default=None
)


def _park_current_request() -> None:
    """Tell the enclosing closed call that this request can no longer join a batch."""
    park = _PARK.get()
    if park is not None:
        park()


@dataclass
class ServiceConfig:
    """Batching / caching knobs of a :class:`RecommendationService`."""

    #: flush a micro-batch as soon as it holds this many requests
    max_batch_size: int = 16
    #: ... or this many milliseconds after its oldest request arrived
    max_wait_ms: float = 2.0
    #: LRU capacity of the result cache (score arrays, one per distinct request)
    cache_capacity: int = 4096
    #: default length of the returned recommendation list
    default_k: int = 10
    #: per-user session history cap (None = unbounded)
    max_session_events: Optional[int] = None
    #: LRU capacity of the prompt prefix cache (rendered history prefixes)
    prefix_capacity: int = 1024
    #: bisect failed micro-batch flushes so batchmates of a poisoned request
    #: still get exact scores (see :class:`~repro.serve.batcher.MicroBatcher`)
    isolate_failures: bool = True


@dataclass
class RecommendResponse:
    """One served recommendation: the ranked list and how it was produced."""

    user_id: int
    #: the top-k item ids, best first (stable ties — identical to the evaluator)
    items: List[int]
    #: scores aligned with :attr:`items`
    item_scores: List[float]
    #: the full candidate set that was ranked
    candidates: List[int]
    #: scores aligned with :attr:`candidates` (exactly what the model computed)
    scores: np.ndarray
    #: True when the scores came from the result cache
    cached: bool
    #: True when primary scoring could not answer and a fallback served the
    #: request — degraded responses are labeled, never silent
    degraded: bool = False
    #: content fingerprint of the model that produced :attr:`scores` (the
    #: primary's fingerprint normally, the fallback link's when degraded)
    served_by: Optional[str] = None
    #: why the request degraded: ``"error"`` (primary failed after retries),
    #: ``"deadline"`` (latency budget exhausted) or ``"breaker"`` (circuit
    #: breaker open); ``None`` for exact responses
    degraded_reason: Optional[str] = None


@dataclass
class ServiceStats:
    """A point-in-time snapshot of every serving-layer counter."""

    requests: int
    cache: CacheStats
    batcher: BatcherStats
    sessions: int
    events_appended: int
    coalesced: int = 0
    #: prompt prefix-cache counters (all zeros for recommenders that do not
    #: render prompts, e.g. the conventional backbones)
    prefix: PrefixStats = field(default_factory=PrefixStats)
    #: failure/retry/breaker/degraded counters (all zeros on a service built
    #: without a resilience policy or fallback chain)
    resilience: ResilienceStats = field(default_factory=ResilienceStats)

    def as_row(self) -> Dict[str, object]:
        """Flatten the snapshot into one reporting-friendly row."""
        return {
            "requests": self.requests,
            "cache_hits": self.cache.hits,
            "cache_misses": self.cache.misses,
            "cache_hit_rate": round(self.cache.hit_rate, 4),
            "coalesced": self.coalesced,
            "evictions": self.cache.evictions,
            "flushes": self.batcher.flushes,
            "mean_batch": round(self.batcher.mean_batch_size, 2),
            "max_batch": self.batcher.max_batch_size,
            "sessions": self.sessions,
            "events": self.events_appended,
            "prefix_hit_rate": round(self.prefix.hit_rate, 4),
            "prefix_recompute_frac": round(self.prefix.recompute_fraction, 4),
            "scoring_failures": self.resilience.scoring_failures,
            "retries": self.resilience.retries,
            "deadline_exceeded": self.resilience.deadline_exceeded,
            "breaker_opens": self.resilience.breaker_opens,
            "breaker_short_circuits": self.resilience.breaker_short_circuits,
            "degraded": self.resilience.degraded,
            "dropped": self.resilience.dropped,
            "batch_errors": self.batcher.batch_errors,
            "bisections": self.batcher.bisections,
        }


class RecommendationService:
    """Serve ``recommend(user_id, history, k)`` requests from a trained recommender.

    Parameters
    ----------
    recommender:
        Anything exposing ``score_candidates_batch(histories, candidate_sets)``
        — a :class:`~repro.core.recommend.DELRecRecommender`, any conventional
        backbone, or any LLM baseline (the base-class protocol from PR 1).
    candidates_fn:
        Candidate provider for requests that do not carry explicit candidates,
        e.g. ``CandidateSampler(...).candidates_for_request``.  Optional when
        every request supplies its own candidate set.
    config:
        Batching and caching knobs (:class:`ServiceConfig`).
    model_fingerprint:
        Override for the model's content identity; computed via
        :func:`~repro.store.components.recommender_fingerprint` when omitted.
    resilience:
        Optional :class:`~repro.serve.resilience.ResiliencePolicy` enabling
        per-request deadline budgets, bounded retries and the circuit
        breaker.  Without it the service behaves exactly as before: a
        scoring failure propagates to the caller (unless a ``fallback``
        chain is attached, which still catches it).
    fallback:
        Optional :class:`~repro.serve.resilience.FallbackChain`.  When
        primary scoring fails, exceeds its deadline or is short-circuited by
        the breaker, the request re-scores through the chain and the
        response carries ``degraded=True`` and the fallback's fingerprint.
    fault_injector:
        Optional :class:`~repro.serve.faults.FaultInjector` for seeded chaos
        runs; consulted per request via the ``request_index`` argument of
        :meth:`recommend`.
    """

    def __init__(
        self,
        recommender,
        candidates_fn: Optional[CandidatesFn] = None,
        config: Optional[ServiceConfig] = None,
        model_fingerprint: Optional[str] = None,
        resilience: Optional[ResiliencePolicy] = None,
        fallback: Optional[FallbackChain] = None,
        fault_injector=None,
    ):
        self.config = config or ServiceConfig()
        self.candidates_fn = candidates_fn
        self.cache = ResultCache(capacity=self.config.cache_capacity)
        self.prefix_cache = PrefixCache(capacity=self.config.prefix_capacity)
        self.sessions = SessionStore(max_events=self.config.max_session_events)
        self.requests_served = 0
        #: requests that joined an identical in-flight computation instead of
        #: scoring again (concurrent duplicates the cache could not yet serve)
        self.coalesced_requests = 0
        self._inflight: Dict[Tuple[str, str, str], "asyncio.Task"] = {}
        self.resilience = resilience
        self.fallback = fallback
        self.fault_injector = fault_injector
        self.resilience_stats = ResilienceStats()
        self.breaker: Optional[CircuitBreaker] = None
        if resilience is not None:
            self.breaker = CircuitBreaker(
                resilience.breaker_threshold, resilience.breaker_cooldown_requests
            )
        self.recommender = None
        self.model_fingerprint: Optional[str] = None
        self.batcher: Optional[MicroBatcher] = None
        self.set_recommender(recommender, model_fingerprint=model_fingerprint)

    # ------------------------------------------------------------------ #
    # model management
    # ------------------------------------------------------------------ #
    @classmethod
    def from_store(
        cls,
        store: ArtifactStore,
        kind: str,
        artifact_fingerprint: str,
        dataset=None,
        wait_timeout: Optional[float] = None,
        mmap: bool = False,
        **kwargs,
    ) -> "RecommendationService":
        """Start a service warm: load the recommender from the artifact store.

        ``kind`` / ``artifact_fingerprint`` address the trained component
        (see :func:`~repro.store.components.load_recommender`); DELRec
        bundles additionally need the ``dataset`` they were fitted on.  No
        training can occur on this path — a missing artifact raises.

        ``wait_timeout`` subscribes instead of failing fast: the service
        blocks on :meth:`~repro.store.store.ArtifactStore.wait_for` for up to
        that many seconds, so a serving process can be started while the
        training run (or a sharded experiment worker) is still publishing the
        bundle, and comes up the moment the artifact lands.

        ``mmap=True`` restores the bundle zero-copy off a read-only file
        mapping of the payload (replica processes serving one fingerprint
        share weight pages; see
        :func:`~repro.store.components.load_recommender`).  Ignored on the
        ``wait_timeout`` path — a bundle that just landed is hot in memory
        anyway.
        """
        if wait_timeout is not None:
            from repro.store.components import restore_servable

            arrays, metadata = store.wait_for(kind, artifact_fingerprint,
                                              timeout=wait_timeout)
            recommender = restore_servable(kind, arrays, metadata, dataset=dataset)
        else:
            recommender = load_recommender(store, kind, artifact_fingerprint,
                                           dataset=dataset, mmap=mmap)
        return cls(recommender, **kwargs)

    def set_recommender(self, recommender, model_fingerprint: Optional[str] = None) -> str:
        """Swap the serving model; returns its (new) content fingerprint.

        The result cache is keyed by the model fingerprint, so entries cached
        for the previous model stop being addressable the moment the swap
        happens — structural invalidation, no explicit flush needed (stale
        entries age out through the LRU order).  The prompt prefix cache has
        no per-entry fingerprint, so it is cleared outright on a fingerprint
        change (:meth:`~repro.serve.prefix.PrefixCache.ensure`) and attached
        to any recommender that renders prompts (DELRec exposes a
        ``prefix_cache`` slot).
        """
        if getattr(recommender, "score_candidates_batch", None) is None:
            raise TypeError(
                f"{type(recommender).__name__} does not expose score_candidates_batch; "
                "it cannot be served"
            )
        self.recommender = recommender
        self.model_fingerprint = model_fingerprint or recommender_fingerprint(recommender)
        self.prefix_cache.ensure(self.model_fingerprint)
        if hasattr(recommender, "prefix_cache"):
            recommender.prefix_cache = self.prefix_cache
        self.batcher = MicroBatcher(
            recommender.score_candidates_batch,
            max_batch_size=self.config.max_batch_size,
            max_wait_ms=self.config.max_wait_ms,
            isolate_failures=self.config.isolate_failures,
        )
        if self.breaker is not None:
            # the failing primary is gone; give the new model a closed breaker
            self.breaker.record_success()
        return self.model_fingerprint

    # ------------------------------------------------------------------ #
    # session events
    # ------------------------------------------------------------------ #
    def record_event(self, user_id: int, item_id: int) -> List[int]:
        """Append one interaction event to the user's session history."""
        return self.sessions.append(user_id, item_id)

    def record_events(self, user_id: int, item_ids: Sequence[int]) -> List[int]:
        """Append several interaction events in order."""
        return self.sessions.extend(user_id, item_ids)

    # ------------------------------------------------------------------ #
    # serving
    # ------------------------------------------------------------------ #
    async def recommend(
        self,
        user_id: int,
        history: Optional[Sequence[int]] = None,
        k: Optional[int] = None,
        candidates: Optional[Sequence[int]] = None,
        request_index: Optional[int] = None,
    ) -> RecommendResponse:
        """Serve one recommendation request (awaitable; batches across callers).

        ``history=None`` reads the user's session history; an explicit
        history is first synced into the session store (appending only the
        new suffix for repeat users).  ``candidates=None`` asks the service's
        ``candidates_fn``.  The returned scores are bitwise-identical to
        ``recommender.score_candidates(history, candidates)`` — unless the
        primary cannot answer (failure after retries, deadline, open
        breaker) and a fallback chain is attached, in which case the
        response is the fallback's exact scores, flagged ``degraded=True``
        with the fallback's fingerprint.  ``request_index`` is the request's
        stable workload index, used only to look up planned faults on the
        service's :class:`~repro.serve.faults.FaultInjector` (scheduling
        order never decides who gets a fault).
        """
        if k is None:
            k = self.config.default_k
        if k <= 0:
            raise ValueError("k must be positive")
        if history is None:
            resolved_history = self.sessions.history(user_id)
        else:
            resolved_history, _ = self.sessions.sync(user_id, history)
        if candidates is None:
            if self.candidates_fn is None:
                raise ValueError(
                    "request carries no candidates and the service has no candidates_fn"
                )
            candidates = self.candidates_fn(int(user_id), resolved_history)
        candidates = [int(item) for item in candidates]

        fault = None
        if self.fault_injector is not None:
            fault = self.fault_injector.activate(request_index)
        budget: Optional[DeadlineBudget] = None
        if self.resilience is not None:
            budget = DeadlineBudget(self.resilience.deadline_ms)
            if fault is not None and fault.added_ms:
                budget.charge(fault.added_ms)

        key = self.cache.key_for(self.model_fingerprint, resolved_history, candidates)
        scores = self.cache.get(key)
        cached = scores is not None
        degraded_reason: Optional[str] = None
        served_by = self.model_fingerprint
        if not cached:
            if budget is not None and budget.exceeded:
                self.resilience_stats.deadline_exceeded += 1
                degraded_reason = "deadline"
            elif self.breaker is not None and not self.breaker.allows_primary():
                self.resilience_stats.breaker_short_circuits += 1
                degraded_reason = "breaker"
            if degraded_reason is None:
                try:
                    scores = await self._primary_scores(key, resolved_history,
                                                        candidates, fault, budget)
                except asyncio.CancelledError:
                    raise
                except DeadlineExceeded:
                    self.resilience_stats.deadline_exceeded += 1
                    degraded_reason = "deadline"
                except Exception as error:
                    degraded_reason = "error"
                    if self.fallback is None:
                        self.resilience_stats.dropped += 1
                        raise error
            if degraded_reason is not None:
                scores, served_by = self._fallback_scores(resolved_history, candidates)
        self.requests_served += 1
        return ranked_response(int(user_id), candidates, scores, k, cached=cached,
                               served_by=served_by, degraded_reason=degraded_reason)

    async def _primary_scores(
        self,
        key: Tuple[str, str, str],
        history: Sequence[int],
        candidates: Sequence[int],
        fault,
        budget: Optional[DeadlineBudget],
    ) -> np.ndarray:
        """Primary scoring with coalescing: join or create the in-flight task.

        The shared task runs the retrying pipeline (:meth:`_score_resilient`)
        once per distinct cache key; coalesced duplicates await the same
        task, so a failure surfaces to every waiter and each falls back
        independently.  Only a successful task is ever published to the
        cache (:meth:`_finish_inflight`).
        """
        task = self._inflight.get(key)
        if task is not None and task.cancelled():
            # orphaned by an event loop that died before the done
            # callback could run; score afresh instead of inheriting
            # the cancellation
            self._inflight.pop(key, None)
            task = None
        if task is not None:
            self.coalesced_requests += 1
            _park_current_request()
        else:
            task = asyncio.ensure_future(
                self._score_resilient(history, candidates, fault, budget)
            )
            self._inflight[key] = task
            task.add_done_callback(lambda done, key=key: self._finish_inflight(key, done))
        return np.asarray(await asyncio.shield(task))

    async def _score_resilient(
        self,
        history: Sequence[int],
        candidates: Sequence[int],
        fault,
        budget: Optional[DeadlineBudget],
    ) -> np.ndarray:
        """One primary-scoring pipeline: attempt + bounded deterministic retries.

        Retries charge the policy's geometric backoff against the request's
        logical deadline budget, so a budget too small for another attempt
        surfaces as :class:`~repro.serve.resilience.DeadlineExceeded` rather
        than an unbounded retry loop.  Breaker bookkeeping happens here —
        once per pipeline, not once per coalesced waiter.
        """
        policy = self.resilience
        attempts = 1 + (policy.max_retries if policy is not None else 0)
        last_error: Optional[BaseException] = None
        for attempt in range(attempts):
            if attempt:
                self.resilience_stats.retries += 1
                if budget is not None and policy is not None:
                    budget.charge(policy.backoff_for_attempt(attempt - 1))
                    budget.ensure()
            try:
                if fault is not None:
                    fault.before_attempt()
                # parks before submit queues synchronously; the flush this
                # may schedule runs only after the queueing
                _park_current_request()
                scores = await self.batcher.submit(
                    history, candidates,
                    fault=fault if fault is not None and fault.batch_level else None,
                )
            except asyncio.CancelledError:
                raise
            except DeadlineExceeded:
                raise
            except Exception as error:
                self.resilience_stats.scoring_failures += 1
                last_error = error
                continue
            if self.breaker is not None:
                self.breaker.record_success()
            return np.asarray(scores)
        if self.breaker is not None:
            self.breaker.record_failure()
        assert last_error is not None
        raise last_error

    def _fallback_scores(
        self, history: Sequence[int], candidates: Sequence[int]
    ) -> Tuple[np.ndarray, str]:
        """Serve degraded through the fallback chain; returns (scores, fingerprint)."""
        if self.fallback is None:
            self.resilience_stats.dropped += 1
            raise RuntimeError(
                "request degraded but the service has no fallback chain"
            )
        try:
            scores, link = self.fallback.score(history, candidates)
        except Exception:
            self.resilience_stats.dropped += 1
            self.resilience_stats.fallback_failures += len(self.fallback.links)
            raise
        self.resilience_stats.degraded += 1
        self.resilience_stats.fallback_served[link.name] = (
            self.resilience_stats.fallback_served.get(link.name, 0) + 1
        )
        return scores, link.fingerprint

    def _finish_inflight(self, key: Tuple[str, str, str], task: "asyncio.Task") -> None:
        """Publish a finished in-flight computation to the cache (or drop it).

        A failed or cancelled task must never reach the cache: its exception
        already surfaced to every coalesced waiter through the shared await,
        and publishing it would turn one transient failure into a permanently
        wrong cache entry.
        """
        self._inflight.pop(key, None)
        if not task.cancelled() and task.exception() is None:
            self.cache.put(key, task.result())

    def recommend_sync(
        self,
        user_id: int,
        history: Optional[Sequence[int]] = None,
        k: Optional[int] = None,
        candidates: Optional[Sequence[int]] = None,
    ) -> RecommendResponse:
        """Blocking convenience wrapper around :meth:`recommend` (one request)."""
        return asyncio.run(self.recommend(user_id, history=history, k=k, candidates=candidates))

    def recommend_many(
        self,
        requests: Sequence[Tuple],
        k: Optional[int] = None,
        return_exceptions: bool = False,
    ) -> List[RecommendResponse]:
        """Blocking wrapper: :meth:`recommend_many_async` on a private event loop.

        Each call runs its own loop through ``asyncio.run``, so threads may
        call it concurrently on different services.
        """
        return asyncio.run(self.recommend_many_async(requests, k=k,
                                                     return_exceptions=return_exceptions))

    async def recommend_many_async(
        self,
        requests: Sequence[Tuple],
        k: Optional[int] = None,
        return_exceptions: bool = False,
    ) -> List[RecommendResponse]:
        """Serve many requests concurrently through the micro-batcher.

        ``requests`` is a sequence of ``(user_id, history)`` or
        ``(user_id, history, candidates)`` tuples; responses come back in
        request order.  All requests join the running event loop, so they are
        batched together up to ``max_batch_size`` per flush.

        The call is *closed*: it expects no other producer on its loop, so
        once each of its requests has queued on the batcher, joined an
        in-flight duplicate or finished (cache hit, degraded, failed), the
        partial batch is complete and flushes at once rather than after
        ``max_wait_ms``.  That is the point where the deadline timer would
        first have found every producer blocked, so batch composition is
        unchanged; the timer stays armed as the fallback (a retry submitted
        after its request parked still waits for it).

        One failing request never aborts its siblings: every request runs to
        completion and outcomes are collected in request order.  With
        ``return_exceptions=True`` a failed request's exception object takes
        its slot in the returned list; otherwise the first failure (in
        request order) is re-raised — but only after every sibling finished.
        """
        loop = asyncio.get_running_loop()
        unparked = set(range(len(requests)))

        def park(position: int) -> None:
            if position in unparked:
                unparked.remove(position)
                if not unparked:
                    loop.call_soon(self.batcher.flush_now)

        tasks = []
        for position, request in enumerate(requests):
            user_id, history = request[0], request[1]
            candidates = request[2] if len(request) > 2 else None
            # the task (and the in-flight scoring task it may spawn) copies
            # this context, so every park site finds the request's position
            reset = _PARK.set(functools.partial(park, position))
            try:
                task = asyncio.ensure_future(
                    self.recommend(user_id, history=history, k=k, candidates=candidates)
                )
            finally:
                _PARK.reset(reset)
            task.add_done_callback(lambda _done, position=position: park(position))
            tasks.append(task)
        # return_exceptions=True keeps one failure from cancelling the rest
        # mid-flush; siblings all run to completion
        outcomes = list(await asyncio.gather(*tasks, return_exceptions=True))
        if not return_exceptions:
            for outcome in outcomes:
                if isinstance(outcome, BaseException):
                    raise outcome
        return outcomes

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    def stats(self) -> ServiceStats:
        """Snapshot of request, cache, batcher, session and resilience counters."""
        resilience = self.resilience_stats.snapshot()
        if self.breaker is not None:
            # the breaker's own counters are authoritative
            resilience.breaker_opens = self.breaker.opens
            resilience.breaker_short_circuits = self.breaker.short_circuits
        if self.fallback is not None:
            # the chain counts skipped links even on successful degraded serves
            resilience.fallback_failures = sum(self.fallback.link_failures.values())
            resilience.fallback_served = dict(self.fallback.served_by)
        return ServiceStats(
            requests=self.requests_served,
            cache=CacheStats(*self.cache.stats.snapshot()),
            batcher=BatcherStats(
                requests=self.batcher.stats.requests,
                flushes=self.batcher.stats.flushes,
                size_flushes=self.batcher.stats.size_flushes,
                deadline_flushes=self.batcher.stats.deadline_flushes,
                batch_sizes=dict(self.batcher.stats.batch_sizes),
                batch_errors=self.batcher.stats.batch_errors,
                bisections=self.batcher.stats.bisections,
                failed_requests=self.batcher.stats.failed_requests,
            ),
            sessions=len(self.sessions),
            events_appended=self.sessions.events_appended,
            coalesced=self.coalesced_requests,
            prefix=PrefixStats(*self.prefix_cache.stats.snapshot()),
            resilience=resilience,
        )

    def health(self) -> Dict[str, object]:
        """A readiness snapshot: can this service answer, and how degraded is it?

        ``status`` is ``"ok"`` (breaker closed or absent), ``"degraded"``
        (breaker open or half-open — requests are being served by the
        fallback chain) or ``"down"`` (breaker open and no fallback chain).
        The snapshot also reports the serving model's fingerprint, breaker
        internals, the fallback chain's per-link state, and queue/cache
        occupancy — everything an operator (or the chaos gate) needs to
        decide whether the service is safe to keep in rotation.
        """
        breaker_state = self.breaker.state if self.breaker is not None else "closed"
        if breaker_state == "closed":
            status = "ok"
        elif self.fallback is not None:
            status = "degraded"
        else:
            status = "down"
        health: Dict[str, object] = {
            "status": status,
            "model_fingerprint": self.model_fingerprint,
            "breaker": {
                "state": breaker_state,
                "consecutive_failures": (
                    self.breaker.consecutive_failures if self.breaker else 0
                ),
                "opens": self.breaker.opens if self.breaker else 0,
                "short_circuits": self.breaker.short_circuits if self.breaker else 0,
            },
            "fallback": self.fallback.describe() if self.fallback else [],
            "pending_requests": self.batcher.pending,
            "inflight_keys": len(self._inflight),
            "cached_results": len(self.cache),
            "requests_served": self.requests_served,
            "degraded_served": self.resilience_stats.degraded,
            "dropped": self.resilience_stats.dropped,
        }
        return health


def ranked_response(
    user_id: int,
    candidates: Sequence[int],
    scores: np.ndarray,
    k: int,
    *,
    cached: bool,
    served_by: Optional[str],
    degraded_reason: Optional[str] = None,
) -> RecommendResponse:
    """Rank candidates by score exactly like the offline evaluator does.

    The one ranking of the serving stack — descending score, stable ties, the
    ``RankingEvaluator`` / ``top_k`` order — shared by the service and the
    replicated tier's shared-cache hits, so a hit ranks like a scored miss.
    """
    order = np.argsort(-np.asarray(scores, dtype=np.float64), kind="stable")
    top = order[:k]
    return RecommendResponse(
        user_id=user_id,
        items=[candidates[i] for i in top],
        item_scores=[float(scores[i]) for i in top],
        candidates=list(candidates),
        scores=np.asarray(scores),
        cached=cached,
        degraded=degraded_reason is not None,
        served_by=served_by,
        degraded_reason=degraded_reason,
    )
