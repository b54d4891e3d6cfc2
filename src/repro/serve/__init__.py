"""Online serving: request-level recommendation on top of the offline stack.

Everything built so far — the batched scoring engine (PR 1), the
config-fingerprinted artifact store (PR 2) and the restricted LM head (PR 3)
— runs inside offline experiment runners.  This package adds the missing
request-serving path:

* :class:`~repro.serve.service.RecommendationService` — loads any trained
  recommender (DELRec or a conventional/LLM baseline) warm from the artifact
  store and answers per-user ``recommend(user_id, history, k)`` requests;
* :class:`~repro.serve.batcher.MicroBatcher` — an async micro-batching
  scheduler that queues concurrent requests and dispatches one
  ``score_candidates_batch`` call per flush (on ``max_batch_size``, on
  ``max_wait_ms``, or once a closed ``recommend_many`` call's batch is
  complete);
* :class:`~repro.serve.cache.ResultCache` — an LRU score cache keyed by
  (model fingerprint, history hash, candidate-set hash);
* :class:`~repro.serve.prefix.PrefixCache` — a prompt prefix/embedding-block
  cache for the DELRec hot path: repeat users with grown histories re-render
  only the new suffix of their history segment and reuse the cached token
  ids (and input-embedding rows) for everything before it, byte-identically;
* :class:`~repro.serve.sessions.SessionStore` — per-user incremental
  histories, so repeat users append events instead of resending everything;
* :mod:`repro.serve.loadgen` — deterministic load generators: the
  closed-loop replayer plus the open-loop generator (seeded Poisson, bursty
  and diurnal arrivals) that sweeps offered load to locate the saturation
  knee;
* :mod:`repro.serve.resilience` — the failure model (PR 8): per-request
  deadline budgets, bounded deterministic retries, a request-counted circuit
  breaker and the degraded-mode fallback chain;
* :mod:`repro.serve.faults` — seeded, bitwise-reproducible fault injection
  (the chaos harness the resilience layer is gated against in CI);
* :mod:`repro.serve.replica` / :mod:`repro.serve.router` — the replicated
  tier (PR 10): N worker processes that each mmap-restore the *same*
  fingerprinted bundle (sharing weight pages), behind a sticky-session
  router with deterministic failover and a shared result-cache tier.

Because the batched scoring engine is bitwise-identical to the per-example
loop and the caches only ever store what scoring computed, every served score
and top-k list is bitwise-identical to the offline
:class:`~repro.eval.evaluator.RankingEvaluator` path for the same model and
candidate sets.
"""

from repro.serve.batcher import BatcherStats, MicroBatcher
from repro.serve.cache import CacheStats, ResultCache, candidates_digest, history_digest
from repro.serve.faults import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    InjectedScoringError,
    InjectedStoreReadError,
)
from repro.serve.loadgen import (
    ARRIVAL_PROFILES,
    CHAOS_PROFILES,
    FaultProfile,
    LoadResult,
    OpenLoopResult,
    ServedRequest,
    arrival_schedule,
    build_workload,
    find_knee,
    replay_workload,
    run_load,
    run_open_loop,
    sweep_offered_load,
)
from repro.serve.prefix import PrefixCache, PrefixStats, prefix_history, prefix_key
from repro.serve.replica import (
    Replica,
    ReplicaConfig,
    ReplicaResources,
    ReplicaUnavailable,
    start_replicas,
)
from repro.serve.router import ReplicatedService, sticky_replica
from repro.serve.resilience import (
    CircuitBreaker,
    DeadlineBudget,
    DeadlineExceeded,
    FallbackChain,
    FallbackExhausted,
    FallbackLink,
    ResiliencePolicy,
    ResilienceStats,
    ScoringUnavailable,
    TransientScoringError,
)
from repro.serve.service import (
    RecommendationService,
    RecommendResponse,
    ServiceConfig,
    ServiceStats,
)
from repro.serve.sessions import SessionStore

__all__ = [
    "ARRIVAL_PROFILES",
    "BatcherStats",
    "CHAOS_PROFILES",
    "CacheStats",
    "CircuitBreaker",
    "DeadlineBudget",
    "DeadlineExceeded",
    "FallbackChain",
    "FallbackExhausted",
    "FallbackLink",
    "FaultInjector",
    "FaultPlan",
    "FaultProfile",
    "FaultSpec",
    "InjectedScoringError",
    "InjectedStoreReadError",
    "LoadResult",
    "MicroBatcher",
    "OpenLoopResult",
    "PrefixCache",
    "PrefixStats",
    "RecommendResponse",
    "RecommendationService",
    "Replica",
    "ReplicaConfig",
    "ReplicaResources",
    "ReplicaUnavailable",
    "ReplicatedService",
    "ResiliencePolicy",
    "ResilienceStats",
    "ResultCache",
    "ScoringUnavailable",
    "ServedRequest",
    "ServiceConfig",
    "ServiceStats",
    "SessionStore",
    "TransientScoringError",
    "arrival_schedule",
    "build_workload",
    "candidates_digest",
    "find_knee",
    "history_digest",
    "prefix_history",
    "prefix_key",
    "replay_workload",
    "run_load",
    "run_open_loop",
    "start_replicas",
    "sticky_replica",
    "sweep_offered_load",
]
