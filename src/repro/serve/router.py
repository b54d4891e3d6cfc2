"""Front-end router of the replicated serving tier.

:class:`ReplicatedService` puts a deterministic sticky-session router in
front of N :class:`~repro.serve.replica.Replica` processes plus one shared
result-cache tier:

* **Sticky sessions** — :func:`sticky_replica` maps a user id to a replica
  with a content hash (SHA-256, *never* Python's per-process-randomised
  ``hash``), so the same user always lands on the same replica.  Per-replica
  result and prefix caches therefore stay hot for "their" users, and the
  request stream each replica sees — hence its cache state and micro-batch
  composition — is a pure function of the workload, not of scheduling.
* **Deterministic failover** — a dead replica's sessions ring-walk to the
  next *alive* replica (``(home + 1) % N``, skipping the dead), so failover
  is a function of which replicas are down, never of timing.  Each routed
  request's final placement is folded into :attr:`ReplicatedService.route_digest`,
  which the serving benchmark compares across runs.
* **Shared result cache** — a router-level
  :class:`~repro.serve.cache.ResultCache` keyed by the tier's model
  fingerprint answers repeats that already scored on *any* replica without
  crossing a process boundary.  Only exact (non-degraded) scores are
  published, so a shared-cache hit is always bitwise-identical to scoring.

Scores stay bitwise-identical to the single-process service because each
replica *is* a single-process service over the same fingerprinted bundle,
and the router never transforms scores — it only moves them.
"""

from __future__ import annotations

import hashlib
import threading
from typing import Dict, List, Optional, Sequence, Tuple

from repro.serve.cache import ResultCache
from repro.serve.replica import (
    Replica,
    ReplicaConfig,
    ReplicaResources,
    ReplicaUnavailable,
    ScoreRequest,
    start_replicas,
)
from repro.serve.service import RecommendResponse, ranked_response


def sticky_replica(user_id: int, num_replicas: int) -> int:
    """Deterministic home replica of a user: ``sha256(user_id) % N``.

    A content hash makes the assignment stable across processes and runs
    (Python's builtin ``hash`` of an ``int`` would also be stable, but the
    idiom must survive str/bytes ids too, where ``hash`` is salted per
    process — so the content hash is used unconditionally).
    """
    if num_replicas <= 0:
        raise ValueError("num_replicas must be positive")
    digest = hashlib.sha256(str(int(user_id)).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % num_replicas


class ReplicatedService:
    """Sticky-session router over N replica processes with a shared cache tier.

    The router owns its replicas (close it, and they stop).  It is safe to
    call from multiple threads: the shared cache and the route digest take
    internal locks, and each replica's pipe protocol is serialised by the
    replica handle itself.  Batched routing (:meth:`route_many`) scores the
    per-replica groups concurrently — that is where the tier's multicore
    speedup comes from.
    """

    def __init__(self, replicas: Sequence[Replica], cache_capacity: int = 4096,
                 default_k: int = 10):
        if not replicas:
            raise ValueError("a replicated service needs at least one replica")
        fingerprints = {replica.model_fingerprint for replica in replicas}
        if len(fingerprints) != 1:
            raise ValueError(
                "replicas disagree on the model fingerprint — they are not "
                f"serving the same bundle: {sorted(fingerprints)}"
            )
        self.replicas = list(replicas)
        #: the tier's model identity (every replica restored this bundle)
        self.model_fingerprint: str = self.replicas[0].model_fingerprint
        self.default_k = default_k
        self.shared_cache = ResultCache(capacity=cache_capacity)
        self._cache_lock = threading.Lock()
        self._digest = hashlib.sha256()
        self._digest_lock = threading.Lock()
        #: requests answered by each replica (index -> count)
        self.routed: Dict[int, int] = {index: 0 for index in range(len(self.replicas))}
        #: requests answered straight from the shared cache
        self.shared_cache_hits = 0
        #: requests served by a replica other than their sticky home
        #: (failover — the home was dead at routing time or died mid-batch)
        self.reroutes = 0
        #: total requests the router has placed (cache hits included)
        self.requests_routed = 0

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def start(cls, store_root: str, config: ReplicaConfig, num_replicas: int,
              dataset=None, cache_capacity: int = 4096,
              default_k: int = 10) -> "ReplicatedService":
        """Start ``num_replicas`` replicas of one bundle and route over them."""
        replicas = start_replicas(store_root, config, num_replicas, dataset=dataset)
        try:
            return cls(replicas, cache_capacity=cache_capacity, default_k=default_k)
        except BaseException:
            for replica in replicas:
                replica.close()
            raise

    # ------------------------------------------------------------------ #
    # routing
    # ------------------------------------------------------------------ #
    def route_for(self, user_id: int) -> int:
        """The replica that will serve this user *right now* (failover applied)."""
        home = sticky_replica(user_id, len(self.replicas))
        for step in range(len(self.replicas)):
            index = (home + step) % len(self.replicas)
            if self.replicas[index].alive:
                return index
        raise ReplicaUnavailable("no alive replicas in the tier")

    @property
    def route_digest(self) -> str:
        """Order-sensitive digest of every (request, replica) placement so far.

        Two runs that fed the router the same request sequence and saw the
        same failures produce the same digest — the serving benchmark's
        routing-determinism gate.  Shared-cache hits are folded in as
        replica ``-1``.
        """
        with self._digest_lock:
            return self._digest.copy().hexdigest()

    def _record_placements(self, placements: Sequence[int]) -> None:
        with self._digest_lock:
            for offset, replica_index in enumerate(placements):
                token = f"{self.requests_routed + offset}:{replica_index};"
                self._digest.update(token.encode("ascii"))
            self.requests_routed += len(placements)

    # ------------------------------------------------------------------ #
    # serving
    # ------------------------------------------------------------------ #
    def recommend(self, user_id: int, history: Sequence[int],
                  candidates: Sequence[int],
                  k: Optional[int] = None) -> RecommendResponse:
        """Serve one request through the tier (blocking)."""
        return self.route_many([(int(user_id), tuple(history), tuple(candidates))],
                               k=k)[0]

    def route_many(self, requests: Sequence[ScoreRequest],
                   k: Optional[int] = None) -> List[RecommendResponse]:
        """Serve a batch: shared cache first, then per-replica groups in parallel.

        Requests are grouped by their (failover-adjusted) sticky replica with
        request order preserved inside each group, all groups are scored
        concurrently (one thread per replica — each replica handle serialises
        its own pipe), and responses come back in request order.  A replica
        that dies mid-batch loses only its own group, which re-routes
        deterministically to the next alive replica and is resent.
        """
        if k is None:
            k = self.default_k
        total = len(requests)
        responses: List[Optional[RecommendResponse]] = [None] * total
        placements: List[int] = [-1] * total
        pending: List[int] = []
        for position, request in enumerate(requests):
            user_id, history, candidates = request
            key = self.shared_cache.key_for(self.model_fingerprint, history, candidates)
            with self._cache_lock:
                scores = self.shared_cache.get(key)
            if scores is not None:
                self.shared_cache_hits += 1
                responses[position] = ranked_response(
                    int(user_id), list(candidates), scores, k,
                    cached=True, served_by=self.model_fingerprint,
                )
            else:
                pending.append(position)

        while pending:
            groups: Dict[int, List[int]] = {}
            for position in pending:
                target = self.route_for(int(requests[position][0]))
                groups.setdefault(target, []).append(position)
            outcomes = self._score_groups(groups, requests, k)
            next_pending: List[int] = []
            for target in sorted(groups):
                positions = groups[target]
                batch_responses = outcomes[target]
                if batch_responses is None:  # replica died mid-batch
                    next_pending.extend(positions)
                    continue
                for position, response in zip(positions, batch_responses):
                    responses[position] = response
                    placements[position] = target
                    self.routed[target] += 1
                    home = sticky_replica(int(requests[position][0]), len(self.replicas))
                    if target != home:
                        self.reroutes += 1
                    if not response.degraded:
                        user_id, history, candidates = requests[position]
                        key = self.shared_cache.key_for(
                            self.model_fingerprint, history, candidates
                        )
                        with self._cache_lock:
                            self.shared_cache.put(key, response.scores)
            pending = sorted(next_pending)

        self._record_placements(placements)
        return responses  # type: ignore[return-value]

    def _score_groups(
        self,
        groups: Dict[int, List[int]],
        requests: Sequence[ScoreRequest],
        k: int,
    ) -> Dict[int, Optional[List[RecommendResponse]]]:
        """Score every group on its replica, concurrently when there are several.

        A group whose replica raises :class:`ReplicaUnavailable` comes back
        as ``None`` (the caller re-routes it); any other replica error is a
        real bug and propagates.
        """
        outcomes: Dict[int, Optional[List[RecommendResponse]]] = {}
        errors: Dict[int, BaseException] = {}

        def score_one(target: int, positions: List[int]) -> None:
            batch = [requests[position] for position in positions]
            try:
                outcomes[target] = self.replicas[target].score_batch(batch, k=k)
            except ReplicaUnavailable:
                outcomes[target] = None
            except BaseException as error:  # pragma: no cover - defensive
                errors[target] = error

        if len(groups) == 1:
            ((target, positions),) = groups.items()
            score_one(target, positions)
        else:
            threads = [
                threading.Thread(target=score_one, args=(target, positions),
                                 name=f"repro-route-{target}")
                for target, positions in sorted(groups.items())
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        if errors:
            raise errors[min(errors)]
        return outcomes

    # ------------------------------------------------------------------ #
    # introspection / lifecycle
    # ------------------------------------------------------------------ #
    def health(self) -> Dict[str, object]:
        """Tier-level readiness: per-replica liveness plus router counters."""
        alive = [replica.alive for replica in self.replicas]
        return {
            "status": "ok" if all(alive) else ("degraded" if any(alive) else "down"),
            "replicas": len(self.replicas),
            "alive": sum(alive),
            "per_replica_alive": alive,
            "model_fingerprint": self.model_fingerprint,
            "requests_routed": self.requests_routed,
            "routed": dict(self.routed),
            "shared_cache_hits": self.shared_cache_hits,
            "reroutes": self.reroutes,
            "shared_cached_results": len(self.shared_cache),
        }

    def resources(self) -> List[ReplicaResources]:
        """CPU-time / peak-RSS samples of every alive replica, by replica id."""
        samples = []
        for replica in self.replicas:
            if replica.alive:
                samples.append(replica.resources())
        return samples

    def stats(self) -> Dict[int, object]:
        """Per-replica :class:`~repro.serve.service.ServiceStats`, by replica id."""
        return {replica.replica_id: replica.stats()
                for replica in self.replicas if replica.alive}

    def close(self) -> None:
        """Stop every replica process."""
        for replica in self.replicas:
            replica.close()

    def __enter__(self) -> "ReplicatedService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

