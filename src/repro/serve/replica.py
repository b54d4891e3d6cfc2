"""Replica worker processes for the replicated serving tier.

A :class:`Replica` is one OS process running a full
:class:`~repro.serve.service.RecommendationService` around a recommender it
restored **itself** from the artifact store — the parent never pickles a
model.  Every replica of a tier addresses the same ``kind``/``fingerprint``
bundle and restores it with ``mmap=True``
(:func:`~repro.store.components.load_recommender`), so the N replicas of a
tier alias one read-only file mapping of the payload: the OS page cache
backs all of them with a single set of physical weight pages instead of N
private copies.

The parent talks to each replica over a private :func:`multiprocessing.Pipe`
with a strict request/response protocol (one message in, one message out,
serialised per replica by a lock), which keeps per-replica request order —
and therefore per-replica cache state and micro-batch composition — a pure
function of what the router sent, never of scheduling.  Scoring stays
bitwise-identical to the single-process service because each replica *is* a
single-process service.

Replicas answer, besides scoring:

* ``stats`` / ``health`` — the wrapped service's own counters and readiness
  snapshot;
* ``resources`` — a :class:`ReplicaResources` sample (CPU seconds and peak
  RSS from ``resource.getrusage``), the per-replica columns of the serving
  table's resource accounting.

A replica that dies mid-call surfaces as :class:`ReplicaUnavailable`; the
router re-routes the dead replica's sessions deterministically (see
:mod:`repro.serve.router`).
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import sys
import threading
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.serve.service import RecommendationService, RecommendResponse, ServiceConfig

try:  # POSIX only; resource sampling degrades to zeros elsewhere
    import resource
except ImportError:  # pragma: no cover - exercised only on non-POSIX hosts
    resource = None

#: One scoring work item: ``(user_id, history, candidates)``.
ScoreRequest = Tuple[int, Tuple[int, ...], Tuple[int, ...]]


class ReplicaUnavailable(RuntimeError):
    """The replica process is dead or its pipe is broken; re-route the request."""


@dataclass
class ReplicaConfig:
    """What a replica process needs to come up serving.

    ``kind``/``fingerprint`` address the bundle in the artifact store (the
    replica restores it itself); ``mmap`` selects the zero-copy restore
    (weight pages shared across replicas); ``service`` configures the
    in-replica :class:`~repro.serve.service.ServiceConfig` (micro-batching,
    per-replica result/prefix cache capacities).
    """

    kind: str
    fingerprint: str
    mmap: bool = True
    service: ServiceConfig = field(default_factory=ServiceConfig)


@dataclass
class ReplicaResources:
    """One resource sample of a replica process (``getrusage(RUSAGE_SELF)``).

    ``cpu_seconds`` is the process's cumulative user+system CPU time;
    ``peak_rss_mb`` its resident-set high-water mark.  Both cover the whole
    replica lifetime (restore + serving), so callers that want the cost of
    one load window difference two ``cpu_seconds`` samples; the RSS
    high-water mark cannot be differenced and is reported absolute.
    """

    replica_id: int
    cpu_seconds: float
    peak_rss_mb: float
    requests_served: int

    @staticmethod
    def sample(replica_id: int, requests_served: int) -> "ReplicaResources":
        """Sample the *current* process (called inside the replica)."""
        if resource is None:  # pragma: no cover - non-POSIX fallback
            return ReplicaResources(replica_id, 0.0, 0.0, requests_served)
        usage = resource.getrusage(resource.RUSAGE_SELF)
        # ru_maxrss is kilobytes on Linux, bytes on macOS
        scale = 1024.0 if sys.platform == "darwin" else 1.0
        return ReplicaResources(
            replica_id=replica_id,
            cpu_seconds=float(usage.ru_utime + usage.ru_stime),
            peak_rss_mb=float(usage.ru_maxrss) * scale / 1024.0,
            requests_served=requests_served,
        )


def _replica_main(connection, replica_id: int, store_root: str,
                  config: ReplicaConfig, dataset) -> None:
    """Child-process entry point: restore the bundle, then serve the pipe.

    Runs one request/response loop until the parent sends ``("stop", None)``
    or the pipe closes.  Any exception while handling a message is caught and
    returned as an ``("error", traceback)`` reply, so one bad request never
    kills the replica; only a failed *restore* is fatal (reported once, then
    the process exits — the router sees the replica as dead).

    Every ``score`` op runs on one event loop created at start-up, so a call
    costs no loop construction; each op is a closed
    :meth:`~repro.serve.service.RecommendationService.recommend_many_async`
    call, whose partial batch flushes as soon as it is complete.
    """
    from repro.store.components import load_recommender
    from repro.store.store import ArtifactStore

    os.environ["REPRO_WORKER_ID"] = f"replica-{replica_id}"
    try:
        store = ArtifactStore(store_root)
        recommender = load_recommender(store, config.kind, config.fingerprint,
                                       dataset=dataset, mmap=config.mmap)
        service = RecommendationService(recommender, config=config.service)
    except BaseException as error:
        try:
            connection.send(("fatal", "".join(
                traceback.format_exception(type(error), error, error.__traceback__)
            )))
        finally:
            connection.close()
        return
    connection.send(("ready", service.model_fingerprint))
    loop = asyncio.new_event_loop()
    while True:
        try:
            op, payload = connection.recv()
        except (EOFError, OSError):
            break
        if op == "stop":
            connection.send(("ok", None))
            break
        try:
            if op == "score":
                requests = [(user_id, list(history), list(candidates))
                            for user_id, history, candidates in payload["requests"]]
                responses = loop.run_until_complete(
                    service.recommend_many_async(requests, k=payload.get("k"))
                )
                connection.send(("ok", responses))
            elif op == "stats":
                connection.send(("ok", service.stats()))
            elif op == "health":
                connection.send(("ok", service.health()))
            elif op == "resources":
                connection.send(
                    ("ok", ReplicaResources.sample(replica_id, service.requests_served))
                )
            else:
                connection.send(("error", f"unknown replica op {op!r}"))
        except BaseException as error:
            connection.send(("error", "".join(
                traceback.format_exception(type(error), error, error.__traceback__)
            )))
    loop.close()
    connection.close()


class Replica:
    """Parent-side handle of one replica worker process.

    The handle owns the process and the parent end of its pipe.  Calls are
    strictly request/response and serialised by an internal lock, so
    concurrent callers interleave whole calls, never halves of two.  For the
    pipelined scatter the router uses (send to every replica, then collect),
    the lock is taken around :meth:`submit` and :meth:`collect` separately.

    Requires the ``fork`` start method (the dataset travels by inheritance,
    nothing model-sized is pickled) — the same constraint as the parallel
    experiment engine, and like there, Linux always has it.
    """

    def __init__(self, replica_id: int, store_root: str, config: ReplicaConfig,
                 dataset=None, start_timeout: float = 120.0):
        if not (sys.platform.startswith("linux")
                and "fork" in multiprocessing.get_all_start_methods()):
            raise ReplicaUnavailable(
                "the replicated serving tier needs the fork start method "
                "(replicas inherit the dataset; models are never pickled)"
            )
        context = multiprocessing.get_context("fork")
        self.replica_id = replica_id
        self.config = config
        self._parent_conn, child_conn = context.Pipe()
        self.process = context.Process(
            target=_replica_main,
            args=(child_conn, replica_id, store_root, config, dataset),
            daemon=True,
            name=f"repro-replica-{replica_id}",
        )
        self.process.start()
        child_conn.close()
        self._failed = False
        self._lock = threading.Lock()
        try:
            status, value = self._recv(timeout=start_timeout)
            if status != "ready":
                raise ReplicaUnavailable(
                    f"replica {replica_id} failed to restore "
                    f"{config.kind}/{config.fingerprint[:12]}: {value}"
                )
        except ReplicaUnavailable:
            # never leave a child running that the caller holds no handle to
            self._failed = True
            self.close()
            raise
        #: content fingerprint of the model this replica serves (every replica
        #: of a tier must report the same one — the router asserts it)
        self.model_fingerprint: str = value

    # ------------------------------------------------------------------ #
    # low-level protocol
    # ------------------------------------------------------------------ #
    @property
    def alive(self) -> bool:
        """Whether the replica process is running and usable."""
        return not self._failed and self.process.is_alive()

    def _recv(self, timeout: Optional[float] = None):
        """Receive one reply; a timeout or a dead pipe retires the replica.

        A reply that missed its timeout may still arrive later and would
        answer the *next* request on this pipe, so a late replica is
        terminated rather than kept: the router fails its sessions over.
        """
        try:
            if timeout is not None and not self._parent_conn.poll(timeout):
                self.terminate()
                raise ReplicaUnavailable(
                    f"replica {self.replica_id} did not answer within {timeout}s"
                )
            return self._parent_conn.recv()
        except (EOFError, OSError) as error:
            self._failed = True
            raise ReplicaUnavailable(
                f"replica {self.replica_id} died mid-call ({error!r})"
            ) from error

    def call(self, op: str, payload=None, timeout: Optional[float] = None):
        """One request/response round trip; raises :class:`ReplicaUnavailable`."""
        with self._lock:
            self.submit(op, payload)
            return self.collect(timeout=timeout)

    def submit(self, op: str, payload=None) -> None:
        """Send one request without waiting (pair with :meth:`collect`)."""
        if not self.alive:
            raise ReplicaUnavailable(f"replica {self.replica_id} is not alive")
        try:
            self._parent_conn.send((op, payload))
        except (BrokenPipeError, OSError) as error:
            self._failed = True
            raise ReplicaUnavailable(
                f"replica {self.replica_id} pipe is broken ({error!r})"
            ) from error

    def collect(self, timeout: Optional[float] = None):
        """Receive the reply of the oldest outstanding :meth:`submit`."""
        status, value = self._recv(timeout=timeout)
        if status == "ok":
            return value
        message = f"replica {self.replica_id} returned an error:\n{value}"
        if status == "fatal":
            self._failed = True
            raise ReplicaUnavailable(message)
        raise RuntimeError(message)

    # ------------------------------------------------------------------ #
    # serving surface
    # ------------------------------------------------------------------ #
    def score_batch(self, requests: Sequence[ScoreRequest],
                    k: Optional[int] = None) -> List[RecommendResponse]:
        """Score a batch through the replica's service (micro-batched inside)."""
        return self.call("score", {"requests": list(requests), "k": k})

    def stats(self):
        """The replica service's :class:`~repro.serve.service.ServiceStats`."""
        return self.call("stats")

    def health(self) -> Dict[str, object]:
        """The replica service's readiness snapshot."""
        return self.call("health")

    def resources(self) -> ReplicaResources:
        """Sample the replica process's CPU time and peak RSS."""
        return self.call("resources")

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def terminate(self) -> None:
        """Kill the replica process immediately (the chaos/failover path)."""
        self._failed = True
        if self.process.is_alive():
            # SIGKILL: a SIGTERM stays pending on a stopped (hung) process
            self.process.kill()
        self.process.join(timeout=10.0)

    def close(self) -> None:
        """Stop the replica cleanly (or terminate it if it will not answer)."""
        if self.alive:
            try:
                self.call("stop", timeout=10.0)
            except (ReplicaUnavailable, RuntimeError):
                pass
        self.terminate()
        self._parent_conn.close()

    def __enter__(self) -> "Replica":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def start_replicas(store_root: str, config: ReplicaConfig, count: int,
                   dataset=None) -> List[Replica]:
    """Start ``count`` replicas of one bundle; closes the survivors on failure."""
    if count <= 0:
        raise ValueError("a replica tier needs at least one replica")
    replicas: List[Replica] = []
    try:
        for replica_id in range(count):
            replicas.append(Replica(replica_id, store_root, config, dataset=dataset))
    except BaseException:
        for replica in replicas:
            replica.close()
        raise
    return replicas
