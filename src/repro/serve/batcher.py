"""Async micro-batching scheduler for candidate scoring.

Concurrent ``recommend`` requests are queued and served in micro-batches:
the batcher flushes the queue the moment it holds ``max_batch_size``
requests, or after ``max_wait_ms`` of a request sitting unflushed —
whichever comes first.  Each flush dispatches exactly one
``score_candidates_batch`` call covering every queued request.

The deadline binds only for open-loop callers, where another request may
still arrive.  A closed call —
:meth:`~repro.serve.service.RecommendationService.recommend_many` or one
replica ``score`` op — knows when none of its requests can join the partial
batch any more and flushes it at once through :meth:`MicroBatcher.flush_now`;
the deadline timer stays armed behind it as the fallback.

Because the batched scoring engine is bitwise-identical to the per-example
loop (PR 1's contract, extended through the restricted head in PR 3), the
batch composition — which requests happen to share a flush — can never change
a single score.  Micro-batching is therefore pure throughput: it amortises
the per-forward overhead across concurrent requests without perturbing
results, and the scheduler needs no determinism caveats.

The scheduler is single-event-loop ``asyncio``: scoring runs synchronously
inside the loop (numpy releases no work to other threads anyway), and the
deadline timer can only fire while every producer is blocked — so batch
composition is a function of request arrival order, not wall-clock jitter.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

#: Scoring callback: (histories, candidate_sets) -> one score array per request.
BatchScoreFn = Callable[[Sequence[Sequence[int]], Sequence[Sequence[int]]], Sequence[np.ndarray]]


@dataclass
class BatcherStats:
    """Counters describing how a :class:`MicroBatcher` composed its flushes."""

    requests: int = 0
    flushes: int = 0
    size_flushes: int = 0
    deadline_flushes: int = 0
    #: batch-size histogram: flush size -> number of flushes of that size
    batch_sizes: Dict[int, int] = field(default_factory=dict)
    #: scoring calls that raised (including bisection sub-calls)
    batch_errors: int = 0
    #: times a failed multi-request scoring call was split in half and retried
    bisections: int = 0
    #: requests that received an exception instead of scores (with isolation
    #: on, always narrowed down to the genuinely failing request)
    failed_requests: int = 0

    @property
    def mean_batch_size(self) -> float:
        """Average requests per flush (0.0 before the first flush)."""
        return self.requests / self.flushes if self.flushes else 0.0

    @property
    def max_batch_size(self) -> int:
        """Largest flush observed so far."""
        return max(self.batch_sizes) if self.batch_sizes else 0

    def record_flush(self, size: int, on_deadline: bool) -> None:
        """Account one flush of ``size`` requests."""
        self.requests += size
        self.flushes += 1
        if on_deadline:
            self.deadline_flushes += 1
        else:
            self.size_flushes += 1
        self.batch_sizes[size] = self.batch_sizes.get(size, 0) + 1

    def histogram(self) -> Dict[int, int]:
        """The batch-size histogram in ascending size order."""
        return {size: self.batch_sizes[size] for size in sorted(self.batch_sizes)}


class _Pending:
    """One queued request: its inputs, its caller's future, its planned fault."""

    __slots__ = ("history", "candidates", "future", "fault")

    def __init__(self, history: Sequence[int], candidates: Sequence[int],
                 future: "asyncio.Future[np.ndarray]", fault=None):
        self.history = history
        self.candidates = candidates
        self.future = future
        #: optional :class:`~repro.serve.faults.ActiveFault` fired on scoring
        self.fault = fault


class MicroBatcher:
    """Queue scoring requests and flush them in micro-batches.

    Parameters
    ----------
    score_fn:
        The batched scorer — typically a recommender's
        ``score_candidates_batch`` bound method.  Called once per flush.
    max_batch_size:
        Flush immediately once this many requests are queued.
    max_wait_ms:
        Flush whatever is queued this many milliseconds after the oldest
        unflushed request arrived, so low-traffic requests are never stuck
        waiting for a full batch.
    isolate_failures:
        When a scoring call over several requests raises, bisect the batch
        and re-score each half instead of failing every batchmate: the
        recursion narrows the failure down to the genuinely faulty
        request(s), which alone receive the exception, while everyone else
        still gets exact scores (batch composition can never change a score,
        so the re-scored halves are bitwise-identical to what the full flush
        would have produced).  On by default; ``False`` restores the legacy
        all-fail flush.
    """

    def __init__(self, score_fn: BatchScoreFn, max_batch_size: int = 16,
                 max_wait_ms: float = 2.0, isolate_failures: bool = True):
        if max_batch_size <= 0:
            raise ValueError("max_batch_size must be positive")
        if max_wait_ms < 0:
            raise ValueError("max_wait_ms must be non-negative")
        self.score_fn = score_fn
        self.max_batch_size = max_batch_size
        self.max_wait_ms = max_wait_ms
        self.isolate_failures = isolate_failures
        self.stats = BatcherStats()
        self._pending: List[_Pending] = []
        self._deadline_handle: Optional[asyncio.TimerHandle] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    @property
    def pending(self) -> int:
        """How many requests are queued and not yet flushed."""
        return len(self._pending)

    async def submit(self, history: Sequence[int], candidates: Sequence[int],
                     fault=None) -> np.ndarray:
        """Queue one request and await its scores.

        The request either completes as part of a size-triggered flush (when
        it fills the batch), a later request's size-triggered flush, or the
        deadline flush armed when it joined an empty queue.  ``fault`` is an
        optional batch-level :class:`~repro.serve.faults.ActiveFault` fired
        by scoring calls that cover this request (deterministic chaos
        testing, see :mod:`repro.serve.faults`).
        """
        loop = asyncio.get_running_loop()
        if self._loop is not loop:
            # a previous event loop died with requests still queued (e.g. a
            # sibling request failed validation and asyncio.run tore the loop
            # down, cancelling the waiters and orphaning the armed deadline
            # timer); drop the stale state or no new timer would ever be
            # armed and every future request would hang
            if self._deadline_handle is not None:
                self._deadline_handle.cancel()
                self._deadline_handle = None
            for stale in self._pending:
                if not stale.future.done():
                    stale.future.cancel()
            self._pending = []
            self._loop = loop
        future: "asyncio.Future[np.ndarray]" = loop.create_future()
        self._pending.append(_Pending(history, candidates, future, fault=fault))
        if len(self._pending) >= self.max_batch_size:
            self._flush(on_deadline=False)
        elif self._deadline_handle is None:
            self._deadline_handle = loop.call_later(
                self.max_wait_ms / 1000.0, self._flush, True
            )
        return await future

    def flush_now(self) -> int:
        """Synchronously flush whatever is queued; returns the flush size.

        A closed call flushes its complete partial batch through this (see
        the module docstring); it also drains the queue at shutdown or
        between load phases.  Counted as a size flush, not a deadline flush.
        """
        size = len(self._pending)
        if size:
            self._flush(on_deadline=False)
        return size

    def _flush(self, on_deadline: bool) -> None:
        if self._deadline_handle is not None:
            self._deadline_handle.cancel()
            self._deadline_handle = None
        if not self._pending:
            return
        batch, self._pending = self._pending, []
        self.stats.record_flush(len(batch), on_deadline)
        self._deliver(batch)

    def _score_entries(self, entries: List[_Pending]) -> List[np.ndarray]:
        """One scoring call over ``entries`` (fires their batch-level faults)."""
        for entry in entries:
            if entry.fault is not None:
                entry.fault.on_flush(len(entries))
        scores = list(self.score_fn(
            [entry.history for entry in entries],
            [entry.candidates for entry in entries],
        ))
        if len(scores) != len(entries):
            raise RuntimeError(
                f"batched scorer returned {len(scores)} rows for {len(entries)} requests"
            )
        return scores

    def _deliver(self, entries: List[_Pending]) -> None:
        """Score ``entries``, bisecting on failure so batchmates are rescued.

        A failed multi-request scoring call is split in half and each half
        re-scored independently (recursively), so only the genuinely faulty
        request(s) receive the exception — everyone else gets scores that
        are bitwise-identical to what the original flush would have produced
        (batch invariance, PR 1's contract).  With ``isolate_failures`` off,
        the legacy behaviour applies: the whole batch shares the exception.
        """
        try:
            scores = self._score_entries(entries)
        except BaseException as error:
            self.stats.batch_errors += 1
            if self.isolate_failures and len(entries) > 1:
                mid = len(entries) // 2
                self.stats.bisections += 1
                self._deliver(entries[:mid])
                self._deliver(entries[mid:])
                return
            for entry in entries:
                if not entry.future.done():
                    entry.future.set_exception(error)
                self.stats.failed_requests += 1
            return
        for entry, row in zip(entries, scores, strict=True):
            if not entry.future.done():
                entry.future.set_result(np.asarray(row))
