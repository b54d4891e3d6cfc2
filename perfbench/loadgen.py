"""The open-loop load generator: offers requests on a schedule, measures lateness.

One process, one asyncio loop.  An awaitable target (the in-process
``RecommendationService``) is called from the loop directly; a blocking target
(the ``ReplicatedService`` router) is dispatched to a pool of at most
``threads`` threads.  Each request's latency runs from its *scheduled*
arrival, so a stall charges every request queued behind it; each request's
lateness is how far dispatch ran behind the schedule, which shows whether the
latencies measure the program or the generator.
"""

from __future__ import annotations

import asyncio
import contextvars
import resource
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import List, Optional, Sequence

import numpy as np

from perfbench.trace import REQUEST
from perfbench.workloads import TOP_K, Request


@dataclass
class PassResult:
    """One pass: responses, failures and timings, in request order."""

    responses: List[Optional[object]]
    errors: List[Optional[BaseException]]
    #: seconds from scheduled arrival to response; ``inf`` for a failed request
    latencies: np.ndarray
    #: seconds dispatch ran behind the schedule
    lateness: np.ndarray
    wall_s: float
    #: CPU seconds of this process (all threads) during the pass
    cpu_s: float
    #: the rate the realized schedule offered: ``N / arrivals[-1]``
    offered_rps: float

    @property
    def completed(self) -> int:
        return sum(response is not None for response in self.responses)


def process_cpu_s() -> float:
    """User + system CPU seconds of this process so far."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def offer(target, requests: Sequence[Request], arrivals: np.ndarray,
          threads: int) -> PassResult:
    """Offer ``requests[i]`` at ``arrivals[i]`` seconds after the pass starts."""
    if len(requests) != len(arrivals):
        raise ValueError("every request needs exactly one arrival time")
    asynchronous = asyncio.iscoroutinefunction(target.recommend)
    count = len(requests)
    responses: List[Optional[object]] = [None] * count
    errors: List[Optional[BaseException]] = [None] * count
    latencies = np.full(count, np.inf)
    lateness = np.zeros(count)

    async def serve(position: int, request: Request, start: float, executor) -> None:
        try:
            if asynchronous:
                response = await target.recommend(
                    request.user_id, history=list(request.history), k=TOP_K,
                    candidates=list(request.candidates), request_index=request.index,
                )
            else:
                call = partial(target.recommend, request.user_id, list(request.history),
                               list(request.candidates), TOP_K)
                # copy the context so spans recorded in the worker thread carry
                # this request's workload index
                response = await asyncio.get_running_loop().run_in_executor(
                    executor, contextvars.copy_context().run, call
                )
        except Exception as error:  # counted as failed; latency stays inf
            errors[position] = error
            return
        latencies[position] = time.perf_counter() - start - arrivals[position]
        responses[position] = response

    async def drive() -> float:
        executor = None if asynchronous else ThreadPoolExecutor(
            max_workers=threads, thread_name_prefix="perfbench-dispatch")
        tasks = []
        start = time.perf_counter()
        try:
            for position, request in enumerate(requests):
                delay = arrivals[position] - (time.perf_counter() - start)
                if delay > 0:
                    await asyncio.sleep(delay)
                lateness[position] = time.perf_counter() - start - arrivals[position]
                token = REQUEST.set(request.index)
                try:
                    tasks.append(asyncio.ensure_future(
                        serve(position, request, start, executor)))
                finally:
                    REQUEST.reset(token)
            await asyncio.gather(*tasks)
        finally:
            if executor is not None:
                executor.shutdown(wait=True)
        return time.perf_counter() - start

    cpu_before = process_cpu_s()
    wall_s = asyncio.run(drive())
    last = float(arrivals[-1]) if count else 0.0
    return PassResult(
        responses=responses,
        errors=errors,
        latencies=latencies,
        lateness=lateness,
        wall_s=wall_s,
        cpu_s=process_cpu_s() - cpu_before,
        offered_rps=count / last if last > 0 else float("inf"),
    )
