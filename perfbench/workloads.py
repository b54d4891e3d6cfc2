"""Workload definitions: the frozen budget, the offered rates and request builders.

Everything a run feeds the code under test is built here, as a pure function
of the workload seed and the benchmark's own constants.  The code under test
never sees the seed; it only receives the generated requests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.experiments.runner import ExperimentProfile
from repro.serve import ServedRequest

DATASET = "movielens-100k"

#: The benchmark-owned training budget behind every DELRec bundle it trains
#: or serves.  Spelled out field by field so a change to the library's own
#: profiles never changes what the benchmark measures.
PROFILE = ExperimentProfile(
    name="perfbench",
    dataset_scale=1.0,
    max_test_examples=150,
    num_candidates=15,
    eval_batch_size=32,
    conventional_embedding_dim=32,
    conventional_epochs=2,
    pretrain_epochs=1,
    soft_prompt_size=4,
    top_h=3,
    stage1_epochs=1,
    stage2_epochs=1,
    max_stage1_examples=40,
    max_stage2_examples=40,
    seed=0,
)

#: Fixed absolute offered rates (requests per second).  They are constants of
#: the benchmark, never re-derived from a capacity probe, so the offered load
#: cannot move with the code under test.
FRESH_RATE_RPS = 200.0
ROUTED_RATE_RPS = 200.0

#: Share of serve-fresh steps that advance a growing session.
GROW_FRACTION = 0.2
#: Share of serve-routed requests that repeat an earlier request.
REPEAT_FRACTION = 0.5
#: Replicas in the serve-routed tier.
REPLICAS = 2
#: Requests in the warm-up pass that ends every service or tier start.
WARMUP_REQUESTS = 32
#: Warm-up requests carry candidate sets drawn for these shifted user ids, so
#: their cache keys can never equal a workload request's key.
WARMUP_USER_OFFSET = 1_000_000
#: Length of the list every response ranks.
TOP_K = 10


@dataclass(frozen=True)
class Request:
    """One generated request; ``target`` is the known next item, if any."""

    index: int
    user_id: int
    history: Tuple[int, ...]
    candidates: Tuple[int, ...]
    target: Optional[int] = None

    @property
    def key(self) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """What the serving caches key on besides the model: history and candidates."""
        return (self.history, self.candidates)

    def served(self) -> ServedRequest:
        """The library's request record (what ``replay_workload`` consumes)."""
        return ServedRequest(self.index, self.user_id, self.history, self.candidates)


def example_pool(split) -> list:
    """Every next-item example of the split: train, then validation, then test."""
    return list(split.train) + list(split.validation) + list(split.test)


def _example_request(index: int, example, sampler) -> Request:
    return Request(
        index,
        int(example.user_id),
        tuple(int(item) for item in example.history),
        tuple(int(item) for item in sampler.candidates_for(example)),
        int(example.target),
    )


def fresh_requests(examples: Sequence, sampler, seed,
                   limit: Optional[int] = None) -> List[Request]:
    """serve-fresh: every example once, in seeded order, no cache key twice.

    With probability :data:`GROW_FRACTION` a step advances a growing session
    instead: a user's history replayed one event per request, each step with
    a fresh request-style candidate set, so its prompt prefix extends the
    previous step's.  A session consumes its seed example.  Any request whose
    (history, candidates) key was already issued is skipped, so the result
    cache only ever takes writes.  Stops after ``limit`` requests, if given.
    """
    rng = np.random.default_rng(seed)
    order = [int(position) for position in rng.permutation(len(examples))]
    requests: List[Request] = []
    seen = set()
    session: Optional[list] = None

    def issue(request: Request) -> None:
        if request.key not in seen:
            seen.add(request.key)
            requests.append(request)

    while (order or session is not None) and len(requests) != limit:
        # once the examples run out, only the open session finishes
        if order and rng.random() >= GROW_FRACTION:
            issue(_example_request(len(requests), examples[order.pop(0)], sampler))
            continue
        if session is None:
            example = examples[order.pop(0)]
            session = [int(example.user_id), tuple(int(i) for i in example.history), 1]
        user_id, full_history, length = session
        history = full_history[:length]
        candidates = sampler.candidates_for_request(user_id, list(history))
        issue(Request(len(requests), user_id, history, tuple(int(c) for c in candidates)))
        session[2] += 1
        if session[2] > len(full_history):
            session = None
    return requests


def routed_requests(examples: Sequence, sampler, seed,
                    limit: Optional[int] = None) -> List[Request]:
    """serve-routed: about :data:`REPEAT_FRACTION` repeats of earlier requests.

    Fresh requests take every example once in seeded order (duplicate keys
    skipped); a repeat re-issues a uniformly drawn earlier request.  Stops
    after ``limit`` requests, if given.
    """
    rng = np.random.default_rng(seed)
    order = [int(position) for position in rng.permutation(len(examples))]
    requests: List[Request] = []
    seen = set()
    while order and len(requests) != limit:
        if requests and rng.random() < REPEAT_FRACTION:
            earlier = requests[int(rng.integers(len(requests)))]
            requests.append(Request(len(requests), earlier.user_id, earlier.history,
                                    earlier.candidates, earlier.target))
            continue
        request = _example_request(len(requests), examples[order.pop(0)], sampler)
        if request.key not in seen:
            seen.add(request.key)
            requests.append(request)
    return requests


def warmup_requests(examples: Sequence, sampler) -> List[Request]:
    """Requests for the warm-up pass, disjoint in key from every workload request.

    Histories are reversed example histories and candidate sets are drawn for
    shifted user ids, so no warm-up request shares a cache key with the
    workload.
    """
    requests = []
    for index, example in enumerate(examples[:WARMUP_REQUESTS]):
        history = tuple(int(item) for item in reversed(example.history))
        user_id = int(example.user_id) + WARMUP_USER_OFFSET
        candidates = sampler.candidates_for_request(user_id, list(history))
        requests.append(Request(index, user_id, history, tuple(int(c) for c in candidates)))
    return requests


def pass_seed(seed: int, stream: int, index: int) -> Tuple[int, int, int]:
    """Seed of one pass's requests (stream 0), arrivals (1) or capacity requests (2)."""
    return (int(seed), int(stream), int(index))
