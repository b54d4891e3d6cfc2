"""Online serving layer: micro-batching, caching, sessions, bit-exactness.

The serving contract extends PR 1's: whatever path a request takes through
the service — micro-batched with any batch composition, coalesced with an
identical in-flight request, or answered from the LRU result cache — its
scores and top-k list are bitwise-identical to the offline per-example
``score_candidates`` loop, and therefore to the ``RankingEvaluator``.
"""

import asyncio

import numpy as np
import pytest

from repro.core.prompts import PromptBuilder
from repro.core.recommend import DELRecRecommender
from repro.data.candidates import CandidateSampler
from repro.eval import RankingEvaluator, measure_serving
from repro.llm.registry import build_simlm
from repro.llm.soft_prompt import SoftPrompt
from repro.llm.verbalizer import Verbalizer
from repro.models import SASRec, TrainingConfig, train_recommender
from repro.serve import (
    MicroBatcher,
    RecommendationService,
    ResultCache,
    ServiceConfig,
    SessionStore,
    build_workload,
    candidates_digest,
    history_digest,
    replay_workload,
    run_load,
)
from repro.store.components import DELREC_KIND, recommender_fingerprint
from repro.store.store import ArtifactStore


# --------------------------------------------------------------------------- #
# fixtures
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def sasrec(tiny_dataset, tiny_split):
    model = SASRec(num_items=tiny_dataset.num_items, embedding_dim=16, seed=0)
    train_recommender(model, tiny_split.train, TrainingConfig.for_model("SASRec", epochs=2))
    return model


@pytest.fixture(scope="module")
def sampler(tiny_dataset):
    return CandidateSampler(tiny_dataset, num_candidates=8, seed=0)


@pytest.fixture(scope="module")
def delrec(tiny_dataset):
    """An (untrained) DELRec stack — scoring is deterministic without training."""
    llm = build_simlm(tiny_dataset, size="simlm-bert", seed=0)
    builder = PromptBuilder(llm.tokenizer, tiny_dataset.catalog, soft_prompt_size=4)
    return DELRecRecommender(
        model=llm,
        prompt_builder=builder,
        verbalizer=Verbalizer(llm.tokenizer, tiny_dataset.catalog),
        soft_prompt=SoftPrompt(4, llm.dim, rng=np.random.default_rng(0)),
        auxiliary="soft",
    )


def _submit_concurrently(batcher, requests):
    """Drive ``batcher.submit`` for every request on one event loop."""

    async def run():
        tasks = [
            asyncio.ensure_future(batcher.submit(history, candidates))
            for history, candidates in requests
        ]
        return await asyncio.gather(*tasks)

    return asyncio.run(run())


# --------------------------------------------------------------------------- #
# micro-batch flush triggers
# --------------------------------------------------------------------------- #
class TestMicroBatcher:
    def test_flush_on_size(self, sasrec, sampler, tiny_split):
        examples = tiny_split.test[:8]
        requests = [
            (list(example.history), sampler.candidates_for(example)) for example in examples
        ]
        batcher = MicroBatcher(sasrec.score_candidates_batch, max_batch_size=4,
                               max_wait_ms=10_000.0)
        scores = _submit_concurrently(batcher, requests)
        # two full batches of 4; the huge deadline proves size triggered them
        assert batcher.stats.flushes == 2
        assert batcher.stats.size_flushes == 2
        assert batcher.stats.deadline_flushes == 0
        assert batcher.stats.histogram() == {4: 2}
        for (history, candidates), served in zip(requests, scores, strict=True):
            np.testing.assert_array_equal(served, sasrec.score_candidates(history, candidates))

    def test_flush_on_deadline(self, sasrec, sampler, tiny_split):
        examples = tiny_split.test[:3]
        requests = [
            (list(example.history), sampler.candidates_for(example)) for example in examples
        ]
        # batch size far above the request count: only the deadline can flush
        batcher = MicroBatcher(sasrec.score_candidates_batch, max_batch_size=64, max_wait_ms=5.0)
        scores = _submit_concurrently(batcher, requests)
        assert batcher.stats.flushes == 1
        assert batcher.stats.deadline_flushes == 1
        assert batcher.stats.histogram() == {3: 1}
        assert len(scores) == 3

    def test_survives_an_aborted_event_loop(self, sasrec, sampler, tiny_split):
        """A request queued on a loop that died must not poison the batcher.

        Regression test: a sibling request failing validation tears down
        ``asyncio.run``'s loop with a request still queued and the deadline
        timer armed but never fired; the next request on a fresh loop must
        drop that stale state instead of waiting forever for the dead timer.
        """
        service = RecommendationService(  # no candidates_fn on purpose
            sasrec, config=ServiceConfig(max_batch_size=16, max_wait_ms=10_000.0)
        )
        example = tiny_split.test[0]
        candidates = sampler.candidates_for(example)
        with pytest.raises(ValueError, match="no candidates_fn"):
            # first request queues and waits; second aborts the whole loop
            service.recommend_many([
                (example.user_id, list(example.history), candidates),
                (example.user_id + 1, [1, 2], None),
            ])
        response = service.recommend_sync(example.user_id, list(example.history),
                                          candidates=candidates)
        np.testing.assert_array_equal(
            response.scores, sasrec.score_candidates(list(example.history), candidates)
        )

    def test_scoring_error_propagates_to_every_waiter(self):
        def broken(histories, candidate_sets):
            raise RuntimeError("model exploded")

        batcher = MicroBatcher(broken, max_batch_size=2, max_wait_ms=10_000.0)
        with pytest.raises(RuntimeError, match="model exploded"):
            _submit_concurrently(batcher, [([1], [1, 2]), ([2], [1, 2])])


# --------------------------------------------------------------------------- #
# closed calls flush a complete partial batch at once
# --------------------------------------------------------------------------- #
class TestClosedCallFlush:
    """``recommend_many`` never waits out ``max_wait_ms``.

    Every service here has a 10 s deadline: a call that waited for it would
    show as a hang and as a ``deadline_flushes`` count, never as a timing.
    """

    HUGE_WAIT_MS = 10_000.0

    def _service(self, sasrec):
        return RecommendationService(sasrec, config=ServiceConfig(
            max_batch_size=16, max_wait_ms=self.HUGE_WAIT_MS,
        ))

    @staticmethod
    def _requests(sampler, examples):
        return [(example.user_id, list(example.history), sampler.candidates_for(example))
                for example in examples]

    def test_partial_batch_flushes_without_the_deadline(self, sasrec, sampler, tiny_split):
        requests = self._requests(sampler, tiny_split.test[:3])
        service = self._service(sasrec)
        responses = service.recommend_many(requests)
        stats = service.stats().batcher
        assert stats.deadline_flushes == 0
        assert stats.histogram() == {3: 1}
        for (_, history, candidates), response in zip(requests, responses, strict=True):
            np.testing.assert_array_equal(response.scores,
                                          sasrec.score_candidates(history, candidates))

    def test_batch_composition_is_unchanged(self, sasrec, sampler, tiny_split):
        requests = self._requests(sampler, tiny_split.test[:40])
        keys = {(history_digest(history), candidates_digest(candidates))
                for _, history, candidates in requests}
        assert len(keys) == 40  # no cache hits, no coalescing
        service = self._service(sasrec)
        service.recommend_many(requests)
        stats = service.stats().batcher
        assert stats.histogram() == {16: 2, 8: 1}
        assert stats.deadline_flushes == 0

    def test_cache_hits_duplicates_and_a_failure_still_complete(self, sasrec, sampler,
                                                                 tiny_split):
        hit, fresh, duplicated = self._requests(sampler, tiny_split.test[:3])
        service = self._service(sasrec)  # no candidates_fn: a None set fails
        service.recommend_many([hit])
        outcomes = service.recommend_many(
            [hit, duplicated, fresh, duplicated, (hit[0] + 1, [1, 2], None)],
            return_exceptions=True,
        )
        assert outcomes[0].cached
        assert isinstance(outcomes[4], ValueError)
        for (_, history, candidates), response in zip(
            [hit, duplicated, fresh, duplicated], outcomes[:4], strict=True
        ):
            np.testing.assert_array_equal(response.scores,
                                          sasrec.score_candidates(history, candidates))
        stats = service.stats()
        assert stats.coalesced == 1
        assert stats.batcher.deadline_flushes == 0
        assert stats.batcher.histogram() == {1: 1, 2: 1}

    def test_open_loop_callers_keep_the_deadline(self, sasrec, sampler, tiny_split):
        requests = self._requests(sampler, tiny_split.test[:3])
        service = RecommendationService(
            sasrec, config=ServiceConfig(max_batch_size=16, max_wait_ms=5.0)
        )

        async def open_loop():
            await asyncio.gather(*(
                service.recommend(user_id, history, candidates=candidates)
                for user_id, history, candidates in requests
            ))

        asyncio.run(open_loop())
        stats = service.stats().batcher
        assert stats.deadline_flushes == 1
        assert stats.histogram() == {3: 1}


# --------------------------------------------------------------------------- #
# LRU result cache
# --------------------------------------------------------------------------- #
class TestResultCache:
    def test_lru_eviction_order(self):
        cache = ResultCache(capacity=2)
        key_a = ("model", history_digest([1]), candidates_digest([1, 2]))
        key_b = ("model", history_digest([2]), candidates_digest([1, 2]))
        key_c = ("model", history_digest([3]), candidates_digest([1, 2]))
        cache.put(key_a, np.array([1.0]))
        cache.put(key_b, np.array([2.0]))
        assert cache.get(key_a) is not None  # refresh A: B becomes LRU
        cache.put(key_c, np.array([3.0]))    # evicts B
        assert cache.stats.evictions == 1
        assert cache.get(key_b) is None
        assert cache.get(key_a) is not None
        assert cache.get(key_c) is not None
        assert len(cache) == 2

    def test_cached_entries_are_copy_isolated(self):
        cache = ResultCache(capacity=4)
        key = ("m", history_digest([1]), candidates_digest([5, 6]))
        original = np.array([1.0, 2.0])
        cache.put(key, original)
        original[0] = 99.0
        fetched = cache.get(key)
        np.testing.assert_array_equal(fetched, [1.0, 2.0])
        fetched[1] = -1.0
        np.testing.assert_array_equal(cache.get(key), [1.0, 2.0])

    def test_invalidation_on_model_fingerprint_change(self, tiny_dataset, tiny_split, sampler):
        """Swapping the served model structurally invalidates every cached score."""
        model_a = SASRec(num_items=tiny_dataset.num_items, embedding_dim=16, seed=0)
        train_recommender(model_a, tiny_split.train, TrainingConfig.for_model("SASRec", epochs=1))
        model_b = SASRec(num_items=tiny_dataset.num_items, embedding_dim=16, seed=7)
        train_recommender(model_b, tiny_split.train, TrainingConfig.for_model("SASRec", epochs=1))

        service = RecommendationService(model_a)
        example = tiny_split.test[0]
        candidates = sampler.candidates_for(example)
        first = service.recommend_sync(example.user_id, list(example.history),
                                       candidates=candidates)
        repeat = service.recommend_sync(example.user_id, list(example.history),
                                        candidates=candidates)
        assert not first.cached and repeat.cached
        np.testing.assert_array_equal(first.scores, repeat.scores)

        fingerprint_a = service.model_fingerprint
        fingerprint_b = service.set_recommender(model_b)
        assert fingerprint_a != fingerprint_b
        swapped = service.recommend_sync(example.user_id, list(example.history),
                                         candidates=candidates)
        # the old entry is unreachable under the new fingerprint: a fresh miss,
        # scored by the new model
        assert not swapped.cached
        np.testing.assert_array_equal(
            swapped.scores, model_b.score_candidates(list(example.history), candidates)
        )
        # swapping back re-addresses the original entry without rescoring
        service.set_recommender(model_a)
        back = service.recommend_sync(example.user_id, list(example.history),
                                      candidates=candidates)
        assert back.cached
        np.testing.assert_array_equal(back.scores, first.scores)

    def test_recommender_fingerprint_tracks_trained_state(self, tiny_dataset, tiny_split):
        model = SASRec(num_items=tiny_dataset.num_items, embedding_dim=16, seed=0)
        train_recommender(model, tiny_split.train, TrainingConfig.for_model("SASRec", epochs=1))
        before = recommender_fingerprint(model)
        assert before == recommender_fingerprint(model)
        train_recommender(model, tiny_split.train, TrainingConfig.for_model("SASRec", epochs=1))
        assert recommender_fingerprint(model) != before


# --------------------------------------------------------------------------- #
# incremental history / session store
# --------------------------------------------------------------------------- #
class TestSessionStore:
    def test_append_and_history(self):
        sessions = SessionStore()
        sessions.append(1, 10)
        sessions.append(1, 11)
        sessions.append(2, 20)
        assert sessions.history(1) == [10, 11]
        assert sessions.history(2) == [20]
        assert sessions.history(3) == []
        assert len(sessions) == 2
        assert sessions.events_appended == 3

    def test_sync_appends_only_the_new_suffix(self):
        sessions = SessionStore()
        sessions.sync(1, [10, 11, 12])
        assert sessions.events_appended == 3
        history, appended = sessions.sync(1, [10, 11, 12, 13, 14])
        assert history == [10, 11, 12, 13, 14]
        assert appended == 2
        assert sessions.events_appended == 5
        # identical resend appends nothing
        _, appended = sessions.sync(1, [10, 11, 12, 13, 14])
        assert appended == 0

    def test_sync_replaces_on_prefix_mismatch(self):
        sessions = SessionStore()
        sessions.sync(1, [10, 11, 12])
        history, appended = sessions.sync(1, [10, 99, 12, 13])
        assert history == [10, 99, 12, 13]
        assert appended == 4

    def test_stale_client_resend_does_not_lose_server_side_events(self):
        """A snapshot the session already continues past leaves it untouched."""
        sessions = SessionStore()
        sessions.sync(1, [10, 11, 12])
        sessions.append(1, 42)  # server-side event the client has not seen
        history, appended = sessions.sync(1, [10, 11, 12])
        # the request sees exactly what the client sent...
        assert history == [10, 11, 12]
        assert appended == 0
        # ...but the session keeps the newer event
        assert sessions.history(1) == [10, 11, 12, 42]

    def test_sync_after_trimming_appends_only_the_continuation(self):
        """A trimmed session recognises a full resend and appends the delta."""
        sessions = SessionStore(max_events=3)
        sessions.sync(1, [1, 2, 3, 4, 5])       # stored (trimmed): [3, 4, 5]
        assert sessions.history(1) == [3, 4, 5]
        appended_before = sessions.events_appended
        history, appended = sessions.sync(1, [1, 2, 3, 4, 5, 6, 7])
        assert history == [1, 2, 3, 4, 5, 6, 7]
        assert appended == 2                    # only the genuinely new events
        assert sessions.events_appended == appended_before + 2
        assert sessions.history(1) == [5, 6, 7]

    def test_prompt_prefix_key_is_path_independent(self):
        """Append, extend and sync all land on the same prompt-prefix key."""
        from repro.serve.prefix import prefix_history, prefix_key

        events = [4, 9, 2, 7, 5]
        appended, extended, synced = SessionStore(), SessionStore(), SessionStore()
        for item in events:
            appended.append(1, item)
        extended.extend(1, events[:2])
        extended.extend(1, events[2:])
        synced.sync(1, events[:3])
        synced.sync(1, events)  # resend: suffix-aware, appends only the tail
        keys = {store.prompt_prefix_key(1, max_history=9)
                for store in (appended, extended, synced)}
        assert keys == {prefix_key(prefix_history(events, 9))}
        # growing the history changes the key; truncation keeps it content-only
        appended.append(1, 8)
        grown_key = appended.prompt_prefix_key(1, max_history=9)
        assert grown_key != keys.pop()
        assert grown_key == prefix_key(tuple(events) + (8,))
        # past max_history the key hashes only the rendered window
        window = SessionStore()
        window.extend(2, list(range(1, 13)))
        assert window.prompt_prefix_key(2, max_history=9) == prefix_key(tuple(range(4, 13)))

    def test_max_events_trims_oldest(self):
        sessions = SessionStore(max_events=3)
        sessions.extend(1, [1, 2, 3, 4, 5])
        assert sessions.history(1) == [3, 4, 5]

    def test_service_serves_from_incrementally_updated_session(self, sasrec, sampler,
                                                               tiny_split):
        service = RecommendationService(sasrec,
                                        candidates_fn=sampler.candidates_for_request)
        example = tiny_split.test[0]
        history = [item for item in example.history if item]
        service.record_events(77, history)

        # request without a history: served from the session store
        response = service.recommend_sync(77, k=5)
        expected_candidates = sampler.candidates_for_request(77, history)
        assert response.candidates == expected_candidates
        np.testing.assert_array_equal(
            response.scores, sasrec.score_candidates(history, expected_candidates)
        )

        # one new event changes the served history (and the candidate draw)
        service.record_event(77, response.items[0])
        follow_up = service.recommend_sync(77, k=5)
        grown = history + [response.items[0]]
        np.testing.assert_array_equal(
            follow_up.scores,
            sasrec.score_candidates(grown, sampler.candidates_for_request(77, grown)),
        )
        assert service.sessions.history(77) == grown


# --------------------------------------------------------------------------- #
# bit-exactness of the served path
# --------------------------------------------------------------------------- #
class TestServedBitExactness:
    def _assert_served_equals_offline(self, recommender, sampler, examples,
                                      max_batch_size=4, concurrency=8):
        workload = build_workload(examples, sampler, num_requests=3 * len(examples), seed=3)
        service = RecommendationService(
            recommender, config=ServiceConfig(max_batch_size=max_batch_size, max_wait_ms=1.0)
        )
        result = run_load(service, workload, concurrency=concurrency, k=5)
        offline = replay_workload(recommender, workload)
        for request, served, reference in zip(workload, result.scores(), offline, strict=True):
            np.testing.assert_array_equal(served, reference)
            order = np.argsort(-reference, kind="stable")
            expected_top = [request.candidates[i] for i in order[:5]]
            assert result.responses[request.index].items == expected_top
        assert result.cache_hits > 0  # the workload's repeats were served by the cache

    def test_sasrec_served_scores_match_offline_loop(self, sasrec, sampler, tiny_split):
        self._assert_served_equals_offline(sasrec, sampler, tiny_split.test[:10])

    def test_delrec_served_scores_match_offline_loop(self, delrec, sampler, tiny_split):
        self._assert_served_equals_offline(delrec, sampler, tiny_split.test[:6],
                                           max_batch_size=3, concurrency=5)

    def test_served_ranking_matches_ranking_evaluator(self, sasrec, tiny_dataset, tiny_split):
        """The service and the offline evaluator rank candidates identically."""
        examples = tiny_split.test[:12]
        evaluator = RankingEvaluator(tiny_dataset, examples, num_candidates=8, seed=0,
                                     batch_size=4)
        service = RecommendationService(sasrec)
        ranked_by_service = {}
        for example in examples:
            candidates = evaluator.sampler.candidates_for(example)
            response = service.recommend_sync(
                example.user_id, list(example.history), k=len(candidates),
                candidates=candidates,
            )
            ranked_by_service[id(example)] = response.items

        def scorer(example, candidates):
            # score through the served path: must reproduce the evaluator's
            # metrics because the full served ranking is identical
            items = ranked_by_service[id(example)]
            scores = np.zeros(len(candidates))
            for rank, item in enumerate(items):
                scores[list(candidates).index(item)] = len(items) - rank
            return scores

        via_service = evaluator.evaluate_scorer("served", scorer)
        direct = evaluator.evaluate_recommender(sasrec, method_name="offline")
        assert via_service.metrics == direct.metrics

    def test_measure_serving_reports_zero_diff(self, sasrec, sampler, tiny_split):
        workload = build_workload(tiny_split.test[:8], sampler, num_requests=20, seed=0)
        service = RecommendationService(sasrec,
                                        config=ServiceConfig(max_batch_size=4, max_wait_ms=1.0))
        report = measure_serving(service, workload, concurrency=6, mode="batched",
                                 phase="cold",
                                 reference_scores=replay_workload(sasrec, workload))
        assert report.max_score_diff == 0.0
        assert report.requests == 20
        assert report.mean_batch_size >= 1.0
        row = report.as_row()
        assert row["mode"] == "batched" and row["phase"] == "cold"
        assert row["max_score_diff"] == 0.0


# --------------------------------------------------------------------------- #
# load-generator determinism
# --------------------------------------------------------------------------- #
class TestLoadGeneratorDeterminism:
    def test_workload_is_deterministic_under_a_fixed_seed(self, sampler, tiny_split):
        first = build_workload(tiny_split.test[:10], sampler, num_requests=40, seed=11)
        second = build_workload(tiny_split.test[:10], sampler, num_requests=40, seed=11)
        assert first == second
        different = build_workload(tiny_split.test[:10], sampler, num_requests=40, seed=12)
        assert first != different

    def test_load_run_is_deterministic_under_a_fixed_seed(self, sasrec, sampler, tiny_split):
        """Two identical runs: same scores, same cache behaviour, same batches."""
        workload = build_workload(tiny_split.test[:10], sampler, num_requests=40, seed=5)

        def run_once():
            # concurrency > max_batch_size makes the size trigger dominant and
            # the generous deadline keeps a scheduler stall on a loaded test
            # machine from splitting a mid-round batch: flush composition is
            # then purely a function of request arrival order
            service = RecommendationService(
                sasrec, config=ServiceConfig(max_batch_size=4, max_wait_ms=200.0)
            )
            return run_load(service, workload, concurrency=8, k=5)

        first, second = run_once(), run_once()
        for a, b in zip(first.scores(), second.scores(), strict=True):
            np.testing.assert_array_equal(a, b)
        assert first.top_k_lists() == second.top_k_lists()
        assert (first.cache_hits, first.cache_misses) == (second.cache_hits,
                                                          second.cache_misses)
        assert first.coalesced == second.coalesced
        assert first.batch_histogram() == second.batch_histogram()


# --------------------------------------------------------------------------- #
# warm loading from the artifact store
# --------------------------------------------------------------------------- #
class TestServiceFromStore:
    def test_backbone_service_from_store(self, tmp_path, tiny_dataset, tiny_split, sampler,
                                         sasrec):
        from repro.store.components import (
            BACKBONE_KIND,
            backbone_fingerprint,
            serialize_backbone,
        )
        from repro.store.fingerprint import dataset_fingerprint, examples_fingerprint

        store = ArtifactStore(str(tmp_path / "store"))
        fp = backbone_fingerprint(
            dataset_fingerprint(tiny_dataset), examples_fingerprint(tiny_split.train),
            sasrec, {"recipe": "test"},
        )
        store.save(BACKBONE_KIND, fp, *serialize_backbone(sasrec))

        service = RecommendationService.from_store(
            store, BACKBONE_KIND, fp, candidates_fn=sampler.candidates_for_request
        )
        example = tiny_split.test[0]
        candidates = sampler.candidates_for(example)
        response = service.recommend_sync(example.user_id, list(example.history),
                                          candidates=candidates)
        np.testing.assert_array_equal(
            response.scores, sasrec.score_candidates(list(example.history), candidates)
        )

    def test_delrec_service_from_store(self, tmp_path, tiny_dataset, tiny_split, sampler,
                                       delrec):
        store = ArtifactStore(str(tmp_path / "store"))
        store.save(DELREC_KIND, "delrec-test-fp", *delrec.serialize())
        service = RecommendationService.from_store(
            store, DELREC_KIND, "delrec-test-fp", dataset=tiny_dataset
        )
        example = tiny_split.test[0]
        candidates = sampler.candidates_for(example)
        history = [item for item in example.history if item]
        response = service.recommend_sync(example.user_id, history, candidates=candidates)
        np.testing.assert_array_equal(
            response.scores, delrec.score_candidates(history, candidates)
        )
        # the warm-loaded model shares the trained model's scoring fingerprint
        assert service.model_fingerprint == delrec.scoring_fingerprint()

    def test_missing_artifact_raises(self, tmp_path):
        from repro.store.store import ArtifactNotFoundError

        store = ArtifactStore(str(tmp_path / "store"))
        with pytest.raises(ArtifactNotFoundError):
            RecommendationService.from_store(store, DELREC_KIND, "no-such-fp", dataset=None)

    def test_wait_timeout_subscribes_to_late_publish(self, tmp_path, tiny_dataset,
                                                     tiny_split, sampler, delrec):
        """A service started before the bundle exists comes up via wait_for
        the moment the trainer publishes it."""
        import threading

        store = ArtifactStore(str(tmp_path / "store"))
        publish = threading.Timer(
            0.2, lambda: store.save(DELREC_KIND, "late-fp", *delrec.serialize())
        )
        publish.start()
        try:
            service = RecommendationService.from_store(
                store, DELREC_KIND, "late-fp", dataset=tiny_dataset, wait_timeout=30.0
            )
        finally:
            publish.join()
        assert service.model_fingerprint == delrec.scoring_fingerprint()

    def test_wait_timeout_expires(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "store"))
        with pytest.raises(TimeoutError):
            RecommendationService.from_store(
                store, DELREC_KIND, "never-published", dataset=None, wait_timeout=0.2
            )


# --------------------------------------------------------------------------- #
# request coalescing
# --------------------------------------------------------------------------- #
class TestCoalescing:
    def test_concurrent_identical_requests_share_one_computation(self, sasrec, sampler,
                                                                 tiny_split):
        example = tiny_split.test[0]
        candidates = sampler.candidates_for(example)
        service = RecommendationService(
            sasrec, config=ServiceConfig(max_batch_size=16, max_wait_ms=1.0)
        )
        responses = service.recommend_many(
            [(example.user_id, list(example.history), candidates)] * 6
        )
        stats = service.stats()
        # one scored computation, five coalesced joins, zero cache hits needed
        assert stats.batcher.requests == 1
        assert stats.coalesced == 5
        for response in responses:
            np.testing.assert_array_equal(responses[0].scores, response.scores)


# --------------------------------------------------------------------------- #
# prompt prefix cache in the serving path
# --------------------------------------------------------------------------- #
class TestPrefixCacheServing:
    def _grow_workload(self, sampler, tiny_split, num_requests=40, seed=13):
        return build_workload(tiny_split.test[:8], sampler, num_requests=num_requests,
                              seed=seed, repeat_fraction=0.2, grow_fraction=0.3)

    def test_growing_workload_served_bitwise_with_partial_hits(self, delrec, sampler,
                                                               tiny_split):
        workload = self._grow_workload(sampler, tiny_split)
        delrec.prefix_cache = None  # the reference replay renders monolithically
        offline = replay_workload(delrec, workload)
        service = RecommendationService(
            delrec, config=ServiceConfig(max_batch_size=4, max_wait_ms=1.0)
        )
        try:
            result = run_load(service, workload, concurrency=6)
            for served, reference in zip(result.scores(), offline, strict=True):
                np.testing.assert_array_equal(served, reference)
            # the growing sessions hit the prefix cache partially by design
            assert result.prefix_lookups > 0
            assert service.prefix_cache.stats.partial_hits > 0
            assert 0.0 < result.prefix_hit_rate <= 1.0
            assert 0.0 < result.prefix_recompute_fraction < 1.0
            assert service.prefix_cache.nbytes() > 0  # embedding blocks attached
            row = service.stats().as_row()
            assert row["prefix_hit_rate"] == round(service.prefix_cache.stats.hit_rate, 4)
            assert "prefix_recompute_frac" in row
        finally:
            delrec.prefix_cache = None

    def test_prefix_stats_are_deterministic_across_runs(self, delrec, sampler, tiny_split):
        workload = self._grow_workload(sampler, tiny_split)

        def run_once():
            service = RecommendationService(
                delrec, config=ServiceConfig(max_batch_size=4, max_wait_ms=200.0)
            )
            result = run_load(service, workload, concurrency=6)
            return (result.prefix_lookups, result.prefix_hits,
                    service.prefix_cache.stats.snapshot(), result.scores())

        try:
            first, second = run_once(), run_once()
        finally:
            delrec.prefix_cache = None
        assert first[:3] == second[:3]
        for a, b in zip(first[3], second[3], strict=True):
            np.testing.assert_array_equal(a, b)

    def test_model_swap_clears_prefix_cache(self, delrec, sasrec, sampler, tiny_split):
        workload = self._grow_workload(sampler, tiny_split, num_requests=20)
        service = RecommendationService(
            delrec, config=ServiceConfig(max_batch_size=4, max_wait_ms=1.0)
        )
        try:
            run_load(service, workload, concurrency=4)
            assert len(service.prefix_cache) > 0
            lookups_before = service.prefix_cache.stats.lookups
            service.set_recommender(sasrec)
            # entries and embedding blocks are gone; the counters survive
            assert len(service.prefix_cache) == 0
            assert service.prefix_cache.nbytes() == 0
            assert service.prefix_cache.stats.lookups == lookups_before
            assert service.prefix_cache.fingerprint == service.model_fingerprint
        finally:
            delrec.prefix_cache = None

    def test_prompt_free_models_never_touch_the_prefix_cache(self, sasrec, sampler,
                                                             tiny_split):
        workload = self._grow_workload(sampler, tiny_split, num_requests=20)
        service = RecommendationService(
            sasrec, config=ServiceConfig(max_batch_size=4, max_wait_ms=1.0)
        )
        result = run_load(service, workload, concurrency=4)
        assert result.prefix_lookups == 0
        assert result.prefix_hit_rate == 0.0
        assert result.prefix_recompute_fraction == 0.0

    def test_workload_fraction_validation(self, sampler, tiny_split):
        with pytest.raises(ValueError, match="below 1"):
            build_workload(tiny_split.test[:4], sampler, num_requests=10,
                           repeat_fraction=0.6, grow_fraction=0.5)
        with pytest.raises(ValueError, match="grow_fraction|below 1"):
            build_workload(tiny_split.test[:4], sampler, num_requests=10,
                           grow_fraction=-0.1)
