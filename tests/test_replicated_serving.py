"""Replicated serving tier: mmap restore, sticky routing, open-loop load.

The contracts under test (PR 10):

* the aligned-npz mmap load is bitwise-identical to the eager load, hands
  out read-only *aligned* views, and falls back to an eager copy for
  unaligned (plain ``np.savez``) payloads — alignment is numerically
  load-bearing, see ``repro/store/store.py``;
* sticky-session routing and its failover are pure functions of the user id
  and the set of dead replicas — same requests + same failures ⇒ same
  placements, same route digest, bitwise-identical scores;
* routed scores equal the single-process service's scores bit for bit;
* open-loop arrival schedules are pure functions of (n, rate, profile,
  seed) for every profile, at the requested average rate;
* a replica serves every ``score`` op on one event loop without waiting
  out its batcher deadline, and a replica that misses a reply timeout is
  retired (never left holding a late reply for the next request).
"""

import multiprocessing
import os
import signal
import sys

import numpy as np
import pytest

from repro.data.candidates import CandidateSampler
from repro.models import SASRec, TrainingConfig, train_recommender
from repro.serve import (
    ARRIVAL_PROFILES,
    RecommendationService,
    Replica,
    ReplicaConfig,
    ReplicatedService,
    ReplicaUnavailable,
    ServiceConfig,
    arrival_schedule,
    build_workload,
    find_knee,
    replay_workload,
    run_open_loop,
    sticky_replica,
)
from repro.store.components import (
    BACKBONE_KIND,
    load_recommender,
    recommender_fingerprint,
    serialize_backbone,
)
from repro.store.store import ArtifactStore, mmap_npz_arrays

#: The replica engine needs fork (dataset by inheritance, no model pickling).
fork_available = (sys.platform.startswith("linux")
                  and "fork" in multiprocessing.get_all_start_methods())
needs_fork = pytest.mark.skipif(not fork_available,
                                reason="replica processes require the fork start method")


@pytest.fixture(scope="module")
def sasrec(tiny_dataset, tiny_split):
    model = SASRec(num_items=tiny_dataset.num_items, embedding_dim=16, seed=0)
    train_recommender(model, tiny_split.train, TrainingConfig.for_model("SASRec", epochs=2))
    return model


@pytest.fixture(scope="module")
def sampler(tiny_dataset):
    return CandidateSampler(tiny_dataset, num_candidates=8, seed=0)


@pytest.fixture(scope="module")
def store(tmp_path_factory, sasrec):
    """A store holding the trained backbone under its content fingerprint."""
    artifact_store = ArtifactStore(str(tmp_path_factory.mktemp("replica-store")))
    fingerprint = recommender_fingerprint(sasrec)
    artifact_store.save(BACKBONE_KIND, fingerprint, *serialize_backbone(sasrec))
    artifact_store.backbone_fp = fingerprint
    return artifact_store


@pytest.fixture(scope="module")
def workload(tiny_split, sampler):
    return build_workload(tiny_split.test, sampler, num_requests=24, seed=7)


class TestMmapRestore:
    def test_mmap_load_bitwise_equals_eager(self, store, sasrec):
        eager, _ = store.load(BACKBONE_KIND, store.backbone_fp, mmap=False)
        mapped, _ = store.load(BACKBONE_KIND, store.backbone_fp, mmap=True)
        assert set(eager) == set(mapped)
        for name in eager:
            np.testing.assert_array_equal(eager[name], mapped[name])

    def test_mmap_views_are_read_only_and_aligned(self, store):
        mapped, _ = store.load(BACKBONE_KIND, store.backbone_fp, mmap=True)
        for name, value in mapped.items():
            assert not value.flags.writeable, name
            # alignment is numerically load-bearing: unaligned buffers take
            # different numpy inner loops with a different summation order
            assert value.flags.aligned, name
            assert not value.flags.owndata, name

    def test_mmap_restore_scores_bitwise(self, store, sasrec, workload):
        mapped = load_recommender(store, BACKBONE_KIND, store.backbone_fp, mmap=True)
        eager = load_recommender(store, BACKBONE_KIND, store.backbone_fp, mmap=False)
        for reference, via_mmap, via_eager in zip(
            replay_workload(sasrec, workload),
            replay_workload(mapped, workload),
            replay_workload(eager, workload),
        ):
            np.testing.assert_array_equal(reference, via_mmap)
            np.testing.assert_array_equal(reference, via_eager)

    def test_unaligned_payload_falls_back_to_eager(self, tmp_path):
        # a plain np.savez archive places member data at arbitrary offsets;
        # the mmap reader must refuse it (numerically unsafe) and signal the
        # caller to copy eagerly instead
        path = str(tmp_path / "unaligned.npz")
        np.savez(path, weights=np.arange(64, dtype=np.float64))
        assert mmap_npz_arrays(path) is None


class TestStickyRouting:
    def test_sticky_replica_is_deterministic(self):
        for num_replicas in (1, 2, 3, 5):
            for user_id in range(200):
                home = sticky_replica(user_id, num_replicas)
                assert 0 <= home < num_replicas
                assert home == sticky_replica(user_id, num_replicas)

    def test_sticky_replica_spreads_users(self):
        homes = [sticky_replica(user_id, 3) for user_id in range(300)]
        counts = [homes.count(index) for index in range(3)]
        assert all(count > 0 for count in counts)
        # a content hash should not collapse onto one replica
        assert max(counts) < 300 * 0.6

    def test_sticky_replica_rejects_empty_tier(self):
        with pytest.raises(ValueError):
            sticky_replica(1, 0)


@needs_fork
class TestReplicatedTier:
    @pytest.fixture(scope="class")
    def tier(self, store):
        with ReplicatedService.start(
            store.root, ReplicaConfig(BACKBONE_KIND, store.backbone_fp), num_replicas=2
        ) as service:
            yield service

    def test_replicas_share_the_model_fingerprint(self, tier, store):
        assert tier.model_fingerprint == store.backbone_fp
        assert all(replica.model_fingerprint == store.backbone_fp
                   for replica in tier.replicas)

    def test_routed_scores_bitwise_equal_single_process(self, tier, sasrec, workload):
        requests = [(r.user_id, r.history, r.candidates) for r in workload]
        responses = tier.route_many(requests)
        single = RecommendationService(sasrec)
        for request, response, reference in zip(
            workload, responses, replay_workload(sasrec, workload)
        ):
            np.testing.assert_array_equal(response.scores, reference)
            direct = single.recommend_sync(request.user_id, list(request.history),
                                           candidates=list(request.candidates))
            np.testing.assert_array_equal(response.scores, direct.scores)

    def test_placements_follow_sticky_hash(self, tier, workload):
        requests = [(r.user_id, r.history, r.candidates) for r in workload]
        tier.route_many(requests)
        for user_id, _, _ in requests:
            assert tier.route_for(user_id) == sticky_replica(user_id, 2)

    def test_warm_repeat_hits_the_shared_cache(self, tier, workload):
        requests = [(r.user_id, r.history, r.candidates) for r in workload]
        tier.route_many(requests)
        hits_before = tier.shared_cache_hits
        repeat = tier.route_many(requests)
        assert tier.shared_cache_hits - hits_before == len(requests)
        for response in repeat:
            assert response.cached


@needs_fork
class TestFailover:
    def _drive(self, store, workload, kill_after):
        """One tier lifecycle: route, kill replica 0, route again."""
        requests = [(r.user_id, r.history, r.candidates) for r in workload]
        with ReplicatedService.start(
            store.root, ReplicaConfig(BACKBONE_KIND, store.backbone_fp), num_replicas=2
        ) as tier:
            first = tier.route_many(requests[:kill_after])
            tier.replicas[0].terminate()
            second = tier.route_many(requests[kill_after:])
            return first + second, tier.route_digest, tier.health()

    def test_failover_is_deterministic_and_bitwise(self, store, sasrec, workload):
        references = replay_workload(sasrec, workload)
        responses_a, digest_a, health_a = self._drive(store, workload, kill_after=10)
        responses_b, digest_b, health_b = self._drive(store, workload, kill_after=10)
        # same request sequence + same failure point ⇒ same placements
        assert digest_a == digest_b
        assert health_a["reroutes"] == health_b["reroutes"]
        assert health_a["status"] == "degraded"
        # the dead replica's sticky users re-route, nobody is dropped, and
        # every score — served before or after the kill — stays bitwise-exact
        assert len(responses_a) == len(workload)
        for response_a, response_b, reference in zip(responses_a, responses_b, references):
            np.testing.assert_array_equal(response_a.scores, reference)
            np.testing.assert_array_equal(response_b.scores, reference)

    def test_dead_home_reroutes_to_next_alive(self, store, workload):
        requests = [(r.user_id, r.history, r.candidates) for r in workload]
        with ReplicatedService.start(
            store.root, ReplicaConfig(BACKBONE_KIND, store.backbone_fp), num_replicas=2
        ) as tier:
            tier.replicas[0].terminate()
            tier.route_many(requests)
            homes = {sticky_replica(user_id, 2) for user_id, _, _ in requests}
            assert 0 in homes  # some users were homed on the dead replica
            assert tier.routed[0] == 0
            assert tier.routed[1] == len(requests)
            assert tier.reroutes == sum(
                1 for user_id, _, _ in requests if sticky_replica(user_id, 2) == 0
            )


@needs_fork
class TestReplicaLoop:
    def test_consecutive_score_ops_stay_bitwise_on_one_loop(self, store, workload, sasrec):
        """Several ops on the replica's one loop, one of them failing mid-flush.

        The 10 s batcher deadline would show as a hang and as a
        ``deadline_flushes`` count if any op waited for it.
        """
        config = ReplicaConfig(BACKBONE_KIND, store.backbone_fp,
                               service=ServiceConfig(max_wait_ms=10_000.0))
        requests = [(r.user_id, r.history, r.candidates) for r in workload]
        user_id, history, candidates = requests[0]
        unknown_item = (user_id, history, candidates + (10_000,))
        with Replica(0, store.root, config) as replica:
            served = replica.score_batch(requests[:8])
            with pytest.raises(RuntimeError, match="IndexError"):
                replica.score_batch([requests[8], unknown_item])
            served += replica.score_batch(requests[8:16])
            served += replica.score_batch(requests[16:])
            stats = replica.stats()
        assert len(served) == len(workload)
        for response, reference in zip(served, replay_workload(sasrec, workload),
                                       strict=True):
            np.testing.assert_array_equal(response.scores, reference)
        assert stats.batcher.deadline_flushes == 0
        assert stats.batcher.failed_requests == 1


def _stop_before_ready(connection, *args) -> None:
    """A replica entry point that hangs (SIGSTOPs itself) before answering."""
    os.kill(os.getpid(), signal.SIGSTOP)


@needs_fork
class TestHungReplica:
    def test_timed_out_call_retires_the_replica(self, store, workload, sasrec):
        requests = [(r.user_id, r.history, r.candidates) for r in workload]
        with ReplicatedService.start(
            store.root, ReplicaConfig(BACKBONE_KIND, store.backbone_fp), num_replicas=2
        ) as tier:
            hung = tier.replicas[0]
            os.kill(hung.process.pid, signal.SIGSTOP)
            try:
                with pytest.raises(ReplicaUnavailable, match="did not answer"):
                    hung.call("stats", timeout=0.2)
                # retired and reaped: no late reply can answer a later call
                assert not hung.alive
                assert hung.process.exitcode is not None
                with pytest.raises(ReplicaUnavailable):
                    hung.resources()
            finally:
                if hung.process.exitcode is None:
                    os.kill(hung.process.pid, signal.SIGCONT)
            responses = tier.route_many(requests)
            assert tier.routed[0] == 0
        for response, reference in zip(responses, replay_workload(sasrec, workload),
                                       strict=True):
            np.testing.assert_array_equal(response.scores, reference)

    def test_start_timeout_reaps_the_child(self, store, monkeypatch):
        monkeypatch.setattr("repro.serve.replica._replica_main", _stop_before_ready)
        with pytest.raises(ReplicaUnavailable, match="did not answer"):
            Replica(7, store.root, ReplicaConfig(BACKBONE_KIND, store.backbone_fp),
                    start_timeout=0.2)
        leftover = [child for child in multiprocessing.active_children()
                    if child.name == "repro-replica-7"]
        for child in leftover:  # a stopped child would hang interpreter exit
            child.kill()
            child.join()
        assert not leftover


class TestArrivalSchedules:
    def test_schedules_are_pure_functions_of_the_seed(self):
        for profile in ARRIVAL_PROFILES:
            first = arrival_schedule(200, 50.0, profile=profile, seed=3)
            again = arrival_schedule(200, 50.0, profile=profile, seed=3)
            other = arrival_schedule(200, 50.0, profile=profile, seed=4)
            np.testing.assert_array_equal(first, again)
            assert not np.array_equal(first, other)

    def test_arrivals_increase_at_the_average_rate(self):
        for profile in ARRIVAL_PROFILES:
            arrivals = arrival_schedule(2000, 40.0, profile=profile, seed=0)
            assert np.all(np.diff(arrivals) >= 0)
            assert arrivals[0] >= 0
            average_rate = len(arrivals) / arrivals[-1]
            assert average_rate == pytest.approx(40.0, rel=0.15), profile

    def test_profiles_shape_the_arrivals_differently(self):
        poisson = arrival_schedule(500, 50.0, profile="poisson", seed=0)
        bursty = arrival_schedule(500, 50.0, profile="bursty", seed=0)
        diurnal = arrival_schedule(500, 50.0, profile="diurnal", seed=0)
        assert not np.array_equal(poisson, bursty)
        assert not np.array_equal(bursty, diurnal)
        # bursty inter-arrivals are more dispersed than poisson at equal rate
        assert np.std(np.diff(bursty)) > np.std(np.diff(poisson))

    def test_unknown_profile_is_rejected(self):
        with pytest.raises(ValueError):
            arrival_schedule(10, 5.0, profile="flash-crowd")

    def test_open_loop_serves_every_request_bitwise(self, sasrec, workload):
        service = RecommendationService(sasrec)
        arrivals = arrival_schedule(len(workload), 500.0, seed=1)
        result = run_open_loop(service, workload, arrivals, offered_rps=500.0)
        assert not result.failures
        assert len(result.responses) == len(workload)
        for scores, reference in zip(result.scores(), replay_workload(sasrec, workload)):
            np.testing.assert_array_equal(scores, reference)
        assert result.offered_rps == 500.0
        assert result.achieved_rps > 0

    def test_find_knee_picks_last_sustained_rate(self, sasrec, workload):
        service = RecommendationService(sasrec)
        results = []
        for rate in (100.0, 200.0):
            arrivals = arrival_schedule(len(workload), rate, seed=1)
            results.append(run_open_loop(service, workload, arrivals, offered_rps=rate))
        knee = find_knee(results, efficiency_floor=0.0)
        # with a floor of 0 every point is "sustained": knee = highest rate
        assert knee.offered_rps == 200.0
