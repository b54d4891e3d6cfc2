"""Fitting DELRec: the shared bundle behind the serving workloads, and train-cold.

A fit runs the benchmark's training budget end to end: SASRec training, MLM
pre-training of the SimLM, Stage 1, Stage 2 and the publish of the bundle to
an artifact store.  Against an empty store that is a cold fit; against a
store that already holds every artifact it is a warm fit, which reloads
instead of training.

Every warm fit and every set-up is timed between two runs of the reference
kernel (:mod:`perfbench.calibrate`) and scaled to the reference host.  A cold
fit lasts seconds, through several changes of host speed that kernel runs at
its two ends cannot see (scaling it that way tripled its spread across
runs), so a :class:`~perfbench.calibrate.FitSampler` samples the kernel
inside it instead.
"""

from __future__ import annotations

import contextlib
import hashlib
import multiprocessing
import os
import shutil
import time
from typing import List, Optional, Sequence, Tuple

import numpy as np

from perfbench.calibrate import FitSampler, scaled
from perfbench.metrics import Outcome, median
from perfbench.serving import (
    InProcessTarget,
    Runner,
    bitwise_equal,
    capacity_list,
    own_peak_rss_mb,
    pass_lists,
    pass_plan,
    serve_phases,
)
from perfbench.workloads import (
    DATASET,
    FRESH_RATE_RPS,
    PROFILE,
    example_pool,
    fresh_requests,
    warmup_requests,
)
from repro.core.pipeline import DELRec
from repro.experiments.runner import ExperimentContext
from repro.store import ArtifactStore
from repro.store.components import DELREC_KIND, load_recommender

#: Warm fits timed before the first serving pass (one more precedes every pass).
WARM_FITS = 5
#: Set-ups timed per train-cold run, at least (one per cold fit and one
#: before every fixed-rate pass, so most spread over the whole run).
TRAIN_SETUPS = 11
#: Examples whose scores prove the published bundle reloads exactly.
PROBE_EXAMPLES = 64
#: Another cold fit runs while it should end within this multiple of ``--seconds``.
FIT_SLACK = 1.0


def new_context(store) -> Tuple[ExperimentContext, float]:
    """Dataset and context construction (the train-cold set-up), timed."""
    began = time.perf_counter()
    context = ExperimentContext(DATASET, PROFILE, store=store)
    return context, time.perf_counter() - began


def fit(context: ExperimentContext, store, tracer=None) -> Tuple[DELRec, float]:
    """One fit against ``store``, timed: backbone, LLM, both stages, publish."""
    began = time.perf_counter()
    with tracer.span("fit") if tracer is not None else contextlib.nullcontext():
        backbone = context.conventional_model("SASRec")
        pipeline = DELRec(config=context.delrec_config(), conventional_model=backbone,
                          llm=context.fresh_llm(), store=store)
        pipeline.fit(context.dataset, context.split)
    return pipeline, time.perf_counter() - began


def _fit_in_child(store_root: str) -> None:
    store = ArtifactStore(store_root)
    context, _ = new_context(store)
    fit(context, store)


def _warm_fit(store, fingerprint: str, tracer=None) -> Tuple[float, bool]:
    """One timed warm fit; returns (seconds, whether it reloaded the expected bundle)."""
    context, _ = new_context(store)
    pipeline, seconds = fit(context, store, tracer)
    return seconds, pipeline.loaded_from_store and pipeline.bundle_fingerprint == fingerprint


def _scaled_warm_fit(store, fingerprint: str) -> Tuple[float, bool]:
    """One warm fit; returns (scaled seconds, whether it reloaded the expected bundle)."""
    (seconds, reloaded), scale = scaled(lambda: _warm_fit(store, fingerprint))
    return seconds * scale, reloaded


def _warm_fit_helper(connection, store_root: str, fingerprint: str) -> None:
    """Helper-process loop: one warm fit per request, until told to stop."""
    store = ArtifactStore(store_root)
    while connection.recv() == "fit":
        connection.send(_scaled_warm_fit(store, fingerprint))
    connection.close()


class Prepared:
    """The serving bundle (store, context, fingerprint) and its warm-fit timer.

    Warm fits are timed in a helper process forked before the run builds any
    state of its own, so every sample sees the same small heap; the serving
    workloads ask for one before every pass, which spreads the samples over
    the whole run.  ``fit_samples`` holds scaled seconds.
    """

    def __init__(self, store: ArtifactStore, context: ExperimentContext, fingerprint: str,
                 outcome: Outcome):
        self.store, self.context, self.fingerprint = store, context, fingerprint
        self.outcome = outcome
        self.fit_samples: List[float] = []
        fork = multiprocessing.get_context("fork")
        self._connection, child = fork.Pipe()
        self._helper = fork.Process(target=_warm_fit_helper,
                                    args=(child, store.root, fingerprint), daemon=True)
        self._helper.start()
        child.close()

    def warm_fit(self) -> None:
        """Time one warm fit in the helper; a wrong or missing reload counts as failed."""
        self._connection.send("fit")
        seconds, reloaded = self._connection.recv()
        self.outcome.count(1, not reloaded)
        self.fit_samples.append(seconds)

    def close(self) -> None:
        """Stop the helper and wait for it."""
        try:
            self._connection.send("stop")
        except OSError:
            pass
        self._helper.join(timeout=30)
        if self._helper.is_alive():
            self._helper.terminate()
            self._helper.join()
        self._connection.close()


def prepare_bundle(cache_root: str, run_root: str, trace: bool, tracer,
                   outcome: Outcome) -> Prepared:
    """Make sure the serving bundle is published, then take the first warm fits.

    The first run in a checkout trains the bundle into ``cache_root``; that
    happens in a forked child, so its memory never reaches this process's
    peak RSS and its time counts toward no metric.  The run then serves from
    a private copy of the artifacts under ``run_root``, so store state that
    earlier runs left behind (the cross-process counters file) never weighs
    on this run.  The median scaled warm fit is the serving ``fit_s``.  A traced
    run also times one warm fit here without and one with the tracer, for
    the tracing overhead and the training-layer spans.
    """
    child = multiprocessing.get_context("fork").Process(target=_fit_in_child,
                                                        args=(cache_root,))
    child.start()
    child.join()
    if child.exitcode != 0:
        raise RuntimeError(f"preparing the serving bundle failed (exit {child.exitcode})")
    shutil.rmtree(run_root, ignore_errors=True)
    for kind in sorted(os.listdir(cache_root)):
        if os.path.isdir(os.path.join(cache_root, kind)) and not kind.startswith("."):
            shutil.copytree(os.path.join(cache_root, kind), os.path.join(run_root, kind))
    store = ArtifactStore(run_root)
    context, _ = new_context(store)
    pipeline, _ = fit(context, store)
    if not pipeline.loaded_from_store:
        raise RuntimeError("the serving bundle was not published by the preparing fit")
    prepared = Prepared(store, context, pipeline.bundle_fingerprint, outcome)
    for _ in range(WARM_FITS):
        prepared.warm_fit()
    if trace:
        plain, plain_ok = _warm_fit(store, prepared.fingerprint)
        tracer.install()
        try:
            traced, traced_ok = _warm_fit(store, prepared.fingerprint, tracer)
        finally:
            tracer.uninstall()
        outcome.count(2, (not plain_ok) + (not traced_ok))
        outcome.details.setdefault("counters", {}).update(
            {"trace.fit_overhead": traced / plain - 1.0, "fits": 1})
    return prepared


def probe_digest(recommender, examples: Sequence, sampler) -> Tuple[List[np.ndarray], str]:
    """Per-example scores of the probe set and their sha256 digest."""
    scores = [np.asarray(recommender.score_candidates(list(example.history),
                                                      sampler.candidates_for(example)))
              for example in examples]
    digest = hashlib.sha256()
    for row in scores:
        digest.update(row.tobytes())
    return scores, digest.hexdigest()


def run_train_cold(seed: int, seconds: float, trace: bool, tracer, work_dir: str) -> Outcome:
    """Empty store -> published bundle, reloaded, checked, evaluated and served."""
    outcome = Outcome()
    setups: List[float] = []
    fit_samples: List[float] = []
    fit_wall_s: List[float] = []
    digests: List[str] = []
    traced_fit: Optional[float] = None
    index = 0
    pipeline = context = store = probe = None
    # untraced: fit while the next fit should end within about ``seconds``
    # of fitting (at least once); traced: one fit without, one with tracing
    while True:
        shutil.rmtree(work_dir, ignore_errors=True)
        store = ArtifactStore(f"{work_dir}/store")
        (context, setup), scale = scaled(lambda: new_context(store))
        setups.append(setup * scale)
        if probe is None:
            # a fixed probe set, so the digest is comparable across runs
            pool = example_pool(context.split)
            rng = np.random.default_rng(0)
            probe = [pool[int(i)] for i in rng.choice(len(pool), PROBE_EXAMPLES, replace=False)]
        traced_now = trace and index == 1
        if traced_now:
            tracer.install()
            try:
                pipeline, traced_fit = fit(context, store, tracer)
            finally:
                tracer.uninstall()
        else:
            with FitSampler() as sampler:
                pipeline, seconds_taken = fit(context, store)
                inside_s = sampler.kernel_total_s
            fit_wall_s.append(seconds_taken - inside_s)
            fit_samples.append(fit_wall_s[-1] * sampler.scale())
        # the published bundle must reload and score the probe set exactly
        # like the recommender the fit just trained
        reloaded = load_recommender(store, DELREC_KIND, pipeline.bundle_fingerprint,
                                    dataset=context.dataset)
        trained_scores, _ = probe_digest(pipeline.recommender(), probe,
                                         context.evaluator.sampler)
        reloaded_scores, digest = probe_digest(reloaded, probe, context.evaluator.sampler)
        mismatched = sum(not bitwise_equal(a, b)
                         for a, b in zip(reloaded_scores, trained_scores, strict=True))
        outcome.count(1 + len(probe), mismatched)
        digests.append(digest)
        index += 1
        if trace:
            if index < 2:
                continue
            break
        expected_end = sum(fit_wall_s) * (len(fit_wall_s) + 1) / len(fit_wall_s)
        if expected_end > seconds * FIT_SLACK:
            break
    # every fit of one commit publishes the same bundle
    outcome.count(len(digests) - 1, sum(digest != digests[0] for digest in digests[1:]))

    def time_setup() -> None:
        (_, setup), scale = scaled(lambda: new_context(ArtifactStore(f"{work_dir}/setup")))
        setups.append(setup * scale)

    outcome.values["fit_s"] = median(fit_samples)
    # serve the freshly published bundle for another ``seconds``, exactly as
    # serve-fresh serves the shared one
    passes, size = pass_plan(FRESH_RATE_RPS, seconds)
    pool = example_pool(context.split)
    sampler = context.evaluator.sampler
    runner = Runner(
        InProcessTarget(store, pipeline.bundle_fingerprint, context.dataset,
                        warmup_requests(pool, sampler)),
        pass_lists(fresh_requests, pool, sampler, seed, passes, size),
        capacity_list(fresh_requests, pool, sampler),
        reloaded, outcome, between=time_setup,
    )
    counters = serve_phases(runner, FRESH_RATE_RPS, passes, seed, trace, tracer, outcome)
    while len(setups) < TRAIN_SETUPS:
        time_setup()
    outcome.values["setup_s"] = median(setups)
    # deterministic quality of the published bundle on the fixed test users
    outcome.values["ndcg_at_10"] = context.evaluate(reloaded, "DELRec").metric("NDCG@10")
    if trace:
        counters["trace.fit_overhead"] = traced_fit / fit_wall_s[0] - 1.0
        counters["fits"] = 1
    outcome.values["peak_rss_mb"] = own_peak_rss_mb()
    outcome.details.update({"fits": len(fit_samples) + (traced_fit is not None),
                            "fit_samples_s": fit_samples, "fit_wall_s": fit_wall_s,
                            "probe_digest": digests[0],
                            "setup_samples": len(setups)})
    outcome.details.setdefault("counters", {}).update(counters)
    return outcome
