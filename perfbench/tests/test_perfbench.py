"""Tests of the benchmark itself: its inputs, its declarations and its output."""

from __future__ import annotations

import json
import os
import re
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
for path in (ROOT, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

from perfbench import metrics, workloads  # noqa: E402
from perfbench.serving import pass_lists, pass_plan  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def inputs():
    from repro.data import chronological_split, load_dataset
    from repro.data.candidates import CandidateSampler

    profile = workloads.PROFILE
    dataset = load_dataset(workloads.DATASET, scale=profile.dataset_scale)
    split = chronological_split(dataset, max_history=9)
    sampler = CandidateSampler(dataset, num_candidates=profile.num_candidates,
                               seed=profile.seed)
    return workloads.example_pool(split), sampler


@pytest.mark.parametrize("builder", [workloads.fresh_requests, workloads.routed_requests])
def test_builders_are_pure_functions_of_the_seed(inputs, builder):
    pool, sampler = inputs
    first = builder(pool, sampler, 7)
    assert first == builder(pool, sampler, 7)
    assert first != builder(pool, sampler, 8)
    assert builder(pool, sampler, 7, limit=100) == first[:100]


def test_serve_fresh_never_repeats_a_cache_key(inputs):
    pool, sampler = inputs
    warmup = {request.key for request in workloads.warmup_requests(pool, sampler)}
    for requests in [workloads.fresh_requests(pool, sampler, 3)] + pass_lists(
            workloads.fresh_requests, pool, sampler, 3, 3, 1000):
        keys = [request.key for request in requests]
        assert len(set(keys)) == len(keys)
        assert not warmup & set(keys)
    growing = [request for request in requests if request.target is None]
    assert 0.1 < len(growing) / len(requests) < 0.5


def test_serve_routed_repeats_about_half(inputs):
    pool, sampler = inputs
    for requests in [workloads.routed_requests(pool, sampler, 5)] + pass_lists(
            workloads.routed_requests, pool, sampler, 5, 2, 1000):
        seen, repeats = set(), 0
        for request in requests:
            repeats += request.key in seen
            seen.add(request.key)
        assert abs(repeats / len(requests) - 0.5) < 0.05


def test_pass_plan_gives_full_passes_at_the_declared_run_length():
    from perfbench.serving import FIXED_RATE_SHARE, PASS_REQUESTS

    benchmark = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    seconds = benchmark["run_seconds"]
    for rate in (workloads.FRESH_RATE_RPS, workloads.ROUTED_RATE_RPS):
        passes, size = pass_plan(rate, seconds)
        assert size == PASS_REQUESTS and passes >= 4
        assert metrics.samples_beyond(passes * size, 99.0) >= 10
        assert passes * size == pytest.approx(rate * seconds * FIXED_RATE_SHARE, rel=0.01)


def test_summary_statistics():
    assert metrics.best([5.0, 1.0, 4.0]) == 1.0
    with pytest.raises(ValueError):
        metrics.best([])
    assert metrics.percentile_ms([0.001] * 99 + [float("inf")], 99.0) == 1.0
    assert metrics.percentile_ms([0.001] * 99 + [float("inf")], 100.0) == float("inf")
    assert metrics.samples_beyond(1000, 99.0) == 10


def test_scaled_returns_the_result_and_a_positive_scale():
    from perfbench import calibrate

    result, scale = calibrate.scaled(lambda: "served")
    assert result == "served"
    assert 0.0 < scale < 100.0


def test_declarations_match_benchmark_json():
    benchmark = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    assert set(benchmark) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert [entry["name"] for entry in benchmark["workloads"]] == [
        "serve-fresh", "serve-routed", "train-cold"]
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in benchmark["end_to_end"]] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in benchmark["per_layer"]] == list(metrics.PER_LAYER)
    names = [entry[0] for entry in metrics.END_TO_END + metrics.PER_LAYER]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for _, _, better, bound in metrics.END_TO_END:
        assert better in ("lower", "higher") and 0 < bound <= 0.25
    assert ("setup_s", "s", "lower") == metrics.END_TO_END[0][:3]


def test_tracer_restores_every_wrapped_function(tmp_path):
    from perfbench.trace import Tracer, _targets

    before = [(owner, attribute, vars(owner)[attribute])
              for _, owner, attribute in _targets()]
    tracer = Tracer(str(tmp_path))
    tracer.install()
    assert any(vars(owner)[attribute] is not original
               for owner, attribute, original in before)
    tracer.uninstall()
    for owner, attribute, original in before:
        assert vars(owner)[attribute] is original


def test_report_emits_exactly_the_declared_metrics():
    for declared in (metrics.END_TO_END, metrics.PER_LAYER):
        reported = metrics.report({entry[0]: 1.5 for entry in declared}, declared)
        assert [(name, body["unit"]) for name, body in reported.items()] == [
            entry[:2] for entry in declared]
        assert all(body["value"] == 1.5 for body in reported.values())
        with pytest.raises(KeyError):
            metrics.report({}, declared)
