"""Out-of-band tracing: spans recorded around the public functions of each layer.

The tracer wraps library functions from outside (nothing under ``src/``
changes) and records one span per call: name, start, end, parent span and
the workload index of the request it served.  Spans stay in memory and are
written out when the run ends.

Processes forked while the tracer is installed (the replicas of a routed
tier) inherit the wrappers and start an empty span buffer of their own.  A
child writes its buffer to the dump directory whenever its service answers a
``stats`` call, which the parent makes at the end of a traced pass, so child
spans arrive before the tier is closed.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import inspect
import itertools
import json
import os
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

#: Workload index of the request being served (-1 outside any request).
REQUEST = contextvars.ContextVar("perfbench_request", default=-1)
#: Id of the innermost open span (0 at the root).
_SPAN = contextvars.ContextVar("perfbench_span", default=0)

#: Span record fields, in tuple order.
FIELDS = ("id", "parent", "name", "start_ns", "end_ns", "request", "pid", "tag")


def _targets():
    """The span vocabulary: (span name, owner, attribute) for every wrapped call."""
    from repro.autograd import inference
    from repro.autograd.optim import Optimizer
    from repro.autograd.tensor import Tensor
    from repro.core.distill import PatternDistiller
    from repro.core.prompts import PromptBuilder
    from repro.core.recommend import DELRecRecommender, LSRFineTuner
    from repro.llm import pretrain
    from repro.llm.simlm import SimLM
    from repro.serve.batcher import MicroBatcher
    from repro.serve.cache import ResultCache
    from repro.serve.replica import Replica
    from repro.serve.router import ReplicatedService
    from repro.serve.service import RecommendationService
    from repro.serve.sessions import SessionStore
    from repro.store import components
    from repro.store.store import ArtifactStore

    targets = [
        ("service.recommend", RecommendationService, "recommend"),
        ("sessions.sync", SessionStore, "sync"),
        ("cache.get", ResultCache, "get"),
        ("cache.put", ResultCache, "put"),
        ("batcher.submit", MicroBatcher, "submit"),
        ("score.flush", DELRecRecommender, "score_candidates_batch"),
        ("prefix.render", DELRecRecommender, "build_prompt"),
        ("prompt.batch", PromptBuilder, "batch"),
        ("splice", inference, "splice_soft_prompt_array"),
        ("encoder", inference, "mask_readout_hidden"),
        ("encoder.tape", SimLM, "encode_mask_readout"),
        ("head", inference, "candidate_scores_array"),
        ("router.route", ReplicatedService, "route_many"),
        ("replica.call", Replica, "score_batch"),
        ("store.load", ArtifactStore, "load"),
        ("store.save", ArtifactStore, "save"),
        ("train.backbone", components, "train_or_reload_backbone"),
        ("train.pretrain", pretrain, "pretrain_simlm"),
        ("train.stage1", PatternDistiller, "distill"),
        ("train.stage2", LSRFineTuner, "fine_tune"),
        ("train.backward", Tensor, "backward"),
    ]
    targets += [("train.optim", optimizer, "step")
                for optimizer in Optimizer.__subclasses__() if "step" in vars(optimizer)]
    return targets


class Tracer:
    """Records spans while installed; :meth:`collect_children` merges forked children's."""

    def __init__(self, dump_dir: str):
        self.dump_dir = dump_dir
        self.spans: List[tuple] = []
        #: derived per-call samples, e.g. ``batcher.queue_wait_ms``
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.installed = False
        self._child = False
        self._ids = itertools.count(1)
        self._restore: List[tuple] = []
        #: id(history) -> duration of the flush that scored it (queue-wait join)
        self._flush_ns: Dict[int, int] = {}
        os.makedirs(dump_dir, exist_ok=True)
        os.register_at_fork(after_in_child=self._after_fork)

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def _after_fork(self) -> None:
        if self.installed:
            self._child = True
            self.spans = []
            self.samples = defaultdict(list)
            self._flush_ns = {}

    def _record(self, span_id, parent, name, start, end, tag=None) -> None:
        self.spans.append((span_id, parent, name, start, end, REQUEST.get(), os.getpid(), tag))

    def _tag(self, name: str, args: tuple, result, duration_ns: int):
        """Per-call facts the layer metrics need, taken where the work happens."""
        if name == "cache.get":
            return int(result is not None)
        if name == "score.flush":
            histories = args[1]
            for history in histories:
                self._flush_ns[id(history)] = duration_ns
            return len(histories)
        return None

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span around a block of the benchmark's own code (when installed)."""
        if not self.installed:
            yield
            return
        span_id, parent = next(self._ids), _SPAN.get()
        token = _SPAN.set(span_id)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            _SPAN.reset(token)
            self._record(span_id, parent, name, start, time.perf_counter_ns())

    def _wrap(self, name: str, original: Callable) -> Callable:
        tracer = self
        if inspect.iscoroutinefunction(original):
            @functools.wraps(original)
            async def async_wrapper(*args, **kwargs):
                span_id, parent = next(tracer._ids), _SPAN.get()
                token = _SPAN.set(span_id)
                start = time.perf_counter_ns()
                try:
                    return await original(*args, **kwargs)
                finally:
                    end = time.perf_counter_ns()
                    _SPAN.reset(token)
                    tracer._record(span_id, parent, name, start, end)
                    if name == "batcher.submit":
                        flush = tracer._flush_ns.pop(id(args[1]), None)
                        if flush is not None:
                            tracer.samples["batcher.queue_wait_ms"].append(
                                (end - start - flush) / 1e6)
            return async_wrapper

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span_id, parent = next(tracer._ids), _SPAN.get()
            token = _SPAN.set(span_id)
            start = time.perf_counter_ns()
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter_ns()
                _SPAN.reset(token)
                tracer._record(span_id, parent, name, start, end,
                               tracer._tag(name, args, result, end - start))
        return wrapper

    # ------------------------------------------------------------------ #
    # installing
    # ------------------------------------------------------------------ #
    def _patch(self, owner, attribute: str, replacement) -> None:
        original = vars(owner)[attribute]
        holders = [(owner, attribute)]
        if inspect.ismodule(owner):
            # names imported with ``from module import function`` live on in
            # the importing modules; rebind those too
            for module in list(sys.modules.values()):
                if module is owner or not getattr(module, "__name__", "").startswith("repro"):
                    continue
                for name, value in list(vars(module).items()):
                    if value is original:
                        holders.append((module, name))
        for holder, name in holders:
            self._restore.append((holder, name, original))
            setattr(holder, name, replacement)

    def install(self) -> None:
        """Wrap every target; spans record until :meth:`uninstall`."""
        if self.installed:
            return
        self._flush_ns = {}
        for name, owner, attribute in _targets():
            self._patch(owner, attribute, self._wrap(name, vars(owner)[attribute]))
        from repro.serve.service import RecommendationService

        stats = vars(RecommendationService)["stats"]
        tracer = self

        @functools.wraps(stats)
        def stats_and_dump(service):
            if tracer._child:
                tracer._dump_child()
            return stats(service)

        self._patch(RecommendationService, "stats", stats_and_dump)
        self.installed = True

    def uninstall(self) -> None:
        """Restore every wrapped function."""
        for holder, name, original in reversed(self._restore):
            setattr(holder, name, original)
        self._restore = []
        self.installed = False

    # ------------------------------------------------------------------ #
    # collecting
    # ------------------------------------------------------------------ #
    def _child_path(self, pid: int) -> str:
        return os.path.join(self.dump_dir, f"child-{pid}.json")

    def _dump_child(self) -> None:
        path = self._child_path(os.getpid())
        staging = path + ".tmp"
        with open(staging, "w") as handle:
            json.dump({"spans": self.spans, "samples": self.samples}, handle)
        os.replace(staging, path)

    def collect_children(self) -> None:
        """Merge (and remove) the span files written by forked children."""
        for entry in sorted(os.listdir(self.dump_dir)):
            if not (entry.startswith("child-") and entry.endswith(".json")):
                continue
            path = os.path.join(self.dump_dir, entry)
            with open(path) as handle:
                payload = json.load(handle)
            os.remove(path)
            self.spans.extend(tuple(span) for span in payload["spans"])
            for name, values in payload["samples"].items():
                self.samples[name].extend(values)

    def write(self, path: str) -> None:
        """Write every collected span and sample as one JSON document."""
        with open(path, "w") as handle:
            json.dump({"fields": FIELDS, "spans": self.spans, "samples": self.samples},
                      handle)


class Spans:
    """Read-only queries over a list of span records."""

    def __init__(self, spans: List[tuple]):
        self.spans = spans
        self._by_key = {(span[6], span[0]): span for span in spans}
        self._child_ns: Dict[tuple, int] = defaultdict(int)
        for span in spans:
            if span[1]:
                self._child_ns[(span[6], span[1])] += span[4] - span[3]

    def named(self, name: str, pid: Optional[int] = None) -> List[tuple]:
        return [span for span in self.spans
                if span[2] == name and (pid is None or span[6] == pid)]

    def count(self, name: str, pid: Optional[int] = None) -> int:
        return len(self.named(name, pid))

    def total_ms(self, name: str, pid: Optional[int] = None) -> float:
        return sum(span[4] - span[3] for span in self.named(name, pid)) / 1e6

    def mean_ms(self, name: str, pid: Optional[int] = None) -> float:
        spans = self.named(name, pid)
        return self.total_ms(name, pid) / len(spans) if spans else 0.0

    def self_ms(self, name: str) -> float:
        """Summed self time: each span's duration minus its direct children's."""
        return sum(max(0, span[4] - span[3] - self._child_ns[(span[6], span[0])])
                   for span in self.named(name)) / 1e6

    def ancestor(self, span: tuple, names) -> Optional[tuple]:
        """The nearest enclosing span whose name is in ``names``."""
        parent = self._by_key.get((span[6], span[1]))
        while parent is not None:
            if parent[2] in names:
                return parent
            parent = self._by_key.get((parent[6], parent[1]))
        return None
