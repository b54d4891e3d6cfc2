"""A fixed reference kernel that scales every timing to one host speed.

The benchmark runs on a few virtual cores of a shared host, whose speed
changes by half again for stretches of tens of seconds as other tenants come
and go; CPU time per request moves with it, so no choice of clock removes
it.  A kernel owned by the benchmark, which no change to the code under test
can touch, is timed right before and right after every timing sample.  Its
mix resembles the serving path: small attention-shaped numpy products,
reductions on narrow arrays, and interpreter-bound tuple hashing and sorting.
The sample is then scaled to a host on which the kernel takes
:data:`REFERENCE_S`::

    scale = REFERENCE_S / kernel seconds
    scaled time = time * scale        scaled rate = rate / scale

On an idle host the scaled values equal the raw ones; a code change that
halves a time halves its scaled value, because the kernel does not change.

A cold fit lasts seconds, through several changes of host speed that kernel
runs at its two ends cannot see.  :class:`FitSampler` runs a tenth of the
kernel inside it instead, after optimizer steps, and scales each stretch of
the fit by the kernel run that ends it.
"""

from __future__ import annotations

import functools
import time
from typing import Callable, List, Tuple, TypeVar

import numpy as np

#: Seconds the kernel takes on the reference host (one idle core of a
#: 2.1 GHz Xeon); every scaled value is what that host would have measured.
REFERENCE_S = 0.028
#: The kernel is this many equal parts; :class:`FitSampler` runs one.
PARTS = 10

_RNG = np.random.default_rng(0)
_WEIGHTS = [_RNG.standard_normal((32, 32)) * 0.1 for _ in range(8)]
_INPUT = _RNG.standard_normal((16, 40, 32))

T = TypeVar("T")


def _attention(repeats: int) -> None:
    """Two attention-shaped layers over a (16, 40, 32) batch."""
    for _ in range(repeats):
        x = _INPUT
        for layer in range(2):
            wq, wk, wv, wo = _WEIGHTS[4 * layer:4 * layer + 4]
            scores = (x @ wq) @ (x @ wk).transpose(0, 2, 1) / 5.6
            scores = np.exp(scores - scores.max(-1, keepdims=True))
            scores /= scores.sum(-1, keepdims=True)
            x = x + (scores @ (x @ wv)) @ wo
            x = (x - x.mean(-1, keepdims=True)) / np.sqrt(x.var(-1, keepdims=True) + 1e-5)


def _interpreter(repeats: int) -> None:
    """Tuple keys hashed into dicts and sorted: interpreter-bound bookkeeping."""
    for rep in range(repeats):
        table = {}
        for i in range(300):
            key = (i, rep, i * 7 % 13)
            table[hash(key)] = [str(i), key]
        sorted(table.items())


def _narrow(repeats: int) -> None:
    """Many tiny numpy calls, where per-call overhead dominates."""
    rows = _INPUT[0]
    for _ in range(repeats):
        reduced = np.tanh(rows[:8] @ _WEIGHTS[0]).sum(axis=0)
        rows = rows + 0.0 * reduced[0]


def kernel_s(parts: int = PARTS) -> float:
    """Run ``parts`` of the reference kernel's parts; returns their wall-clock seconds."""
    began = time.perf_counter()
    _attention(parts)
    _interpreter(6 * parts)
    _narrow(150 * parts)
    return time.perf_counter() - began


def scaled(call: Callable[[], T]) -> Tuple[T, float]:
    """``call()`` between two kernel runs; returns its result and the scale.

    The scale is :data:`REFERENCE_S` over the mean of the two kernel times:
    multiply a time measured inside ``call`` by it, divide a rate by it.
    """
    before = kernel_s()
    result = call()
    after = kernel_s()
    return result, REFERENCE_S / ((before + after) / 2.0)


class FitSampler:
    """Scales a fit by one kernel part run after optimizer steps inside it.

    While active, every optimizer's ``step`` is wrapped from outside (the
    code under test does not change): after a step, if at least
    :data:`INTERVAL_S` passed since the last sample, one kernel part runs.
    Each stretch of the fit between samples is scaled by the sample that
    ends it; :meth:`scale` is their time-weighted mean.  The samples' own
    time, :attr:`kernel_total_s`, is not part of the fit.
    """

    #: Fit seconds between samples, at least: a part takes about 3 ms.
    INTERVAL_S = 0.05

    def __init__(self):
        #: (seconds of fit since the previous sample, the sample's seconds)
        self.samples: List[Tuple[float, float]] = []
        self.kernel_total_s = 0.0
        self._restore = []
        self._mark = 0.0

    def __enter__(self) -> "FitSampler":
        from repro.autograd.optim import Optimizer

        for optimizer in Optimizer.__subclasses__():
            if "step" in vars(optimizer):
                original = vars(optimizer)["step"]
                self._restore.append((optimizer, original))
                setattr(optimizer, "step", self._after(original))
        self._mark = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        for optimizer, original in reversed(self._restore):
            setattr(optimizer, "step", original)
        self._restore = []
        self.sample()

    def _after(self, original: Callable) -> Callable:
        sampler = self

        @functools.wraps(original)
        def step(*args, **kwargs):
            result = original(*args, **kwargs)
            if time.perf_counter() - sampler._mark >= sampler.INTERVAL_S:
                sampler.sample()
            return result

        return step

    def sample(self) -> None:
        """Close the current stretch of the fit with one kernel part."""
        stretch = time.perf_counter() - self._mark
        seconds = kernel_s(1)
        self.samples.append((stretch, seconds))
        self.kernel_total_s += seconds
        self._mark = time.perf_counter()

    def scale(self) -> float:
        """Time-weighted mean of ``REFERENCE_S / PARTS / part seconds`` over the fit."""
        total = sum(stretch for stretch, _ in self.samples)
        if total <= 0.0:
            raise ValueError("no fit time was sampled")
        return sum(stretch * REFERENCE_S / PARTS / seconds
                   for stretch, seconds in self.samples) / total
