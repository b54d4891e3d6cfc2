"""Functional neural-network operations built on :class:`repro.autograd.Tensor`.

These are the numerically-stable building blocks shared by the recommenders
and the simulated language model: softmax / log-softmax along the last axis,
cross entropy from logits, the BPR loss used by FPMC, and masking helpers used
when scoring a restricted candidate set.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from repro.autograd.tensor import Tensor, is_grad_enabled

ArrayLike = Union[np.ndarray, Sequence, float, int]


def _make(data: np.ndarray, parents, backward) -> Tensor:
    requires = is_grad_enabled() and any(p.requires_grad for p in parents)
    out = Tensor(data, requires_grad=requires)
    if requires:
        out._parents = tuple(parents)
        out._backward = backward
    return out


def softmax(logits: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    shifted = logits.data - logits.data.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=axis, keepdims=True)

    def backward(grad: np.ndarray) -> None:
        grad = np.asarray(grad)
        dot = (grad * probs).sum(axis=axis, keepdims=True)
        logits._accumulate(probs * (grad - dot))

    return _make(probs, (logits,), backward)


def log_softmax(logits: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    shifted = logits.data - logits.data.max(axis=axis, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    probs = np.exp(log_probs)

    def backward(grad: np.ndarray) -> None:
        grad = np.asarray(grad)
        total = grad.sum(axis=axis, keepdims=True)
        logits._accumulate(grad - probs * total)

    return _make(log_probs, (logits,), backward)


def cross_entropy(
    logits: Tensor,
    targets: ArrayLike,
    reduction: str = "mean",
    weights: Optional[np.ndarray] = None,
) -> Tensor:
    """Cross-entropy loss from raw logits and integer class targets.

    Parameters
    ----------
    logits:
        Tensor of shape ``(..., num_classes)``.
    targets:
        Integer array of shape ``logits.shape[:-1]``.
    reduction:
        ``"mean"``, ``"sum"`` or ``"none"``.
    weights:
        Optional per-example weights with the same shape as ``targets``;
        positions with weight 0 are masked out of the loss and of the mean
        normaliser (used for padded batch positions).
    """
    targets = np.asarray(targets, dtype=np.int64)
    log_probs = log_softmax(logits, axis=-1)
    flat = log_probs.reshape(-1, logits.shape[-1])
    flat_targets = targets.reshape(-1)
    picked = flat[np.arange(flat.shape[0]), flat_targets]
    losses = -picked
    if weights is not None:
        weight_tensor = Tensor(np.asarray(weights, dtype=np.float64).reshape(-1))
        losses = losses * weight_tensor
        normaliser = max(float(np.asarray(weights).sum()), 1e-12)
    else:
        normaliser = losses.size

    if reduction == "none":
        return losses.reshape(targets.shape)
    if reduction == "sum":
        return losses.sum()
    if reduction == "mean":
        return losses.sum() * (1.0 / normaliser)
    raise ValueError(f"unknown reduction {reduction!r}")


def nll_from_log_probs(log_probs: Tensor, targets: ArrayLike, reduction: str = "mean") -> Tensor:
    """Negative log-likelihood given pre-computed log probabilities."""
    targets = np.asarray(targets, dtype=np.int64)
    flat = log_probs.reshape(-1, log_probs.shape[-1])
    picked = flat[np.arange(flat.shape[0]), targets.reshape(-1)]
    losses = -picked
    if reduction == "none":
        return losses.reshape(targets.shape)
    if reduction == "sum":
        return losses.sum()
    return losses.mean()


def binary_cross_entropy_with_logits(logits: Tensor, targets: ArrayLike, reduction: str = "mean") -> Tensor:
    """Numerically stable sigmoid + binary cross entropy."""
    targets_arr = np.asarray(targets, dtype=np.float64)
    x = logits.data
    losses_data = np.maximum(x, 0) - x * targets_arr + np.log1p(np.exp(-np.abs(x)))

    def backward(grad: np.ndarray) -> None:
        sig = 1.0 / (1.0 + np.exp(-x))
        logits._accumulate(np.asarray(grad) * (sig - targets_arr))

    losses = _make(losses_data, (logits,), backward)
    if reduction == "none":
        return losses
    if reduction == "sum":
        return losses.sum()
    return losses.mean()


def bpr_loss(positive_scores: Tensor, negative_scores: Tensor) -> Tensor:
    """Bayesian personalised ranking loss: ``-log sigmoid(pos - neg)``."""
    diff = positive_scores - negative_scores
    x = diff.data
    losses_data = np.log1p(np.exp(-np.abs(x))) + np.maximum(-x, 0)

    def backward(grad: np.ndarray) -> None:
        sig = 1.0 / (1.0 + np.exp(-x))
        diff._accumulate(-np.asarray(grad) * (1.0 - sig))

    losses = _make(losses_data, (diff,), backward)
    return losses.mean()


def mse_loss(predictions: Tensor, targets: ArrayLike, reduction: str = "mean") -> Tensor:
    """Mean squared error."""
    targets_tensor = predictions._ensure(targets)
    diff = predictions - targets_tensor
    squared = diff * diff
    if reduction == "none":
        return squared
    if reduction == "sum":
        return squared.sum()
    return squared.mean()


def masked_fill(tensor: Tensor, mask: np.ndarray, value: float) -> Tensor:
    """Return a tensor with positions where ``mask`` is True set to ``value``.

    Gradients do not flow through the filled positions.  ``mask`` may be any
    shape broadcastable to ``tensor`` (e.g. ``(batch, 1, length, length)``
    against ``(batch, heads, length, length)`` attention scores) — it is
    broadcast inside ``np.where`` rather than materialised at full size, and
    the fill value is a broadcast view rather than a full-size allocation.
    """
    mask = np.asarray(mask, dtype=bool)
    filler = Tensor(np.broadcast_to(np.float64(value), tensor.shape))
    return Tensor.where(np.broadcast_to(~mask, tensor.shape), tensor, filler)


def dropout_mask(shape, rate: float, rng: np.random.Generator) -> np.ndarray:
    """Inverted-dropout mask: zero with probability ``rate``, else ``1/(1-rate)``."""
    if rate <= 0.0:
        return np.ones(shape, dtype=np.float64)
    keep = rng.random(shape) >= rate
    return keep.astype(np.float64) / (1.0 - rate)


def one_hot(indices: ArrayLike, num_classes: int) -> np.ndarray:
    """Plain (non-differentiable) one-hot encoding helper."""
    indices = np.asarray(indices, dtype=np.int64)
    out = np.zeros(indices.shape + (num_classes,), dtype=np.float64)
    np.put_along_axis(out, indices[..., None], 1.0, axis=-1)
    return out


def clip_grad_norm(parameters, max_norm: float) -> float:
    """Clip gradients of ``parameters`` to a maximum global L2 norm.

    Scaled gradients are new arrays bound to each ``.grad``; the old arrays
    are never written.  That rebinding is required: a gradient may be shared
    with another tensor (``Tensor._accumulate`` stores arrays without a copy).
    """
    grads = [p.grad for p in parameters if p.grad is not None]
    if not grads:
        return 0.0
    # repro-lint: disable=float-accumulation -- parameter order is fixed, so this
    # sequential sum is deterministic serially; it feeds trained trajectories, so
    # moving it to a pairwise reduction is a TRAINING_CODE_VERSION bump, not a lint fix.
    total = float(np.sqrt(sum(float((g ** 2).sum()) for g in grads)))
    if total > max_norm and total > 0:
        scale = max_norm / total
        for p in parameters:
            if p.grad is not None:
                p.grad = p.grad * scale
    return total
