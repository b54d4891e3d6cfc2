"""Multi-head self-attention and transformer encoder layers.

These blocks back both SASRec / BERT4Rec (conventional recommenders) and
:class:`repro.llm.SimLM` (the simulated language model).  Attention masks are
plain boolean numpy arrays: ``True`` marks positions that may be attended to.
"""

from __future__ import annotations

import functools
from collections import OrderedDict
from typing import Optional

import numpy as np

from repro.autograd import functional as F
from repro.autograd.layers import Dropout, FeedForward, LayerNorm, Linear
from repro.autograd.module import Module
from repro.autograd.tensor import Tensor

_NEG_INF = -1e9

#: Entries kept in the content-addressed padding-expansion cache.  Training
#: loops cycle through a handful of (shape, validity) patterns, so a small
#: cache removes the per-forward ``(batch, length, length)`` rebuild entirely.
#: Masks larger than the byte bound are built but not retained, so scoring
#: sweeps over huge buckets cannot pin unbounded memory in the cache.
_EXPANSION_CACHE_LIMIT = 32
_EXPANSION_CACHE_MAX_BYTES = 1 << 20
_expansion_cache: "OrderedDict[tuple, np.ndarray]" = OrderedDict()


def reset_mask_caches() -> None:
    """Drop every memoised attention mask (used for fair A/B benchmarking)."""
    _expansion_cache.clear()
    causal_mask.cache_clear()
    identity_mask.cache_clear()


@functools.lru_cache(maxsize=256)
def causal_mask(length: int) -> np.ndarray:
    """Lower-triangular mask allowing each position to attend to itself and the past.

    Memoised per length (the mask only depends on it); the returned array is
    read-only — callers combining it with other masks get a fresh array from
    the boolean operation anyway.
    """
    mask = np.tril(np.ones((length, length), dtype=bool))
    mask.setflags(write=False)
    return mask


@functools.lru_cache(maxsize=256)
def identity_mask(length: int) -> np.ndarray:
    """Read-only, memoised ``np.eye(length, dtype=bool)`` (self-attention slots)."""
    mask = np.eye(length, dtype=bool)
    mask.setflags(write=False)
    return mask


def padding_mask(valid: np.ndarray) -> np.ndarray:
    """Expand a per-token validity array ``(batch, length)`` to an attention mask.

    The result has shape ``(batch, length, length)`` and allows attention only
    to valid (non-padding) key positions.
    """
    valid = np.asarray(valid, dtype=bool)
    return valid[:, None, :] & np.ones((valid.shape[1], 1), dtype=bool)


def padded_self_attention_mask(valid: np.ndarray) -> Optional[np.ndarray]:
    """``(batch, length, length)`` mask: attend to valid keys, plus self-attention.

    This is the expansion every SimLM forward used to rebuild from scratch
    (``valid[:, None, :] | np.eye(length)``).  The result is memoised by the
    *content* of ``valid`` — repeated batches reuse one read-only array
    instead of reallocating.  Fully-valid inputs (the un-padded length buckets
    of batched scoring) return ``None``: attention over them is unmasked, so
    the expansion would be allocated, hashed and then ignored.
    """
    valid = np.asarray(valid, dtype=bool)
    if valid.all():
        return None
    key = (valid.shape, valid.tobytes())
    cached = _expansion_cache.get(key)
    if cached is not None:
        _expansion_cache.move_to_end(key)
        return cached
    mask = valid[:, None, :] | identity_mask(valid.shape[1])[None, :, :]
    mask.setflags(write=False)
    if mask.nbytes <= _EXPANSION_CACHE_MAX_BYTES:
        _expansion_cache[key] = mask
        if len(_expansion_cache) > _EXPANSION_CACHE_LIMIT:
            _expansion_cache.popitem(last=False)
    return mask


class MultiHeadSelfAttention(Module):
    """Scaled dot-product multi-head self-attention."""

    def __init__(
        self,
        dim: int,
        num_heads: int,
        dropout: float = 0.1,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        if dim % num_heads != 0:
            raise ValueError(f"dim {dim} must be divisible by num_heads {num_heads}")
        rng = rng or np.random.default_rng(0)
        self.dim = dim
        self.num_heads = num_heads
        self.head_dim = dim // num_heads
        self.query_proj = Linear(dim, dim, rng=rng)
        self.key_proj = Linear(dim, dim, rng=rng)
        self.value_proj = Linear(dim, dim, rng=rng)
        self.output_proj = Linear(dim, dim, rng=rng)
        self.dropout = Dropout(dropout, rng=rng)

    def _split_heads(self, x: Tensor, batch: int, length: int) -> Tensor:
        return x.reshape(batch, length, self.num_heads, self.head_dim).transpose(0, 2, 1, 3)

    def forward(self, x: Tensor, attention_mask: Optional[np.ndarray] = None) -> Tensor:
        """Attend over ``x`` of shape ``(batch, length, dim)``.

        ``attention_mask`` may have shape ``(length, length)`` or
        ``(batch, length, length)``; ``True`` marks allowed positions.
        """
        batch, length, _ = x.shape
        queries = self._split_heads(self.query_proj(x), batch, length)
        keys = self._split_heads(self.key_proj(x), batch, length)
        values = self._split_heads(self.value_proj(x), batch, length)

        scores = queries.matmul(keys.transpose(0, 1, 3, 2)) * (1.0 / np.sqrt(self.head_dim))
        if attention_mask is not None:
            mask = np.asarray(attention_mask, dtype=bool)
            if mask.ndim == 2:
                mask = mask[None, None, :, :]
            elif mask.ndim == 3:
                mask = mask[:, None, :, :]  # broadcast over heads
            # The negated mask stays at (batch, 1, length, length) and is
            # broadcast inside masked_fill — the old code materialised a full
            # (batch, heads, length, length) negation plus an equally large
            # fill tensor on every forward.  Fully-valid masks (un-padded
            # length buckets) skip the fill entirely.
            if not mask.all():
                scores = F.masked_fill(scores, ~mask, _NEG_INF)

        weights = F.softmax(scores, axis=-1)
        weights = self.dropout(weights)
        context = weights.matmul(values)
        context = context.transpose(0, 2, 1, 3).reshape(batch, length, self.dim)
        return self.output_proj(context)

    def mask_query_forward(
        self,
        x: Tensor,
        query_positions: np.ndarray,
        attention_mask: Optional[np.ndarray] = None,
    ) -> Tensor:
        """Attention output for one query position per row: ``(batch, 1, dim)``.

        Keys and values still cover every position of ``x`` — only the query
        side is restricted to ``query_positions`` (one index per batch row),
        so the result equals the corresponding row of :meth:`forward` in exact
        arithmetic.  The query/score/context products run at ``M=1`` instead
        of ``M=length``, which rounds differently under BLAS, so this is a
        *readout semantics* of its own (the serving fast path), not a bitwise
        slice of the full forward.
        """
        batch, length, _ = x.shape
        keys = self._split_heads(self.key_proj(x), batch, length)
        values = self._split_heads(self.value_proj(x), batch, length)
        rows = np.arange(batch)
        query_positions = np.asarray(query_positions, dtype=np.int64)
        query_input = x[rows, query_positions, :].reshape(batch, 1, self.dim)
        queries = self._split_heads(self.query_proj(query_input), batch, 1)

        scores = queries.matmul(keys.transpose(0, 1, 3, 2)) * (1.0 / np.sqrt(self.head_dim))
        if attention_mask is not None:
            mask = np.asarray(attention_mask, dtype=bool)
            if mask.ndim == 2:
                mask = mask[query_positions, :]
            elif mask.ndim == 3:
                mask = mask[rows, query_positions, :]
            mask = mask[:, None, None, :]  # broadcast over heads and the query axis
            if not mask.all():
                scores = F.masked_fill(scores, ~mask, _NEG_INF)

        weights = F.softmax(scores, axis=-1)
        weights = self.dropout(weights)
        context = weights.matmul(values)
        context = context.transpose(0, 2, 1, 3).reshape(batch, 1, self.dim)
        return self.output_proj(context)


class TransformerEncoderLayer(Module):
    """Pre-norm transformer encoder block (attention + feed-forward)."""

    def __init__(
        self,
        dim: int,
        num_heads: int,
        hidden_dim: Optional[int] = None,
        dropout: float = 0.1,
        activation: str = "gelu",
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        hidden_dim = hidden_dim or 4 * dim
        self.attention = MultiHeadSelfAttention(dim, num_heads, dropout=dropout, rng=rng)
        self.feed_forward = FeedForward(dim, hidden_dim, dropout=dropout, activation=activation, rng=rng)
        self.norm1 = LayerNorm(dim)
        self.norm2 = LayerNorm(dim)
        self.dropout = Dropout(dropout, rng=rng)

    def forward(self, x: Tensor, attention_mask: Optional[np.ndarray] = None) -> Tensor:
        attended = self.attention(self.norm1(x), attention_mask=attention_mask)
        x = x + self.dropout(attended)
        transformed = self.feed_forward(self.norm2(x))
        return x + self.dropout(transformed)

    def mask_readout_forward(
        self,
        x: Tensor,
        readout_positions: np.ndarray,
        attention_mask: Optional[np.ndarray] = None,
    ) -> Tensor:
        """Layer output restricted to one readout position per row: ``(batch, 1, dim)``.

        Attention keys/values still see every position of ``x`` (required for
        correctness — the readout token attends over the whole prompt), but the
        query, both residual streams, ``norm2`` and the feed-forward (the same
        module and gelu as :meth:`forward`) all run only at
        ``readout_positions``.  Exact in real arithmetic; rounds differently
        from slicing :meth:`forward` (see
        :meth:`MultiHeadSelfAttention.mask_query_forward`).
        """
        batch = x.shape[0]
        readout_positions = np.asarray(readout_positions, dtype=np.int64)
        attended = self.attention.mask_query_forward(
            self.norm1(x), readout_positions, attention_mask=attention_mask
        )
        rows = np.arange(batch)
        residual = x[rows, readout_positions, :].reshape(batch, 1, x.shape[2])
        residual = residual + self.dropout(attended)
        transformed = self.feed_forward(self.norm2(residual))
        return residual + self.dropout(transformed)
