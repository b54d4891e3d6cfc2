"""No-tape inference forward for the DELRec/SimLM serving hot path.

The tape path (``Tensor`` ops under ``no_grad``) still wraps every
intermediate in a ``Tensor``, allocates every result array fresh and builds a
backward closure per op.  For serving — thousands of small forwards over the
same model — that bookkeeping dominates.  This module re-implements the
**mask-readout** encode (:meth:`repro.llm.SimLM.encode_mask_readout`) as plain
numpy over an :class:`InferenceArena` of persistent, shape-keyed buffers (the
in-place-optimizer buffer idiom from PR 3 applied to activations).

Bitwise contract
----------------
Every operation here replicates its tape counterpart *op for op*: the same
numpy ufuncs and ``np.matmul`` gufunc calls, over the same operands, in the
same order.  Writing a ufunc result into a preallocated ``out=`` buffer runs
the identical inner loop as allocating the result, so the arena forward is
**bitwise identical** to the tape mask-readout forward — a property pinned by
``tests/test_inference_fastpath.py``.  Arena buffers are reused *between*
forwards, never within one: each call site owns a unique tag, and no buffer
is written before its previous content has been consumed.

The arena path is dropout-free by construction (inference semantics): it
matches the tape forward with the model in eval mode, which is exactly the
state every scoring entry point puts the model in.  Callers must hold
``no_grad`` or accept that no gradients are recorded — nothing here touches
the tape.

Anything structurally unexpected (an unknown module type, a wrapped layer the
replication does not know) raises :class:`UnsupportedInferenceModule`; callers
fall back to the tape path, so exotic model surgery degrades to slow-but-
correct instead of wrong.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.autograd import heads
from repro.autograd.attention import (
    MultiHeadSelfAttention,
    TransformerEncoderLayer,
    _NEG_INF,
    padded_self_attention_mask,
)
from repro.autograd.layers import Dropout, FeedForward, LayerNorm, Linear
from repro.autograd.lora import AdaLoRALinear, LoRALinear

#: Arena buffers are dropped wholesale when more than this many distinct
#: ``(tag, shape)`` entries accumulate.  Serving sees a bounded set of batch
#: sizes and prompt lengths, so in practice the arena converges to a few
#: hundred KB; the cap bounds pathological shape churn (e.g. a sweep over
#: many prompt lengths) at roughly ``limit * largest-intermediate`` bytes.
_ARENA_BUFFER_LIMIT = 256

_GELU_C = np.sqrt(2.0 / np.pi)


class UnsupportedInferenceModule(RuntimeError):
    """Raised when a model contains a module the arena forward cannot replicate."""


class InferenceArena:
    """Persistent, shape-keyed numpy buffers for the no-tape forward.

    Each call site requests a buffer under a unique ``tag``; the first request
    for a ``(tag, shape)`` pair allocates, later requests reuse the same
    array.  Buffers are written in place (``out=``) — intentional and safe
    because the forward is sequential and every tag is written exactly once
    per forward, after its previous content is dead.
    """

    def __init__(self, limit: int = _ARENA_BUFFER_LIMIT):
        self._buffers: Dict[Tuple[str, Tuple[int, ...]], np.ndarray] = {}
        self._limit = limit
        # out-shape of a stacked matmul is a pure function of the operand
        # shapes; memoised because np.broadcast_shapes is a measurable cost
        # on the small per-bucket forwards of the serving path
        self._matmul_shapes: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], Tuple[int, ...]] = {}

    def __len__(self) -> int:
        """Number of live ``(tag, shape)`` buffers (observability/tests)."""
        return len(self._buffers)

    def nbytes(self) -> int:
        """Total bytes held by the arena (reported in the serving docs/tests)."""
        return sum(buf.nbytes for buf in self._buffers.values())

    def clear(self) -> None:
        """Drop every buffer (used when a new model is swapped in)."""
        self._buffers.clear()
        self._matmul_shapes.clear()

    def buffer(self, tag: str, shape: Tuple[int, ...]) -> np.ndarray:
        """The persistent float64 buffer for ``(tag, shape)`` (allocated once)."""
        key = (tag, shape)
        buf = self._buffers.get(key)
        if buf is None:
            if len(self._buffers) >= self._limit:
                self._buffers.clear()
            buf = np.empty(shape, dtype=np.float64)
            self._buffers[key] = buf
        return buf

    def matmul(self, a: np.ndarray, b: np.ndarray, tag: str) -> np.ndarray:
        """``a @ b`` into the arena buffer ``tag`` (same gufunc as the tape op)."""
        key = (a.shape, b.shape)
        shape = self._matmul_shapes.get(key)
        if shape is None:
            shape = np.broadcast_shapes(a.shape[:-2], b.shape[:-2]) + (a.shape[-2], b.shape[-1])
            self._matmul_shapes[key] = shape
        out = self.buffer(tag, shape)
        np.matmul(a, b, out=out)
        return out


def _linear(module, x: np.ndarray, arena: InferenceArena, tag: str) -> np.ndarray:
    """Replicate ``Linear``/``LoRALinear``/``AdaLoRALinear`` forward on arrays.

    ``x`` is 3-D, so the tape path is the stacked ``x @ W.T`` gufunc (the 2-D
    ``rowwise_matmul`` branch never triggers inside the encoder); the bias add
    and the LoRA delta replicate the tape's separate broadcast adds.
    """
    if type(module) is Linear:
        out = arena.matmul(x, module.weight.data.T, tag)
        if module.bias is not None:
            np.add(out, module.bias.data, out=out)
        return out
    if type(module) is AdaLoRALinear:
        out = _linear(module.base, x, arena, tag + ".base")
        masked_lambda = module.lora_lambda.data * module.rank_mask
        projected = arena.matmul(x, module.lora_q.data.T, tag + ".q")
        np.multiply(projected, masked_lambda, out=projected)
        delta = arena.matmul(projected, module.lora_p.data.T, tag + ".p")
        np.multiply(delta, module.scaling, out=delta)
        np.add(out, delta, out=out)
        return out
    if type(module) is LoRALinear:
        out = _linear(module.base, x, arena, tag + ".base")
        projected = arena.matmul(x, module.lora_a.data.T, tag + ".a")
        delta = arena.matmul(projected, module.lora_b.data.T, tag + ".b")
        np.multiply(delta, module.scaling, out=delta)
        np.add(out, delta, out=out)
        return out
    raise UnsupportedInferenceModule(
        f"cannot replicate linear module of type {type(module).__name__}"
    )


def _layer_norm(module: LayerNorm, x: np.ndarray, arena: InferenceArena, tag: str) -> np.ndarray:
    """Replicate ``LayerNorm.forward``: mean/centred/variance/scale, same ops.

    The tape's ``mean`` is ``sum * (1/count)`` and its ``** -0.5`` is
    ``np.power`` — both reproduced literally (``1/np.sqrt`` would round
    differently).
    """
    dim = x.shape[-1]
    mean = x.sum(axis=-1, keepdims=True) * (1.0 / dim)
    centred = arena.buffer(tag + ".centred", x.shape)
    np.subtract(x, mean, out=centred)
    squared = arena.buffer(tag + ".sq", x.shape)
    np.multiply(centred, centred, out=squared)
    variance = squared.sum(axis=-1, keepdims=True) * (1.0 / dim)
    scale = np.power(variance + module.eps, -0.5)
    out = arena.buffer(tag + ".out", x.shape)
    np.multiply(centred, scale, out=out)
    np.multiply(out, module.weight.data, out=out)
    np.add(out, module.bias.data, out=out)
    return out


def _gelu(x: np.ndarray, arena: InferenceArena, tag: str) -> np.ndarray:
    """Replicate ``Tensor.gelu`` (tanh approximation, cube by multiplication) on arrays."""
    cube = arena.buffer(tag + ".cube", x.shape)
    np.multiply(x, x, out=cube)
    np.multiply(cube, x, out=cube)
    np.multiply(cube, 0.044715, out=cube)
    np.add(x, cube, out=cube)
    np.multiply(cube, _GELU_C, out=cube)
    tanh_inner = np.tanh(cube, out=cube)
    np.add(tanh_inner, 1.0, out=tanh_inner)
    half_x = arena.buffer(tag + ".half", x.shape)
    np.multiply(0.5, x, out=half_x)
    np.multiply(half_x, tanh_inner, out=half_x)
    return half_x


def _feed_forward(module: FeedForward, x: np.ndarray, arena: InferenceArena,
                  tag: str) -> np.ndarray:
    """Replicate ``FeedForward.forward`` (dropout is eval-identity)."""
    hidden = _linear(module.fc1, x, arena, tag + ".fc1")
    if module.activation == "gelu":
        hidden = _gelu(hidden, arena, tag + ".gelu")
    else:
        # Tensor.relu is `x * (x > 0)`, not np.maximum — the multiply keeps
        # the sign of -0.0, so the same form is replicated here.
        np.multiply(hidden, hidden > 0, out=hidden)
    return _linear(module.fc2, hidden, arena, tag + ".fc2")


def _split_heads(x: np.ndarray, batch: int, length: int, num_heads: int,
                 head_dim: int) -> np.ndarray:
    """View ``(batch, length, dim)`` as ``(batch, heads, length, head_dim)``."""
    return x.reshape(batch, length, num_heads, head_dim).transpose(0, 2, 1, 3)


def _masked_scores(scores: np.ndarray, allowed: np.ndarray) -> np.ndarray:
    """Replicate ``masked_fill(scores, ~allowed, -1e9)`` (np.where, same operands)."""
    return np.where(np.broadcast_to(allowed, scores.shape), scores, np.float64(_NEG_INF))


def _softmax(scores: np.ndarray, arena: InferenceArena, tag: str) -> np.ndarray:
    """Replicate ``functional.softmax`` along the last axis."""
    shifted = arena.buffer(tag + ".shifted", scores.shape)
    np.subtract(scores, scores.max(axis=-1, keepdims=True), out=shifted)
    np.exp(shifted, out=shifted)
    np.divide(shifted, shifted.sum(axis=-1, keepdims=True), out=shifted)
    return shifted


def _attention_full(module: MultiHeadSelfAttention, x: np.ndarray,
                    attention_mask: Optional[np.ndarray], arena: InferenceArena,
                    tag: str) -> np.ndarray:
    """Replicate ``MultiHeadSelfAttention.forward`` over all positions."""
    batch, length, _ = x.shape
    heads_, head_dim = module.num_heads, module.head_dim
    queries = _split_heads(_linear(module.query_proj, x, arena, tag + ".q"),
                           batch, length, heads_, head_dim)
    keys = _split_heads(_linear(module.key_proj, x, arena, tag + ".k"),
                        batch, length, heads_, head_dim)
    values = _split_heads(_linear(module.value_proj, x, arena, tag + ".v"),
                          batch, length, heads_, head_dim)
    scores = arena.matmul(queries, keys.transpose(0, 1, 3, 2), tag + ".scores")
    np.multiply(scores, 1.0 / np.sqrt(head_dim), out=scores)
    if attention_mask is not None:
        mask = np.asarray(attention_mask, dtype=bool)
        if mask.ndim == 2:
            mask = mask[None, None, :, :]
        elif mask.ndim == 3:
            mask = mask[:, None, :, :]
        if not mask.all():
            scores = _masked_scores(scores, mask)
    weights = _softmax(scores, arena, tag + ".softmax")
    context = arena.matmul(weights, values, tag + ".context")
    merged = context.transpose(0, 2, 1, 3).reshape(batch, length, module.dim)
    return _linear(module.output_proj, merged, arena, tag + ".o")


def _attention_mask_query(module: MultiHeadSelfAttention, x: np.ndarray,
                          query_positions: np.ndarray,
                          attention_mask: Optional[np.ndarray],
                          arena: InferenceArena, tag: str) -> np.ndarray:
    """Replicate ``MultiHeadSelfAttention.mask_query_forward`` (one query/row)."""
    batch, length, _ = x.shape
    heads_, head_dim = module.num_heads, module.head_dim
    rows = np.arange(batch)
    keys = _split_heads(_linear(module.key_proj, x, arena, tag + ".k"),
                        batch, length, heads_, head_dim)
    values = _split_heads(_linear(module.value_proj, x, arena, tag + ".v"),
                          batch, length, heads_, head_dim)
    query_input = x[rows, query_positions, :].reshape(batch, 1, module.dim)
    queries = _split_heads(_linear(module.query_proj, query_input, arena, tag + ".q"),
                           batch, 1, heads_, head_dim)
    scores = arena.matmul(queries, keys.transpose(0, 1, 3, 2), tag + ".scores")
    np.multiply(scores, 1.0 / np.sqrt(head_dim), out=scores)
    if attention_mask is not None:
        mask = np.asarray(attention_mask, dtype=bool)
        if mask.ndim == 2:
            mask = mask[query_positions, :]
        elif mask.ndim == 3:
            mask = mask[rows, query_positions, :]
        mask = mask[:, None, None, :]
        if not mask.all():
            scores = _masked_scores(scores, mask)
    weights = _softmax(scores, arena, tag + ".softmax")
    context = arena.matmul(weights, values, tag + ".context")
    merged = context.transpose(0, 2, 1, 3).reshape(batch, 1, module.dim)
    return _linear(module.output_proj, merged, arena, tag + ".o")


def _layer_full(layer: TransformerEncoderLayer, x: np.ndarray,
                attention_mask: Optional[np.ndarray], arena: InferenceArena,
                tag: str) -> np.ndarray:
    """Replicate ``TransformerEncoderLayer.forward`` on arrays (eval mode)."""
    normed = _layer_norm(layer.norm1, x, arena, tag + ".n1")
    attended = _attention_full(layer.attention, normed, attention_mask, arena, tag + ".attn")
    residual = arena.buffer(tag + ".res1", x.shape)
    np.add(x, attended, out=residual)
    normed2 = _layer_norm(layer.norm2, residual, arena, tag + ".n2")
    transformed = _feed_forward(layer.feed_forward, normed2, arena, tag + ".ff")
    out = arena.buffer(tag + ".res2", x.shape)
    np.add(residual, transformed, out=out)
    return out


def _layer_mask_readout(layer: TransformerEncoderLayer, x: np.ndarray,
                        readout_positions: np.ndarray,
                        attention_mask: Optional[np.ndarray],
                        arena: InferenceArena, tag: str) -> np.ndarray:
    """Replicate ``TransformerEncoderLayer.mask_readout_forward`` on arrays."""
    batch = x.shape[0]
    normed = _layer_norm(layer.norm1, x, arena, tag + ".n1")
    attended = _attention_mask_query(
        layer.attention, normed, readout_positions, attention_mask, arena, tag + ".attn"
    )
    rows = np.arange(batch)
    residual = arena.buffer(tag + ".res1", (batch, 1, x.shape[2]))
    np.add(x[rows, readout_positions, :].reshape(batch, 1, x.shape[2]),
           attended, out=residual)
    normed2 = _layer_norm(layer.norm2, residual, arena, tag + ".n2")
    transformed = _feed_forward(layer.feed_forward, normed2, arena, tag + ".ff")
    out = arena.buffer(tag + ".res2", residual.shape)
    np.add(residual, transformed, out=out)
    return out


def _check_layer(layer) -> None:
    """Validate one encoder layer's structure for the arena replication."""
    if type(layer) is not TransformerEncoderLayer:
        raise UnsupportedInferenceModule(
            f"encoder layer is {type(layer).__name__}, not TransformerEncoderLayer"
        )
    if type(layer.attention) is not MultiHeadSelfAttention:
        raise UnsupportedInferenceModule(
            f"attention is {type(layer.attention).__name__}"
        )
    if type(layer.feed_forward) is not FeedForward:
        raise UnsupportedInferenceModule(
            f"feed-forward is {type(layer.feed_forward).__name__}"
        )
    for module in (layer.attention.query_proj, layer.attention.key_proj,
                   layer.attention.value_proj, layer.attention.output_proj,
                   layer.feed_forward.fc1, layer.feed_forward.fc2):
        if type(module) not in (Linear, AdaLoRALinear, LoRALinear):
            raise UnsupportedInferenceModule(
                f"linear module is {type(module).__name__}"
            )
    for norm in (layer.norm1, layer.norm2):
        if type(norm) is not LayerNorm:
            raise UnsupportedInferenceModule(f"norm is {type(norm).__name__}")
    for drop in (layer.dropout, layer.attention.dropout, layer.feed_forward.dropout):
        if type(drop) is not Dropout:
            raise UnsupportedInferenceModule(f"dropout is {type(drop).__name__}")


def supports_model(model) -> bool:
    """Whether the arena forward can replicate ``model`` (a SimLM) exactly.

    Checks module types layer by layer; any unknown wrapper (a custom layer
    class, a non-standard linear) makes the whole model unsupported, and the
    caller keeps using the tape path.
    """
    try:
        if type(model.final_norm) is not LayerNorm:
            raise UnsupportedInferenceModule("final_norm")
        if len(model.layers) == 0:
            raise UnsupportedInferenceModule("no encoder layers")
        for layer in model.layers:
            _check_layer(layer)
    except (UnsupportedInferenceModule, AttributeError):
        return False
    return True


def mask_readout_hidden(
    model,
    token_ids: np.ndarray,
    input_embeddings: Optional[np.ndarray] = None,
    valid_mask: Optional[np.ndarray] = None,
    arena: Optional[InferenceArena] = None,
) -> np.ndarray:
    """No-tape mask-readout encode: hidden states ``(batch, dim)`` at [MASK].

    The array-level twin of :meth:`repro.llm.SimLM.encode_mask_readout` —
    bitwise identical to it, op for op (see the module docstring).
    ``input_embeddings`` optionally overrides the token embeddings (soft
    prompts already spliced in, as a plain array); ``token_ids`` still locates
    the mask position and the padding.  The caller is expected to have
    verified :func:`supports_model`; structural surprises raise
    :class:`UnsupportedInferenceModule` mid-flight.
    """
    from repro.llm.simlm import _single_mask_positions

    arena = arena if arena is not None else InferenceArena()
    token_ids = np.asarray(token_ids, dtype=np.int64)
    if valid_mask is None:
        valid_mask = token_ids != model.tokenizer.pad_id
    batch, length = token_ids.shape
    if length > model.config.max_position:
        raise ValueError(
            f"sequence length {length} exceeds max_position {model.config.max_position}"
        )
    if input_embeddings is None:
        input_embeddings = embed_tokens_array(model, token_ids, arena)
    hidden = arena.buffer("embed.pos", (batch, length, model.dim))
    # position_embedding gathers table[positions] with broadcast arange rows;
    # adding the (1, length, dim) slice broadcasts through the same ufunc.
    np.add(input_embeddings,
           model.position_embedding.weight.data[:length][None, :, :], out=hidden)
    attention_mask = padded_self_attention_mask(valid_mask)
    mask_positions = _single_mask_positions(token_ids, model.tokenizer.mask_id)
    for index in range(len(model.layers) - 1):
        hidden = _layer_full(model.layers[index], hidden, attention_mask, arena,
                             f"layer{index}")
    last = len(model.layers) - 1
    readout = _layer_mask_readout(model.layers[last], hidden, mask_positions,
                                  attention_mask, arena, f"layer{last}")
    final = _layer_norm(model.final_norm, readout, arena, "final")
    return final.reshape(batch, model.dim)


def embed_tokens_array(model, token_ids: np.ndarray,
                       arena: InferenceArena) -> np.ndarray:
    """Replicate ``SimLM.embed_tokens`` (gather + padding zero-out) on arrays."""
    token_ids = np.asarray(token_ids, dtype=np.int64)
    out = arena.buffer("embed.tokens", token_ids.shape + (model.dim,))
    np.take(model.token_embedding.weight.data, token_ids, axis=0, out=out)
    padding_idx = model.token_embedding.padding_idx
    if padding_idx is not None:
        keep = (token_ids != padding_idx).astype(np.float64)[..., None]
        np.multiply(out, keep, out=out)
    return out


def splice_soft_prompt_array(soft_prompt, token_embeddings: np.ndarray,
                             token_ids: np.ndarray, soft_id: int,
                             arena: InferenceArena) -> np.ndarray:
    """Replicate ``SoftPrompt.splice_into`` on arrays (same placement matmul)."""
    token_ids = np.asarray(token_ids, dtype=np.int64)
    soft_mask = token_ids == soft_id
    counts = soft_mask.sum(axis=1)
    if not counts.any():
        return token_embeddings
    if not np.all((counts == 0) | (counts == soft_prompt.num_tokens)):
        raise ValueError(
            f"each sequence must contain exactly {soft_prompt.num_tokens} [SOFT] "
            f"slots; got {counts}"
        )
    batch, length, _ = token_embeddings.shape
    keep = (~soft_mask).astype(np.float64)[..., None]
    np.multiply(token_embeddings, keep, out=token_embeddings)
    placement = arena.buffer("embed.placement", (batch, length, soft_prompt.num_tokens))
    placement.fill(0.0)
    rows, positions = np.nonzero(soft_mask)
    slots = soft_mask.cumsum(axis=1)[rows, positions] - 1
    placement[rows, positions, slots] = 1.0
    spliced = arena.matmul(placement, soft_prompt.weight.data, "embed.spliced")
    np.add(token_embeddings, spliced, out=token_embeddings)
    return token_embeddings


def candidate_scores_array(model, mask_hidden: np.ndarray,
                           candidate_token_ids: np.ndarray) -> np.ndarray:
    """Replicate the restricted candidate head forward on arrays: ``(batch, C)``.

    Same per-element dot products as :func:`repro.autograd.heads.candidate_lm_logits`
    under ``no_grad`` (that function's forward is already array-level through
    ``_dot_rows``); returns a fresh array the caller may keep.
    """
    candidate_token_ids = np.asarray(candidate_token_ids, dtype=np.int64)
    logits = heads._dot_rows(mask_hidden, model.token_embedding.weight.data[candidate_token_ids])
    return logits + model.output_bias.data[candidate_token_ids]
