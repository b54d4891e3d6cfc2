"""SimLM: a from-scratch masked-language-model transformer.

SimLM plays the role of Flan-T5-XL in the reproduction.  It is an
encoder-only transformer with a tied LM head, and it exposes the two hooks
DELRec needs:

* ``embed_tokens`` / ``encode_embeddings`` — so that soft-prompt vectors can
  be spliced into the input embedding sequence at ``[SOFT]`` positions while
  the backbone stays frozen (Stage 1 prompt tuning);
* ``mask_logits`` — LM-head logits at the ``[MASK]`` position, which the
  :class:`repro.llm.verbalizer.Verbalizer` converts into candidate-item scores.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.autograd import (
    Dropout,
    Embedding,
    LayerNorm,
    Module,
    Parameter,
    Tensor,
    TransformerEncoderLayer,
)
from repro.autograd import heads, init
from repro.autograd.attention import padded_self_attention_mask
from repro.autograd.module import ModuleList
from repro.llm.tokenizer import Tokenizer


@dataclass
class SimLMConfig:
    """Architecture hyper-parameters of a SimLM backbone."""

    name: str = "simlm-base"
    dim: int = 48
    num_layers: int = 2
    num_heads: int = 4
    hidden_dim: Optional[int] = None
    dropout: float = 0.1
    max_position: int = 256
    seed: int = 0

    def __post_init__(self) -> None:
        if self.dim % self.num_heads != 0:
            raise ValueError("dim must be divisible by num_heads")
        if self.hidden_dim is None:
            self.hidden_dim = self.dim * 4


class SimLM(Module):
    """Bidirectional transformer language model with a tied output head."""

    def __init__(self, tokenizer: Tokenizer, config: Optional[SimLMConfig] = None):
        super().__init__()
        self.tokenizer = tokenizer
        self.config = config or SimLMConfig()
        rng = np.random.default_rng(self.config.seed)
        dim = self.config.dim
        self.token_embedding = Embedding(tokenizer.vocab_size, dim, padding_idx=tokenizer.pad_id, rng=rng)
        self.position_embedding = Embedding(self.config.max_position, dim, rng=rng)
        self.layers = ModuleList(
            [
                TransformerEncoderLayer(
                    dim=dim,
                    num_heads=self.config.num_heads,
                    hidden_dim=self.config.hidden_dim,
                    dropout=self.config.dropout,
                    rng=rng,
                )
                for _ in range(self.config.num_layers)
            ]
        )
        self.final_norm = LayerNorm(dim)
        self.dropout = Dropout(self.config.dropout, rng=rng)
        self.output_bias = Parameter(init.zeros((tokenizer.vocab_size,)))
        self.is_pretrained = False

    # ------------------------------------------------------------------ #
    # embeddings
    # ------------------------------------------------------------------ #
    @property
    def dim(self) -> int:
        return self.config.dim

    def embed_tokens(self, token_ids: np.ndarray) -> Tensor:
        """Token embeddings for ``(batch, length)`` ids (no positions added)."""
        return self.token_embedding(np.asarray(token_ids, dtype=np.int64))

    def token_embedding_matrix(self) -> np.ndarray:
        """The raw token-embedding table (used by LLM-embedding baselines)."""
        return self.token_embedding.weight.data.copy()

    def item_title_embeddings(self, catalog, aggregation: str = "mean") -> np.ndarray:
        """Title-based item embeddings of shape ``(num_items + 1, dim)``.

        Used by the LLMSEQSIM / LLM2BERT4Rec baselines, which obtain item
        embeddings from the LLM.  Row 0 (padding) is zeros.
        """
        table = self.token_embedding.weight.data
        out = np.zeros((len(catalog) + 1, self.dim))
        for item in catalog:
            word_ids = self.tokenizer.encode(item.title)
            word_ids = [w for w in word_ids if w != self.tokenizer.unk_id] or [self.tokenizer.unk_id]
            vectors = table[np.asarray(word_ids)]
            if aggregation == "mean":
                out[item.item_id] = vectors.mean(axis=0)
            elif aggregation == "first":
                out[item.item_id] = vectors[0]
            else:
                raise ValueError(f"unknown aggregation {aggregation!r}")
        return out

    # ------------------------------------------------------------------ #
    # forward passes
    # ------------------------------------------------------------------ #
    def encode_embeddings(self, embeddings: Tensor, valid_mask: np.ndarray) -> Tensor:
        """Run the transformer over pre-built input embeddings ``(batch, length, dim)``."""
        batch, length, _ = embeddings.shape
        if length > self.config.max_position:
            raise ValueError(
                f"sequence length {length} exceeds max_position {self.config.max_position}"
            )
        positions = np.broadcast_to(np.arange(length), (batch, length))
        hidden = embeddings + self.position_embedding(positions)
        hidden = self.dropout(hidden)
        attention_mask = padded_self_attention_mask(valid_mask)
        for layer in self.layers:
            hidden = layer(hidden, attention_mask=attention_mask)
        return self.final_norm(hidden)

    def forward(self, token_ids: np.ndarray, valid_mask: Optional[np.ndarray] = None) -> Tensor:
        """Full-vocabulary logits ``(batch, length, vocab)`` for token inputs."""
        token_ids = np.asarray(token_ids, dtype=np.int64)
        if valid_mask is None:
            valid_mask = token_ids != self.tokenizer.pad_id
        hidden = self.encode_embeddings(self.embed_tokens(token_ids), valid_mask)
        return self.lm_logits(hidden)

    def lm_logits(self, hidden: Tensor) -> Tensor:
        """Tied LM head: project hidden states back onto the vocabulary.

        2-D hidden states (one vector per sequence, the ``mask_logits`` path)
        use the batch-invariant product so that a batch of sequences scores
        bitwise-identically to the same sequences run one at a time.
        """
        weight_t = self.token_embedding.weight.transpose()
        if hidden.data.ndim == 2:
            return hidden.rowwise_matmul(weight_t) + self.output_bias
        return hidden.matmul(weight_t) + self.output_bias

    def mask_hidden_states(
        self,
        token_ids: np.ndarray,
        input_embeddings: Optional[Tensor] = None,
        valid_mask: Optional[np.ndarray] = None,
    ) -> Tensor:
        """Hidden states at the (single) ``[MASK]`` position: ``(batch, dim)``.

        ``input_embeddings`` overrides the token embeddings (used when soft
        prompts have been spliced in); ``token_ids`` is still required to
        locate the mask position and build the padding mask.
        """
        token_ids = np.asarray(token_ids, dtype=np.int64)
        if valid_mask is None:
            valid_mask = token_ids != self.tokenizer.pad_id
        embeddings = input_embeddings if input_embeddings is not None else self.embed_tokens(token_ids)
        hidden = self.encode_embeddings(embeddings, valid_mask)
        mask_positions = _single_mask_positions(token_ids, self.tokenizer.mask_id)
        batch_index = np.arange(token_ids.shape[0])
        return hidden[batch_index, mask_positions, :]

    def mask_logits(
        self,
        token_ids: np.ndarray,
        input_embeddings: Optional[Tensor] = None,
        valid_mask: Optional[np.ndarray] = None,
    ) -> Tensor:
        """LM-head logits at the (single) ``[MASK]`` position of each sequence."""
        return self.lm_logits(self.mask_hidden_states(token_ids, input_embeddings, valid_mask))

    def encode_mask_readout(
        self,
        token_ids: np.ndarray,
        input_embeddings: Optional[Tensor] = None,
        valid_mask: Optional[np.ndarray] = None,
    ) -> Tensor:
        """Mask-position hidden states via the restricted readout path: ``(batch, dim)``.

        The serving/inference counterpart of :meth:`mask_hidden_states`: every
        layer but the last runs its plain forward, and the **last** layer is
        evaluated only at the ``[MASK]`` position of each row (keys/values
        still span the whole prompt — see
        :meth:`~repro.autograd.attention.TransformerEncoderLayer.mask_readout_forward`).
        That restricted last layer is the only difference: exact in real
        arithmetic but rounded differently from :meth:`mask_hidden_states`, so
        the two paths are not interchangeable mid-experiment; every inference
        consumer must pick one and stick to it.  Training keeps
        :meth:`mask_hidden_states`.
        """
        token_ids = np.asarray(token_ids, dtype=np.int64)
        if valid_mask is None:
            valid_mask = token_ids != self.tokenizer.pad_id
        embeddings = input_embeddings if input_embeddings is not None else self.embed_tokens(token_ids)
        batch, length, _ = embeddings.shape
        if length > self.config.max_position:
            raise ValueError(
                f"sequence length {length} exceeds max_position {self.config.max_position}"
            )
        positions = np.broadcast_to(np.arange(length), (batch, length))
        hidden = embeddings + self.position_embedding(positions)
        hidden = self.dropout(hidden)
        attention_mask = padded_self_attention_mask(valid_mask)
        mask_positions = _single_mask_positions(token_ids, self.tokenizer.mask_id)
        for layer in self.layers[:-1]:
            hidden = layer(hidden, attention_mask=attention_mask)
        readout = self.layers[len(self.layers) - 1].mask_readout_forward(
            hidden, mask_positions, attention_mask=attention_mask
        )
        return self.final_norm(readout).reshape(batch, self.dim)

    def mask_readout_candidate_logits(
        self,
        token_ids: np.ndarray,
        candidate_token_ids: np.ndarray,
        input_embeddings: Optional[Tensor] = None,
        valid_mask: Optional[np.ndarray] = None,
    ) -> Tensor:
        """Candidate head logits ``(batch, C)`` via :meth:`encode_mask_readout`."""
        mask_hidden = self.encode_mask_readout(token_ids, input_embeddings, valid_mask)
        return self.candidate_logits_from_hidden(mask_hidden, candidate_token_ids)

    def candidate_logits_from_hidden(
        self,
        mask_hidden: Tensor,
        candidate_token_ids: np.ndarray,
        full_vocab_reference: bool = False,
    ) -> Tensor:
        """Candidate-token head logits ``(batch, C)`` from mask-position hidden states."""
        candidate_token_ids = np.asarray(candidate_token_ids, dtype=np.int64)
        if full_vocab_reference:
            vocab_logits = heads.full_vocab_lm_logits(
                mask_hidden, self.token_embedding.weight, self.output_bias
            )
            rows = np.arange(mask_hidden.shape[0])[:, None]
            return vocab_logits[rows, candidate_token_ids]
        return heads.candidate_lm_logits(
            mask_hidden, self.token_embedding.weight, self.output_bias, candidate_token_ids
        )

    def mask_candidate_logits(
        self,
        token_ids: np.ndarray,
        candidate_token_ids: np.ndarray,
        input_embeddings: Optional[Tensor] = None,
        valid_mask: Optional[np.ndarray] = None,
        full_vocab_reference: bool = False,
    ) -> Tensor:
        """Head logits at the ``[MASK]`` position for each row's candidate tokens.

        This is the restricted fast path: only the mask-position hidden vector
        of each sequence is projected, and only onto the ``(batch, C)``
        candidate token rows of the tied embedding — the ``(batch, vocab)``
        logit matrix (and its backward) is never built.  Losses, gradients and
        scores are **bitwise identical** to computing the full-vocabulary
        logits and slicing the candidate columns; pass
        ``full_vocab_reference=True`` to run exactly that reference full-cube
        path (used by the bit-exactness tests and the RQ5 baseline).
        """
        mask_hidden = self.mask_hidden_states(token_ids, input_embeddings, valid_mask)
        return self.candidate_logits_from_hidden(
            mask_hidden, candidate_token_ids, full_vocab_reference
        )

    # ------------------------------------------------------------------ #
    def adaptable_linear_filter(self, name: str) -> bool:
        """Which linear layers AdaLoRA should adapt (attention + feed-forward projections)."""
        return any(part in name for part in ("query_proj", "value_proj", "fc1", "fc2"))


def _single_mask_positions(token_ids: np.ndarray, mask_id: int) -> np.ndarray:
    """Index of the last [MASK] token in each row (raises if a row has none).

    Vectorised: the last occurrence per row is found by arg-maxing the reversed
    hit mask, with no per-row Python loop.
    """
    hits = token_ids == mask_id
    has_mask = hits.any(axis=1)
    if not has_mask.all():
        missing = int(np.argmin(has_mask))
        raise ValueError(f"sequence {missing} contains no [MASK] token")
    length = token_ids.shape[1]
    return (length - 1 - hits[:, ::-1].argmax(axis=1)).astype(np.int64)
