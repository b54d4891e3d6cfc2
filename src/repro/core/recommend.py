"""Stage 2: LLMs-based Sequential Recommendation (LSR).

The distilled soft prompts are frozen and inserted into the recommendation
prompt; the LLM is fine-tuned with AdaLoRA (Lion optimizer) to predict the
ground-truth next item (Eq. 8).  The resulting :class:`DELRecRecommender`
exposes the same ``score_candidates`` interface as every conventional model so
it can be evaluated by the shared harness.
"""

from __future__ import annotations

import contextlib
import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.autograd import SGD, Adam, Lion, no_grad
from repro.autograd import functional as F
from repro.autograd import inference as fast_inference
from repro.autograd.lora import (
    AdaLoRAController,
    AdaLoRALinear,
    wrap_linears_with_adalora,
    wrap_named_linear_with_adalora,
)
from repro.core.config import Stage2Config
from repro.core.distill import validate_lm_head
from repro.core.prompts import PromptBatch, PromptBuilder, PromptExample
from repro.data.candidates import CandidateSampler
from repro.data.records import SequenceDataset
from repro.data.splits import SequenceExample
from repro.llm.registry import build_tokenizer
from repro.llm.simlm import SimLM, SimLMConfig
from repro.llm.soft_prompt import SoftPrompt
from repro.llm.verbalizer import Verbalizer
from repro.parallel.data import DataParallelEngine, ShardProgram, reseed_dropouts, tree_sum
from repro.store.components import restore_soft_prompt, serialize_soft_prompt
from repro.store.fingerprint import fingerprint, state_fingerprint
from repro.store.store import ArtifactError, read_artifact, write_artifact

_OPTIMIZERS = {"lion": Lion, "adam": Adam, "sgd": SGD}

#: Dropout-entropy domain tag for Stage-2 shard evaluations (disjoint from
#: the Stage-1 and neural-trainer domains, so shard seeds never collide).
_STAGE2_DOMAIN = 2

#: Inference readout semantics: ``"mask"`` evaluates the last encoder layer
#: only at the [MASK] position (the serving fast path), ``"full"`` runs the
#: full-width encoder (the pre-PR-7 scoring path, kept as the timing
#: reference).  Both are exact; they round differently (see
#: :meth:`repro.llm.SimLM.encode_mask_readout`).
_READOUTS = ("mask", "full")


def validate_readout(readout: str) -> str:
    """Validate a readout mode name (one of :data:`_READOUTS`)."""
    if readout not in _READOUTS:
        raise ValueError(f"unknown readout {readout!r}; expected one of {_READOUTS}")
    return readout


@dataclass
class FineTuningResult:
    """Training trace of Stage 2."""

    losses: List[float] = field(default_factory=list)
    active_ranks: List[int] = field(default_factory=list)

    @property
    def final_loss(self) -> float:
        return self.losses[-1] if self.losses else float("nan")


class DELRecRecommender:
    """The deployable DELRec model: frozen soft prompts + fine-tuned LLM + verbalizer."""

    def __init__(
        self,
        model: SimLM,
        prompt_builder: PromptBuilder,
        verbalizer: Verbalizer,
        soft_prompt: Optional[SoftPrompt],
        auxiliary: str = "soft",
        sr_model_name: Optional[str] = None,
        name: str = "DELRec",
        max_history: int = 9,
        lm_head: str = "restricted",
        readout: str = "mask",
    ):
        self.model = model
        self.prompt_builder = prompt_builder
        self.verbalizer = verbalizer
        self.soft_prompt = soft_prompt
        self.auxiliary = auxiliary if soft_prompt is not None or auxiliary != "soft" else "none"
        self.sr_model_name = sr_model_name
        self.name = name
        self.max_history = max_history
        #: Scoring head: ``"restricted"`` computes logits only for the
        #: candidate tokens, ``"full"`` runs the full-vocabulary reference
        #: (bitwise identical to restricted), ``"blas"`` the original fused
        #: full-vocabulary scorer (legacy RQ5 baseline, different rounding).
        #: Restricted/full scores are bitwise identical, so the choice is not
        #: part of the serialised bundle or any artifact fingerprint.
        self.lm_head = validate_lm_head(lm_head)
        #: Encoder readout at inference: ``"mask"`` (default) restricts the
        #: last layer to the [MASK] position; ``"full"`` keeps the full-width
        #: encode.  Exact either way, but the restricted last layer rounds
        #: differently — the choice IS part of
        #: :meth:`scoring_fingerprint` (unlike restricted-vs-full lm_head).
        self.readout = validate_readout(readout)
        #: Optional :class:`~repro.serve.prefix.PrefixCache` attached by the
        #: serving layer; when set, :meth:`build_prompt` renders prompts
        #: through it (byte-identical token ids, memoised prefix).
        self.prefix_cache = None
        self._inference_arena: Optional[fast_inference.InferenceArena] = None

    # ------------------------------------------------------------------ #
    def build_prompt(
        self, history: Sequence[int], candidates: Sequence[int], label_item: Optional[int] = None
    ) -> PromptExample:
        """Render the Stage-2 prompt for a history/candidate pair.

        At inference time no label is known; the first candidate is used as a
        placeholder (the label field is ignored when scoring).
        """
        history = [i for i in history if i != 0][-self.max_history:]
        label = label_item if label_item is not None else candidates[0]
        if self.prefix_cache is not None:
            return self.prefix_cache.recommendation_prompt(
                self.prompt_builder,
                history=history,
                candidates=candidates,
                label_item=label,
                sr_model_name=self.sr_model_name,
                auxiliary=self.auxiliary,
            )
        return self.prompt_builder.recommendation_prompt(
            history=history,
            candidates=candidates,
            label_item=label,
            sr_model_name=self.sr_model_name,
            auxiliary=self.auxiliary,
        )

    def _spliced_embeddings(self, batch: PromptBatch):
        embeddings = self.model.embed_tokens(batch.tokens)
        if self.soft_prompt is not None and self.auxiliary == "soft":
            embeddings = self.soft_prompt.splice_into(
                embeddings, batch.tokens, self.prompt_builder.tokenizer.soft_id
            )
        return embeddings

    def _blas_scores(
        self, batch: PromptBatch, candidate_sets: Sequence[Sequence[int]]
    ) -> List[np.ndarray]:
        """Legacy scorer: full-vocabulary logits via the fused BLAS head."""
        vocab_logits = self.model.mask_logits(
            batch.tokens,
            input_embeddings=self._spliced_embeddings(batch),
            valid_mask=batch.valid_mask,
        ).data
        return [
            self.verbalizer.score_candidates(vocab_logits[row], candidates)
            for row, candidates in enumerate(candidate_sets)
        ]

    def _restricted_scores(
        self,
        batch: PromptBatch,
        candidate_sets: Sequence[Sequence[int]],
        token_sets: Optional[Sequence[np.ndarray]] = None,
    ) -> List[np.ndarray]:
        """Candidate scores through the restricted LM head (one row per example).

        Only the score-relevant token columns are projected (for the default
        item-token verbalizer: one token per candidate), instead of the whole
        vocabulary.  ``lm_head="full"`` routes the same request through the
        kept full-vocabulary reference head; the scores are bitwise identical,
        and both are bitwise identical to scoring each example on its own.
        ``token_sets`` lets callers reuse already-computed restricted token
        ids (one equally-sized array per candidate set).
        """
        if token_sets is None:
            token_sets = [
                self.verbalizer.restricted_token_ids(candidates) for candidates in candidate_sets
            ]
        token_ids = np.asarray(token_sets, dtype=np.int64)
        token_logits = self.model.mask_candidate_logits(
            batch.tokens,
            token_ids,
            input_embeddings=self._spliced_embeddings(batch),
            valid_mask=batch.valid_mask,
            full_vocab_reference=self.lm_head == "full",
        ).data
        return [
            self.verbalizer.scores_from_restricted(token_logits[row], candidates)
            for row, candidates in enumerate(candidate_sets)
        ]

    @contextlib.contextmanager
    def using_readout(self, readout: str):
        """Temporarily switch the inference readout (the RQ5 timing-reference arm).

        ``with recommender.using_readout("full"): ...`` scores through the
        pre-PR-7 full-width encoder; on exit the previous mode is restored.
        Scores taken under different readouts round differently — never mix
        them inside one comparison (the serving result cache is keyed on
        :meth:`scoring_fingerprint`, which includes the readout, so it cannot).
        """
        previous = self.readout
        self.readout = validate_readout(readout)
        try:
            yield self
        finally:
            self.readout = previous

    def _embedding_input_array(
        self,
        batch: PromptBatch,
        prompts: Optional[Sequence[PromptExample]],
        arena: "fast_inference.InferenceArena",
    ) -> np.ndarray:
        """Input embeddings (token gather + soft-prompt splice) as a plain array.

        Bitwise-identical to :meth:`_spliced_embeddings` ``.data`` — the same
        gather, padding multiply and splice ops at the array level.  When a
        prefix cache is attached and a prompt row carries a ``prefix_key``,
        the gathered embedding block for the stable prefix is stored on first
        sight and copied back on later sights (copies of table rows are
        bitwise equal to re-gathering them), so repeat users with grown
        histories skip most of the gather.
        """
        token_ids = np.asarray(batch.tokens, dtype=np.int64)
        table = self.model.token_embedding.weight.data
        dim = self.model.dim
        out = arena.buffer("embed.tokens", token_ids.shape + (dim,))
        cache = self.prefix_cache
        for row in range(token_ids.shape[0]):
            prompt = prompts[row] if prompts is not None else None
            key = prompt.prefix_key if prompt is not None else None
            plen = prompt.prefix_length if prompt is not None else 0
            block = cache.embedding_block(key) if (cache is not None and key) else None
            if block is not None and block.shape == (plen, dim):
                out[row, :plen] = block
                np.take(table, token_ids[row, plen:], axis=0, out=out[row, plen:])
            else:
                np.take(table, token_ids[row], axis=0, out=out[row])
                if cache is not None and key and plen:
                    cache.store_embedding_block(key, out[row, :plen].copy())
        padding_idx = self.model.token_embedding.padding_idx
        if padding_idx is not None:
            keep = (token_ids != padding_idx).astype(np.float64)[..., None]
            np.multiply(out, keep, out=out)
        if self.soft_prompt is not None and self.auxiliary == "soft":
            out = fast_inference.splice_soft_prompt_array(
                self.soft_prompt, out, token_ids, self.prompt_builder.tokenizer.soft_id, arena
            )
        return out

    def _mask_readout_scores(
        self,
        batch: PromptBatch,
        candidate_sets: Sequence[Sequence[int]],
        token_sets: Optional[Sequence[np.ndarray]] = None,
        prompts: Optional[Sequence[PromptExample]] = None,
    ) -> List[np.ndarray]:
        """Candidate scores through the mask-readout encode (``readout="mask"``).

        Runs the no-tape arena forward when the model's structure is
        replicable (:func:`repro.autograd.inference.supports_model`) and falls
        back to the tape twin :meth:`repro.llm.SimLM.encode_mask_readout`
        otherwise — the two are bitwise identical, so the fallback only costs
        speed.  The candidate head is the array-level restricted head either
        way.  Callers must already hold ``no_grad`` with the model in eval
        mode (both scoring entry points do).
        """
        if token_sets is None:
            token_sets = [
                self.verbalizer.restricted_token_ids(candidates) for candidates in candidate_sets
            ]
        mask_hidden: Optional[np.ndarray] = None
        plain_soft = self.soft_prompt is None or type(self.soft_prompt) is SoftPrompt
        if plain_soft and fast_inference.supports_model(self.model):
            if self._inference_arena is None:
                self._inference_arena = fast_inference.InferenceArena()
            try:
                embeddings = self._embedding_input_array(batch, prompts, self._inference_arena)
                mask_hidden = fast_inference.mask_readout_hidden(
                    self.model,
                    batch.tokens,
                    input_embeddings=embeddings,
                    valid_mask=batch.valid_mask,
                    arena=self._inference_arena,
                )
            except fast_inference.UnsupportedInferenceModule:
                mask_hidden = None
        if mask_hidden is None:
            mask_hidden = self.model.encode_mask_readout(
                batch.tokens,
                input_embeddings=self._spliced_embeddings(batch),
                valid_mask=batch.valid_mask,
            ).data
        if len({len(tokens) for tokens in token_sets}) == 1:
            logits = fast_inference.candidate_scores_array(
                self.model, mask_hidden, np.asarray(token_sets, dtype=np.int64)
            )
            return [
                self.verbalizer.scores_from_restricted(logits[row], candidates)
                for row, candidates in enumerate(candidate_sets)
            ]
        # unequal per-row token sets (title-aggregation ablations): the head is
        # per-element, so per-row calls are bitwise-identical to a batched one
        return [
            self.verbalizer.scores_from_restricted(
                fast_inference.candidate_scores_array(
                    self.model, mask_hidden[row:row + 1], tokens[None, :]
                )[0],
                candidates,
            )
            for row, (tokens, candidates) in enumerate(
                zip(token_sets, candidate_sets, strict=True)
            )
        ]

    def score_candidates(self, history: Sequence[int], candidates: Sequence[int]) -> np.ndarray:
        """Scores aligned with ``candidates`` (higher is better)."""
        prompt = self.build_prompt(history, candidates)
        batch = self.prompt_builder.batch([prompt])
        with no_grad():
            was_training = self.model.training
            if was_training:
                self.model.eval()
            if self.lm_head == "blas":
                scores = self._blas_scores(batch, [candidates])[0]
            elif self.readout == "mask":
                scores = self._mask_readout_scores(batch, [candidates], prompts=[prompt])[0]
            else:
                scores = self._restricted_scores(batch, [candidates])[0]
            if was_training:
                self.model.train()
        return scores

    def score_candidates_batch(
        self,
        histories: Sequence[Sequence[int]],
        candidate_sets: Sequence[Sequence[int]],
    ) -> List[np.ndarray]:
        """Score many examples through a handful of batched SimLM forwards.

        Prompts are grouped into buckets of identical token length (and
        candidate-set size), so each bucket forms one un-padded
        :class:`~repro.core.prompts.PromptBatch` and one transformer forward.
        Because a bucket needs no padding and the forward pass only uses
        batch-invariant operations, every row's scores are bitwise-identical
        to the per-example :meth:`score_candidates` loop — just several times
        faster.
        """
        if len(histories) != len(candidate_sets):
            raise ValueError(
                f"got {len(histories)} histories but {len(candidate_sets)} candidate sets"
            )
        if not len(histories):
            return []
        prompts = [
            self.build_prompt(history, candidates)
            for history, candidates in zip(histories, candidate_sets, strict=True)
        ]
        buckets: Dict[Tuple[int, int], List[int]] = {}
        for index, prompt in enumerate(prompts):
            key = (prompt.length, len(prompt.candidate_items))
            buckets.setdefault(key, []).append(index)
        scores: List[Optional[np.ndarray]] = [None] * len(prompts)
        with no_grad():
            was_training = self.model.training
            if was_training:
                self.model.eval()
            for indices in buckets.values():
                batch = self.prompt_builder.batch([prompts[i] for i in indices])
                bucket_candidates = [candidate_sets[i] for i in indices]
                if self.lm_head == "blas":
                    row_scores = self._blas_scores(batch, bucket_candidates)
                    for row, index in enumerate(indices):
                        scores[index] = row_scores[row]
                    continue
                token_sets = [
                    self.verbalizer.restricted_token_ids(candidates)
                    for candidates in bucket_candidates
                ]
                if self.readout == "mask":
                    row_scores = self._mask_readout_scores(
                        batch, bucket_candidates, token_sets,
                        prompts=[prompts[i] for i in indices],
                    )
                elif len({len(tokens) for tokens in token_sets}) == 1:
                    row_scores = self._restricted_scores(batch, bucket_candidates, token_sets)
                else:
                    # per-row restricted token sets of unequal size (possible
                    # under the title-aggregation verbalizer ablations):
                    # encode the bucket once, then run the per-element
                    # (batch-invariant) head row by row — bitwise-identical
                    # to scoring each prompt on its own
                    mask_hidden = self.model.mask_hidden_states(
                        batch.tokens,
                        input_embeddings=self._spliced_embeddings(batch),
                        valid_mask=batch.valid_mask,
                    )
                    reference = self.lm_head == "full"
                    row_scores = []
                    for row, (index, tokens) in enumerate(zip(indices, token_sets, strict=True)):
                        row_logits = self.model.candidate_logits_from_hidden(
                            mask_hidden[row:row + 1], tokens[None, :],
                            full_vocab_reference=reference,
                        ).data[0]
                        row_scores.append(
                            self.verbalizer.scores_from_restricted(
                                row_logits, candidate_sets[index]
                            )
                        )
                for row, index in enumerate(indices):
                    scores[index] = row_scores[row]
            if was_training:
                self.model.train()
        return scores

    def top_k(self, history: Sequence[int], k: int, candidates: Sequence[int]) -> List[int]:
        """The ``k`` highest-scoring candidate ids (stable ties, like the evaluator)."""
        scores = self.score_candidates(history, candidates)
        order = np.argsort(-scores, kind="stable")
        return [int(candidates[i]) for i in order[:k]]

    def scoring_fingerprint(self) -> str:
        """Content identity of everything candidate scoring depends on.

        Hashes the full deployable bundle (fine-tuned LLM state including
        AdaLoRA adapters, soft prompt, prompt-builder/verbalizer config) plus
        the scoring knobs outside the bundle that can change results: the
        legacy ``lm_head="blas"`` scorer rounds differently (while
        ``"restricted"`` and ``"full"`` are bitwise-identical and share an
        identity), and the inference ``readout`` picks between the
        differently-rounded mask-readout and full-width encodes (``"blas"``
        always encodes full-width, so its identity pins ``readout="full"``).
        The serving layer keys its result cache and prefix cache on this
        value, so swapping in a differently trained (or differently rounding)
        recommender structurally invalidates every cached score.
        """
        arrays, metadata = self.serialize()
        return fingerprint(
            "delrec_scoring",
            state_fingerprint(arrays),
            metadata,
            {
                "lm_head": "blas" if self.lm_head == "blas" else "restricted",
                "readout": "full" if self.lm_head == "blas" else self.readout,
            },
        )

    # ------------------------------------------------------------------ #
    # persistence: the deployable bundle
    # ------------------------------------------------------------------ #
    def serialize(self) -> Tuple[Dict[str, np.ndarray], dict]:
        """Arrays + metadata for the full deployable bundle.

        The bundle covers everything scoring depends on: the fine-tuned LLM
        state (including AdaLoRA adapter parameters and rank masks, with the
        adapted layer names recorded so the module structure can be rebuilt),
        the frozen soft prompt, and the prompt-builder / verbalizer
        configuration.  Model arrays are stored under a ``model.`` prefix and
        soft-prompt arrays under ``soft_prompt.``.
        """
        adapters = [
            {"name": name, "rank": int(module.rank), "alpha": float(module.alpha)}
            for name, module in self.model.named_modules()
            if isinstance(module, AdaLoRALinear)
        ]
        arrays = {f"model.{key}": value for key, value in self.model.state_dict().items()}
        metadata = {
            "component": "delrec_recommender",
            "name": self.name,
            "auxiliary": self.auxiliary,
            "sr_model_name": self.sr_model_name,
            "max_history": int(self.max_history),
            "llm": {
                "config": dataclasses.asdict(self.model.config),
                "is_pretrained": bool(self.model.is_pretrained),
                "vocab_size": int(self.model.tokenizer.vocab_size),
            },
            "adalora": adapters,
            "prompt_builder": {
                "soft_prompt_size": int(self.prompt_builder.soft_prompt_size),
                "include_item_tokens_in_history": bool(
                    self.prompt_builder.include_item_tokens_in_history
                ),
                "include_titles_in_history": bool(
                    self.prompt_builder.include_titles_in_history
                ),
            },
            "verbalizer": {"aggregation": self.verbalizer.aggregation},
            "soft_prompt": None,
        }
        if self.soft_prompt is not None:
            soft_arrays, soft_meta = serialize_soft_prompt(self.soft_prompt)
            metadata["soft_prompt"] = soft_meta
            arrays.update({f"soft_prompt.{key}": value for key, value in soft_arrays.items()})
        return arrays, metadata

    @classmethod
    def restore(cls, arrays: Dict[str, np.ndarray], metadata: dict,
                dataset: SequenceDataset, copy: bool = True) -> "DELRecRecommender":
        """Rebuild a recommender from :meth:`serialize` output.

        ``dataset`` must be the dataset the recommender was fitted on: the
        tokenizer, item catalog (prompt titles) and verbalizer mapping are all
        reproduced from it, guarded by the stored vocabulary size.

        ``copy=False`` rebinds the model state to ``arrays`` instead of
        copying (see :meth:`~repro.autograd.module.Module.load_state_dict`):
        with memory-mapped artifact arrays the restored recommender serves
        straight off the mapped payload pages — inference-only, bitwise
        identical to a copying restore.
        """
        if metadata.get("component") != "delrec_recommender":
            raise ArtifactError(
                f"artifact is a {metadata.get('component')!r}, not a delrec_recommender"
            )
        tokenizer = build_tokenizer(dataset)
        llm_meta = metadata["llm"]
        if tokenizer.vocab_size != int(llm_meta["vocab_size"]):
            raise ArtifactError(
                f"stored recommender has vocabulary size {llm_meta['vocab_size']}, but "
                f"dataset {dataset.name!r} produces {tokenizer.vocab_size}; the bundle "
                "was fitted on a different dataset"
            )
        model = SimLM(tokenizer, SimLMConfig(**llm_meta["config"]))
        for spec in metadata.get("adalora", []):
            wrap_named_linear_with_adalora(
                model, spec["name"], rank=int(spec["rank"]), alpha=float(spec["alpha"])
            )
        model.load_state_dict(
            {key[len("model."):]: value for key, value in arrays.items()
             if key.startswith("model.")},
            copy=copy,
        )
        model.is_pretrained = bool(llm_meta.get("is_pretrained", True))
        model.eval()
        soft_prompt = None
        if metadata.get("soft_prompt") is not None:
            soft_prompt = restore_soft_prompt(
                {key[len("soft_prompt."):]: value for key, value in arrays.items()
                 if key.startswith("soft_prompt.")},
                metadata["soft_prompt"],
                copy=copy,
            )
        prompt_builder = PromptBuilder(tokenizer, dataset.catalog, **metadata["prompt_builder"])
        verbalizer = Verbalizer(
            tokenizer, dataset.catalog, aggregation=metadata["verbalizer"]["aggregation"]
        )
        return cls(
            model=model,
            prompt_builder=prompt_builder,
            verbalizer=verbalizer,
            soft_prompt=soft_prompt,
            auxiliary=metadata["auxiliary"],
            sr_model_name=metadata.get("sr_model_name"),
            name=metadata["name"],
            max_history=int(metadata["max_history"]),
        )

    def save(self, path: str) -> str:
        """Persist the deployable bundle as an artifact directory at ``path``."""
        arrays, metadata = self.serialize()
        return write_artifact(path, arrays, metadata)

    @classmethod
    def load(cls, path: str, dataset: SequenceDataset) -> "DELRecRecommender":
        """Reload a bundle saved by :meth:`save`; scores match the original exactly."""
        arrays, metadata = read_artifact(path)
        return cls.restore(arrays, metadata, dataset)


class LSRFineTuner:
    """Fine-tune the LLM (AdaLoRA + Lion) with frozen distilled soft prompts."""

    def __init__(
        self,
        model: SimLM,
        prompt_builder: PromptBuilder,
        soft_prompt: Optional[SoftPrompt],
        config: Optional[Stage2Config] = None,
        update_soft_prompt: bool = False,
        auxiliary: str = "soft",
        sr_model_name: Optional[str] = None,
        lm_head: str = "restricted",
        num_data_workers: Optional[int] = None,
    ):
        self.model = model
        self.prompt_builder = prompt_builder
        self.soft_prompt = soft_prompt
        self.config = config or Stage2Config()
        #: Data-parallel worker count for the fine-tuning loop (``None``
        #: defers to ``REPRO_DATA_WORKERS``).  Never fingerprinted: the
        #: trained adapters are bitwise-identical at any worker count.
        self.num_data_workers = num_data_workers
        #: ``update_soft_prompt=True`` reproduces the "w ULSR" ablation (Table IV).
        self.update_soft_prompt = update_soft_prompt
        self.auxiliary = auxiliary
        self.sr_model_name = sr_model_name
        #: Head implementation for the candidate-restricted loss (Eq. 8);
        #: ``"restricted"`` and ``"full"`` train bitwise-identically, so the
        #: flag is excluded from artifact fingerprints.
        self.lm_head = validate_lm_head(lm_head)
        if self.config.optimizer not in _OPTIMIZERS:
            raise ValueError(f"unknown optimizer {self.config.optimizer!r}")
        self.adapters = []
        self.controller: Optional[AdaLoRAController] = None

    # ------------------------------------------------------------------ #
    def _prepare_parameters(self) -> list:
        """Freeze everything, then enable the chosen trainable subset."""
        config = self.config
        if self.soft_prompt is not None:
            if self.update_soft_prompt:
                self.soft_prompt.unfreeze()
            else:
                self.soft_prompt.freeze()
        if config.full_finetune:
            self.model.unfreeze()
            trainable = list(self.model.trainable_parameters())
        else:
            self.model.freeze()
            if config.use_adalora:
                rng = np.random.default_rng(config.seed)
                self.adapters = wrap_linears_with_adalora(
                    self.model,
                    rank=config.adalora_rank,
                    name_filter=self.model.adaptable_linear_filter,
                    rng=rng,
                )
                if not self.adapters:
                    raise RuntimeError("no linear layers matched the AdaLoRA filter")
                self.controller = AdaLoRAController(
                    self.adapters,
                    target_total_rank=config.adalora_target_total_rank,
                    warmup_steps=config.adalora_warmup_steps,
                    total_steps=max(config.adalora_warmup_steps + 1, config.epochs * 10),
                )
                trainable = [p for adapter in self.adapters for p in adapter.trainable_parameters()]
                if config.train_output_bias:
                    self.model.output_bias.requires_grad = True
                    trainable.append(self.model.output_bias)
            else:
                # plain prompt-free fine-tuning of the output bias only (ablation fallback)
                self.model.output_bias.requires_grad = True
                trainable = [self.model.output_bias]
        if self.update_soft_prompt and self.soft_prompt is not None:
            trainable = trainable + list(self.soft_prompt.parameters())
        return trainable

    def build_training_prompts(
        self,
        examples: Sequence[SequenceExample],
        sampler: CandidateSampler,
        limit: Optional[int] = None,
    ) -> List[PromptExample]:
        """Ground-truth recommendation prompts for Stage-2 training."""
        prompts: List[PromptExample] = []
        for example in examples:
            history = [i for i in example.history if i != 0]
            if not history:
                continue
            candidates = sampler.candidates_for(example)
            prompts.append(
                self.prompt_builder.recommendation_prompt(
                    history=history,
                    candidates=candidates,
                    label_item=example.target,
                    sr_model_name=self.sr_model_name,
                    auxiliary=self.auxiliary,
                )
            )
            if limit is not None and len(prompts) >= limit:
                break
        return prompts

    # ------------------------------------------------------------------ #
    def _prompt_loss(self, batch: PromptBatch, reduction: str = "mean"):
        """The LSR loss (Eq. 8) of one prompt batch.

        ``reduction="sum"`` is the data-parallel microshard form: per-row
        losses without the mean normaliser, rescaled by the shard program to
        the full batch size.
        """
        config = self.config
        embeddings = self.model.embed_tokens(batch.tokens)
        if self.soft_prompt is not None and self.auxiliary == "soft":
            embeddings = self.soft_prompt.splice_into(
                embeddings, batch.tokens, self.prompt_builder.tokenizer.soft_id
            )
        if config.loss_over_full_vocab:
            vocab_logits = self.model.mask_logits(
                batch.tokens, input_embeddings=embeddings, valid_mask=batch.valid_mask
            )
            label_tokens = np.asarray(
                self.prompt_builder.tokenizer.item_token_ids(batch.label_items.tolist())
            )
            return F.cross_entropy(vocab_logits, label_tokens, reduction=reduction)
        if self.lm_head == "blas":
            vocab_logits = self.model.mask_logits(
                batch.tokens, input_embeddings=embeddings,
                valid_mask=batch.valid_mask,
            )
            rows = np.arange(len(batch))[:, None]
            candidate_logits = vocab_logits[rows, batch.candidate_token_ids]
        else:
            candidate_logits = self.model.mask_candidate_logits(
                batch.tokens,
                batch.candidate_token_ids,
                input_embeddings=embeddings,
                valid_mask=batch.valid_mask,
                full_vocab_reference=self.lm_head == "full",
            )
        return F.cross_entropy(candidate_logits, batch.label_indices, reduction=reduction)

    def fine_tune(self, prompts: Sequence[PromptExample]) -> FineTuningResult:
        """Run the LSR objective (Eq. 8) over the prepared prompts.

        Every batch decomposes into canonical microshards evaluated through
        the data-parallel engine; the AdaLoRA controller steps on the
        tree-combined gradients in the parent, and the updated rank masks are
        broadcast to workers with the next step's parameters — so training is
        bitwise-identical at any ``num_data_workers``.
        """
        if not prompts:
            raise ValueError("fine-tuning needs at least one prompt")
        config = self.config
        trainable = self._prepare_parameters()
        optimizer = _OPTIMIZERS[config.optimizer](
            trainable, lr=config.lr, weight_decay=config.weight_decay
        )
        rng = np.random.default_rng(config.seed)
        result = FineTuningResult()

        self.model.train()
        program = _Stage2Program(self, prompts, trainable)
        with DataParallelEngine(program, num_workers=self.num_data_workers) as engine:
            for epoch in range(config.epochs):
                order = rng.permutation(len(prompts))
                epoch_loss, seen = 0.0, 0
                for step, start in enumerate(range(0, len(order), config.batch_size)):
                    indices = order[start:start + config.batch_size]
                    shards = [
                        (epoch, step, len(indices), span_start, indices[span_start:span_stop])
                        for span_start, span_stop in engine.spans(len(indices))
                    ]
                    optimizer.zero_grad()
                    values = engine.gradient_step(shards)
                    if config.grad_clip is not None:
                        F.clip_grad_norm(trainable, config.grad_clip)
                    optimizer.step()
                    if self.controller is not None:
                        self.controller.step()
                    epoch_loss += tree_sum(values) * len(indices)
                    seen += len(indices)
                result.losses.append(epoch_loss / max(seen, 1))
                if self.controller is not None:
                    result.active_ranks.append(self.controller.total_active_rank())
                if config.verbose:
                    print(f"[LSR] epoch {epoch + 1}/{config.epochs} loss={result.losses[-1]:.4f}")

        self.model.eval()
        return result


class _Stage2Program(ShardProgram):
    """Microshard evaluation of the Stage-2 LSR loss.

    Shard descriptors are ``(epoch, step, batch_rows, span_start,
    prompt_indices)``.  The AdaLoRA rank masks are declared as sync buffers:
    the parent-side controller mutates them between steps and the engine
    broadcasts them to workers alongside the trainable parameters.
    """

    def __init__(self, finetuner: "LSRFineTuner",
                 prompts: Sequence[PromptExample], trainable: list):
        self.finetuner = finetuner
        self.prompts = list(prompts)
        self.trainable = trainable

    def sync_parameters(self) -> list:
        """The trainable set chosen by :meth:`LSRFineTuner._prepare_parameters`."""
        return self.trainable

    def sync_buffers(self) -> list:
        """The adapters' rank masks (mutated by the AdaLoRA controller)."""
        return [adapter.rank_mask for adapter in self.finetuner.adapters]

    def shard_loss(self, shard):
        """Sum-scaled LSR loss of one microshard (see :meth:`LSRFineTuner._prompt_loss`)."""
        epoch, step, batch_rows, span_start, indices = shard
        batch = self.finetuner.prompt_builder.batch(
            [self.prompts[i] for i in indices]
        )
        reseed_dropouts(
            self.finetuner.model,
            (_STAGE2_DOMAIN, self.finetuner.config.seed, epoch, step, span_start),
        )
        return self.finetuner._prompt_loss(batch, reduction="sum") * (1.0 / batch_rows)
