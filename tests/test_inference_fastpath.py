"""No-tape inference fast path: arena forward vs tape, readouts, prefix cache.

The serving hot path scores through :mod:`repro.autograd.inference` — a pure
``numpy`` replication of the tape's mask-readout encode running in a
persistent buffer arena.  Its contract is layered:

* the arena forward is **bitwise identical** to the tape twin
  :meth:`repro.llm.SimLM.encode_mask_readout`, op for op;
* the mask readout is batch-invariant (batched scoring equals the
  per-example loop bitwise) and falls back to the tape transparently when a
  model carries modules the arena cannot replicate;
* rendering prompts through the serving :class:`~repro.serve.prefix.PrefixCache`
  never changes a token id, so cached and uncached scoring agree bitwise;
* ``readout="full"`` (the legacy full-width encode) stays available as the
  timing-reference arm and is fingerprinted separately from ``"mask"``;
* training, both tape readouts and the arena evaluate one gelu, with its cube
  by multiplication, so only the restricted last layer tells the readouts apart.
"""

import numpy as np
import pytest

from repro.autograd import inference as fast_inference
from repro.autograd.tensor import Tensor
from repro.core.prompts import PromptBuilder
from repro.core.recommend import DELRecRecommender, validate_readout
from repro.data.candidates import CandidateSampler
from repro.llm.registry import build_simlm
from repro.llm.soft_prompt import SoftPrompt
from repro.llm.verbalizer import Verbalizer
from repro.serve.prefix import PrefixCache


# --------------------------------------------------------------------------- #
# fixtures
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def llm(tiny_dataset):
    model = build_simlm(tiny_dataset, size="simlm-bert", seed=0)
    model.eval()  # the tape twin applies dropout when left in training mode
    return model


@pytest.fixture(scope="module")
def builder(tiny_dataset, llm):
    return PromptBuilder(llm.tokenizer, tiny_dataset.catalog, soft_prompt_size=4)


@pytest.fixture(scope="module")
def sampler(tiny_dataset):
    return CandidateSampler(tiny_dataset, num_candidates=8, seed=0)


def make_recommender(tiny_dataset, llm, builder, **kwargs):
    """A DELRec scorer over the shared tiny model (soft prompt included)."""
    return DELRecRecommender(
        model=llm,
        prompt_builder=builder,
        verbalizer=Verbalizer(llm.tokenizer, tiny_dataset.catalog),
        soft_prompt=SoftPrompt(4, llm.dim, rng=np.random.default_rng(0)),
        auxiliary="soft",
        **kwargs,
    )


@pytest.fixture(scope="module")
def recommender(tiny_dataset, llm, builder):
    return make_recommender(tiny_dataset, llm, builder)


def scoring_inputs(tiny_split, sampler, count=6):
    """(histories, candidate sets) with unequal history lengths."""
    examples = tiny_split.test[:count]
    histories = [list(example.history[: 3 + index % 7]) for index, example in enumerate(examples)]
    candidate_sets = [list(sampler.candidates_for(example)) for example in examples]
    return histories, candidate_sets


def padded_token_batch(llm, builder, histories, candidate_sets):
    """Render prompts and pad their token ids into one (batch, length) array."""
    prompts = [
        builder.recommendation_prompt(history, candidates, candidates[0])
        for history, candidates in zip(histories, candidate_sets, strict=True)
    ]
    length = max(len(prompt.token_ids) for prompt in prompts)
    token_ids = np.full((len(prompts), length), llm.tokenizer.pad_id, dtype=np.int64)
    for row, prompt in enumerate(prompts):
        token_ids[row, : len(prompt.token_ids)] = prompt.token_ids
    return token_ids


# --------------------------------------------------------------------------- #
# arena forward vs tape twin
# --------------------------------------------------------------------------- #
class TestArenaForward:
    def test_matches_tape_mask_readout_bitwise(self, llm, builder, tiny_split, sampler):
        histories, candidate_sets = scoring_inputs(tiny_split, sampler)
        token_ids = padded_token_batch(llm, builder, histories, candidate_sets)
        assert fast_inference.supports_model(llm)
        arena = fast_inference.InferenceArena()
        fast = fast_inference.mask_readout_hidden(llm, token_ids, arena=arena)
        tape = llm.encode_mask_readout(token_ids).data
        assert np.array_equal(fast, tape)

    def test_arena_buffers_reused_and_stable(self, llm, builder, tiny_split, sampler):
        histories, candidate_sets = scoring_inputs(tiny_split, sampler)
        token_ids = padded_token_batch(llm, builder, histories, candidate_sets)
        arena = fast_inference.InferenceArena()
        first = fast_inference.mask_readout_hidden(llm, token_ids, arena=arena).copy()
        buffers_after_first = len(arena)
        assert buffers_after_first > 0 and arena.nbytes() > 0
        second = fast_inference.mask_readout_hidden(llm, token_ids, arena=arena)
        # same shapes -> no new buffers, and reuse never perturbs a bit
        assert len(arena) == buffers_after_first
        assert np.array_equal(first, second)
        arena.clear()
        assert len(arena) == 0 and arena.nbytes() == 0

    def test_candidate_scores_match_tape_head(self, tiny_dataset, llm, builder,
                                              tiny_split, sampler):
        histories, candidate_sets = scoring_inputs(tiny_split, sampler)
        token_ids = padded_token_batch(llm, builder, histories, candidate_sets)
        verbalizer = Verbalizer(llm.tokenizer, tiny_dataset.catalog)
        candidate_tokens = np.stack(
            [verbalizer.restricted_token_ids(candidates) for candidates in candidate_sets]
        )
        hidden = fast_inference.mask_readout_hidden(llm, token_ids)
        fast = fast_inference.candidate_scores_array(llm, hidden, candidate_tokens)
        tape = llm.candidate_logits_from_hidden(
            llm.encode_mask_readout(token_ids), candidate_tokens
        ).data
        assert np.array_equal(fast, tape)

    def test_unsupported_module_detected(self, llm):
        class Strange:
            pass

        original = llm.final_norm
        llm.final_norm = Strange()
        try:
            assert not fast_inference.supports_model(llm)
        finally:
            llm.final_norm = original
        assert fast_inference.supports_model(llm)


# --------------------------------------------------------------------------- #
# recommender routing: mask readout, fallback, legacy arm
# --------------------------------------------------------------------------- #
class TestReadoutRouting:
    def test_batch_equals_loop_bitwise(self, recommender, tiny_split, sampler):
        histories, candidate_sets = scoring_inputs(tiny_split, sampler)
        batched = recommender.score_candidates_batch(histories, candidate_sets)
        looped = [
            recommender.score_candidates(history, candidates)
            for history, candidates in zip(histories, candidate_sets, strict=True)
        ]
        for fast, slow in zip(batched, looped, strict=True):
            assert np.array_equal(fast, slow)

    def test_tape_fallback_is_bitwise_identical(self, recommender, tiny_split, sampler,
                                                monkeypatch):
        histories, candidate_sets = scoring_inputs(tiny_split, sampler)
        via_arena = recommender.score_candidates_batch(histories, candidate_sets)
        monkeypatch.setattr(fast_inference, "supports_model", lambda model: False)
        via_tape = recommender.score_candidates_batch(histories, candidate_sets)
        for fast, slow in zip(via_arena, via_tape, strict=True):
            assert np.array_equal(fast, slow)

    def test_full_readout_agrees_within_rounding(self, recommender, tiny_split, sampler):
        histories, candidate_sets = scoring_inputs(tiny_split, sampler)
        mask_scores = recommender.score_candidates_batch(histories, candidate_sets)
        with recommender.using_readout("full"):
            full_scores = recommender.score_candidates_batch(histories, candidate_sets)
        assert recommender.readout == "mask"  # context manager restored it
        for mask_row, full_row in zip(mask_scores, full_scores, strict=True):
            # same real-valued function, different rounding: close, and the
            # top-ranked candidate agrees on this spread of scores
            np.testing.assert_allclose(mask_row, full_row, rtol=0, atol=1e-9)
            assert int(np.argmax(mask_row)) == int(np.argmax(full_row))

    def test_full_readout_batch_equals_loop(self, recommender, tiny_split, sampler):
        histories, candidate_sets = scoring_inputs(tiny_split, sampler)
        with recommender.using_readout("full"):
            batched = recommender.score_candidates_batch(histories, candidate_sets)
            looped = [
                recommender.score_candidates(history, candidates)
                for history, candidates in zip(histories, candidate_sets, strict=True)
            ]
        for fast, slow in zip(batched, looped, strict=True):
            assert np.array_equal(fast, slow)

    def test_readout_validation(self, recommender):
        with pytest.raises(ValueError, match="unknown readout"):
            validate_readout("sideways")
        with pytest.raises(ValueError, match="unknown readout"):
            with recommender.using_readout("sideways"):
                pass  # pragma: no cover - the switch must raise first
        assert recommender.readout == "mask"

    def test_fingerprint_separates_readouts(self, tiny_dataset, llm, builder):
        mask = make_recommender(tiny_dataset, llm, builder)
        full = make_recommender(tiny_dataset, llm, builder, readout="full")
        assert mask.scoring_fingerprint() != full.scoring_fingerprint()
        # the blas scorer always encodes full-width: its identity pins "full"
        blas = make_recommender(tiny_dataset, llm, builder, lm_head="blas")
        blas_as_full = make_recommender(tiny_dataset, llm, builder, lm_head="blas",
                                        readout="full")
        assert blas.scoring_fingerprint() == blas_as_full.scoring_fingerprint()


# --------------------------------------------------------------------------- #
# prefix cache: cached rendering never changes a score
# --------------------------------------------------------------------------- #
class TestPrefixCacheScoring:
    def test_cached_scoring_is_bitwise_identical(self, tiny_dataset, llm, builder,
                                                 tiny_split, sampler):
        histories, candidate_sets = scoring_inputs(tiny_split, sampler)
        # grown histories: every prefix of each history, shortest first, so
        # the cache serves partial hits while scores must not move a bit
        grown = [(h[:cut], c) for h, c in zip(histories, candidate_sets, strict=True)
                 for cut in range(1, len(h) + 1)]
        plain = make_recommender(tiny_dataset, llm, builder)
        reference = [plain.score_candidates(list(h), list(c)) for h, c in grown]

        cached = make_recommender(tiny_dataset, llm, builder)
        cached.prefix_cache = PrefixCache()
        cached.prefix_cache.ensure("test-fp")
        served = [cached.score_candidates(list(h), list(c)) for h, c in grown]
        for fast, slow in zip(served, reference, strict=True):
            assert np.array_equal(fast, slow)
        stats = cached.prefix_cache.stats
        assert stats.partial_hits > 0
        assert 0.0 < stats.recompute_fraction < 1.0
        # embedding blocks were attached by scoring and are bounded in size
        assert cached.prefix_cache.nbytes() > 0

    def test_batch_scoring_through_cache_matches_loop(self, tiny_dataset, llm, builder,
                                                      tiny_split, sampler):
        histories, candidate_sets = scoring_inputs(tiny_split, sampler)
        cached = make_recommender(tiny_dataset, llm, builder)
        cached.prefix_cache = PrefixCache()
        cached.prefix_cache.ensure("test-fp")
        warmup = cached.score_candidates_batch(histories, candidate_sets)
        batched = cached.score_candidates_batch(histories, candidate_sets)
        looped = [
            cached.score_candidates(history, candidates)
            for history, candidates in zip(histories, candidate_sets, strict=True)
        ]
        for warm, fast, slow in zip(warmup, batched, looped, strict=True):
            assert np.array_equal(fast, slow)
            assert np.array_equal(warm, fast)


# --------------------------------------------------------------------------- #
# one gelu: training, the tape readout and the arena share its arithmetic
# --------------------------------------------------------------------------- #
def _gelu_reference(x):
    """The tanh-approximated gelu with its cube evaluated by multiplication."""
    c = np.sqrt(2.0 / np.pi)
    return 0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * (x * x * x))))


def _gelu_inputs():
    rng = np.random.default_rng(7)
    x = rng.normal(scale=3.0, size=(3, 5, 64))
    x[0, 0, :8] = [-10.0, -6.5, -5.0, -0.0, 0.0, 5.0, 6.5, 10.0]
    assert (np.abs(x) > 5).any()
    return x


class TestGeluArithmetic:
    def test_tape_gelu_is_the_multiply_cube_formula(self):
        x = _gelu_inputs()
        out = Tensor(x).gelu().data
        assert out.tobytes() == _gelu_reference(x).tobytes()

    def test_tape_gelu_backward_uses_the_same_tanh(self):
        x = _gelu_inputs()
        tensor = Tensor(x, requires_grad=True)
        tensor.gelu().sum().backward()
        c = np.sqrt(2.0 / np.pi)
        tanh_inner = np.tanh(c * (x + 0.044715 * (x * x * x)))
        sech2 = 1.0 - tanh_inner * tanh_inner
        d_inner = c * (1.0 + 3 * 0.044715 * (x * x))
        local = 0.5 * (1.0 + tanh_inner) + 0.5 * x * sech2 * d_inner
        assert tensor.grad.tobytes() == local.tobytes()

    def test_arena_gelu_matches_tape_gelu_bitwise(self):
        arena = fast_inference.InferenceArena()
        for seed in range(3):
            x = _gelu_inputs() * (seed + 1)
            expected = Tensor(x).gelu().data
            for _ in range(2):  # second call reuses the arena's buffers
                out = fast_inference._gelu(x, arena, "gelu")
                assert out.tobytes() == expected.tobytes()
