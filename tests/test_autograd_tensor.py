"""Unit and property-based tests for the autodiff tensor engine."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autograd import Adagrad, Adam, Lion, Parameter, Tensor, functional as F, no_grad


def numeric_grad(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference numerical gradient of a scalar-valued ``fn``."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        plus = fn(x)
        flat[i] = original - eps
        minus = fn(x)
        flat[i] = original
        grad_flat[i] = (plus - minus) / (2 * eps)
    return grad


def check_gradient(build, x: np.ndarray, atol: float = 1e-5):
    """Compare autodiff gradient of ``build(Tensor)`` with numeric gradient."""
    tensor = Tensor(x.copy(), requires_grad=True)
    out = build(tensor)
    out.backward()
    analytic = tensor.grad

    def scalar_fn(arr):
        return float(build(Tensor(arr)).data)

    numeric = numeric_grad(scalar_fn, x.copy())
    np.testing.assert_allclose(analytic, numeric, atol=atol, rtol=1e-4)


class TestBasicOps:
    def test_add_broadcast_gradient(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.arange(3.0), requires_grad=True)
        out = (a + b).sum()
        out.backward()
        np.testing.assert_allclose(a.grad, np.ones((2, 3)))
        np.testing.assert_allclose(b.grad, np.full(3, 2.0))

    def test_mul_gradient(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(3, 4))
        check_gradient(lambda t: (t * t * 2.0).sum(), x)

    def test_division_gradient(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(0.5, 2.0, size=(3, 3))
        check_gradient(lambda t: (Tensor(np.ones((3, 3))) / t).sum(), x)

    def test_matmul_gradient_2d(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(3, 4))
        w = rng.normal(size=(4, 2))
        check_gradient(lambda t: t.matmul(Tensor(w)).sum(), x)

    def test_matmul_gradient_batched(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 3, 4))
        w = rng.normal(size=(2, 4, 5))
        check_gradient(lambda t: t.matmul(Tensor(w)).sum(), x)

    def test_matmul_gradient_right_operand(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(3, 4))
        w = rng.normal(size=(4, 2))
        check_gradient(lambda t: Tensor(a).matmul(t).sum(), w)

    def test_pow_gradient(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        check_gradient(lambda t: (t ** 3).sum(), x)

    def test_exp_log_gradients(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(0.1, 2.0, size=(4,))
        check_gradient(lambda t: t.exp().sum(), x)
        check_gradient(lambda t: t.log().sum(), x)

    def test_activations_gradients(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(5,))
        check_gradient(lambda t: t.tanh().sum(), x)
        check_gradient(lambda t: t.sigmoid().sum(), x)
        check_gradient(lambda t: t.gelu().sum(), x, atol=1e-4)

    def test_relu_gradient(self):
        x = np.array([-1.0, 0.5, 2.0, -0.3])
        t = Tensor(x, requires_grad=True)
        t.relu().sum().backward()
        np.testing.assert_allclose(t.grad, [0.0, 1.0, 1.0, 0.0])


class TestReductionsAndShapes:
    def test_sum_axis_gradient(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(3, 4, 2))
        check_gradient(lambda t: (t.sum(axis=1) ** 2).sum(), x)

    def test_mean_gradient(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(3, 4))
        check_gradient(lambda t: (t.mean(axis=0) ** 2).sum(), x)

    def test_max_gradient(self):
        x = np.array([[1.0, 5.0, 3.0], [2.0, 0.0, 7.0]])
        t = Tensor(x, requires_grad=True)
        t.max(axis=1).sum().backward()
        expected = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        np.testing.assert_allclose(t.grad, expected)

    def test_reshape_transpose_gradient(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(2, 6))
        check_gradient(lambda t: (t.reshape(3, 4).transpose() ** 2).sum(), x)

    def test_getitem_gradient(self):
        x = np.arange(12.0).reshape(3, 4)
        t = Tensor(x, requires_grad=True)
        t[1:, :2].sum().backward()
        expected = np.zeros((3, 4))
        expected[1:, :2] = 1.0
        np.testing.assert_allclose(t.grad, expected)

    def test_take_rows_accumulates_repeated_indices(self):
        t = Tensor(np.ones((4, 3)), requires_grad=True)
        indices = np.array([[0, 0], [2, 0]])
        t.take_rows(indices).sum().backward()
        np.testing.assert_allclose(t.grad[0], np.full(3, 3.0))
        np.testing.assert_allclose(t.grad[2], np.full(3, 1.0))
        np.testing.assert_allclose(t.grad[1], np.zeros(3))

    def test_concatenate_and_stack_gradients(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones((3, 2)), requires_grad=True)
        Tensor.concatenate([a, b], axis=0).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((2, 2)))
        np.testing.assert_allclose(b.grad, np.ones((3, 2)))

        c = Tensor(np.ones((2, 2)), requires_grad=True)
        d = Tensor(np.ones((2, 2)), requires_grad=True)
        (Tensor.stack([c, d], axis=1) * 2.0).sum().backward()
        np.testing.assert_allclose(c.grad, np.full((2, 2), 2.0))
        np.testing.assert_allclose(d.grad, np.full((2, 2), 2.0))

    def test_where_gradient(self):
        cond = np.array([True, False, True])
        a = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
        b = Tensor(np.array([4.0, 5.0, 6.0]), requires_grad=True)
        Tensor.where(cond, a, b).sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 0.0, 1.0])
        np.testing.assert_allclose(b.grad, [0.0, 1.0, 0.0])


class TestGraphBehaviour:
    def test_gradient_accumulates_across_uses(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = x * 3.0 + x * 4.0
        y.backward()
        np.testing.assert_allclose(x.grad, [7.0])

    def test_no_grad_context_blocks_graph(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        with no_grad():
            y = x * 2.0
        assert not y.requires_grad
        assert y._backward is None

    def test_backward_requires_scalar(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ValueError):
            (x * 2.0).backward()

    def test_detach_cuts_graph(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        y = (x * 2.0).detach() * 5.0
        assert not y.requires_grad

    def test_deep_chain_does_not_recurse(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        y = x
        for _ in range(2000):
            y = y + 0.001
        y.backward()
        np.testing.assert_allclose(x.grad, [1.0])


class TestFunctional:
    def test_softmax_rows_sum_to_one(self):
        logits = Tensor(np.random.default_rng(0).normal(size=(4, 7)))
        probs = F.softmax(logits)
        np.testing.assert_allclose(probs.data.sum(axis=-1), np.ones(4), atol=1e-12)

    def test_softmax_gradient(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(2, 5))
        weights = rng.normal(size=(2, 5))
        check_gradient(lambda t: (F.softmax(t) * Tensor(weights)).sum(), x)

    def test_log_softmax_gradient(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(3, 4))
        weights = rng.normal(size=(3, 4))
        check_gradient(lambda t: (F.log_softmax(t) * Tensor(weights)).sum(), x)

    def test_cross_entropy_matches_manual(self):
        logits = Tensor(np.array([[2.0, 0.5, -1.0], [0.1, 0.2, 0.3]]), requires_grad=True)
        targets = np.array([0, 2])
        loss = F.cross_entropy(logits, targets)
        log_probs = F.log_softmax(Tensor(logits.data)).data
        expected = -(log_probs[0, 0] + log_probs[1, 2]) / 2
        assert loss.item() == pytest.approx(expected)

    def test_cross_entropy_gradient(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(4, 6))
        targets = np.array([1, 3, 0, 5])
        check_gradient(lambda t: F.cross_entropy(t, targets), x)

    def test_cross_entropy_with_weights_masks_positions(self):
        logits = Tensor(np.random.default_rng(1).normal(size=(3, 4)), requires_grad=True)
        targets = np.array([0, 1, 2])
        weights = np.array([1.0, 0.0, 1.0])
        loss = F.cross_entropy(logits, targets, weights=weights)
        loss.backward()
        np.testing.assert_allclose(logits.grad[1], np.zeros(4), atol=1e-12)

    def test_bce_with_logits_gradient(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(6,))
        targets = (rng.random(6) > 0.5).astype(float)
        check_gradient(lambda t: F.binary_cross_entropy_with_logits(t, targets), x)

    def test_bpr_loss_decreases_with_margin(self):
        pos = Tensor(np.array([2.0, 2.0]))
        neg_close = Tensor(np.array([1.9, 1.9]))
        neg_far = Tensor(np.array([-3.0, -3.0]))
        assert F.bpr_loss(pos, neg_far).item() < F.bpr_loss(pos, neg_close).item()

    def test_masked_fill_blocks_gradient(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        mask = np.array([[True, False], [False, False]])
        F.masked_fill(x, mask, -1e9).sum().backward()
        assert x.grad[0, 0] == 0.0
        assert x.grad[1, 1] == 1.0

    def test_clip_grad_norm(self):
        x = Tensor(np.zeros(3), requires_grad=True)
        x.grad = np.array([3.0, 4.0, 0.0])
        total = F.clip_grad_norm([x], max_norm=1.0)
        assert total == pytest.approx(5.0)
        np.testing.assert_allclose(np.linalg.norm(x.grad), 1.0)

    def test_one_hot(self):
        encoded = F.one_hot(np.array([0, 2]), 3)
        np.testing.assert_allclose(encoded, [[1, 0, 0], [0, 0, 1]])


@settings(max_examples=25, deadline=None)
@given(
    rows=st.integers(min_value=1, max_value=4),
    cols=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_property_softmax_is_normalised_and_positive(rows, cols, seed):
    rng = np.random.default_rng(seed)
    logits = Tensor(rng.normal(scale=3.0, size=(rows, cols)))
    probs = F.softmax(logits).data
    assert np.all(probs >= 0)
    np.testing.assert_allclose(probs.sum(axis=-1), np.ones(rows), atol=1e-9)


@settings(max_examples=25, deadline=None)
@given(
    size=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_property_addition_gradient_is_ones(size, seed):
    rng = np.random.default_rng(seed)
    a = Tensor(rng.normal(size=size), requires_grad=True)
    b = Tensor(rng.normal(size=size), requires_grad=True)
    (a + b).sum().backward()
    np.testing.assert_allclose(a.grad, np.ones(size))
    np.testing.assert_allclose(b.grad, np.ones(size))


@settings(max_examples=20, deadline=None)
@given(
    rows=st.integers(min_value=1, max_value=4),
    inner=st.integers(min_value=1, max_value=4),
    cols=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_property_matmul_matches_numpy(rows, inner, cols, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(rows, inner))
    b = rng.normal(size=(inner, cols))
    out = Tensor(a).matmul(Tensor(b)).data
    np.testing.assert_allclose(out, a @ b, atol=1e-12)


class TestDtypePreservation:
    def test_wrapping_float64_never_copies(self):
        data = np.arange(6, dtype=np.float64).reshape(2, 3)
        tensor = Tensor(data)
        assert tensor.data is data  # adopted, not copied

    def test_wrapping_float32_preserves_dtype_without_copy(self):
        data = np.arange(6, dtype=np.float32).reshape(2, 3)
        tensor = Tensor(data)
        assert tensor.data is data
        assert tensor.dtype == np.float32

    def test_explicit_dtype_casts_once(self):
        data = np.arange(4, dtype=np.float32)
        tensor = Tensor(data, dtype=np.float64)
        assert tensor.dtype == np.float64
        assert tensor.data is not data
        same = Tensor(tensor.data, dtype=np.float64)
        assert same.data is tensor.data  # matching dtype: no copy

    def test_scalars_and_lists_default_to_float64(self):
        assert Tensor(3).dtype == np.float64
        assert Tensor([1, 2, 3]).dtype == np.float64


class TestMaskedFillBroadcast:
    def test_broadcast_mask_matches_full_mask(self):
        rng = np.random.default_rng(5)
        scores = rng.standard_normal((2, 3, 4, 4))
        small = rng.random((2, 1, 4, 4)) < 0.4
        full = np.broadcast_to(small, scores.shape)
        a = F.masked_fill(Tensor(scores), small, -1e9)
        b = F.masked_fill(Tensor(scores.copy()), full.copy(), -1e9)
        assert np.array_equal(a.data, b.data)
        assert (a.data[full] == -1e9).all()
        assert np.array_equal(a.data[~full], scores[~full])

    def test_gradients_blocked_at_filled_positions(self):
        scores = Tensor(np.ones((2, 2, 3, 3)), requires_grad=True)
        mask = np.zeros((2, 1, 3, 3), dtype=bool)
        mask[:, :, :, -1] = True
        out = F.masked_fill(scores, mask, -1e9)
        out.sum().backward()
        expanded = np.broadcast_to(mask, scores.shape)
        assert (scores.grad[expanded] == 0).all()
        assert (scores.grad[~expanded] == 1).all()

    def test_where_skips_constant_branch_gradients(self):
        a = Tensor(np.ones(4), requires_grad=True)
        b = Tensor(np.zeros(4))  # constant branch: no gradient machinery
        out = Tensor.where(np.array([True, False, True, False]), a, b)
        out.sum().backward()
        assert np.array_equal(a.grad, np.array([1.0, 0.0, 1.0, 0.0]))
        assert b.grad is None


def _canonical_c_strides(array):
    return np.empty(array.shape, dtype=array.dtype).strides


class TestGradientStorage:
    """The first gradient a tensor receives is stored without a copy when it
    already has C layout; views are copied, and nothing writes ``.grad``."""

    def test_transposed_grad_is_stored_c_contiguous(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        weight = rng.normal(size=(3, 5))
        (x.T.matmul(weight) * 2.0).sum().backward()
        assert x.grad.flags.c_contiguous
        assert x.grad.strides == _canonical_c_strides(x.grad)
        np.testing.assert_allclose(x.grad, (2.0 * np.ones((4, 5)) @ weight.T).T)

    def test_size_one_axis_view_gets_canonical_strides(self):
        # The transpose of a (1, 5) grad is a (5, 1) view flagged C-contiguous
        # whose size-1 axis keeps a non-canonical stride.
        x = Tensor(np.arange(5.0).reshape(5, 1), requires_grad=True)
        (x.transpose() * np.arange(5.0)).sum().backward()
        assert x.grad.strides == _canonical_c_strides(x.grad)
        np.testing.assert_array_equal(x.grad, np.arange(5.0).reshape(5, 1))

    def test_zero_dimensional_grad_keeps_its_shape(self):
        x = Tensor(np.float64(2.0), requires_grad=True)
        y = x * 3.0
        y.backward()
        assert x.grad.shape == ()
        assert y.grad.shape == ()
        assert float(x.grad) == 3.0

    def test_backward_seed_is_not_shared_with_the_caller(self):
        x = Tensor(np.ones(3), requires_grad=True)
        seed = np.full(3, 2.0)
        (x + 1.0).backward(seed)  # add passes the seed array straight to x
        seed[:] = 0.0
        np.testing.assert_array_equal(x.grad, [2.0, 2.0, 2.0])

    def test_tensor_used_twice_accumulates(self):
        x = Tensor(np.array([1.5, -2.0, 3.0]), requires_grad=True)
        (x + x).sum().backward()
        np.testing.assert_array_equal(x.grad, [2.0, 2.0, 2.0])
        x.zero_grad()
        (x * x).sum().backward()
        np.testing.assert_array_equal(x.grad, 2.0 * x.data)

    @pytest.mark.parametrize("update", [
        lambda ps: Adam(ps, lr=0.1, weight_decay=0.01).step(),
        lambda ps: Lion(ps, lr=0.1, weight_decay=0.01).step(),
        lambda ps: Adagrad(ps, lr=0.1, weight_decay=0.01).step(),
        lambda ps: F.clip_grad_norm(ps, max_norm=1e-3),
    ])
    def test_optimizers_leave_grad_bytes_unchanged(self, update):
        rng = np.random.default_rng(1)
        a = Parameter(rng.normal(size=(4, 3)))
        b = Parameter(rng.normal(size=(4, 3)))
        # `a + b` hands both parameters the same gradient array.
        ((a + b) * Tensor(rng.normal(size=(4, 3)))).sum().backward()
        grads = [a.grad, b.grad]
        snapshots = [grad.tobytes() for grad in grads]
        update([a, b])
        assert [grad.tobytes() for grad in grads] == snapshots
