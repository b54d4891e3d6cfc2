"""Core reverse-mode autodiff tensor.

A :class:`Tensor` wraps a ``numpy.ndarray`` and records the operations applied
to it so that :meth:`Tensor.backward` can propagate gradients to every tensor
created with ``requires_grad=True``.  Only float64/float32 arrays participate
in differentiation; integer tensors (e.g. token ids) are carried as plain
arrays by the layers that need them.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

ArrayLike = Union[np.ndarray, float, int, Sequence]

_GRAD_ENABLED = True


def is_grad_enabled() -> bool:
    """Return whether operations currently record gradient information."""
    return _GRAD_ENABLED


@contextlib.contextmanager
def no_grad():
    """Context manager that disables gradient recording (inference mode)."""
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` so that it has ``shape``, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum over leading dimensions that were added by broadcasting.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over dimensions that were broadcast from size 1.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


def _has_copy_layout(array: np.ndarray) -> bool:
    """Whether ``array`` already has the strides ``array.copy()`` would give.

    C-contiguity pins the strides of every axis longer than 1; a size-1 axis
    may still carry any stride (a transposed ``(n, 1)`` view), so those are
    compared against the canonical C strides.
    """
    if not array.flags.c_contiguous:
        return False
    if 1 not in array.shape:
        return True
    step = array.itemsize
    for size, stride in zip(reversed(array.shape), reversed(array.strides)):
        if stride != step:
            return False
        step *= size
    return True


def _as_array(value: ArrayLike, dtype=None) -> np.ndarray:
    """Wrap ``value`` as an ndarray without silent casts or copies.

    Existing arrays are adopted as-is — in particular, wrapping a float64 (or
    float32) array never copies it, and float32 data is no longer silently
    promoted to float64.  Pass ``dtype`` to request an explicit cast; the cast
    is skipped (and the array aliased) when the dtype already matches.
    Non-array inputs (scalars, lists) are materialised as float64 by default.
    """
    if isinstance(value, np.ndarray):
        if dtype is not None and value.dtype != dtype:
            return value.astype(dtype)
        return value
    return np.asarray(value, dtype=dtype or np.float64)


class Tensor:
    """A differentiable multi-dimensional array.

    Parameters
    ----------
    data:
        Array data (anything convertible to ``numpy.ndarray``).
    requires_grad:
        Whether gradients should be accumulated in :attr:`grad` during
        :meth:`backward`.
    """

    __slots__ = ("data", "requires_grad", "grad", "_backward", "_parents", "name")
    __array_priority__ = 100.0  # numpy should defer binary ops to Tensor

    def __init__(self, data: ArrayLike, requires_grad: bool = False, name: str = "",
                 dtype=None):
        self.data = _as_array(data, dtype=dtype)
        self.requires_grad = bool(requires_grad) and is_grad_enabled()
        self.grad: Optional[np.ndarray] = None
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: Tuple["Tensor", ...] = ()
        self.name = name

    # ------------------------------------------------------------------ #
    # basic protocol
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying data as a numpy array (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        """Return a tensor sharing data but cut from the autodiff graph."""
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=self.requires_grad)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------ #
    # graph construction helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _ensure(value: Union["Tensor", ArrayLike]) -> "Tensor":
        return value if isinstance(value, Tensor) else Tensor(value)

    def _make_result(
        self,
        data: np.ndarray,
        parents: Tuple["Tensor", ...],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        requires = is_grad_enabled() and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires)
        if requires:
            out._parents = parents
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if not self.requires_grad:
            return
        grad = np.asarray(grad, dtype=self.data.dtype if np.issubdtype(self.data.dtype, np.floating) else np.float64)
        if self.grad is None:
            # Gradients are never written in place (optimizers and
            # clip_grad_norm read or rebind ``.grad``), so an array already in
            # the layout a copy would produce is stored as is.  Other views
            # (a transpose, a broadcast) are copied: numpy's matmul rounds
            # differently on non-C strides, which would move later BLAS calls.
            self.grad = grad if _has_copy_layout(grad) else grad.copy()
        else:
            self.grad = self.grad + grad

    # ------------------------------------------------------------------ #
    # backward
    # ------------------------------------------------------------------ #
    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Backpropagate from this tensor through the recorded graph."""
        if grad is None:
            if self.size != 1:
                raise ValueError("backward() without a gradient requires a scalar tensor")
            grad = np.ones_like(self.data)
        # A copy: the seed becomes this tensor's ``.grad`` and the caller's
        # array must not be shared with it.
        grad = np.array(grad, dtype=np.float64)

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward is None or node.grad is None:
                continue
            node._backward(node.grad)

    # ------------------------------------------------------------------ #
    # arithmetic
    # ------------------------------------------------------------------ #
    def __add__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._ensure(other)
        out_data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(_unbroadcast(grad, self.shape))
            other._accumulate(_unbroadcast(grad, other.shape))

        return self._make_result(out_data, (self, other), backward)

    def __radd__(self, other: ArrayLike) -> "Tensor":
        return self.__add__(other)

    def __neg__(self) -> "Tensor":
        out_data = -self.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(-grad)

        return self._make_result(out_data, (self,), backward)

    def __sub__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._ensure(other)
        out_data = self.data - other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(_unbroadcast(grad, self.shape))
            other._accumulate(_unbroadcast(-grad, other.shape))

        return self._make_result(out_data, (self, other), backward)

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return self._ensure(other).__sub__(self)

    def __mul__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._ensure(other)
        out_data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(_unbroadcast(grad * other.data, self.shape))
            other._accumulate(_unbroadcast(grad * self.data, other.shape))

        return self._make_result(out_data, (self, other), backward)

    def __rmul__(self, other: ArrayLike) -> "Tensor":
        return self.__mul__(other)

    def __truediv__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._ensure(other)
        out_data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(_unbroadcast(grad / other.data, self.shape))
            other._accumulate(
                _unbroadcast(-grad * self.data / (other.data ** 2), other.shape)
            )

        return self._make_result(out_data, (self, other), backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return self._ensure(other).__truediv__(self)

    def __pow__(self, exponent: float) -> "Tensor":
        if isinstance(exponent, Tensor):
            raise TypeError("Tensor exponents are not supported; use exp/log")
        out_data = self.data ** exponent

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return self._make_result(out_data, (self,), backward)

    def __matmul__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        return self.matmul(other)

    def matmul(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._ensure(other)
        out_data = self.data @ other.data

        def backward(grad: np.ndarray) -> None:
            a, b = self.data, other.data
            if self.requires_grad:
                if b.ndim == 1:
                    grad_a = np.outer(grad, b) if a.ndim == 2 else grad[..., None] * b
                elif a.ndim == 1:
                    grad_a = grad @ np.swapaxes(b, -1, -2)
                else:
                    grad_a = grad @ np.swapaxes(b, -1, -2)
                self._accumulate(_unbroadcast(np.asarray(grad_a), a.shape))
            if other.requires_grad:
                if a.ndim == 1:
                    grad_b = np.outer(a, grad) if b.ndim == 2 else a * grad
                elif b.ndim == 1:
                    grad_b = np.swapaxes(a, -1, -2) @ grad[..., None]
                    grad_b = grad_b[..., 0]
                else:
                    grad_b = np.swapaxes(a, -1, -2) @ grad
                other._accumulate(_unbroadcast(np.asarray(grad_b), b.shape))

        return self._make_result(out_data, (self, other), backward)

    def rowwise_matmul(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        """Batch-invariant matrix product for 2-D operands.

        Computes ``self @ other`` for ``self`` of shape ``(rows, k)`` and
        ``other`` of shape ``(k, n)`` by evaluating each row as an independent
        ``(1, k) @ (k, n)`` product.  A plain GEMM rounds differently depending
        on the number of rows, so scoring a batch and scoring the same rows one
        at a time are not bitwise-reproducible through :meth:`matmul`; the
        stacked form is, which is what lets batched candidate scoring return
        bit-identical results to the per-example loop.

        While gradient tracking is enabled this falls back to the single fused
        GEMM: training steps do not need bitwise batch invariance and the
        fused product is ~3x faster.  Every scoring path runs under
        ``no_grad`` and therefore always takes the batch-invariant form.
        """
        if is_grad_enabled():
            return self.matmul(other)
        other = self._ensure(other)
        a, b = self.data, other.data
        if a.ndim != 2 or b.ndim != 2:
            raise ValueError(
                f"rowwise_matmul expects 2-D operands, got {a.ndim}-D and {b.ndim}-D"
            )
        out_data = np.matmul(a[:, None, :], b)[:, 0, :]

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad @ b.T)
            if other.requires_grad:
                other._accumulate(a.T @ grad)

        return self._make_result(out_data, (self, other), backward)

    # ------------------------------------------------------------------ #
    # elementwise functions
    # ------------------------------------------------------------------ #
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * out_data)

        return self._make_result(out_data, (self,), backward)

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad / self.data)

        return self._make_result(out_data, (self,), backward)

    def sqrt(self) -> "Tensor":
        return self ** 0.5

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * (1.0 - out_data ** 2))

        return self._make_result(out_data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * out_data * (1.0 - out_data))

        return self._make_result(out_data, (self,), backward)

    def relu(self) -> "Tensor":
        mask = self.data > 0
        out_data = self.data * mask

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * mask)

        return self._make_result(out_data, (self,), backward)

    def gelu(self) -> "Tensor":
        """Gaussian error linear unit (tanh approximation).

        The cube is evaluated as ``x * x * x``, not ``x ** 3``: ``np.power``
        with a non-square exponent calls libm ``pow``, ~50x slower per element
        on CPUs without a SIMD ``pow``, and it dominated every transformer
        forward and backward.  The no-tape arena's ``_gelu`` replicates this
        arithmetic op for op, so tape and arena stay bitwise identical.
        """
        x = self.data
        c = np.sqrt(2.0 / np.pi)
        cube = x * x * x
        inner = c * (x + 0.044715 * cube)
        tanh_inner = np.tanh(inner)
        out_data = 0.5 * x * (1.0 + tanh_inner)

        def backward(grad: np.ndarray) -> None:
            sech2 = 1.0 - tanh_inner * tanh_inner
            d_inner = c * (1.0 + 3 * 0.044715 * (x * x))
            local = 0.5 * (1.0 + tanh_inner) + 0.5 * x * sech2 * d_inner
            self._accumulate(grad * local)

        return self._make_result(out_data, (self,), backward)

    def abs(self) -> "Tensor":
        out_data = np.abs(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * np.sign(self.data))

        return self._make_result(out_data, (self,), backward)

    def clip(self, low: float, high: float) -> "Tensor":
        out_data = np.clip(self.data, low, high)
        mask = (self.data >= low) & (self.data <= high)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * mask)

        return self._make_result(out_data, (self,), backward)

    # ------------------------------------------------------------------ #
    # reductions
    # ------------------------------------------------------------------ #
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            grad_arr = np.asarray(grad)
            if axis is None:
                expanded = np.broadcast_to(grad_arr, self.shape)
            else:
                axes = axis if isinstance(axis, tuple) else (axis,)
                if not keepdims:
                    for ax in sorted(a % self.ndim for a in axes):
                        grad_arr = np.expand_dims(grad_arr, ax)
                expanded = np.broadcast_to(grad_arr, self.shape)
            self._accumulate(expanded)

        return self._make_result(out_data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            grad_arr = np.asarray(grad)
            if axis is None:
                mask = (self.data == out_data).astype(np.float64)
                mask /= mask.sum()
                self._accumulate(mask * grad_arr)
                return
            out_keep = self.data.max(axis=axis, keepdims=True)
            mask = (self.data == out_keep).astype(np.float64)
            mask /= mask.sum(axis=axis, keepdims=True)
            if not keepdims:
                axes = axis if isinstance(axis, tuple) else (axis,)
                for ax in sorted(a % self.ndim for a in axes):
                    grad_arr = np.expand_dims(grad_arr, ax)
            self._accumulate(mask * grad_arr)

        return self._make_result(out_data, (self,), backward)

    # ------------------------------------------------------------------ #
    # shape manipulation
    # ------------------------------------------------------------------ #
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)
        original_shape = self.shape

        def backward(grad: np.ndarray) -> None:
            self._accumulate(np.asarray(grad).reshape(original_shape))

        return self._make_result(out_data, (self,), backward)

    def transpose(self, *axes) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        out_data = self.data.transpose(axes)
        inverse = np.argsort(axes)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(np.asarray(grad).transpose(inverse))

        return self._make_result(out_data, (self,), backward)

    def swapaxes(self, axis1: int, axis2: int) -> "Tensor":
        axes = list(range(self.ndim))
        axes[axis1], axes[axis2] = axes[axis2], axes[axis1]
        return self.transpose(*axes)

    def expand_dims(self, axis: int) -> "Tensor":
        out_data = np.expand_dims(self.data, axis)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(np.asarray(grad).reshape(self.shape))

        return self._make_result(out_data, (self,), backward)

    def squeeze(self, axis: int) -> "Tensor":
        out_data = np.squeeze(self.data, axis)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(np.asarray(grad).reshape(self.shape))

        return self._make_result(out_data, (self,), backward)

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]

        def backward(grad: np.ndarray) -> None:
            full = np.zeros_like(self.data, dtype=np.float64)
            np.add.at(full, index, np.asarray(grad))
            self._accumulate(full)

        return self._make_result(out_data, (self,), backward)

    def take_rows(self, indices: np.ndarray) -> "Tensor":
        """Gather rows of a 2-D tensor; ``indices`` may have any shape."""
        indices = np.asarray(indices, dtype=np.int64)
        out_data = self.data[indices]

        def backward(grad: np.ndarray) -> None:
            full = np.zeros_like(self.data, dtype=np.float64)
            np.add.at(full, indices.reshape(-1), np.asarray(grad).reshape(-1, self.shape[-1]))
            self._accumulate(full)

        return self._make_result(out_data, (self,), backward)

    # ------------------------------------------------------------------ #
    # combination helpers (static)
    # ------------------------------------------------------------------ #
    @staticmethod
    def concatenate(tensors: Sequence["Tensor"], axis: int = 0) -> "Tensor":
        tensors = [Tensor._ensure(t) for t in tensors]
        out_data = np.concatenate([t.data for t in tensors], axis=axis)
        sizes = [t.shape[axis] for t in tensors]
        offsets = np.cumsum([0] + sizes)

        def backward(grad: np.ndarray) -> None:
            grad_arr = np.asarray(grad)
            for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:], strict=True):
                slicer = [slice(None)] * grad_arr.ndim
                slicer[axis] = slice(start, stop)
                tensor._accumulate(grad_arr[tuple(slicer)])

        requires = is_grad_enabled() and any(t.requires_grad for t in tensors)
        out = Tensor(out_data, requires_grad=requires)
        if requires:
            out._parents = tuple(tensors)
            out._backward = backward
        return out

    @staticmethod
    def stack(tensors: Sequence["Tensor"], axis: int = 0) -> "Tensor":
        tensors = [Tensor._ensure(t) for t in tensors]
        out_data = np.stack([t.data for t in tensors], axis=axis)

        def backward(grad: np.ndarray) -> None:
            grad_arr = np.asarray(grad)
            for position, tensor in enumerate(tensors):
                tensor._accumulate(np.take(grad_arr, position, axis=axis))

        requires = is_grad_enabled() and any(t.requires_grad for t in tensors)
        out = Tensor(out_data, requires_grad=requires)
        if requires:
            out._parents = tuple(tensors)
            out._backward = backward
        return out

    @staticmethod
    def where(condition: np.ndarray, a: "Tensor", b: "Tensor") -> "Tensor":
        a, b = Tensor._ensure(a), Tensor._ensure(b)
        cond = np.asarray(condition, dtype=bool)
        out_data = np.where(cond, a.data, b.data)

        def backward(grad: np.ndarray) -> None:
            grad_arr = np.asarray(grad)
            # Guard each branch so a constant operand (e.g. the broadcast fill
            # value in masked_fill) never materialises a full-size gradient.
            if a.requires_grad:
                a._accumulate(_unbroadcast(grad_arr * cond, a.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(grad_arr * (~cond), b.shape))

        requires = is_grad_enabled() and (a.requires_grad or b.requires_grad)
        out = Tensor(out_data, requires_grad=requires)
        if requires:
            out._parents = (a, b)
            out._backward = backward
        return out
