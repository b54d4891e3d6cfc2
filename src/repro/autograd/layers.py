"""Common neural-network layers used across the reproduction."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.autograd import functional as F
from repro.autograd import init
from repro.autograd.module import Module, Parameter
from repro.autograd.tensor import Tensor


class Linear(Module):
    """Affine transformation ``y = x W^T + b``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.xavier_uniform((out_features, in_features), rng))
        self.bias = Parameter(init.zeros((out_features,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        weight_t = self.weight.transpose()
        # 2-D inputs go through the batch-invariant product so that scoring a
        # batch of rows is bitwise-identical to scoring each row alone.
        if x.data.ndim == 2:
            out = x.rowwise_matmul(weight_t)
        else:
            out = x.matmul(weight_t)
        if self.bias is not None:
            out = out + self.bias
        return out


class Embedding(Module):
    """Lookup table mapping integer ids to dense vectors.

    A ``padding_idx`` row can be declared; it is initialised to zero and the
    lookup for that id always returns zeros (its gradient is discarded by the
    optimiser step via the mask applied here).
    """

    def __init__(
        self,
        num_embeddings: int,
        embedding_dim: int,
        padding_idx: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
        std: float = 0.02,
    ):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.padding_idx = padding_idx
        weight = init.normal((num_embeddings, embedding_dim), rng, std=std)
        if padding_idx is not None:
            weight[padding_idx] = 0.0
        self.weight = Parameter(weight)

    def forward(self, indices) -> Tensor:
        indices = np.asarray(indices, dtype=np.int64)
        out = self.weight.take_rows(indices)
        if self.padding_idx is not None:
            mask = (indices != self.padding_idx).astype(np.float64)[..., None]
            out = out * Tensor(mask)
        return out


class LayerNorm(Module):
    """Layer normalisation over the last dimension."""

    def __init__(self, normalized_shape: int, eps: float = 1e-5):
        super().__init__()
        self.eps = eps
        self.weight = Parameter(init.ones((normalized_shape,)))
        self.bias = Parameter(init.zeros((normalized_shape,)))

    def forward(self, x: Tensor) -> Tensor:
        mean = x.mean(axis=-1, keepdims=True)
        centred = x - mean
        variance = (centred * centred).mean(axis=-1, keepdims=True)
        normalised = centred * ((variance + self.eps) ** -0.5)
        return normalised * self.weight + self.bias


class Dropout(Module):
    """Inverted dropout; identity when the module is in eval mode."""

    def __init__(self, rate: float = 0.1, rng: Optional[np.random.Generator] = None):
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ValueError("dropout rate must be in [0, 1)")
        self.rate = rate
        self.rng = rng or np.random.default_rng(0)

    def forward(self, x: Tensor) -> Tensor:
        if not self.training or self.rate == 0.0:
            return x
        mask = F.dropout_mask(x.shape, self.rate, self.rng)
        return x * Tensor(mask)


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class GELU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.gelu()


class Tanh(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.tanh()


class Sigmoid(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.sigmoid()


class Identity(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x


class FeedForward(Module):
    """Two-layer position-wise feed-forward block used inside transformers."""

    def __init__(
        self,
        dim: int,
        hidden_dim: int,
        dropout: float = 0.1,
        activation: str = "gelu",
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.fc1 = Linear(dim, hidden_dim, rng=rng)
        self.fc2 = Linear(hidden_dim, dim, rng=rng)
        self.dropout = Dropout(dropout, rng=rng)
        if activation not in ("gelu", "relu"):
            raise ValueError(f"unknown activation {activation!r}")
        self.activation = activation

    def forward(self, x: Tensor) -> Tensor:
        hidden = self.fc1(x)
        hidden = hidden.gelu() if self.activation == "gelu" else hidden.relu()
        hidden = self.dropout(hidden)
        return self.fc2(hidden)
