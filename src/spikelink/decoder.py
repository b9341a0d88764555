"""Feedforward classifier over a received spike buffer.

Flatten -> dense ReLU -> dense sigmoid, with the loss treating the targets
as one-hot bit vectors (binary cross entropy summed over classes).  A
softmax head is available as a comparison option; both heads share the same
output-layer gradient, so backward_batch has a single code path, into a
gradient vector of the weights' flat layout (numerics.FlatParams).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import FlatParams, SeededRng, sigmoid, softplus

__all__ = [
    "DecoderParams",
    "init_decoder_params",
    "forward_batch",
    "losses_from_logits_batch",
    "backward_batch",
]

OUTPUT_HEADS = ("sigmoid", "softmax")


@dataclass
class DecoderParams(FlatParams):
    LEARNED = ("w1", "b1", "w2", "b2")

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    output: str = "sigmoid"

    def __post_init__(self):
        self._flatten()
        if self.output not in OUTPUT_HEADS:
            raise ValueError(f"output head must be one of {OUTPUT_HEADS}")
        hidden, n_in = self.w1.shape
        classes = self.w2.shape[0]
        if self.b1.shape != (hidden,) or self.w2.shape != (classes, hidden):
            raise ValueError("layer shapes do not chain")
        if self.b2.shape != (classes,):
            raise ValueError("output bias shape mismatch")

    @property
    def input_dim(self) -> int:
        return self.w1.shape[1]

    @property
    def hidden_dim(self) -> int:
        return self.w1.shape[0]

    @property
    def n_classes(self) -> int:
        return self.w2.shape[0]


def init_decoder_params(
    input_dim: int,
    n_classes: int,
    rng: SeededRng,
    hidden_dim: int = 1024,
    output: str = "sigmoid",
) -> DecoderParams:
    """Glorot-uniform weights (+-sqrt(6/(fan_in+fan_out))), zero biases."""
    if input_dim < 1 or n_classes < 1 or hidden_dim < 1:
        raise ValueError("all layer sizes must be positive")
    r1 = math.sqrt(6.0 / (input_dim + hidden_dim))
    r2 = math.sqrt(6.0 / (hidden_dim + n_classes))
    return DecoderParams(
        w1=rng.uniform_range(-r1, r1, (hidden_dim, input_dim)),
        b1=np.zeros(hidden_dim),
        w2=rng.uniform_range(-r2, r2, (n_classes, hidden_dim)),
        b2=np.zeros(n_classes),
        output=output,
    )


def _head_probs(logits: np.ndarray, output: str) -> np.ndarray:
    if output == "softmax":
        shifted = logits - logits.max(axis=-1, keepdims=True)
        ex = np.exp(shifted)
        return ex / ex.sum(axis=-1, keepdims=True)
    return sigmoid(logits)


def forward_batch(params: DecoderParams, x: np.ndarray):
    """Forward pass over the rows of x, one flattened buffer per row.

    A buffer of received bits (steps x neurons) flattens step-major: bit
    (t, i) is input t * k + i.  Returns the pre-activations, hidden units,
    logits and class probabilities; backward_batch takes all but the logits.
    """
    pre = x @ params.w1.T + params.b1
    hidden = np.maximum(pre, 0.0)
    logits = hidden @ params.w2.T + params.b2
    return pre, hidden, logits, _head_probs(logits, params.output)


def losses_from_logits_batch(params: DecoderParams, logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """One-hot loss per row, from logits so saturated heads stay finite.

    Sigmoid head: binary cross entropy summed over classes, as
    softplus(a) - y*a.  Softmax head: plain cross entropy.
    """
    n = logits.shape[0]
    onehot = np.zeros_like(logits)
    onehot[np.arange(n), labels] = 1.0
    if params.output == "softmax":
        shifted = logits - logits.max(axis=1, keepdims=True)
        lse = np.log(np.exp(shifted).sum(axis=1))
        return lse - shifted[np.arange(n), labels]
    return np.sum(softplus(logits) - onehot * logits, axis=1)


def backward_batch(
    params: DecoderParams,
    x: np.ndarray,
    pre: np.ndarray,
    hidden: np.ndarray,
    probs: np.ndarray,
    labels: np.ndarray,
) -> np.ndarray:
    """Exact mean loss gradient over the batch, as a vector of params' layout.

    Both heads give d(loss)/d(logits) = probs - onehot, so one chain covers
    sigmoid and softmax alike.
    """
    n = x.shape[0]
    d_logits = probs.copy()
    d_logits[np.arange(n), labels] -= 1.0
    d_logits /= float(n)
    d_w2 = d_logits.T @ hidden
    d_b2 = d_logits.sum(axis=0)
    d_hidden = d_logits @ params.w2
    d_hidden[pre <= 0.0] = 0.0
    d_w1 = d_hidden.T @ x
    d_b1 = d_hidden.sum(axis=0)
    return np.concatenate([d_w1.ravel(), d_b1, d_w2.ravel(), d_b2])
