"""Probabilistic spiking encoder.

Each of the k read-out neurons integrates filtered input spikes through its
feedforward weights, its own past spikes through a self-feedback weight, and
a bias.  Spiking is Bernoulli in the sigmoid of that membrane potential.
`filter_inputs` turns input counts (the uint8 frames, or any real array)
into float64 input traces; `rollout` runs the recurrence on those traces,
one step at a time, for a whole batch of sequences; it keeps the fed-back
bits as float64 too, so the feedback trace reads them without a cast.  The
traces that build the potential are also its parameter gradients, so the
rollout keeps them, with the spike probabilities, for `score_grads`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import noisy_spike_prob
from .numerics import Kernel, SeededRng, exponential_kernel, sigmoid

__all__ = [
    "EncoderParams",
    "EncoderGrads",
    "init_encoder_params",
    "filter_inputs",
    "rollout",
    "grad_u_log_prob_noisy",
    "score_grads",
]


@dataclass
class EncoderParams:
    """Learnable weights plus the fixed causal filters.

    ff_weights has one row per read-out neuron and one column per input
    line; fb_weights and bias hold one scalar per neuron.  The kernels are
    not trained.
    """

    ff_weights: np.ndarray
    fb_weights: np.ndarray
    bias: np.ndarray
    kernel_ff: Kernel
    kernel_fb: Kernel

    def __post_init__(self):
        self.ff_weights = np.asarray(self.ff_weights, dtype=np.float64)
        self.fb_weights = np.asarray(self.fb_weights, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.ff_weights.ndim != 2:
            raise ValueError("ff_weights must be 2-d (neurons x inputs)")
        k = self.ff_weights.shape[0]
        if self.fb_weights.shape != (k,) or self.bias.shape != (k,):
            raise ValueError("fb_weights and bias must have one entry per neuron")

    @property
    def n_out(self) -> int:
        return self.ff_weights.shape[0]

    @property
    def n_in(self) -> int:
        return self.ff_weights.shape[1]


@dataclass
class EncoderGrads:
    """Gradient container mirroring the learnable fields of EncoderParams."""

    ff_weights: np.ndarray
    fb_weights: np.ndarray
    bias: np.ndarray


def init_encoder_params(
    n_in: int,
    n_out: int,
    rng: SeededRng,
    kernel_ff: Kernel | None = None,
    kernel_fb: Kernel | None = None,
    init_rate: float = 0.1,
) -> EncoderParams:
    """Fresh encoder weights.

    Feedforward weights are uniform in +-1/sqrt(n_in), the self-feedback
    weight starts at -1 (a soft refractory pull), and the bias is set so a
    silent network spikes at init_rate.
    """
    if n_in < 1 or n_out < 1:
        raise ValueError("need at least one input and one neuron")
    if not 0.0 < init_rate < 1.0:
        raise ValueError("init_rate must be in (0, 1)")
    bound = 1.0 / math.sqrt(n_in)
    return EncoderParams(
        ff_weights=rng.uniform_range(-bound, bound, (n_out, n_in)),
        fb_weights=np.full(n_out, -1.0),
        bias=np.full(n_out, math.log(init_rate / (1.0 - init_rate))),
        kernel_ff=kernel_ff or exponential_kernel(),
        kernel_fb=kernel_fb or exponential_kernel(),
    )


# counts per block of filter_inputs: bounds its working set, not its results
FILTER_BLOCK = 1 << 16


def filter_inputs(counts: np.ndarray, kernel: Kernel) -> np.ndarray:
    """Input traces of counts of shape (n, steps, lines), as a new float64
    array of that shape.

    The trace at step t is c0*x_t + c1*x_{t-1} + ..., added in that order,
    with history before step 0 reading zero.  The counts may have any real
    dtype: a count cast to float64 is exact, so a uint8 count times a tap is
    the float64 count's product.  The taps go one at a time over a block:
    its traces start as c0*x, and tap d adds c_d*x to the traces d steps
    later, which keeps each element's addition order.  A block is as many
    whole samples as fit in FILTER_BLOCK counts or, when one sample does
    not fit, a slice of one sample's lines; its counts are cast once, so the
    working set is two float64 buffers of the block's size.
    """
    counts = np.asarray(counts)
    if counts.ndim != 3 or counts.dtype.kind not in "buif":
        raise ValueError("filter_inputs needs a real array of shape (n, steps, lines)")
    coeff = kernel.coefficients
    n, steps, lines = counts.shape
    traces = np.empty((n, steps, lines))
    if steps * lines <= FILTER_BLOCK:
        samples, width = FILTER_BLOCK // max(steps * lines, 1), max(lines, 1)
    else:
        samples, width = 1, max(FILTER_BLOCK // steps, 1)
    x = np.empty((min(samples, n), steps, min(width, lines)))
    term = np.empty_like(x)
    for start in range(0, n, samples):
        for left in range(0, lines, width):
            block = counts[start : start + samples, :, left : left + width]
            trace = traces[start : start + samples, :, left : left + width]
            m, _, w = block.shape
            xb, tb = x[:m, :, :w], term[:m, :, :w]
            xb[...] = block
            np.multiply(xb, coeff[0], out=trace)
            for d in range(1, min(coeff.size, steps)):
                np.multiply(xb[:, :-d], coeff[d], out=tb[:, d:])
                trace[:, d:] += tb[:, d:]
    return traces


def _feedback_trace(bits: np.ndarray, t: int, kernel: Kernel) -> np.ndarray:
    """Filtered own-bit history at step t for a batch of float64 bits of
    shape (n, steps, k), strictly past bits.

    coefficients[0] would pair with the not-yet-drawn bit of step t, so it
    never contributes.  The taps are added d = 1 first onto +0.0, so a
    negative tap on a zero bit adds -0.0 and leaves +0.0.
    """
    coeff = kernel.coefficients
    trace = np.zeros((bits.shape[0], bits.shape[2]))
    term = np.empty_like(trace)
    for d in range(1, min(coeff.size, t + 1)):
        np.multiply(bits[:, t - d, :], coeff[d], out=term)
        trace += term
    return trace


@dataclass
class Rollout:
    """One pass of the recurrence over a batch of n sequences."""

    bits: np.ndarray         # (n, steps, k) uint8, the bits fed back
    potentials: np.ndarray   # (n, steps, k)
    spike_probs: np.ndarray  # (n, steps, k), sigmoid of the potentials
    ff_traces: np.ndarray    # (n, steps, lines), input history up to and including t
    fb_traces: np.ndarray    # (n, steps, k), own-bit history strictly before t


def rollout(params: EncoderParams, traces, bits_at) -> Rollout:
    """Run the recurrence over input traces of shape (n, steps, lines).

    The traces are the inputs already filtered with params.kernel_ff (see
    filter_inputs).  At each step t, bits_at(t, s) turns that step's spike
    probabilities s = sigmoid(u), shape (n, k), into its bits, which every
    later step feeds back.  Training draws them from the
    channel-marginalized law (channel.sample_noisy), evaluation compares
    pre-drawn spike uniforms with s, and the gradient oracles hand back
    fixed bits to replay a given sequence.  A single sequence is a batch of
    one.
    """
    ff = np.asarray(traces, dtype=np.float64)
    if ff.ndim != 3 or ff.shape[2] != params.n_in:
        raise ValueError(
            f"traces must have shape (n, steps, {params.n_in}), got {ff.shape}"
        )
    n, steps, _ = ff.shape
    k = params.n_out
    bits = np.zeros((n, steps, k), dtype=np.uint8)
    # the fed-back bits again as float64, so no tap casts, and step-major
    # under an (n, steps, k) view, so each tap reads contiguous rows
    fed = np.zeros((steps, n, k)).transpose(1, 0, 2)
    potentials = np.zeros((n, steps, k))
    spike_probs = np.zeros((n, steps, k))
    fb_traces = np.zeros((n, steps, k))
    for t in range(steps):
        fb = _feedback_trace(fed, t, params.kernel_fb)
        u = ff[:, t, :] @ params.ff_weights.T + params.fb_weights * fb + params.bias
        s = sigmoid(u)
        bits[:, t, :] = bits_at(t, s)
        fed[:, t, :] = bits[:, t, :]
        potentials[:, t, :] = u
        spike_probs[:, t, :] = s
        fb_traces[:, t, :] = fb
    return Rollout(bits, potentials, spike_probs, ff, fb_traces)


def grad_u_log_prob_noisy(zhat, s, epsilon: float):
    """d/du of the channel-marginalized log-likelihood, element-wise, given
    the spike probabilities s = sigmoid(u).

    For eps in (0, 0.5) the derivative is
    (1-2*eps) * s * (1-s) * (zhat/q - (1-zhat)/(1-q)) with q the
    marginalized spike probability; q is pinned inside [eps, 1-eps] so no
    denominator can vanish.  At eps = 0 the expression collapses to
    zhat - s, which is used directly to dodge the 0/0 that saturated
    potentials would produce.  eps = 0.5 makes the received bit independent
    of u, so the mapping is singular and rejected.
    """
    eps = float(epsilon)
    if not 0.0 <= eps < 0.5:
        raise ValueError(f"gradient undefined outside 0 <= epsilon < 0.5: {eps}")
    zhat = np.asarray(zhat, dtype=np.float64)
    s = np.asarray(s, dtype=np.float64)
    if eps == 0.0:
        return zhat - s
    q = noisy_spike_prob(s, eps)
    return (1.0 - 2.0 * eps) * s * (1.0 - s) * (zhat / q - (1.0 - zhat) / (1.0 - q))


def score_grads(run: Rollout, epsilon: float, weights: np.ndarray) -> EncoderGrads:
    """Parameter gradient of sum_b weights[b] * log p(run.bits[b]).

    p is the channel-marginalized law with run.bits fed back, so each
    sequence's log-likelihood is a sum of per-step terms.  A step's term
    depends on the parameters only through u, whose parameter gradients
    are the traces that built it: the filtered input for the feedforward
    row, the feedback trace for the feedback weight, and 1 for the bias.

    The feedforward contraction takes the weights folded into the score
    first; with this NumPy's einsum loop order that equals the
    three-operand form bit for bit, and is several times faster.  The two
    small contractions keep the three-operand form, which the folded one
    does not reproduce exactly.
    """
    score_u = grad_u_log_prob_noisy(run.bits, run.spike_probs, epsilon)
    return EncoderGrads(
        ff_weights=np.einsum("btk,btn->kn", weights[:, None, None] * score_u, run.ff_traces),
        fb_weights=np.einsum("b,btk,btk->k", weights, score_u, run.fb_traces),
        bias=np.einsum("b,btk->k", weights, score_u),
    )
