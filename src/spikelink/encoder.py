"""Probabilistic spiking encoder.

Each of the k read-out neurons integrates filtered input spikes through its
feedforward weights, its own past spikes through a self-feedback weight, and
a bias.  Spiking is Bernoulli in the sigmoid of that membrane potential.
The filtered inputs reach the potential only as the feedforward drive
W·(a∗x), the weights times the input trace, and the filter is linear, so
there are two ways to make it.  Training filters the input lines
(`filter_inputs`, counts to float64 traces, which are also the feedforward
weights' gradient) and projects each step's traces (`drive_from_traces`).
Evaluation projects each step's counts to the k neurons first and filters
those k columns (`drive_from_counts`), a∗(W·x): no input trace is made, and
the drive differs from the training one only by float rounding (at most
about 1e-14 on drives of order 1).  Evaluation reports integer tallies,
which that rounding moves only if a spike uniform falls between the two
spike probabilities.  Training keeps the line-space drive, bit for bit,
until a law-level check of changes that reorder float sums exists.
`rollout` runs the recurrence on a drive, one step at a time, for a whole
batch of sequences; it keeps the fed-back bits as float64 too, so the
feedback trace reads them without a cast, and keeps the spike
probabilities and feedback traces for `score_grads`.
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
    "drive_from_traces",
    "drive_from_counts",
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


def _check_inputs(params: EncoderParams, inputs: np.ndarray, what: str) -> None:
    if inputs.ndim != 3 or inputs.shape[2] != params.n_in:
        raise ValueError(
            f"{what} must have shape (n, steps, {params.n_in}), got {inputs.shape}"
        )


def _project(params: EncoderParams, x: np.ndarray) -> np.ndarray:
    """x[:, t, :] @ ff_weights.T for each step t of x (n, steps, lines), of
    any real dtype, into a step-major (steps, n, k) array: one matmul per
    step, as one over all n * steps rows rounds differently at small n.
    """
    n, steps, _ = x.shape
    out = np.empty((steps, n, params.n_out))
    for t in range(steps):
        np.matmul(x[:, t, :], params.ff_weights.T, out=out[t])
    return out


def drive_from_traces(params: EncoderParams, traces) -> np.ndarray:
    """Feedforward drive of input traces (n, steps, lines), as (n, steps, k).

    The traces are the inputs already filtered with params.kernel_ff (see
    filter_inputs).  Step t's drive is traces[:, t, :] @ ff_weights.T, bit
    for bit (_project); it is step-major under its (n, steps, k) view, so
    each step reads contiguous rows.
    """
    traces = np.asarray(traces, dtype=np.float64)
    _check_inputs(params, traces, "traces")
    return _project(params, traces).transpose(1, 0, 2)


def drive_from_counts(params: EncoderParams, counts) -> np.ndarray:
    """Feedforward drive of input counts (n, steps, lines), as (n, steps, k),
    filtered in neuron space: a∗(W·x) in place of W·(a∗x).

    Each step's counts are projected to the k neurons (_project); then
    filter_inputs runs the taps over the n * k projected columns,
    time-major as a (1, steps, n * k) array, so each tap reads contiguous
    rows.  No float64 array of the counts' size is made.  The result
    equals drive_from_traces of the counts' traces up to float rounding:
    the two sum the same products in another order.
    """
    counts = np.asarray(counts)
    if counts.dtype.kind not in "buif":
        raise ValueError("drive_from_counts needs a real array of counts")
    _check_inputs(params, counts, "counts")
    n, steps, _ = counts.shape
    k = params.n_out
    drive = filter_inputs(_project(params, counts).reshape(1, steps, n * k), params.kernel_ff)
    return drive.reshape(steps, n, k).transpose(1, 0, 2)


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
    fb_traces: np.ndarray    # (n, steps, k), own-bit history strictly before t


def rollout(params: EncoderParams, drive, bits_at) -> Rollout:
    """Run the recurrence over a feedforward drive of shape (n, steps, k).

    The drive is the filtered input already projected onto the neurons
    (drive_from_traces or drive_from_counts).  At each step t, bits_at(t, s)
    turns that step's spike probabilities s = sigmoid(u), shape (n, k), into
    its bits, which every later step feeds back.  Training draws them from
    the channel-marginalized law (channel.sample_noisy), evaluation compares
    pre-drawn spike uniforms with s, and the gradient oracles hand back
    fixed bits to replay a given sequence.  A single sequence is a batch of
    one.
    """
    drive = np.asarray(drive, dtype=np.float64)
    k = params.n_out
    if drive.ndim != 3 or drive.shape[2] != k:
        raise ValueError(f"drive must have shape (n, steps, {k}), got {drive.shape}")
    n, steps, _ = drive.shape
    bits = np.zeros((n, steps, k), dtype=np.uint8)
    # the fed-back bits again as float64, so no tap casts, and step-major
    # under an (n, steps, k) view, so each tap reads contiguous rows
    fed = np.zeros((steps, n, k)).transpose(1, 0, 2)
    potentials = np.zeros((n, steps, k))
    spike_probs = np.zeros((n, steps, k))
    fb_traces = np.zeros((n, steps, k))
    for t in range(steps):
        fb = _feedback_trace(fed, t, params.kernel_fb)
        u = drive[:, t, :] + params.fb_weights * fb + params.bias
        s = sigmoid(u)
        bits[:, t, :] = bits_at(t, s)
        fed[:, t, :] = bits[:, t, :]
        potentials[:, t, :] = u
        spike_probs[:, t, :] = s
        fb_traces[:, t, :] = fb
    return Rollout(bits, potentials, spike_probs, fb_traces)


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


def score_grads(run: Rollout, traces: np.ndarray, epsilon: float,
                weights: np.ndarray) -> EncoderGrads:
    """Parameter gradient of sum_b weights[b] * log p(run.bits[b]).

    p is the channel-marginalized law with run.bits fed back, so each
    sequence's log-likelihood is a sum of per-step terms.  A step's term
    depends on the parameters only through u, whose parameter gradients
    are the traces that built it: the input traces (n, steps, lines) the
    run's drive was made from (drive_from_traces) for the feedforward row,
    the feedback trace for the feedback weight, and 1 for the bias.

    The feedforward contraction takes the weights folded into the score
    first; with this NumPy's einsum loop order that equals the
    three-operand form bit for bit, and is several times faster.  The two
    small contractions keep the three-operand form, which the folded one
    does not reproduce exactly.
    """
    score_u = grad_u_log_prob_noisy(run.bits, run.spike_probs, epsilon)
    return EncoderGrads(
        ff_weights=np.einsum("btk,btn->kn", weights[:, None, None] * score_u, traces),
        fb_weights=np.einsum("b,btk,btk->k", weights, score_u, run.fb_traces),
        bias=np.einsum("b,btk->k", weights, score_u),
    )
