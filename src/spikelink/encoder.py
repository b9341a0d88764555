"""Probabilistic spiking encoder.

Each of the k read-out neurons integrates filtered input spikes through its
feedforward weights, its own past spikes through a self-feedback weight, and
a bias.  Spiking is Bernoulli in the sigmoid of that membrane potential.
The filtered inputs reach the potential only as the feedforward drive
W·(a∗x), the weights times the input trace, and the filter is linear, so
there are two ways to make it.  Training projects each step's input
traces (`drive_from_traces`), which are also the feedforward weights'
gradient; it keeps its 0/1 counts as uint16 history codes
(`history_codes`) and looks each batch's traces up from them
(`code_traces`), `filter_inputs` of the counts bit for bit.  Evaluation
projects each step's counts to the k neurons first and filters those k
columns (`drive_from_counts`), a∗(W·x): no input trace is made, and the
drive differs from the training one only by float rounding (at most about
1e-14 on drives of order 1).  Evaluation reports integer tallies, which
that rounding moves only if a spike uniform falls between the two spike
probabilities.  Training keeps the line-space drive, bit for bit, until a
law-level check of changes that reorder float sums exists.
`rollout` runs the recurrence on a drive, one step at a time, for a whole
batch of sequences; it reads each feedback trace from a table of partial
sums of the taps, indexed by the neuron's past 0/1 bits, sets each bit by
its potential against a threshold drawn before the loop, and keeps the
potentials and feedback traces for training, which alone reads their
sigmoid (`Rollout.spike_probs`, made on first read).  `score_grads`
returns a gradient vector of the weights' flat layout (numerics.FlatParams).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .channel import noisy_spike_prob
from .numerics import FlatParams, Kernel, SeededRng, exponential_kernel, sigmoid

__all__ = [
    "EncoderParams",
    "init_encoder_params",
    "filter_inputs",
    "history_codes",
    "code_traces",
    "drive_from_traces",
    "drive_from_counts",
    "rollout",
    "grad_u_log_prob_noisy",
    "score_grads",
]


@dataclass
class EncoderParams(FlatParams):
    """Learnable weights plus the fixed causal filters.

    ff_weights has one row per read-out neuron and one column per input
    line; fb_weights and bias hold one scalar per neuron.  The kernels are
    not trained.
    """

    LEARNED = ("ff_weights", "fb_weights", "bias")

    ff_weights: np.ndarray
    fb_weights: np.ndarray
    bias: np.ndarray
    kernel_ff: Kernel
    kernel_fb: Kernel

    def __post_init__(self):
        self._flatten()
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


# counts per block of filter_inputs and of code_traces' index: bounds their
# working set, not their results
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


# bits per history code: a count and its 15 predecessors fill a uint16,
# and the trace table then holds 2**17 - 2 partial sums (1 MB)
_HISTORY_BITS = 16


def history_codes(counts) -> np.ndarray:
    """uint16 codes of 0/1 counts (n, steps, lines) of any real dtype: bit
    d of codes[i, t, l] is counts[i, t - d, l], 0 before step 0.  Any other
    count raises ValueError.  No kernel enters; code_traces filters them."""
    counts = np.asarray(counts)
    if counts.ndim != 3 or counts.dtype.kind not in "buif":
        raise ValueError("history_codes needs a real array of shape (n, steps, lines)")
    codes = np.empty(counts.shape, dtype=np.uint16)
    for t in range(counts.shape[1]):
        if not np.all((counts[:, t] == 0) | (counts[:, t] == 1)):
            raise ValueError("history codes need counts of 0 or 1")
        codes[:, t] = counts[:, t]
        if t:
            codes[:, t] |= codes[:, t - 1] << 1
    return codes


def code_traces(codes: np.ndarray, kernel: Kernel, batch_size: int):
    """traces_of(rows): filter_inputs of the counts of codes[rows], bit for
    bit, looked up from those history codes (n, steps, lines) in a table of
    the kernel's partial sums, into a float64 buffer of min(batch_size, n)
    samples that the next call reuses.

    Level j of the table holds c0*b0 + ... + c_{j-1}*b_{j-1} for each j-bit
    code, summed in filter_inputs' order, a zero bit adding its signed zero
    c_d*0.0.  Step t reads level min(t + 1, m), m = min(taps, 16): there
    filter_inputs adds no tap past t, and +0.0 would turn a -0.0 sum into
    +0.0.  Taps past the 16th follow, d ascending, from bit 0 of older codes.
    """
    coeff = kernel.coefficients
    n, steps, lines = codes.shape
    m = min(coeff.size, _HISTORY_BITS)
    levels = [coeff[0] * np.array([0.0, 1.0])]
    for c in coeff[1:m]:
        levels.append(np.concatenate([levels[-1] + c * 0.0, levels[-1] + c]))
    # level m first, so a code is its own index from step m - 1 on, and
    # level j < m starts at 2**m + 2**j - 2 (one offset per line: adding
    # a broadcast column is slower); a block of samples' index stays in
    # cache from its cast to its lookup
    table = np.concatenate([levels[-1], *levels[:-1]])
    early = min(m - 1, steps)
    offsets = np.repeat((1 << m) - 2 + (2 << np.arange(early)), lines).reshape(early, lines)
    block = max(FILTER_BLOCK // max(steps * lines, 1), 1)
    batch = np.empty((min(batch_size, n), steps, lines), dtype=np.uint16)
    index = np.empty((min(block, len(batch)), steps, lines), dtype=np.intp)
    traces = np.empty(batch.shape)

    def traces_of(samples) -> np.ndarray:
        b = len(samples)
        codes.take(samples, axis=0, out=batch[:b], mode="clip")
        batch[:b] &= (1 << m) - 1
        for i in range(0, b, block):
            j = min(i + block, b)
            np.copyto(index[: j - i], batch[i:j])
            index[: j - i, :early] += offsets
            table.take(index[: j - i], out=traces[i:j], mode="clip")
        for d in range(m, min(coeff.size, steps)):
            traces[:b, d:] += coeff[d] * (batch[:b, :-d] & 1)
        return traces[:b]

    return traces_of


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


# feedback taps read from a table of 2**m partial sums: 4096 entries (32 KB)
# at most, so a window past 13 adds its further taps one at a time
_FB_TABLE_TAPS = 12


@dataclass
class Rollout:
    """One pass of the recurrence over a batch of n sequences."""

    bits: np.ndarray         # (n, steps, k) uint8, the bits fed back
    potentials: np.ndarray   # (n, steps, k)
    fb_traces: np.ndarray    # (n, steps, k), own-bit history strictly before t

    @cached_property
    def spike_probs(self) -> np.ndarray:  # sigmoid(potentials); training alone reads it
        return sigmoid(self.potentials)


def rollout(params: EncoderParams, drive, thresholds) -> Rollout:
    """Run the recurrence over a feedforward drive of shape (n, steps, k).

    The drive is the filtered input already projected onto the neurons
    (drive_from_traces or drive_from_counts).  Step t's bits are 1 where
    its potentials exceed thresholds[t], of a step-major (steps, n, k)
    array, and every later step feeds them back: training and evaluation
    make thresholds with channel.spike_thresholds, and the gradient oracles
    replay bits through -inf and +inf.  A single sequence is a batch of
    one.  No spike probability is taken here (Rollout.spike_probs).
    """
    drive = np.asarray(drive, dtype=np.float64)
    k = params.n_out
    if drive.ndim != 3 or drive.shape[2] != k:
        raise ValueError(f"drive must have shape (n, steps, {k}), got {drive.shape}")
    n, steps, _ = drive.shape
    if np.shape(thresholds) != (steps, n, k):
        raise ValueError(f"thresholds must have shape {(steps, n, k)}, got {np.shape(thresholds)}")
    coeff = params.kernel_fb.coefficients
    m = min(coeff.size - 1, _FB_TABLE_TAPS)
    # table[i] adds c_d for each set bit d - 1 of i, d = 1 first onto +0.0,
    # the tap loop's own sum
    table = np.zeros(1)
    for d in range(1, m + 1):
        table = np.concatenate([table, table + coeff[d]])
    # bit d - 1 of history is the bit d steps back; steps before 0 read 0,
    # which is exact, as the tap loop's +-0.0 terms never move its sum
    history = np.zeros((n, k), dtype=np.intp)
    mask = (1 << m) - 1
    # steps write into contiguous slices of step-major arrays, handed back
    # in the (n, steps, k) C order score_grads' einsums order their sums by
    bits = np.empty((steps, n, k), dtype=np.uint8)
    potentials, fb_traces = np.empty((2, steps, n, k))
    for t in range(steps):
        fb, u = fb_traces[t], potentials[t]
        table.take(history, out=fb, mode="clip")
        for d in range(m + 1, min(coeff.size, t + 1)):
            fb += coeff[d] * bits[t - d]
        np.multiply(params.fb_weights, fb, out=u)
        np.add(drive[:, t, :], u, out=u)
        u += params.bias
        np.greater(u, thresholds[t], out=bits[t].view(np.bool_))
        history <<= 1
        history |= bits[t]
        history &= mask
    return Rollout(*(np.ascontiguousarray(a.transpose(1, 0, 2))
                     for a in (bits, potentials, fb_traces)))


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
                weights: np.ndarray) -> np.ndarray:
    """Parameter gradient of sum_b weights[b] * log p(run.bits[b]), as one
    vector of EncoderParams' layout (EncoderParams.split names its parts).

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
    return np.concatenate([
        np.einsum("btk,btn->kn", weights[:, None, None] * score_u, traces).ravel(),
        np.einsum("b,btk,btk->k", weights, score_u, run.fb_traces),
        np.einsum("b,btk->k", weights, score_u),
    ])
