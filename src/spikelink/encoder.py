"""Probabilistic spiking encoder.

Each of the k read-out neurons integrates filtered input spikes through its
feedforward weights, its own past spikes through a self-feedback weight, and
a bias.  Spiking is Bernoulli in the sigmoid of that membrane potential.
The encoder reads its input counts (records, steps, lines) only through
their active entries: `ActiveCounts` indexes a split's nonzero counts once,
each entry's line and, where some count is not 1, its value, row by
record-step row.  The filtered inputs reach the potential only as the
feedforward drive W·(a∗x), and the filter is linear, so training and
evaluation make it in neuron space, a∗(W·x): each row's active weight
columns are gathered and summed, and those k columns are filtered
(`drive_from_counts`).  No input trace is made, and no inactive line is
read.  The same linearity gives the feedforward weights' gradient:
Σ_t g_t ⊗ (a∗x)_t equals Σ_t (a⋆g)_t ⊗ x_t, the score filtered backward in
time and then added into the active lines of each row (`score_grads`).
Both filters are one matrix product with the kernel's cached Toeplitz
matrix (`Kernel.matrix`), the adjoint with its transpose.
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
from .numerics import FlatParams, Kernel, exponential_kernel, sigmoid

__all__ = [
    "ActiveCounts",
    "EncoderParams",
    "init_encoder_params",
    "filter_inputs",
    "drive_from_counts",
    "rollout",
    "grad_u_log_prob_noisy",
    "score_grads",
]


# counts scanned per block when an array is indexed (ActiveCounts.of)
INDEX_BLOCK = 1 << 16
MAX_LINES = np.iinfo(np.int32).max  # an index's lines are int32


@dataclass(frozen=True, eq=False)
class ActiveCounts:
    """The nonzero entries of input counts of shape (records, steps, lines).

    Row r = record * steps + step holds entries offsets[r]:offsets[r + 1],
    in line order: each entry's line (int32) and, only when some count is
    not 1, its value (float64; None means every value is 1, as in every
    binned split).  So a split of 0/1 counts takes 4 bytes a nonzero count
    and 8 a row.  Splits are binned straight into an index (events), an
    array of counts is indexed by ActiveCounts.of, and either way a width
    past MAX_LINES is refused.  An index's records are read as an array's
    are: len, index[start:stop] (a view of the entries) and index[records]
    for an integer array (a copy).
    """

    shape: tuple[int, int, int]
    lines: np.ndarray
    offsets: np.ndarray
    values: np.ndarray | None = None

    def __post_init__(self):
        self.check_width(self.shape[2])

    @staticmethod
    def check_width(width: int, what: str = "") -> None:
        if width > MAX_LINES:
            raise ValueError(
                f"{what}{width} input lines exceed the {MAX_LINES} an index numbers in int32")

    @classmethod
    def of(cls, counts) -> ActiveCounts:
        """counts as an index: an ActiveCounts as it is, or a real array
        (records, steps, lines) indexed in one pass, INDEX_BLOCK counts at a
        time, so the pass adds little beyond the index itself."""
        if isinstance(counts, cls):
            return counts
        counts = np.asarray(counts)
        if counts.ndim != 3 or counts.dtype.kind not in "buif":
            raise ValueError(
                f"counts must be a real array of shape (records, steps, lines), got {counts.shape}")
        n, steps, width = counts.shape
        rows = counts.reshape(n * steps, width)
        total = np.count_nonzero(counts)
        lines = np.empty(total, dtype=np.int32)
        offsets = np.zeros(n * steps + 1, dtype=np.intp)
        values = None
        per_block = max(INDEX_BLOCK // max(width, 1), 1)
        done = 0
        for first in range(0, n * steps, per_block):
            part = rows[first : first + per_block]
            flat = np.flatnonzero(part)
            found = part.ravel()[flat]
            if values is None and (found != 1).any():
                values = np.ones(total)  # the entries before this block are all 1
            if values is not None:
                values[done : done + flat.size] = found
            ends = offsets[first + 1 : first + 1 + len(part)]
            ends[:] = np.searchsorted(flat, np.arange(1, len(part) + 1) * width)
            ends += done
            np.remainder(flat, width, out=flat)
            lines[done : done + flat.size] = flat
            done += flat.size
        return cls((n, steps, width), lines, offsets, values)

    def __len__(self) -> int:
        return self.shape[0]

    def __getitem__(self, records) -> ActiveCounts:
        n, steps, width = self.shape
        if isinstance(records, slice):
            start, stop, stride = records.indices(n)
            if stride != 1:
                raise ValueError("an index slices its records with step 1")
            count = max(stop - start, 0)
            rows = self.offsets[start * steps : (start + count) * steps + 1]
            entries = slice(rows[0], rows[-1])
            return ActiveCounts((count, steps, width), self.lines[entries], rows - rows[0],
                                None if self.values is None else self.values[entries])
        records = np.asarray(records, dtype=np.intp).reshape(-1)
        if ((records < -n) | (records >= n)).any():
            raise IndexError(f"record index out of range for {n} records")
        records = np.where(records < 0, records + n, records)
        rows = (records[:, None] * steps + np.arange(steps)).ravel()
        offsets = np.zeros(rows.size + 1, dtype=np.intp)
        np.cumsum(self.offsets[rows + 1] - self.offsets[rows], out=offsets[1:])
        spans = [slice(first, last) for first, last in zip(
            self.offsets[records * steps].tolist(), self.offsets[(records + 1) * steps].tolist())]

        def gather(entries: np.ndarray) -> np.ndarray:
            return np.concatenate([entries[:0], *(entries[span] for span in spans)])

        return ActiveCounts((records.size, steps, width), gather(self.lines), offsets,
                            None if self.values is None else gather(self.values))


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
    rng: np.random.Generator,
    kernel_ff: Kernel | None = None,
    kernel_fb: Kernel | None = None,
    init_rate: float = 0.1,
) -> EncoderParams:
    """Fresh encoder weights.

    Feedforward weights are drawn from rng uniform in +-1/sqrt(n_in), the
    self-feedback weight starts at -1 (a soft refractory pull), and the
    bias is set so a silent network spikes at init_rate.
    """
    if n_in < 1 or n_out < 1:
        raise ValueError("need at least one input and one neuron")
    if not 0.0 < init_rate < 1.0:
        raise ValueError("init_rate must be in (0, 1)")
    bound = 1.0 / math.sqrt(n_in)
    return EncoderParams(
        ff_weights=rng.uniform(-bound, bound, (n_out, n_in)),
        fb_weights=np.full(n_out, -1.0),
        bias=np.full(n_out, math.log(init_rate / (1.0 - init_rate))),
        kernel_ff=kernel_ff or exponential_kernel(),
        kernel_fb=kernel_fb or exponential_kernel(),
    )


# above this many steps a filter runs block by block against one band of
# the kernel's matrix, so no (steps, steps) matrix is ever made
FILTER_BLOCK = 64


def filter_inputs(counts: np.ndarray, kernel: Kernel) -> np.ndarray:
    """Causal filter of counts of shape (n, steps, columns), as a new float64
    array of that shape: the drive's projected columns.

    The trace at step t is c0*x_t + c1*x_{t-1} + ..., with history before
    step 0 reading zero: one matrix product with the kernel's
    lower-triangular Toeplitz matrix (Kernel.matrix), in blocks of
    FILTER_BLOCK steps above that many (_filter).  The counts may have any
    real dtype: a count cast to float64 is exact, so a uint8 count filters
    as the float64 count does.  The product multiplies the matrix's zeros
    too, so a non-finite value anywhere in a column may make every value of
    that column non-finite, earlier steps included: a caller must treat a
    drive with any non-finite value as diverged, never read its finite part.
    """
    counts = np.asarray(counts)
    if counts.ndim != 3 or counts.dtype.kind not in "buif":
        raise ValueError("filter_inputs needs a real array of shape (n, steps, columns)")
    return _filter(kernel, counts.astype(np.float64, copy=False))


def _filter(kernel: Kernel, x: np.ndarray, transpose: bool = False) -> np.ndarray:
    """kernel.matrix(steps) times float64 x of shape (n, steps, columns)
    along its steps, or the matrix's transpose times x (the adjoint filter,
    backward in time), as a new array of x's shape.

    Above FILTER_BLOCK steps the same product runs in blocks of rows, with
    taps = min(kernel size, steps): each block of FILTER_BLOCK output steps
    is the band kernel.matrix(FILTER_BLOCK, taps - 1) times the block's
    steps and the taps - 1 before them; the transpose adds the band's
    transpose times each block onto those steps.
    """
    steps = x.shape[1]
    if steps <= FILTER_BLOCK:
        mat = kernel.matrix(steps)
        return np.matmul(mat.T if transpose else mat, x)
    lag = min(kernel.coefficients.size, steps) - 1
    band = kernel.matrix(FILTER_BLOCK, lag)
    out = np.zeros(x.shape) if transpose else np.empty(x.shape)
    for start in range(0, steps, FILTER_BLOCK):
        stop = min(start + FILTER_BLOCK, steps)
        first = max(start - lag, 0)
        rows = stop - start
        part = band[:rows, first - start + lag : rows + lag]
        if transpose:
            out[:, first:stop] += np.matmul(part.T, x[:, start:stop])
        else:
            np.matmul(part, x[:, first:stop], out=out[:, start:stop])
    return out


# a projection gathers at most this many weights at a time, k an entry
# (512 KB of float64), so its temporaries stay small however many records
# a chunk holds
GATHER_BLOCK = 1 << 16


def drive_from_counts(params: EncoderParams, counts) -> np.ndarray:
    """Feedforward drive of input counts (n, steps, lines), an ActiveCounts
    or an array that ActiveCounts.of indexes, as (n, steps, k), filtered in
    neuron space: a∗(W·x), which is W·(a∗x) up to float rounding.

    Each record-step row is projected to the k neurons from its active
    entries alone: their weight columns, gathered in line order (times
    their values, if any count is not 1), summed by one np.add.reduceat;
    a row with no active entry projects to +0.0.  Rows are gathered
    GATHER_BLOCK weights at a time.  Then filter_inputs filters the n * k
    projected columns, time-major as a (1, steps, n * k) array, in one
    matrix product.  So a record's drive does not depend on the other
    records of its batch or chunk, and no array of the counts' size is made.
    """
    counts = ActiveCounts.of(counts)
    n, steps, width = counts.shape
    if width != params.n_in:
        raise ValueError(f"counts must have shape (n, steps, {params.n_in}), got {counts.shape}")
    k = params.n_out
    rows = n * steps
    offsets = counts.offsets
    projected = np.empty((k, rows))
    per_block = max(GATHER_BLOCK // k, 1)
    first = 0
    while first < rows:
        # the rows whose entries fit one block; a row past it goes alone
        last = int(np.searchsorted(offsets, offsets[first] + per_block, side="right")) - 1
        last = min(max(last, first + 1), rows)
        lo, hi = offsets[first], offsets[last]
        if hi > lo:
            gathered = params.ff_weights.take(counts.lines[lo:hi], axis=1)
            if counts.values is not None:
                gathered *= counts.values[lo:hi]
            # the rows after the block's last entry are empty, zeroed below
            starts = offsets[first:last] - lo
            filled = int(np.searchsorted(starts, hi - lo))
            np.add.reduceat(gathered, starts[:filled], axis=1,
                            out=projected[:, first : first + filled])
        first = last
    # reduceat reads an empty row as the next row's first entry
    projected[:, offsets[1:] == offsets[:-1]] = 0.0
    columns = projected.reshape(k, n, steps).transpose(2, 1, 0).reshape(1, steps, n * k)
    drive = filter_inputs(columns, params.kernel_ff)
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
    (drive_from_counts).  Step t's bits are 1 where its potentials exceed
    thresholds[t], of a step-major (steps, n, k) array, and every later
    step feeds them back: training and evaluation make thresholds with
    channel.spike_thresholds, and the gradient oracles replay bits through
    -inf and +inf.  A single sequence is a batch of one.  No spike
    probability is taken here (Rollout.spike_probs).
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


def score_grads(run: Rollout, counts, kernel: Kernel, epsilon: float,
                weights: np.ndarray) -> np.ndarray:
    """Parameter gradient of sum_b weights[b] * log p(run.bits[b]), as one
    vector of EncoderParams' layout (EncoderParams.split names its parts).

    p is the channel-marginalized law with run.bits fed back, so each
    sequence's log-likelihood is a sum of per-step terms.  A step's term
    depends on the parameters only through u, whose parameter gradients
    are the traces that built it: the input traces, the counts (n, steps,
    lines) the run's drive was made from (an ActiveCounts, or an array
    that ActiveCounts.of indexes) filtered by kernel, for the feedforward
    row; the feedback trace for the feedback weight; and 1 for the bias.
    The filter is linear, so the feedforward row is made without the input
    traces: the weighted score filtered backward in time (the adjoint
    filter, the transposed filter matrix times it), then each row's
    adjoint score, times the entry's value if any count is not 1, added
    into each of the row's active lines, entry by entry (one np.bincount a
    neuron).
    """
    counts = ActiveCounts.of(counts)
    score_u = grad_u_log_prob_noisy(run.bits, run.spike_probs, epsilon)
    n, steps, k = score_u.shape
    if counts.shape[:2] != (n, steps):
        raise ValueError(
            f"counts of shape {counts.shape} do not match a run of shape {score_u.shape}")
    adjoint = _filter(kernel, weights[:, None, None] * score_u, transpose=True)
    entry_rows = np.repeat(np.arange(n * steps), np.diff(counts.offsets))
    per_entry = adjoint.reshape(n * steps, k).T.take(entry_rows, axis=1)
    if counts.values is not None:
        per_entry *= counts.values
    lines = counts.lines.astype(np.intp)
    return np.concatenate([
        *(np.bincount(lines, weights=w, minlength=counts.shape[2]) for w in per_entry),
        np.einsum("b,btk,btk->k", weights, score_u, run.fb_traces),
        np.einsum("b,btk->k", weights, score_u),
    ])
