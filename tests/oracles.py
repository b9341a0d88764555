"""Independent oracles the test suites check the package against, the
training path they run them on, event records and files to feed it, the
tests' 0/1 draws, and the error NumPy raises for an array it cannot
allocate.

Nothing in the package calls these: each oracle recomputes a quantity the
package produces by a separate, plainer route.  `training_rollout` (and
`replay`, which feeds given bits back through it) is the one place the
tests compose the training path, the counts' index, drive_from_counts
then rollout, so the enumeration and finite-difference oracles check the
drive train_epoch makes.  `index` is the tests' one way from a 0/1 array
to the ActiveCounts every layer takes, and `dense_counts` its way back.
`drive_line_space` and `ff_score_line_space` are the drive and the
feedforward row of the score made in line space, one
record at a time, from each record's dense counts and input traces: the
references the event-driven drive and score_grads' adjoint filter and
scatter-add are pinned to.  `sample_noisy` is the channel-marginalized
law's plain sampler, U < q, that channel.spike_thresholds' decisions are
pinned against.  `tap_loop_filter` is the causal filter as a loop over
steps and taps, and `two_branch_sigmoid` the logistic function in its
guarded two-branch form: the references the kernel's banded product and
the one-expression sigmoid are pinned to within rounding.  `toeplitz` is
the kernel's (steps, steps) lower-triangular Toeplitz matrix, which the
banded product and its adjoint equal byte for byte up to FILTER_BLOCK
steps.  `reference_clip` and `reference_sgd_update` are the
gradient clip and the SGD step as walks over named fields, which the
in-place updates on each model's flat vector are pinned to byte for byte.
`numpy_generator` is NumPy's own Generator(PCG64(SeedSequence([seed,
stream_id]))), which the block seeding of numerics.SeededRng is pinned to
draw for draw.  The bar-task records come from the
benchmark's reference (benchmarks/reference.py), which draws and bins the
task without importing spikelink; `reference` is that module.
"""

import importlib.util
import itertools
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from spikelink.channel import log_prob_noisy, noisy_spike_prob
from spikelink.decoder import forward_batch, losses_from_logits_batch
from spikelink.encoder import (
    ActiveCounts,
    drive_from_counts,
    grad_u_log_prob_noisy,
    rollout,
)
from spikelink.events import EVENT_DTYPE, EventRecord
from spikelink.metrics import CSV_HEADER, MetricsRow
from spikelink.numerics import Kernel, SeededRng, fold_stream_id, sigmoid
from spikelink.training import regularizer

# the encoder's learnable fields, in the order EncoderParams lays them
# out in its vector (and in its gradients' and velocity's)
ENCODER_FIELDS = ("ff_weights", "fb_weights", "bias")


def kernel(*taps) -> Kernel:
    """A causal filter with these taps, the current step's first."""
    return Kernel(np.array(taps, dtype=np.float64))


def bernoulli(rng: np.random.Generator, p) -> np.ndarray:
    """uint8 draws of 1 with probability p, of p's shape, from rng; the
    strict "<" keeps p = 0 and p = 1 exact."""
    prob = np.asarray(p, dtype=np.float64)
    return (rng.random(prob.shape) < prob).astype(np.uint8)


def numpy_generator(seed: int, stream_id: int) -> np.random.Generator:
    """The stream (seed, stream_id) as NumPy builds it: SeededRng's contract."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, stream_id])))


def all_sequences(steps: int, k: int) -> np.ndarray:
    """Every binary (steps, k) sequence, stacked into one uint8 batch."""
    flat = itertools.product((0, 1), repeat=steps * k)
    return np.array(list(flat), dtype=np.uint8).reshape(-1, steps, k)


def sample_noisy(s, epsilon: float, uniforms: np.ndarray) -> np.ndarray:
    """Received bits drawn directly from the channel-marginalized law, given
    spike probabilities s and one uniform draw per bit.

    A bit is 1 where its uniform falls below noisy_spike_prob(s, eps); the
    law is identical to sampling clean spikes and pushing them through
    transmit, but costs a single draw.
    """
    return (uniforms < noisy_spike_prob(s, epsilon)).astype(np.uint8)


def tap_loop_filter(x: np.ndarray, coeff: np.ndarray) -> np.ndarray:
    """The causal filter of x (n, steps, columns) written out: step t is
    c0*x_t first, then c1*x_{t-1}, and so on, history before step 0
    reading zero."""
    out = np.empty(x.shape)
    for t in range(x.shape[1]):
        acc = coeff[0] * x[:, t]
        for d in range(1, min(coeff.size, t + 1)):
            acc = acc + coeff[d] * x[:, t - d]
        out[:, t] = acc
    return out


def toeplitz(kernel: Kernel, steps: int) -> np.ndarray:
    """The causal filter over steps steps as a (steps, steps) matrix:
    mat[t, t - d] = coefficients[d] for d < min(size, steps), zeros
    elsewhere."""
    coeff = kernel.coefficients
    mat = np.zeros((steps, steps))
    for d in range(min(coeff.size, steps)):
        mat += coeff[d] * np.eye(steps, k=-d)
    return mat


def two_branch_sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) where x >= 0, else e / (1 + e) with e = exp(x), so
    exp never overflows."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def index(counts) -> ActiveCounts:
    """The ActiveCounts of a 0/1 array of counts (n, steps, lines), of any
    real dtype: the positions events bins a split into, found by one
    np.flatnonzero pass a record, so no transient of the split's size is
    made.  An ActiveCounts comes back as it is.  An array that is not 3-d,
    or holds a count other than 0 or 1, raises ValueError: nothing is
    binarized here."""
    if isinstance(counts, ActiveCounts):
        return counts
    counts = np.asarray(counts)
    if counts.ndim != 3:
        raise ValueError(f"counts must be (n, steps, lines), got shape {counts.shape}")
    n, steps, width = counts.shape
    lines = np.empty(np.count_nonzero(counts), dtype=np.int32)
    offsets = np.zeros(n * steps + 1, dtype=np.intp)
    done = 0
    for r, record in enumerate(counts):
        if not np.all((record == 0) | (record == 1)):
            raise ValueError(f"record {r} holds a count other than 0 or 1")
        flat = np.flatnonzero(record)
        ends = np.searchsorted(flat, np.arange(1, steps + 1) * width)
        offsets[r * steps + 1 : (r + 1) * steps + 1] = done + ends
        lines[done : done + flat.size] = flat % max(width, 1)
        done += flat.size
    return ActiveCounts((n, steps, width), lines, offsets)


def training_rollout(params, inputs, thresholds):
    """The training path on 0/1 input counts of shape (n, steps, lines):
    their index, as the Dataset holds it (index), the drive train_epoch
    makes from it (drive_from_counts), then the recurrence, whose step-t
    bits are 1 where the potentials exceed thresholds[t] of a (steps, n, k)
    array.  Returns the run and the index, which score_grads reads."""
    counts = index(inputs)
    return rollout(params, drive_from_counts(params, counts), thresholds), counts


def dense_counts(counts) -> np.ndarray:
    """The float64 0/1 counts (n, steps, lines) an ActiveCounts holds (or
    index builds from an array), a 1 written at each entry's row and
    line."""
    counts = index(counts)
    n, steps, width = counts.shape
    dense = np.zeros((n * steps, width))
    rows = np.repeat(np.arange(n * steps), np.diff(counts.offsets))
    dense[rows, counts.lines] = 1.0
    return dense.reshape(counts.shape)


def drive_line_space(params, counts) -> np.ndarray:
    """The feedforward drive W·(a∗x), (n, steps, k), one record at a time:
    the record's dense counts filtered into input traces (Kernel.filter),
    times the transposed weights."""
    dense = dense_counts(counts)
    return np.stack([params.kernel_ff.filter(dense[b : b + 1])[0] @ params.ff_weights.T
                     for b in range(len(dense))])


def ff_score_line_space(run, counts, kernel, epsilon: float, weights) -> np.ndarray:
    """The feedforward row of score_grads, (k, lines), contracted in line
    space, one record at a time: the record's dense counts filtered into
    input traces (Kernel.filter), then weights[b] * score[b] contracted
    with them over the steps, added up record by record."""
    score_u = grad_u_log_prob_noisy(run.bits, run.spike_probs, epsilon)
    dense = dense_counts(counts)
    total = np.zeros((score_u.shape[2], dense.shape[2]))
    for b in range(len(dense)):
        traces = kernel.filter(dense[b : b + 1])[0]
        total += weights[b] * score_u[b].T @ traces
    return total


def replay(params, inputs, bits):
    """training_rollout with the given bits (n, steps, k) fed back, through
    thresholds of -inf where a bit is 1 and +inf where it is 0.  The inputs
    are (n, steps, lines), or one (steps, lines) sequence replayed against
    every row of bits.  A bit other than 0 or 1 raises ValueError."""
    bits = np.asarray(bits)
    if not np.all((bits == 0) | (bits == 1)):
        raise ValueError("replayed bits must be 0 or 1")
    inputs = np.asarray(inputs)
    if inputs.ndim == 2:
        inputs = np.repeat(inputs[None], len(bits), axis=0)
    thresholds = np.where(bits.transpose(1, 0, 2) == 1, -np.inf, np.inf)
    return training_rollout(params, inputs, thresholds)


def log_likelihood(run, eps: float) -> np.ndarray:
    """Exact channel-marginalized log-likelihood of each sequence of a run."""
    return log_prob_noisy(run.bits, run.potentials, eps).sum(axis=1)


def sample_losses(decoder, run, eps: float, beta: float, label: int, prior) -> np.ndarray:
    """Per-sequence objective of a run whose inputs all carry `label`: the
    decoder's loss plus beta times the rate term."""
    n = len(run.bits)
    _, _, logits, _ = forward_batch(decoder, run.bits.reshape(n, -1).astype(np.float64))
    task = losses_from_logits_batch(decoder, logits, np.full(n, label))
    return task + beta * regularizer(run.bits, run.potentials, eps, prior, run.spike_probs)


def expected_objective(params, decoder, inputs, eps, beta, label, prior) -> float:
    """Exact expectation of sample_losses over every bit sequence on one
    (steps, lines) input sequence, by enumeration."""
    run, _ = replay(params, inputs, all_sequences(len(inputs), params.n_out))
    f = sample_losses(decoder, run, eps, beta, label, prior)
    return float(np.exp(log_likelihood(run, eps)) @ f)


def finite_diff_grad(f, x, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function at x.

    This is the oracle the analytic gradients are checked against, so it
    refuses to hand back garbage: any non-finite function value raises.
    """
    if h <= 0:
        raise ValueError("step size must be positive")
    x = np.asarray(x, dtype=np.float64)
    grad = np.empty(x.size, dtype=np.float64)
    flat = x.reshape(-1)
    for i in range(flat.size):
        bumped = flat.copy()
        bumped[i] = flat[i] + h
        hi = float(f(bumped.reshape(x.shape)))
        bumped[i] = flat[i] - h
        lo = float(f(bumped.reshape(x.shape)))
        if not (math.isfinite(hi) and math.isfinite(lo)):
            raise ArithmeticError(
                f"finite-difference oracle hit a non-finite value at index {i}"
            )
        grad[i] = (hi - lo) / (2.0 * h)
    return grad.reshape(x.shape)


def fd_grads(params, objective, h: float = 1e-6) -> dict:
    """finite_diff_grad of objective(params) along each learnable field of
    an encoder, by field name."""
    return {
        field: finite_diff_grad(
            lambda value: objective(replace(params, **{field: value})),
            getattr(params, field),
            h,
        )
        for field in ENCODER_FIELDS
    }


def reference_clip(grads: dict, limit: float) -> dict:
    """grads, arrays by field name in field order, scaled to norm limit
    when their joint norm is above it (limit 0 disables), the squares
    summed field by field."""
    if limit <= 0.0:
        return grads
    sq = 0.0
    for value in grads.values():
        sq += float(np.sum(np.square(value)))
    norm = math.sqrt(sq)
    if norm <= limit:
        return grads
    scale = limit / norm
    return {name: value * scale for name, value in grads.items()}


def reference_sgd_update(params, grads: dict, eta: float, velocity=None,
                         momentum: float = 0.0):
    """One plain (or momentum) SGD step, field by field: fresh params, and
    the new velocity by field name (None without momentum)."""
    updates, new_velocity = {}, {}
    for name, g in grads.items():
        if momentum > 0.0:
            v = momentum * (0.0 if velocity is None else velocity[name]) + g
            new_velocity[name] = v
            g = v
        updates[name] = getattr(params, name) - eta * g
    return replace(params, **updates), new_velocity if momentum > 0.0 else None


def parse_kv_metrics(text: str) -> list[MetricsRow]:
    """Rows of `export --format kv` text: one row per non-blank line of
    space-separated key=value pairs, a missing key read as empty."""
    rows = []
    for line in text.splitlines():
        if not line.strip():
            continue
        values = dict(item.split("=", 1) for item in line.split(" "))
        rows.append(MetricsRow.from_fields([values.get(col, "") for col in CSV_HEADER]))
    return rows


def evaluate_line_space(encoder, decoder, counts, labels, epsilons, seed: int):
    """(test error, clean spike rate) at each channel point, as
    training.evaluate documents them, one sample and one step at a
    time in line space.

    Each sample's dense counts (dense_counts: the test split's index or a
    0/1 array) become input traces (Kernel.filter), and step t's
    potential is traces[t] @ ff_weights.T, W·(a∗x), plus the feedback
    weight times the filtered own-bit history and the bias.  Each sample
    draws from its own stream ("eval", index) of the seed: spike uniforms
    (steps x neurons) first, flip uniforms second; a step spikes where its
    spike uniform is below sigmoid(u), and a bit flips where its flip
    uniform is below epsilon.
    """
    counts = dense_counts(counts)
    n, steps, _ = counts.shape
    k = encoder.n_out
    taps = encoder.kernel_fb.coefficients
    wrong = [0] * len(epsilons)
    spikes = 0
    for i in range(n):
        traces = encoder.kernel_ff.filter(counts[i : i + 1])[0]
        stream = numpy_generator(seed, fold_stream_id(0, "eval", i))
        spike_u = stream.random((steps, k))
        flip_u = stream.random((steps, k))
        z = np.zeros((steps, k), dtype=np.uint8)
        for t in range(steps):
            fb = np.zeros(k)
            for d in range(1, min(taps.size, t + 1)):
                fb += taps[d] * z[t - d]
            u = traces[t] @ encoder.ff_weights.T + encoder.fb_weights * fb + encoder.bias
            z[t] = spike_u[t] < sigmoid(u)
        spikes += int(z.sum())
        for j, eps in enumerate(epsilons):
            received = (z ^ (flip_u < eps)).reshape(1, -1).astype(np.float64)
            _, _, _, probs = forward_batch(decoder, received)
            wrong[j] += int(np.argmax(probs) != labels[i])
    return [(count / n, spikes / (n * steps * k)) for count in wrong]


def allocation_error(shape, dtype=np.float64) -> MemoryError:
    """The MemoryError NumPy raises for an array of this shape and dtype
    that cannot be allocated, so a test can fake a refusal it never makes."""
    from numpy._core._exceptions import _ArrayMemoryError

    return _ArrayMemoryError(tuple(shape), np.dtype(dtype))


def _load_reference():
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "reference.py"
    spec = importlib.util.spec_from_file_location("bench_reference", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


reference = _load_reference()


def bar_records(count: int, seed: int, split: int = 0, **task) -> list[EventRecord]:
    """`count` bar-task records with interleaved labels, drawn by
    reference.wide_records from its own stream (seed, split); `task` sets
    reference.BarTask's fields, named as in the config file."""
    bar = reference.BarTask(**task)
    records = []
    for rec in reference.wide_records(bar, count, seed, split):
        events = np.empty(len(rec.ts), dtype=EVENT_DTYPE)
        for name, column in zip(EVENT_DTYPE.names, (rec.ts, rec.xs, rec.ys, rec.pol)):
            events[name] = column
        records.append(EventRecord(events, rec.label, bar.width, bar.height, bar.duration_us))
    return records


def write_events(path, records) -> None:
    """Write EventRecords in the block text format that events.load_events reads."""
    with Path(path).open("w") as fh:
        for rec in records:
            fh.write(f"# record label={rec.label} w={rec.width} h={rec.height} "
                     f"dur_us={rec.duration_us}\n")
            fh.write("".join(f"{t} {x} {y} {p}\n" for t, x, y, p in rec.events.tolist()))
            fh.write("\n")
