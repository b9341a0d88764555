"""Joint training of the spiking encoder and the edge decoder.

The objective per sample is the decoder's classification loss plus beta
times a rate term: the log-ratio between the channel-marginalized encoding
law and a fixed Bernoulli reference over the received bits.  The decoder is
updated with exact gradients; the encoder with the score-function estimator
(one Monte Carlo draw per input), built from the input counts and the
traces the rollout keeps.  The Dataset holds each split's 0/1 counts as
the index of their positions (encoder.ActiveCounts, the one type the
encoder and evaluate take), binned straight from its events
(events.synthetic_frames, events.load_frames): train_epoch gathers a
batch's records from it and evaluate slices a chunk's, and both make the
feedforward drive the one way (encoder.drive_from_counts), reading only
the active counts, so no float64 input trace, and no dense copy of the
counts, is ever made.
train_epoch reads its settings by name from the run's RunConfig, which
checked them when it was built.  An array too large to allocate (a
batch's drive or rollout, a test chunk's draws, drive or rollout) leaves
as NumPy's own MemoryError, which carries its shape and dtype.

Training mode draws the received bits directly from the marginalized law
and feeds them back into the encoder's recurrence; that makes the sequence
likelihood an exact autoregressive product, which is what the score
differentiates.  Epoch e draws from substream("train", e) of the seed:
its order from "shuffle", and each batch's (steps, n, k) uniforms from
"draws" in one call, the doubles a draw per step would give, which
channel.spike_thresholds makes the rollout's thresholds.  Evaluation mode
runs the physical two-stage path: clean spikes drive the recurrence and
the channel flips a copy.  Sample i draws from substream("eval", i), so
the draws are a cache, not training state, which the command's one
Dataset keeps for all its runs.  What an epoch carries to the next is a
frozen TrainState: the two models, their momentum velocities, the moving
baseline and the epoch count.  An epoch updates copies of each model's
flat vector (numerics.FlatParams) and velocity in place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .channel import log_prob_noisy, spike_thresholds, transmit
from .config import RunConfig
from .decoder import (
    DecoderParams,
    backward_batch,
    forward_batch,
    losses_from_logits_batch,
)
from .encoder import (
    ActiveCounts,
    EncoderParams,
    _require_index,
    drive_from_counts,
    rollout,
    score_grads,
)
from .numerics import SeededRng

# test samples per evaluation chunk: bounds evaluation memory; a sample's
# drive and bits do not depend on it
EVAL_CHUNK = 128

__all__ = [
    "PriorModel",
    "Dataset",
    "TrainingDiverged",
    "TrainState",
    "regularizer",
    "vdib_loss",
    "sgd_update",
    "train_epoch",
    "evaluate",
]


class TrainingDiverged(RuntimeError):
    """Raised when a loss, an updated weight or a feedforward drive stops
    being finite."""


def _drive(encoder: EncoderParams, counts: ActiveCounts) -> np.ndarray:
    """encoder.drive_from_counts of counts, refused with TrainingDiverged if
    any value is not finite: weights large enough to overflow a row's sum of
    its active weights spread nan through the kernel's banded product
    (Kernel.filter), and that refusal stands in for NumPy's overflow
    warnings."""
    with np.errstate(over="ignore", invalid="ignore"):
        drive = drive_from_counts(encoder, counts)
    if not np.isfinite(drive).all():
        raise TrainingDiverged("non-finite feedforward drive")
    return drive


@dataclass(frozen=True)
class PriorModel:
    """Fixed i.i.d. Bernoulli reference over received bits."""

    rate: float = 0.3

    def __post_init__(self):
        if not 0.0 < self.rate < 1.0:
            raise ValueError("reference rate must be strictly inside (0, 1)")

    def log_prob(self, bits):
        """Log-probability of bits under the reference, summed over the last axis."""
        bits = np.asarray(bits, dtype=np.float64)
        return np.sum(
            bits * math.log(self.rate) + (1.0 - bits) * math.log1p(-self.rate), axis=-1
        )


@dataclass
class Dataset:
    """Encoder inputs split into train and test: each split's 0/1 counts
    (samples, steps, lines) as the ActiveCounts its events were binned
    into (events.synthetic_frames, events.load_frames), which train_epoch
    gathers per batch and evaluate slices per chunk; any other type is
    refused with a TypeError.  draws caches the test split's evaluation
    draws (evaluate); dataclasses.replace starts afresh."""

    train_counts: ActiveCounts
    train_labels: np.ndarray
    test_counts: ActiveCounts
    test_labels: np.ndarray
    n_classes: int
    draws: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        _require_index(self.train_counts, "train_counts")
        _require_index(self.test_counts, "test_counts")
        if len(self.train_labels) != len(self.train_counts):
            raise ValueError("train labels do not match inputs")
        if len(self.test_labels) != len(self.test_counts):
            raise ValueError("test labels do not match inputs")

    @property
    def input_dim(self) -> int:
        return self.train_counts.shape[2]


@dataclass(frozen=True)
class TrainState:
    """What a training run carries from one epoch to the next: the two
    models, their momentum velocities, each a vector of its model's
    layout (None without momentum, and before the first batch), the
    moving baseline (None until a batch updates it) and the epochs done,
    which name the next epoch's stream (train_epoch)."""

    encoder: EncoderParams
    decoder: DecoderParams
    enc_vel: np.ndarray | None = None
    dec_vel: np.ndarray | None = None
    baseline: float | None = None
    epoch: int = 0


@dataclass(frozen=True)
class EpochMetrics:
    task_loss: float
    rate_loss: float
    objective: float
    test_error: float
    spike_rate: float


def regularizer(bits, potentials, epsilon: float, prior: PriorModel,
                spike_probs=None) -> np.ndarray:
    """Rate term per sequence, from bits and potentials of shape (n, steps, k).

    Sum over steps of the marginalized log-likelihood of the received bits
    minus their log-probability under the fixed reference.  Its expectation
    under the encoding law is a KL divergence, hence non-negative.
    spike_probs, when given, must be sigmoid(potentials) (a rollout keeps
    them).  The steps are added in one NumPy sum.
    """
    bits = np.asarray(bits, dtype=np.float64)
    potentials = np.asarray(potentials, dtype=np.float64)
    if bits.shape != potentials.shape:
        raise ValueError("bits and potentials must align")
    per_step = log_prob_noisy(bits, potentials, epsilon, spike_probs) - prior.log_prob(bits)
    return per_step.sum(axis=1)


def vdib_loss(task_loss: float, rate_loss: float, beta: float) -> float:
    """Scalar objective: task loss plus beta times the rate term."""
    return float(task_loss) + float(beta) * float(rate_loss)


def _clip(params, grads: np.ndarray, limit: float) -> np.ndarray:
    """grads, a vector of params' layout, scaled in place to norm limit if
    its norm is above it (limit 0 disables).  The squares are summed field
    by field, in field order: one sum over the vector would reorder them."""
    if limit <= 0.0:
        return grads
    sq = 0.0
    for part in params.split(grads).values():
        sq += float(np.sum(np.square(part)))
    norm = math.sqrt(sq)
    if norm > limit:
        grads *= limit / norm
    return grads


def sgd_update(params, grads: np.ndarray, eta: float, velocity=None, momentum: float = 0.0):
    """One plain (or momentum) SGD step on params.vector, in place, from
    grads of its layout; returns the velocity (None without momentum),
    updated in place from a zero buffer, so the first step's is
    momentum * 0.0 + grads (+0.0 for a -0.0 gradient).  A weight the step
    leaves non-finite raises TrainingDiverged naming the model."""
    if momentum > 0.0:
        velocity = np.zeros_like(grads) if velocity is None else velocity
        velocity *= momentum
        velocity += grads
        grads = velocity
    params.vector -= eta * grads
    if not np.all(np.isfinite(params.vector)):
        raise TrainingDiverged(f"non-finite weight in {type(params).__name__} after the update")
    return velocity


# ---------------------------------------------------------------------------
# epoch loop and evaluation


def train_epoch(state: TrainState, data: Dataset,
                config: RunConfig) -> tuple[TrainState, EpochMetrics]:
    """One pass over the training set in shuffled minibatches.

    Returns the TrainState after the epoch's last batch, its epoch one
    more, and the epoch's metrics (losses averaged over training samples;
    error and spike rate measured on the test set).  The epoch draws from
    substream("train", state.epoch) of config.seed.  The state passed in,
    TrainState(encoder, decoder) at a run's first epoch, is copied once and
    never changed, so an epoch cut short leaves it as the last finished
    epoch returned it.  The test samples' evaluation uniforms are made into
    data.draws once and read back later (see evaluate).  Each batch's
    records are gathered from the train split's index, and its drive is
    made from their active counts (encoder.drive_from_counts), as
    evaluation makes a chunk's; a drive with a non-finite value raises
    TrainingDiverged, in training and in the epoch's evaluation.  Of the
    config it reads the channel point, beta, eta, batch_size, seed,
    prior_rate, momentum, grad_clip and baseline.
    """
    eps = config.training_crossover()
    encoder, decoder = replace(state.encoder), replace(state.decoder)  # copies, updated in place
    enc_vel, dec_vel = (None if v is None else v.copy() for v in (state.enc_vel, state.dec_vel))
    baseline = state.baseline
    prior = PriorModel(config.prior_rate)
    rng = SeededRng(config.seed).substream("train", state.epoch)
    order = rng.substream("shuffle").generator.permutation(len(data.train_counts))
    draw = rng.substream("draws").generator
    task_sum = 0.0
    rate_sum = 0.0
    count = 0
    for start in range(0, len(order), config.batch_size):
        batch = order[start : start + config.batch_size]
        xb = data.train_counts[batch]
        yb = data.train_labels[batch]
        uniforms = draw.random((xb.shape[1], len(batch), encoder.n_out))
        run = rollout(encoder, _drive(encoder, xb), spike_thresholds(uniforms, eps))
        rate_losses = regularizer(run.bits, run.potentials, eps, prior, run.spike_probs)
        flat = run.bits.reshape(len(batch), -1).astype(np.float64)
        pre, hidden, logits, probs = forward_batch(decoder, flat)
        task_losses = losses_from_logits_batch(decoder, logits, yb)
        sample_losses = task_losses + config.beta * rate_losses
        if not np.all(np.isfinite(sample_losses)):
            raise TrainingDiverged("non-finite sample loss")
        task_sum += float(task_losses.sum())
        rate_sum += float(rate_losses.sum())
        count += len(batch)
        reinforce = sample_losses
        if config.baseline:
            avg = float(sample_losses.mean()) if baseline is None else baseline
            reinforce = sample_losses - avg
            baseline = 0.9 * avg + 0.1 * float(sample_losses.mean())
        enc_grads = _clip(
            encoder, score_grads(run, xb, encoder.kernel_ff, eps, reinforce / float(len(batch))),
            config.grad_clip,
        )
        dec_grads = _clip(
            decoder, backward_batch(decoder, flat, pre, hidden, probs, yb), config.grad_clip
        )
        enc_vel = sgd_update(encoder, enc_grads, config.eta, enc_vel, config.momentum)
        dec_vel = sgd_update(decoder, dec_grads, config.eta, dec_vel, config.momentum)
    mean_task = task_sum / max(count, 1)
    mean_rate = rate_sum / max(count, 1)
    [(test_error, test_rate)] = evaluate(
        encoder, decoder, data.test_counts, data.test_labels, [eps], config.seed, data.draws
    )
    metrics = EpochMetrics(
        task_loss=mean_task,
        rate_loss=mean_rate,
        objective=vdib_loss(mean_task, mean_rate, config.beta),
        test_error=test_error,
        spike_rate=test_rate,
    )
    return TrainState(encoder, decoder, enc_vel, dec_vel, baseline, state.epoch + 1), metrics


def _eval_uniforms(root: SeededRng, start: int, m: int, steps: int, k: int):
    """Spike thresholds (steps, m, k) of the spike uniforms, then flip
    uniforms (m, steps, k), of samples start .. start+m-1.  Sample i draws
    from substream("eval", i) of root, whose Generator
    SeededRng.substreams seeds a block of samples at a time."""
    spike_u, flip_u = np.empty((steps, m, k)), np.empty((m, steps, k))
    streams = root.substreams("eval", indices=range(start, start + m))
    for j, gen in enumerate(streams):
        spike_u[:, j] = gen.random((steps, k))
        flip_u[j] = gen.random((steps, k))
    return spike_thresholds(spike_u, 0.0), flip_u


def evaluate(
    encoder: EncoderParams,
    decoder: DecoderParams,
    counts,
    labels: np.ndarray,
    epsilons,
    seed: int,
    draws: dict | None = None,
) -> list[tuple[float, float]]:
    """(test error, clean spike rate) at each channel point of epsilons, in
    order (one point is a grid of one), under the two-stage channel path,
    from the ActiveCounts of the test inputs' 0/1 counts (n, steps, lines);
    any other type is refused with a TypeError.

    Each chunk's feedforward drive is made from its active counts in neuron
    space (encoder.drive_from_counts), as training makes a batch's; its
    rounding against the line-space drive W·(a∗x) moves the integer tallies
    only if a spike uniform falls within it of its spike probability.  A
    chunk whose drive holds a non-finite value (weights that overflow a
    row's projection) raises TrainingDiverged: no row is read from it.

    Per-sample draw streams depend only on (seed, sample index), never on
    epsilon or the parameters, so repeated evaluations of one model across
    channel points share their randomness: a point evaluated twice gives
    identical answers, and sweeps vary only through the channel.  Each
    sample consumes spike uniforms first (steps x neurons) and flip
    uniforms second, mirroring a per-step sample-then-transmit loop; a
    spike uniform below sigmoid(u) spikes (spike_thresholds at epsilon 0).

    Clean spikes do not depend on epsilon, so each chunk of EVAL_CHUNK
    samples is rolled out once, and only the flips and the decoder run per
    point.  Past the counts' index, memory is bounded by the chunk, not the
    test set.  A sample's drive, and so its clean bits, are bitwise the
    same at any chunk size; the chunk size can move only the decoder's
    logits, by float rounding (a matmul's rounding may depend on its row
    count).

    A caller that evaluates the test set again (every epoch, every run of
    a command) passes a dict as draws: each chunk's spike thresholds and
    flip uniforms are made into it once, keyed by seed, chunk and shape, so
    it holds the whole test set's, where a call without it holds one chunk's.
    """
    n, steps, _ = _require_index(counts).shape
    if n == 0:
        raise ValueError("cannot evaluate an empty test set")
    labels = np.asarray(labels)
    epsilons = [float(eps) for eps in epsilons]
    k = encoder.n_out
    root = SeededRng(seed)
    wrong = [0] * len(epsilons)
    spikes = 0
    for start in range(0, n, EVAL_CHUNK):
        x = counts[start : start + EVAL_CHUNK]
        m = len(x)
        y = labels[start : start + m]
        kept, key = {} if draws is None else draws, (seed, start, m, steps, k)
        if key not in kept:
            kept[key] = _eval_uniforms(root, start, m, steps, k)
        thresholds, flip_u = kept[key]
        z = rollout(encoder, _drive(encoder, x), thresholds).bits
        spikes += int(np.count_nonzero(z))
        for i, eps in enumerate(epsilons):
            zhat = transmit(z, eps, flip_u)
            _, _, _, probs = forward_batch(decoder, zhat.reshape(m, -1).astype(np.float64))
            wrong[i] += int(np.count_nonzero(np.argmax(probs, axis=1) != y))
    rate = spikes / (n * steps * k)
    return [(count / n, rate) for count in wrong]
