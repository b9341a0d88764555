"""Joint training of the spiking encoder and the edge decoder.

The objective per sample is the decoder's classification loss plus beta
times a rate term: the log-ratio between the channel-marginalized encoding
law and a fixed Bernoulli reference over the received bits.  The decoder is
updated with exact gradients; the encoder with the score-function estimator
(one Monte Carlo draw per input), built from the input traces and the
traces the rollout keeps.  A dataset holds the binned frames as uint8
counts until filter_dataset replaces the train split with the encoder's
float64 input traces, once, before the first epoch; every training rollout
then reads them.  The test split stays uint8 counts: evaluate_grid makes
each chunk's feedforward drive in neuron space (encoder.drive_from_counts),
so no evaluation, in training or from a checkpoint, makes float64 test
traces.  That drive differs from training's line-space one only by float
rounding, and evaluation reports integer tallies (wrong answers, spikes),
which move only if a spike uniform falls between two probabilities that
differ by that rounding.  Training keeps its line-space drive, so its
trajectories stay bit for bit; moving it to neuron space too reorders its
float sums and waits for a law-level check of such changes.
train_epoch reads its settings by name from the run's RunConfig, whose
validate() has already checked them.  An array too large to allocate (the
train split's traces, a test chunk's draws, drive or rollout) leaves as
NumPy's own MemoryError, which carries its shape and dtype.

Training mode draws the received bits directly from the marginalized law
and feeds them back into the encoder's recurrence; that makes the sequence
likelihood an exact autoregressive product, which is what the score
differentiates.  Evaluation mode runs the physical two-stage path: clean
spikes drive the recurrence and the channel flips a copy.  Its uniforms
depend only on the seed and the sample, so a training run draws them in
its first epoch's evaluation and keeps them in the state train_epoch
carries; one-shot evaluations draw them chunk by chunk.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, replace

import numpy as np

from .channel import log_prob_noisy, sample_noisy, transmit
from .config import RunConfig
from .decoder import (
    DecoderParams,
    backward_batch,
    forward_batch,
    losses_from_logits_batch,
)
from .encoder import (
    EncoderParams,
    drive_from_counts,
    drive_from_traces,
    filter_inputs,
    rollout,
    score_grads,
)
from .numerics import Kernel, SeededRng

# test samples per evaluation chunk: bounds evaluation memory, not results
EVAL_CHUNK = 128

__all__ = [
    "PriorModel",
    "Dataset",
    "filter_dataset",
    "TrainingDiverged",
    "regularizer",
    "vdib_loss",
    "sgd_update",
    "train_epoch",
    "evaluate",
    "evaluate_grid",
]


class TrainingDiverged(RuntimeError):
    """Raised when a loss or gradient stops being finite."""


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
    """Encoder inputs split into train and test.

    The inputs are frame counts, kept in the dtype they come in (uint8
    from the events module).  While kernel is None the train split is
    counts too; filter_dataset replaces it with float64 input traces
    filtered by kernel.  The test split always stays counts.
    """

    train_inputs: np.ndarray
    train_labels: np.ndarray
    test_inputs: np.ndarray
    test_labels: np.ndarray
    n_classes: int
    kernel: Kernel | None = None

    def __post_init__(self):
        self.train_inputs = np.asarray(self.train_inputs)
        self.test_inputs = np.asarray(self.test_inputs)
        if self.train_inputs.ndim != 3 or self.test_inputs.ndim != 3:
            raise ValueError("inputs must be (samples, steps, lines)")
        if len(self.train_labels) != len(self.train_inputs):
            raise ValueError("train labels do not match inputs")
        if len(self.test_labels) != len(self.test_inputs):
            raise ValueError("test labels do not match inputs")

    @property
    def input_dim(self) -> int:
        return self.train_inputs.shape[2]


def filter_dataset(data: Dataset, kernel: Kernel) -> Dataset:
    """Replace the train split's counts with their input traces under kernel.

    The test split keeps its counts (evaluate_grid reads counts).
    Filtering again with the same kernel does nothing; another kernel is
    refused, because the train counts are gone.
    """
    if data.kernel is None:
        data.train_inputs = filter_inputs(data.train_inputs, kernel)
        data.kernel = kernel
    elif data.kernel != kernel:
        raise ValueError("dataset was already filtered with a different kernel")
    return data


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
    them).
    """
    bits = np.asarray(bits, dtype=np.float64)
    potentials = np.asarray(potentials, dtype=np.float64)
    if bits.shape != potentials.shape:
        raise ValueError("bits and potentials must align")
    per_step = log_prob_noisy(bits, potentials, epsilon, spike_probs) - prior.log_prob(bits)
    # added step by step, so the float sum does not depend on NumPy's
    # reduction order
    total = np.zeros(per_step.shape[0])
    for t in range(per_step.shape[1]):
        total += per_step[:, t]
    return total


def vdib_loss(task_loss: float, rate_loss: float, beta: float) -> float:
    """Scalar objective: task loss plus beta times the rate term."""
    return float(task_loss) + float(beta) * float(rate_loss)


def _clip(grads, limit: float):
    if limit <= 0.0:
        return grads
    sq = 0.0
    for f in dataclasses.fields(grads):
        sq += float(np.sum(np.square(getattr(grads, f.name))))
    norm = math.sqrt(sq)
    if norm <= limit:
        return grads
    scale = limit / norm
    return type(grads)(
        **{f.name: getattr(grads, f.name) * scale for f in dataclasses.fields(grads)}
    )


def sgd_update(params, grads, eta: float, velocity=None, momentum: float = 0.0):
    """One plain (or momentum) SGD step; returns fresh params and the new
    velocity, a dict by field name (empty without momentum).

    grads must carry a subset of params' array fields under the same names.
    Non-finite gradients abort rather than poison the weights.
    """
    updates = {}
    new_velocity = {}
    for f in dataclasses.fields(grads):
        g = np.asarray(getattr(grads, f.name), dtype=np.float64)
        if not np.all(np.isfinite(g)):
            raise TrainingDiverged(f"non-finite gradient in {f.name}")
        if momentum > 0.0:
            v = momentum * (velocity or {}).get(f.name, 0.0) + g
            new_velocity[f.name] = v
            g = v
        updates[f.name] = getattr(params, f.name) - eta * g
    return replace(params, **updates), new_velocity


# ---------------------------------------------------------------------------
# epoch loop and evaluation


def train_epoch(
    encoder: EncoderParams,
    decoder: DecoderParams,
    data: Dataset,
    config: RunConfig,
    rng: SeededRng,
    state: dict,
) -> tuple[EncoderParams, DecoderParams, EpochMetrics]:
    """One pass over the training set in shuffled minibatches.

    Returns updated parameters and the epoch's metrics (losses averaged
    over training samples; error and spike rate measured on the test set).
    The state dict, empty at a run's first epoch, carries momentum
    velocities, the moving baseline and the test samples' evaluation draws
    across epochs, so a run draws those uniforms in its first epoch only.
    The dataset's train split must hold traces filtered with the encoder's
    kernel_ff (filter_dataset); its test split holds counts.  Of the config
    it reads the channel point, beta, eta, batch_size, seed, prior_rate,
    momentum, grad_clip and baseline.
    """
    eps = config.training_crossover()
    if data.kernel != encoder.kernel_ff:
        raise ValueError("train inputs are not traces filtered with the encoder's kernel_ff")
    prior = PriorModel(config.prior_rate)
    order = rng.substream("shuffle").permutation(len(data.train_inputs))
    draw = rng.substream("draws")
    task_sum = 0.0
    rate_sum = 0.0
    count = 0
    for start in range(0, len(order), config.batch_size):
        batch = order[start : start + config.batch_size]
        xb = data.train_inputs[batch]
        yb = data.train_labels[batch]
        run = rollout(encoder, drive_from_traces(encoder, xb),
                      lambda t, s: sample_noisy(s, eps, draw))
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
            avg = state.get("baseline", float(sample_losses.mean()))
            reinforce = sample_losses - avg
            state["baseline"] = 0.9 * avg + 0.1 * float(sample_losses.mean())
        enc_grads = _clip(
            score_grads(run, xb, eps, reinforce / float(len(batch))), config.grad_clip
        )
        dec_grads = _clip(
            backward_batch(decoder, flat, pre, hidden, probs, yb), config.grad_clip
        )
        encoder, state["enc_vel"] = sgd_update(
            encoder, enc_grads, config.eta, state.get("enc_vel"), config.momentum
        )
        decoder, state["dec_vel"] = sgd_update(
            decoder, dec_grads, config.eta, state.get("dec_vel"), config.momentum
        )
    mean_task = task_sum / max(count, 1)
    mean_rate = rate_sum / max(count, 1)
    test_error, test_rate = evaluate(
        encoder, decoder, data.test_inputs, data.test_labels, eps, config.seed,
        draws=state.setdefault("eval_draws", {}),
    )
    metrics = EpochMetrics(
        task_loss=mean_task,
        rate_loss=mean_rate,
        objective=vdib_loss(mean_task, mean_rate, config.beta),
        test_error=test_error,
        spike_rate=test_rate,
    )
    return encoder, decoder, metrics


def _eval_uniforms(root: SeededRng, start: int, m: int, steps: int, k: int):
    """Spike then flip uniforms, each (m, steps, k), of samples start .. start+m-1."""
    spike_u = np.empty((m, steps, k))
    flip_u = np.empty((m, steps, k))
    for j in range(m):
        stream = root.substream("eval", start + j)
        spike_u[j] = stream.uniform((steps, k))
        flip_u[j] = stream.uniform((steps, k))
    return spike_u, flip_u


def evaluate(
    encoder: EncoderParams,
    decoder: DecoderParams,
    counts: np.ndarray,
    labels: np.ndarray,
    epsilon: float,
    seed: int,
    draws: dict | None = None,
) -> tuple[float, float]:
    """Test error and clean spike rate at one channel point (see evaluate_grid)."""
    return evaluate_grid(encoder, decoder, counts, labels, [epsilon], seed, draws)[0]


def evaluate_grid(
    encoder: EncoderParams,
    decoder: DecoderParams,
    counts: np.ndarray,
    labels: np.ndarray,
    epsilons,
    seed: int,
    draws: dict | None = None,
) -> list[tuple[float, float]]:
    """(test error, clean spike rate) at each channel point, under the
    two-stage channel path, from the test inputs' counts (n, steps, lines).

    Each chunk's feedforward drive is made from its counts in neuron space
    (encoder.drive_from_counts), so no float64 input trace of the test set,
    or of a chunk, is ever made.  The drive rounds differently from the
    line-space drive training uses; the tallies below are integers and
    equal the line-space evaluation's unless a spike uniform falls within
    that rounding of its spike probability.

    Per-sample draw streams depend only on (seed, sample index), never on
    epsilon or the parameters, so repeated evaluations of one model across
    channel points share their randomness: a point evaluated twice gives
    identical answers, and sweeps vary only through the channel.  Each
    sample consumes spike uniforms first (steps x neurons) and flip
    uniforms second, mirroring a per-step sample-then-transmit loop.

    Clean spikes do not depend on epsilon, so each chunk of EVAL_CHUNK
    samples is rolled out once, and only the flips and the decoder run per
    point.  Memory is bounded by the chunk, not the test set.  The chunk
    size can move a drive by float rounding only (a matmul's rounding may
    depend on its row count), so under the same tally contract it does not
    change the results.

    The uniforms depend on nothing but the seed, the sample index and the
    shape, so a caller that evaluates the same test set again (training
    does, every epoch) passes a dict as draws: each chunk's uniforms are
    drawn into it on first use, keyed by seed, chunk and shape, and read
    back afterwards.  Then it holds both uniform tensors of the whole test
    set; without it, memory holds one chunk's.
    """
    n, steps, _ = np.shape(counts)
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
        if draws is None:
            spike_u, flip_u = _eval_uniforms(root, start, m, steps, k)
        else:
            key = (seed, start, m, steps, k)
            if key not in draws:
                draws[key] = _eval_uniforms(root, start, m, steps, k)
            spike_u, flip_u = draws[key]
        z = rollout(encoder, drive_from_counts(encoder, x),
                    lambda t, s: spike_u[:, t, :] < s).bits
        spikes += int(np.count_nonzero(z))
        for i, eps in enumerate(epsilons):
            zhat = transmit(z, eps, flip_u)
            _, _, _, probs = forward_batch(decoder, zhat.reshape(m, -1).astype(np.float64))
            wrong[i] += int(np.count_nonzero(np.argmax(probs, axis=1) != y))
    rate = spikes / (n * steps * k)
    return [(count / n, rate) for count in wrong]
