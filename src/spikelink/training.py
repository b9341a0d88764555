"""Joint training of the spiking encoder and the edge decoder.

The objective per sample is the decoder's classification loss plus beta
times a rate term: the log-ratio between the channel-marginalized encoding
law and a fixed Bernoulli reference over the received bits.  The decoder is
updated with exact gradients; the encoder with the score-function estimator
(one Monte Carlo draw per input), whose per-step terms the encoder
accumulates while the sequence is generated.

Training mode draws the received bits directly from the marginalized law
and feeds them back into the encoder's recurrence; that makes the sequence
likelihood an exact autoregressive product, which is what the accumulated
score differentiates.  Evaluation mode runs the physical two-stage path:
clean spikes drive the recurrence and the channel flips a copy.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .channel import ChannelConfig, log_prob_noisy, noisy_spike_prob
from .decoder import (
    DecoderParams,
    backward_batch,
    forward_batch,
    losses_from_logits_batch,
)
from .encoder import (
    EncoderGrads,
    EncoderParams,
    EncoderState,
    ScoreAccumulator,
    accumulate_score,
    grad_u_log_prob_noisy,
    membrane_potentials,
    sample_spikes,
)
from .numerics import SeededRng, sigmoid

# test samples per evaluation chunk: bounds evaluation memory, not results
EVAL_CHUNK = 128

__all__ = [
    "PriorModel",
    "TrainConfig",
    "Dataset",
    "EpochMetrics",
    "TrainingDiverged",
    "regularizer",
    "vdib_loss",
    "encoder_gradient",
    "sgd_update",
    "spike_rate",
    "run_noisy_sequence",
    "run_clean_sequence",
    "sequence_log_prob",
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

    def log_prob(self, bits) -> float:
        bits = np.asarray(bits, dtype=np.float64)
        return float(
            np.sum(bits * math.log(self.rate) + (1.0 - bits) * math.log1p(-self.rate))
        )


@dataclass(frozen=True)
class TrainConfig:
    """Knobs for one training run.

    momentum, grad_clip and baseline are off by default; the defaults run
    plain SGD on the raw estimator.
    """

    beta: float = 1e-3
    eta: float = 0.05
    epochs: int = 30
    batch_size: int = 16
    seed: int = 0
    channel: ChannelConfig = field(default_factory=lambda: ChannelConfig(epsilon=0.1))
    prior_rate: float = 0.3
    momentum: float = 0.0
    grad_clip: float = 0.0
    baseline: bool = False

    def __post_init__(self):
        if self.beta <= 0:
            raise ValueError("beta must be positive")
        if self.eta <= 0:
            raise ValueError("eta must be positive")
        if self.epochs < 0 or self.batch_size < 1:
            raise ValueError("batch_size must be positive, epochs >= 0")
        if not 0.0 < self.prior_rate < 1.0:
            raise ValueError("prior_rate must be in (0, 1)")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if self.grad_clip < 0.0:
            raise ValueError("grad_clip must be non-negative (0 disables)")


@dataclass
class Dataset:
    """Frame inputs ready for the encoder, split into train and test."""

    train_inputs: np.ndarray
    train_labels: np.ndarray
    test_inputs: np.ndarray
    test_labels: np.ndarray
    n_classes: int

    def __post_init__(self):
        if self.train_inputs.ndim != 3 or self.test_inputs.ndim != 3:
            raise ValueError("inputs must be (samples, steps, lines)")
        if len(self.train_labels) != len(self.train_inputs):
            raise ValueError("train labels do not match inputs")
        if len(self.test_labels) != len(self.test_inputs):
            raise ValueError("test labels do not match inputs")

    @property
    def steps(self) -> int:
        return self.train_inputs.shape[1]

    @property
    def input_dim(self) -> int:
        return self.train_inputs.shape[2]


@dataclass(frozen=True)
class EpochMetrics:
    task_loss: float
    rate_loss: float
    objective: float
    test_error: float
    spike_rate: float


def regularizer(zhat, u_seq, epsilon: float, prior: PriorModel) -> float:
    """Rate term for one sequence.

    Sum over steps of the marginalized log-likelihood of the received bits
    minus their log-probability under the fixed reference.  Its expectation
    under the encoding law is a KL divergence, hence non-negative.
    """
    zhat = np.asarray(zhat, dtype=np.float64)
    u_seq = np.asarray(u_seq, dtype=np.float64)
    if zhat.shape != u_seq.shape:
        raise ValueError("bits and potentials must align")
    total = 0.0
    for t in range(zhat.shape[0]):
        total += log_prob_noisy(zhat[t], u_seq[t], epsilon) - prior.log_prob(zhat[t])
    return total


def vdib_loss(task_loss: float, rate_loss: float, beta: float) -> float:
    """Scalar objective: task loss plus beta times the rate term."""
    return float(task_loss) + float(beta) * float(rate_loss)


def encoder_gradient(sample_loss: float, score: ScoreAccumulator) -> EncoderGrads:
    """Score-function estimate from one sample: loss times accumulated score."""
    f = float(sample_loss)
    return EncoderGrads(
        ff_weights=f * score.ff_weights,
        fb_weights=f * score.fb_weights,
        bias=f * score.bias,
    )


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
    """One plain (or momentum) SGD step; returns fresh params.

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
    params = replace(params, **updates)
    if momentum > 0.0:
        return params, new_velocity
    return params


def spike_rate(sequences) -> float:
    """Fraction of ones across (sequences, steps, neurons) spike trains."""
    arr = np.asarray(sequences, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("spike rate of an empty set is undefined")
    return float(arr.mean())


# ---------------------------------------------------------------------------
# reference single-sequence paths


@dataclass
class NoisySequenceRun:
    zhat: np.ndarray
    potentials: np.ndarray
    score: ScoreAccumulator
    log_prob: float


def run_noisy_sequence(
    params: EncoderParams, inputs: np.ndarray, epsilon: float, rng: SeededRng
) -> NoisySequenceRun:
    """Training-mode rollout of one sequence, one step at a time.

    Draws received bits from the marginalized law, feeds them back, and
    accumulates the score and the sequence log-likelihood.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    steps = inputs.shape[0]
    state = EncoderState.for_params(params)
    score = ScoreAccumulator.zeros(params.n_out, params.n_in)
    zhat = np.zeros((steps, params.n_out), dtype=np.uint8)
    potentials = np.zeros((steps, params.n_out))
    log_prob = 0.0
    for t in range(steps):
        state.push_input(inputs[t])
        u = membrane_potentials(params, state)
        q = noisy_spike_prob(sigmoid(u), epsilon)
        bits = rng.bernoulli(q)
        accumulate_score(score, bits, u, params, state, epsilon)
        log_prob += log_prob_noisy(bits, u, epsilon)
        state.push_output(bits)
        zhat[t] = bits
        potentials[t] = u
    return NoisySequenceRun(zhat, potentials, score, log_prob)


def run_clean_sequence(
    params: EncoderParams, inputs: np.ndarray, rng: SeededRng
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluation-mode rollout: clean spikes drive the recurrence."""
    inputs = np.asarray(inputs, dtype=np.float64)
    steps = inputs.shape[0]
    state = EncoderState.for_params(params)
    z = np.zeros((steps, params.n_out), dtype=np.uint8)
    potentials = np.zeros((steps, params.n_out))
    for t in range(steps):
        state.push_input(inputs[t])
        u = membrane_potentials(params, state)
        bits = sample_spikes(u, rng)
        state.push_output(bits)
        z[t] = bits
        potentials[t] = u
    return z, potentials


def sequence_log_prob(
    params: EncoderParams, inputs: np.ndarray, zhat: np.ndarray, epsilon: float
) -> float:
    """Exact log-likelihood of a fixed received sequence.

    Replays the recurrence with the given bits as feedback; this is the
    quantity whose parameter gradient the score accumulator builds, and the
    tests difference it numerically.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    zhat = np.asarray(zhat, dtype=np.float64)
    state = EncoderState.for_params(params)
    total = 0.0
    for t in range(inputs.shape[0]):
        state.push_input(inputs[t])
        u = membrane_potentials(params, state)
        total += log_prob_noisy(zhat[t], u, epsilon)
        state.push_output(zhat[t])
    return total


# ---------------------------------------------------------------------------
# batched internals


def _filtered_inputs(inputs: np.ndarray, kernel) -> np.ndarray:
    """Filtered input traces for whole sequences, shape (n, steps, lines)."""
    coeff = kernel.coefficients
    out = np.zeros_like(inputs)
    steps = inputs.shape[1]
    for d in range(min(coeff.size, steps)):
        out[:, d:, :] += coeff[d] * inputs[:, : steps - d, :]
    return out


def _feedback_trace(outputs: np.ndarray, t: int, kernel) -> np.ndarray:
    """Filtered own-bit history at step t for a batch, strictly past bits."""
    coeff = kernel.coefficients
    trace = np.zeros((outputs.shape[0], outputs.shape[2]))
    for d in range(1, min(coeff.size, t + 1)):
        trace += coeff[d] * outputs[:, t - d, :]
    return trace


@dataclass
class _BatchRun:
    zhat: np.ndarray        # (n, steps, k) received bits
    score_u: np.ndarray     # (n, steps, k) d(log prob)/du per step
    ff_traces: np.ndarray   # (n, steps, lines)
    fb_traces: np.ndarray   # (n, steps, k)
    rate_losses: np.ndarray  # (n,)


def _run_noisy_batch(
    params: EncoderParams,
    inputs: np.ndarray,
    epsilon: float,
    prior: PriorModel,
    rng: SeededRng,
) -> _BatchRun:
    """Vectorized training rollout across a batch of sequences.

    Matches run_noisy_sequence sample for sample in everything but the
    random draws, which come from one batch stream.
    """
    n, steps, _ = inputs.shape
    k = params.n_out
    ff = _filtered_inputs(inputs, params.kernel_ff)
    zhat = np.zeros((n, steps, k), dtype=np.uint8)
    score_u = np.zeros((n, steps, k))
    fb_traces = np.zeros((n, steps, k))
    rate = np.zeros(n)
    log_ref_one = math.log(prior.rate)
    log_ref_zero = math.log1p(-prior.rate)
    uniforms = rng.uniform((steps, n, k))
    for t in range(steps):
        fb = _feedback_trace(zhat, t, params.kernel_fb)
        u = ff[:, t, :] @ params.ff_weights.T + params.fb_weights * fb + params.bias
        s = sigmoid(u)
        q = noisy_spike_prob(s, epsilon)
        bits = (uniforms[t] < q).astype(np.uint8)
        zhat[:, t, :] = bits
        fb_traces[:, t, :] = fb
        score_u[:, t, :] = grad_u_log_prob_noisy(bits, u, epsilon)
        bf = bits.astype(np.float64)
        if epsilon == 0.0:
            step_lp = np.sum(
                bf * -np.logaddexp(0.0, -u) + (1.0 - bf) * -np.logaddexp(0.0, u),
                axis=1,
            )
        else:
            step_lp = np.sum(bf * np.log(q) + (1.0 - bf) * np.log1p(-q), axis=1)
        rate += step_lp - np.sum(
            bf * log_ref_one + (1.0 - bf) * log_ref_zero, axis=1
        )
    return _BatchRun(zhat, score_u, ff, fb_traces, rate)


def _batch_encoder_grads(run: _BatchRun, sample_losses: np.ndarray) -> EncoderGrads:
    """Mean over the batch of loss-scaled accumulated scores."""
    n = sample_losses.shape[0]
    f = sample_losses / float(n)
    return EncoderGrads(
        ff_weights=np.einsum("b,btk,btn->kn", f, run.score_u, run.ff_traces),
        fb_weights=np.einsum("b,btk,btk->k", f, run.score_u, run.fb_traces),
        bias=np.einsum("b,btk->k", f, run.score_u),
    )


# ---------------------------------------------------------------------------
# epoch loop and evaluation


def train_epoch(
    encoder: EncoderParams,
    decoder: DecoderParams,
    data: Dataset,
    config: TrainConfig,
    rng: SeededRng,
    state: dict | None = None,
) -> tuple[EncoderParams, DecoderParams, EpochMetrics]:
    """One pass over the training set in shuffled minibatches.

    Returns updated parameters and the epoch's metrics (losses averaged
    over training samples; error and spike rate measured on the test set).
    The optional state dict carries momentum velocities and the moving
    baseline across epochs when those options are on.
    """
    eps = config.channel.crossover()
    if eps >= 0.5:
        raise ValueError("cannot train at epsilon >= 0.5: score is undefined")
    prior = PriorModel(config.prior_rate)
    state = state if state is not None else {}
    order = rng.substream("shuffle").permutation(len(data.train_inputs))
    draw = rng.substream("draws")
    task_sum = 0.0
    rate_sum = 0.0
    count = 0
    for start in range(0, len(order), config.batch_size):
        batch = order[start : start + config.batch_size]
        xb = data.train_inputs[batch]
        yb = data.train_labels[batch]
        run = _run_noisy_batch(encoder, xb, eps, prior, draw)
        flat = run.zhat.reshape(len(batch), -1).astype(np.float64)
        pre, hidden, logits, probs = forward_batch(decoder, flat)
        task_losses = losses_from_logits_batch(decoder, logits, yb)
        sample_losses = task_losses + config.beta * run.rate_losses
        if not np.all(np.isfinite(sample_losses)):
            raise TrainingDiverged("non-finite sample loss")
        task_sum += float(task_losses.sum())
        rate_sum += float(run.rate_losses.sum())
        count += len(batch)
        reinforce = sample_losses
        if config.baseline:
            avg = state.get("baseline", float(sample_losses.mean()))
            reinforce = sample_losses - avg
            state["baseline"] = 0.9 * avg + 0.1 * float(sample_losses.mean())
        enc_grads = _clip(_batch_encoder_grads(run, reinforce), config.grad_clip)
        dec_grads = _clip(
            backward_batch(decoder, flat, pre, hidden, probs, yb), config.grad_clip
        )
        if config.momentum > 0.0:
            encoder, state["enc_vel"] = sgd_update(
                encoder, enc_grads, config.eta, state.get("enc_vel"), config.momentum
            )
            decoder, state["dec_vel"] = sgd_update(
                decoder, dec_grads, config.eta, state.get("dec_vel"), config.momentum
            )
        else:
            encoder = sgd_update(encoder, enc_grads, config.eta)
            decoder = sgd_update(decoder, dec_grads, config.eta)
    mean_task = task_sum / max(count, 1)
    mean_rate = rate_sum / max(count, 1)
    test_error, test_rate = evaluate(
        encoder, decoder, data.test_inputs, data.test_labels, eps, config.seed
    )
    metrics = EpochMetrics(
        task_loss=mean_task,
        rate_loss=mean_rate,
        objective=vdib_loss(mean_task, mean_rate, config.beta),
        test_error=test_error,
        spike_rate=test_rate,
    )
    return encoder, decoder, metrics


def evaluate(
    encoder: EncoderParams,
    decoder: DecoderParams,
    inputs: np.ndarray,
    labels: np.ndarray,
    epsilon: float,
    seed: int,
) -> tuple[float, float]:
    """Test error and clean spike rate at one channel point (see evaluate_grid)."""
    return evaluate_grid(encoder, decoder, inputs, labels, [epsilon], seed)[0]


def evaluate_grid(
    encoder: EncoderParams,
    decoder: DecoderParams,
    inputs: np.ndarray,
    labels: np.ndarray,
    epsilons,
    seed: int,
) -> list[tuple[float, float]]:
    """(test error, clean spike rate) at each channel point, under the
    two-stage channel path.

    Per-sample draw streams depend only on (seed, sample index), never on
    epsilon or the parameters, so repeated evaluations of one model across
    channel points share their randomness: a point evaluated twice gives
    identical answers, and sweeps vary only through the channel.  Each
    sample consumes spike uniforms first (steps x neurons) and flip
    uniforms second, mirroring a per-step sample-then-transmit loop.

    Clean spikes do not depend on epsilon, so each chunk of EVAL_CHUNK
    samples is filtered and rolled out once, and only the flips and the
    decoder run per point.  Memory is bounded by the chunk, not the test
    set, and the counts are integers, so the chunk size cannot change the
    results.
    """
    n, steps, _ = np.shape(inputs)
    if n == 0:
        raise ValueError("cannot evaluate an empty test set")
    labels = np.asarray(labels)
    epsilons = [float(eps) for eps in epsilons]
    k = encoder.n_out
    root = SeededRng(seed)
    wrong = [0] * len(epsilons)
    spikes = 0
    for start in range(0, n, EVAL_CHUNK):
        x = np.asarray(inputs[start : start + EVAL_CHUNK], dtype=np.float64)
        m = len(x)
        spike_u = np.empty((m, steps, k))
        flip_u = np.empty((m, steps, k))
        for j in range(m):
            stream = root.substream("eval", start + j)
            spike_u[j] = stream.uniform((steps, k))
            flip_u[j] = stream.uniform((steps, k))
        ff = _filtered_inputs(x, encoder.kernel_ff)
        z = np.zeros((m, steps, k), dtype=np.uint8)
        for t in range(steps):
            fb = _feedback_trace(z, t, encoder.kernel_fb)
            u = ff[:, t, :] @ encoder.ff_weights.T + encoder.fb_weights * fb + encoder.bias
            z[:, t, :] = spike_u[:, t, :] < sigmoid(u)
        spikes += int(np.count_nonzero(z))
        y = labels[start : start + m]
        for i, eps in enumerate(epsilons):
            zhat = np.bitwise_xor(z, (flip_u < eps).astype(np.uint8))
            _, _, _, probs = forward_batch(decoder, zhat.reshape(m, -1).astype(np.float64))
            wrong[i] += int(np.count_nonzero(np.argmax(probs, axis=1) != y))
    rate = spikes / (n * steps * k)
    return [(count / n, rate) for count in wrong]
