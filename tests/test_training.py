"""Objective, estimators, and the epoch loop.

The heavy statistical checks live in the acceptance suite; unit-scale
versions of the same oracles run here so a regression is caught close to
its source: enumeration for unbiasedness and the KL sign, replay identity
for the training rollout, and a per-sample reference for evaluation.
"""

import math
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from oracles import (
    ENCODER_FIELDS,
    all_sequences,
    allocation_error,
    bernoulli,
    dense_counts,
    evaluate_line_space,
    expected_objective,
    fd_grads,
    index,
    kernel,
    log_likelihood,
    reference_clip,
    reference_sgd_update,
    replay,
    sample_losses,
    training_rollout,
)

from spikelink import numerics, training
from spikelink.channel import noisy_spike_prob, spike_thresholds
from spikelink.config import ConfigError, RunConfig
from spikelink.decoder import DecoderParams, init_decoder_params
from spikelink.encoder import (
    EncoderParams,
    init_encoder_params,
    score_grads,
)
from spikelink.numerics import Kernel, SeededRng, sigmoid
from spikelink.training import (
    Dataset,
    PriorModel,
    TrainState,
    TrainingDiverged,
    evaluate,
    regularizer,
    sgd_update,
    train_epoch,
    vdib_loss,
)

def _tiny_encoder(k=1, n_in=2, seed=0):
    rng = SeededRng(seed).generator
    return EncoderParams(
        ff_weights=rng.uniform(-0.9, 0.9, (k, n_in)),
        fb_weights=rng.uniform(-1.0, -0.2, k),
        bias=rng.uniform(-0.4, 0.4, k),
        kernel_ff=kernel(1.0, 0.5),
        kernel_fb=kernel(1.0, 0.7, 0.3),
    )


class TestPriorModel:
    def test_hand_value(self):
        prior = PriorModel(0.3)
        got = prior.log_prob(np.array([1.0, 0.0]))
        assert got == pytest.approx(math.log(0.3) + math.log(0.7), rel=1e-14)

    def test_validation(self):
        with pytest.raises(ValueError):
            PriorModel(0.0)
        with pytest.raises(ValueError):
            PriorModel(1.0)


class TestRegularizer:
    def test_hand_value_single_step(self):
        # u = 0, eps = 0: log sigma(0) - log 0.3 for a received 1
        prior = PriorModel(0.3)
        got = regularizer(np.array([[[1.0]]]), np.array([[[0.0]]]), 0.0, prior)
        assert got[0] == pytest.approx(math.log(0.5) - math.log(0.3), rel=1e-13)

    def test_zero_when_law_equals_reference(self):
        # sigma(u) = 0.3 and eps = 0 make every sequence's log-ratio vanish
        zhat = all_sequences(3, 1)
        u = np.full(zhat.shape, math.log(0.3 / 0.7))
        got = regularizer(zhat, u, 0.0, PriorModel(0.3))
        np.testing.assert_allclose(got, 0.0, atol=1e-13)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            regularizer(np.zeros((1, 2, 1)), np.zeros((1, 2, 2)), 0.0, PriorModel())

    @pytest.mark.parametrize("eps", [0.0, 0.1, 0.3])
    def test_expectation_is_nonnegative(self, eps):
        # enumerate the law: sum_z p(z) * regularizer(z) is a KL divergence
        params = _tiny_encoder(k=1, n_in=2, seed=3)
        inputs = bernoulli(SeededRng(11).generator, np.full((3, 2), 0.5)).astype(np.float64)
        run, _ = replay(params, inputs, all_sequences(3, 1))
        p = np.exp(log_likelihood(run, eps))
        kl = p @ regularizer(run.bits, run.potentials, eps, PriorModel(0.3))
        # the autoregressive law must normalize, and the KL must be >= 0
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
        assert kl >= -1e-12


class TestObjectiveAndUpdates:
    def test_vdib_loss_combination(self):
        assert vdib_loss(2.0, 3.0, 0.5) == 3.5

    def test_sgd_plain_step(self):
        params = _tiny_encoder()
        start = replace(params)
        velocity = sgd_update(params, np.ones_like(params.vector), eta=0.1)
        assert velocity is None
        np.testing.assert_allclose(params.ff_weights, start.ff_weights - 0.1)
        np.testing.assert_allclose(params.bias, start.bias - 0.1)
        # the step is made in place: the fields stay views of the vector
        assert all(np.shares_memory(view, params.vector)
                   for view in (params.ff_weights, params.fb_weights, params.bias))

    def test_sgd_momentum_accumulates(self):
        params = _tiny_encoder()
        start = replace(params)
        ones = np.ones_like(params.vector)
        vel = sgd_update(params, ones, eta=0.1, velocity=None, momentum=0.5)
        vel = sgd_update(params, ones, eta=0.1, velocity=vel, momentum=0.5)
        # second step uses velocity 1.5: total displacement 0.1 * (1 + 1.5)
        np.testing.assert_allclose(params.bias, start.bias - 0.25)
        assert vel.shape == params.vector.shape
        np.testing.assert_allclose(params.split(vel)["bias"], 1.5)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_sgd_rejects_non_finite(self):
        # a nan gradient, and a finite one whose step overflows a weight
        params = _tiny_encoder()
        bad = np.zeros_like(params.vector)
        params.split(bad)["ff_weights"][:] = np.nan
        with pytest.raises(TrainingDiverged, match="EncoderParams"):
            sgd_update(params, bad, eta=0.1)
        decoder = init_decoder_params(3, 2, SeededRng(1).generator, hidden_dim=2)
        with pytest.raises(TrainingDiverged, match="DecoderParams"):
            sgd_update(decoder, np.full_like(decoder.vector, -2.0), eta=1.7e308)

    @staticmethod
    def _update_case(model):
        """A model whose fields start with two -0.0 weights, and three
        steps of gradients, by field name, whose fields start with -0.0
        and +0.0 there."""
        rng = np.random.default_rng(5)
        # near the default sizes, so a sum over the whole vector rounds
        # unlike the field-by-field one
        if model == "encoder":
            params = init_encoder_params(512, 16, SeededRng(4).generator)
        else:
            params = init_decoder_params(320, 4, SeededRng(4).generator, hidden_dim=64)
        values = {name: view.copy() for name, view in params.split(params.vector).items()}
        for value in values.values():
            value.flat[:2] = -0.0
        steps = []
        for _ in range(3):
            grads = {name: rng.normal(size=value.shape) for name, value in values.items()}
            for g in grads.values():
                g.flat[:2] = (-0.0, 0.0)
            steps.append(grads)
        return replace(params, **values), steps

    @pytest.mark.parametrize("model", ["encoder", "decoder"])
    @pytest.mark.parametrize("momentum, clip", [
        (0.0, None), (0.9, None), (0.0, "fires"), (0.9, "fires"), (0.9, "idle"),
    ])
    def test_update_matches_field_walk(self, model, momentum, clip):
        # three steps of the in-place vector path (_clip, then sgd_update)
        # against the field-by-field reference, byte for byte after each:
        # plain SGD, the first momentum step from None with -0.0 gradient
        # entries, later momentum steps, and a clip that fires or does not
        start, steps = self._update_case(model)
        norms = [math.sqrt(sum(float(np.sum(np.square(g))) for g in grads.values()))
                 for grads in steps]
        limit = {None: 0.0, "fires": 0.5 * min(norms), "idle": 2.0 * max(norms)}[clip]
        params, velocity = replace(start), None
        ref, ref_velocity = start, None
        for grads in steps:
            vector = np.concatenate([g.ravel() for g in grads.values()])
            clipped = training._clip(params, vector.copy(), limit)
            assert np.array_equal(clipped, vector) == (clip != "fires")
            velocity = sgd_update(params, clipped, 0.3, velocity, momentum)
            ref, ref_velocity = reference_sgd_update(
                ref, reference_clip(grads, limit), 0.3, ref_velocity, momentum)
            for name, view in params.split(params.vector).items():
                assert view.tobytes() == getattr(ref, name).tobytes(), name
            if momentum == 0.0:
                assert velocity is None and ref_velocity is None
                continue
            for name, view in params.split(velocity).items():
                assert view.tobytes() == ref_velocity[name].tobytes(), name
        # the -0.0 weights and gradients made signed zeros that the
        # comparison above read
        assert np.any(np.signbit(params.vector) & (params.vector == 0.0))

    def test_train_config_validation(self):
        with pytest.raises(ConfigError, match="beta"):
            RunConfig(beta=0.0)
        with pytest.raises(ConfigError, match="momentum"):
            RunConfig(momentum=1.0)
        with pytest.raises(ConfigError, match="prior_rate"):
            RunConfig(prior_rate=1.0)
        for bad in ({"eta": 0.0}, {"epochs": -1}, {"batch_size": 0}, {"grad_clip": -1.0}):
            with pytest.raises(ConfigError, match=next(iter(bad))):
                RunConfig(**bad)


class TestSequencePaths:
    def test_noisy_run_replay_identity(self):
        # a training rollout must equal an after-the-fact replay of the bits
        # it drew: same potentials and traces, hence same rate term and score
        params = _tiny_encoder(k=2, n_in=3, seed=5)
        rng = SeededRng(21).generator
        inputs = bernoulli(rng, np.full((4, 5, 3), 0.6))
        run, _ = training_rollout(params, inputs, spike_thresholds(rng.random((5, 4, 2)), 0.2))
        again, _ = replay(params, inputs, run.bits)
        for name in ("bits", "potentials", "spike_probs", "fb_traces"):
            np.testing.assert_array_equal(getattr(again, name), getattr(run, name))

    def test_training_draws_follow_one_uniform_block(self):
        # step t's thresholds come from the t-th (n, k) block of one
        # uniform block, and its bits are those uniforms below the marginal
        # spike probability
        params = _tiny_encoder(k=2, n_in=3, seed=6)
        inputs = bernoulli(SeededRng(22).generator, np.full((4, 5, 3), 0.6))
        uniforms = SeededRng(23).generator.random((5, 4, 2))
        run, _ = training_rollout(params, inputs, spike_thresholds(uniforms, 0.2))
        q = noisy_spike_prob(sigmoid(run.potentials), 0.2)
        np.testing.assert_array_equal(run.bits, uniforms.transpose(1, 0, 2) < q)


    def test_clean_run_shapes_and_determinism(self):
        # evaluation's rule: spike where the step's pre-drawn uniform is
        # below sigmoid(u); evaluate counts exactly these spikes
        params = _tiny_encoder(k=2, n_in=3, seed=5)
        counts = bernoulli(SeededRng(1).generator, np.full((1, 4, 3), 0.5))
        spike_u = SeededRng(77).substream("eval", 0).generator.random((4, 1, 2))
        first, _ = training_rollout(params, counts, spike_thresholds(spike_u, 0.0))
        second, _ = training_rollout(params, counts, spike_thresholds(spike_u, 0.0))
        np.testing.assert_array_equal(first.bits, spike_u.transpose(1, 0, 2) < first.spike_probs)
        assert first.bits.shape == (1, 4, 2) and first.potentials.shape == (1, 4, 2)
        np.testing.assert_array_equal(first.bits, second.bits)
        np.testing.assert_array_equal(first.potentials, second.potentials)
        decoder = init_decoder_params(8, 2, SeededRng(2).generator, hidden_dim=3)
        [(_, rate)] = evaluate(params, decoder, index(counts), np.array([0]), [0.1], 77)
        assert rate == np.count_nonzero(first.bits) / 8


class TestUnbiasedness:
    """Enumeration oracle: the score estimator's mean is the true gradient."""

    LABEL, PRIOR = 1, PriorModel(0.3)

    def _setup(self, seed=0):
        params = _tiny_encoder(k=1, n_in=2, seed=seed)
        decoder = init_decoder_params(3, 2, SeededRng(seed + 50).generator, hidden_dim=3)
        rng = SeededRng(seed + 90).generator
        inputs = bernoulli(rng, np.full((3, 2), 0.5)).astype(np.float64)
        return params, decoder, inputs

    @pytest.mark.parametrize("eps", [0.0, 0.2])
    def test_enumerated_estimator_matches_finite_difference(self, eps):
        beta = 0.05
        params, decoder, inputs = self._setup()
        run, counts = replay(params, inputs, all_sequences(3, 1))
        f = sample_losses(decoder, run, eps, beta, self.LABEL, self.PRIOR)
        expected = params.split(score_grads(
            run, counts, params.kernel_ff, eps, np.exp(log_likelihood(run, eps)) * f))
        fd = fd_grads(params, lambda moved: expected_objective(
            moved, decoder, inputs, eps, beta, self.LABEL, self.PRIOR), 1e-5)
        for field in ENCODER_FIELDS:
            np.testing.assert_allclose(expected[field], fd[field], rtol=0, atol=1e-6)

    def test_enumerated_score_has_zero_mean(self):
        # E[grad log p] = 0: the identity that lets a baseline shift f freely
        params, _, inputs = self._setup(seed=2)
        eps = 0.15
        run, counts = replay(params, inputs, all_sequences(3, 1))
        mean = params.split(score_grads(run, counts, params.kernel_ff, eps,
                                        np.exp(log_likelihood(run, eps))))
        for field in ENCODER_FIELDS:
            np.testing.assert_allclose(mean[field], 0.0, atol=1e-12)

    def test_monte_carlo_mean_approaches_enumeration(self):
        eps, beta = 0.1, 0.05
        params, decoder, inputs = self._setup(seed=1)
        run, counts = replay(params, inputs, all_sequences(3, 1))
        p = np.exp(log_likelihood(run, eps))
        f = sample_losses(decoder, run, eps, beta, self.LABEL, self.PRIOR)
        per_sequence = [params.split(score_grads(run, counts, params.kernel_ff, eps,
                                                 f * (np.arange(len(f)) == i)))
                        for i in range(len(f))]

        # the training rollout on 20k copies of the input, one batch
        draws = 20_000
        uniforms = SeededRng(777).generator.random((3, draws, 1))
        mc, mc_counts = training_rollout(
            params, np.repeat(inputs[None], draws, axis=0), spike_thresholds(uniforms, eps))
        f_mc = sample_losses(decoder, mc, eps, beta, self.LABEL, self.PRIOR)
        mean = params.split(score_grads(mc, mc_counts, params.kernel_ff, eps, f_mc / draws))

        for field in ENCODER_FIELDS:
            g = np.array([grads[field] for grads in per_sequence])
            exact = np.tensordot(p, g, axes=1)
            var = np.tensordot(p, g**2, axes=1) - exact**2
            se = np.sqrt(np.maximum(var, 0.0) / draws)
            diff = np.abs(mean[field] - exact)
            assert (diff <= 4.0 * se + 1e-12).all()


def _toy_counts(seed=0, n_train=24, n_test=16, steps=6, lines=8):
    # two linearly separable spike-rate patterns, as uint8 counts: the
    # train split's, the test split's, and their labels
    rng = SeededRng(seed).generator
    half = lines // 2
    def draw(n):
        inputs = np.zeros((n, steps, lines), dtype=np.uint8)
        labels = np.zeros(n, dtype=np.int64)
        for i in range(n):
            label = i % 2
            labels[i] = label
            probs = np.full(lines, 0.1)
            if label == 0:
                probs[:half] = 0.8
            else:
                probs[half:] = 0.8
            inputs[i] = bernoulli(rng, np.tile(probs, (steps, 1)))
        return inputs, labels
    xtr, ytr = draw(n_train)
    xte, yte = draw(n_test)
    return xtr, ytr, xte, yte


def _toy_models(data, seed=0, k=4, hidden=8):
    root = SeededRng(seed)
    enc = init_encoder_params(data.input_dim, k, root.substream("e").generator)
    dec = init_decoder_params(k * data.train_counts.shape[1], data.n_classes,
                              root.substream("d").generator, hidden_dim=hidden)
    return enc, dec


def _toy_dataset(**kwargs):
    """The toy counts as a Dataset of their indexes."""
    train, train_labels, test, test_labels = _toy_counts(**kwargs)
    return Dataset(index(train), train_labels, index(test), test_labels, n_classes=2)


def _state_values(state):
    """Copies of the vectors a TrainState holds, its models' and its
    velocities', and its baseline and epoch, by name."""
    values = {"baseline": state.baseline, "epoch": state.epoch,
              "encoder": state.encoder.vector.copy(), "decoder": state.decoder.vector.copy()}
    for part in ("enc_vel", "dec_vel"):
        if getattr(state, part) is not None:
            values[part] = getattr(state, part).copy()
    return values


def _rebuilt(state):
    """A TrainState made from copies of what a state file and a checkpoint
    hold: each model's vector split into its arrays, the kernels'
    coefficients, the output head, the velocities, baseline and epoch."""
    enc, dec = state.encoder, state.decoder
    arrays = [{name: part.copy() for name, part in model.split(model.vector).items()}
              for model in (enc, dec)]
    encoder = EncoderParams(**arrays[0], kernel_ff=Kernel(enc.kernel_ff.coefficients.copy()),
                            kernel_fb=Kernel(enc.kernel_fb.coefficients.copy()))
    decoder = DecoderParams(**arrays[1], output=dec.output)
    return TrainState(encoder, decoder, state.enc_vel.copy(), state.dec_vel.copy(),
                      state.baseline, state.epoch)


def _assert_bit_equal(got, want):
    assert got.keys() == want.keys()
    for name, value in want.items():
        if isinstance(value, np.ndarray):
            assert (got[name].dtype, got[name].shape) == (value.dtype, value.shape), name
            assert got[name].tobytes() == value.tobytes(), name
        else:
            assert got[name] == value, name


class TestEpochLoop:
    def test_deterministic_replay(self):
        data = _toy_dataset()
        cfg = RunConfig(epochs=2, batch_size=8, epsilon=0.1)
        results = []
        for _ in range(2):
            state = TrainState(*_toy_models(data))
            metrics = None
            fresh = replace(data)  # its own evaluation draws
            for _ in range(2):
                state, metrics = train_epoch(state, fresh, cfg)
            results.append((state, metrics))
        (s1, m1), (s2, m2) = results
        np.testing.assert_array_equal(s1.encoder.ff_weights, s2.encoder.ff_weights)
        np.testing.assert_array_equal(s1.decoder.w1, s2.decoder.w1)
        assert m1 == m2

    def test_learns_separable_task(self):
        data = _toy_dataset(n_train=48)
        state = TrainState(*_toy_models(data))
        cfg = RunConfig(epochs=8, batch_size=8, eta=0.2, epsilon=0.05)
        err = None
        for _ in range(8):
            state, m = train_epoch(state, data, cfg)
            err = m.test_error
        assert err <= 0.25

    def test_rejects_untrainable_epsilon(self):
        data = _toy_dataset()
        state = TrainState(*_toy_models(data))
        cfg = RunConfig(epsilon=0.5)
        with pytest.raises(ValueError, match="0.5"):
            train_epoch(state, data, cfg)

    def test_momentum_and_baseline_state_threading(self):
        # with momentum and the baseline on, an epoch returns velocities
        # of the models' vector layouts and a baseline; without them, None.
        # Either way the epoch count goes from 0 to 1
        data = _toy_dataset()
        start = TrainState(*_toy_models(data))
        cfg = RunConfig(epochs=2, batch_size=8, momentum=0.9, baseline=True, epsilon=0.1)
        state, _ = train_epoch(start, data, cfg)
        assert state.enc_vel.shape == state.encoder.vector.shape
        assert state.dec_vel.shape == state.decoder.vector.shape
        assert isinstance(state.baseline, float)
        plain, _ = train_epoch(start, data, replace(cfg, momentum=0.0, baseline=False))
        assert (plain.enc_vel, plain.dec_vel, plain.baseline) == (None, None, None)
        assert (start.epoch, state.epoch, plain.epoch) == (0, 1, 1)

    def test_interrupted_epoch_leaves_state_unchanged(self, monkeypatch):
        # an epoch cut short in its second batch leaves the state it was
        # given bit for bit: models, velocities, baseline and epoch
        data = _toy_dataset()
        cfg = RunConfig(batch_size=8, momentum=0.9, baseline=True, epsilon=0.1)
        state, _ = train_epoch(TrainState(*_toy_models(data)), data, cfg)
        before = _state_values(state)
        assert before.keys() == {"baseline", "epoch", "encoder", "decoder", "enc_vel", "dec_vel"}
        real = training.score_grads
        calls = []

        def interrupted(*args):
            calls.append(1)
            if len(calls) == 2:
                raise KeyboardInterrupt
            return real(*args)

        monkeypatch.setattr(training, "score_grads", interrupted)
        with pytest.raises(KeyboardInterrupt):
            train_epoch(state, data, cfg)
        assert len(calls) == 2
        _assert_bit_equal(_state_values(state), before)

    def test_split_run_equals_unbroken_run(self):
        # 4 epochs in one loop equal 2 + 2, the second loop given only the
        # returned TrainState, or one rebuilt from copies of its fields, and
        # a fresh evaluation cache: the state is all an epoch carries to the
        # next, it has no hidden part (a kernel's cached matrices, views
        # aliased across states), and the draws are a cache
        data = _toy_dataset()
        cfg = RunConfig(batch_size=8, momentum=0.9, baseline=True, epsilon=0.1)

        def run(state, epochs):
            fresh = replace(data)
            history = []
            for _ in range(epochs):
                state, metrics = train_epoch(state, fresh, cfg)
                history.append(metrics)
            return state, history

        start = TrainState(*_toy_models(data))
        whole, whole_metrics = run(start, 4)
        half, first = run(start, 2)
        rebuilt = _rebuilt(half)
        assert whole.baseline is not None and whole.enc_vel is not None
        assert (start.epoch, half.epoch, whole.epoch) == (0, 2, 4)
        for resumed in (half, rebuilt):
            split, second = run(resumed, 2)
            assert first + second == whole_metrics
            _assert_bit_equal(_state_values(split), _state_values(whole))

    def test_batch_draws_consume_one_stream_in_order(self, monkeypatch):
        # each batch draws its uniforms at once; read in call order, batch
        # by batch and step by step, they are one draw from the "draws"
        # substream of the epoch's stream, substream("train", 0) of the
        # seed, the last batch partial (12 samples = 5 + 5 + 2)
        data = _toy_dataset(n_train=12)
        state = TrainState(*_toy_models(data))
        seen = []
        real = training.spike_thresholds

        def spy(uniforms, eps):
            seen.append(np.array(uniforms))
            return real(uniforms, eps)

        monkeypatch.setattr(training, "spike_thresholds", spy)
        cfg = RunConfig(batch_size=5, epsilon=0.1)
        train_epoch(state, data, cfg)
        steps, k = data.train_counts.shape[1], state.encoder.n_out
        # the training batches' draws; the last call is evaluation's
        assert [u.shape for u in seen[:-1]] == [(steps, 5, k)] * 2 + [(steps, 2, k)]
        epoch = SeededRng(cfg.seed).substream("train", 0)
        expected = epoch.substream("draws").generator.random(12 * steps * k)
        np.testing.assert_array_equal(np.concatenate([u.ravel() for u in seen[:-1]]), expected)

    def test_epoch_memory_bounded_by_batch_buffers(self):
        # the Dataset keeps each split's index, at most 4 bytes a nonzero
        # count and 8 a record-step row (plus the closing offset), and an
        # epoch makes no array of the split's size: a batch gathers its
        # entries and arrays k = 4 columns wide.  So from the counts,
        # indexing them, building the Dataset and its epoch peak within a
        # few float64 batch copies besides the kept index and evaluation
        # draws; the split's float64 traces would be 64 batch copies
        n, steps, lines, batch = 1024, 20, 64, 16
        counts = (SeededRng(1).generator.random((n + 8, steps, lines)) < 0.2).astype(np.uint8)
        labels = np.arange(n + 8) % 4
        root = SeededRng(0)
        enc = init_encoder_params(lines, 4, root.substream("e").generator)
        dec = init_decoder_params(4 * steps, 4, root.substream("d").generator, hidden_dim=8)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            data = Dataset(index(counts[:n]), labels[:n], index(counts[n:]), labels[n:],
                           n_classes=4)
            train_epoch(TrainState(enc, dec), data, RunConfig(batch_size=batch, epsilon=0.1))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        index_bytes = 0
        for kept_index, split in ((data.train_counts, counts[:n]), (data.test_counts, counts[n:])):
            size = kept_index.lines.nbytes + kept_index.offsets.nbytes
            assert size <= 4 * np.count_nonzero(split) + 8 * (split.shape[0] * steps + 1)
            index_bytes += size
        kept = index_bytes + sum(u.nbytes for pair in data.draws.values() for u in pair)
        batch_copy = batch * steps * lines * 8
        assert peak - kept < 3 * batch_copy, f"peak {peak} bytes, {kept} kept"

    def test_dataset_validation(self):
        with pytest.raises(ValueError):
            Dataset(index(np.zeros((2, 3, 4))), np.zeros(3), index(np.zeros((1, 3, 4))),
                    np.zeros(1), 2)


class TestDataset:
    def test_codes_the_train_split(self):
        # both splits are held as the indexes they are given, as the events
        # module bins them: train_epoch gathers batches from them and
        # evaluate slices chunks.  replace() works as on any dataclass,
        # keeping an index it is given as it is, with an empty draws cache
        counts, labels, test_counts, test_labels = _toy_counts()
        train_index, test_index = index(counts), index(test_counts)
        data = Dataset(train_index, labels, test_index, test_labels, n_classes=2)
        assert data.train_counts is train_index and data.test_counts is test_index
        assert np.array_equal(dense_counts(data.train_counts), counts)
        assert np.array_equal(dense_counts(data.test_counts), test_counts)
        assert counts.dtype == np.uint8 and data.input_dim == counts.shape[2]
        data.draws["kept"] = None
        other_counts, other_labels, _, _ = _toy_counts(seed=1)
        other = replace(data, train_counts=index(other_counts), train_labels=other_labels)
        assert np.array_equal(dense_counts(other.train_counts), other_counts)
        assert other.test_counts is data.test_counts
        assert other.draws == {}


class TestNonFiniteDrive:
    """Finite feedforward weights of 1e308 overflow a step's projection to
    inf, and the filter's product turns the column's other steps to nan:
    training and evaluation refuse any drive with a non-finite value."""

    @staticmethod
    def _overflowing():
        data = _toy_dataset()
        enc, dec = _toy_models(data)
        enc.ff_weights[:] = 1e308
        return data, enc, dec

    def test_training_raises(self):
        data, enc, dec = self._overflowing()
        cfg = RunConfig(batch_size=8, epsilon=0.1)
        with pytest.raises(TrainingDiverged, match="^non-finite feedforward drive$"):
            train_epoch(TrainState(enc, dec), data, cfg)

    def test_evaluation_raises(self):
        data, enc, dec = self._overflowing()
        with pytest.raises(TrainingDiverged, match="^non-finite feedforward drive$"):
            evaluate(enc, dec, data.test_counts, data.test_labels, [0.0, 0.1], seed=0)


class TestEvaluate:
    def test_repeat_evaluation_identical(self):
        data = _toy_dataset()
        enc, dec = _toy_models(data)
        a = evaluate(enc, dec, data.test_counts, data.test_labels, [0.1], seed=0)
        b = evaluate(enc, dec, data.test_counts, data.test_labels, [0.1], seed=0)
        assert a == b

    def test_epsilon_zero_matches_vanishing_epsilon(self):
        # the flip draws are shared across channel points, so a vanishing
        # crossover must reproduce the clean result exactly
        data = _toy_dataset()
        enc, dec = _toy_models(data)
        a = evaluate(enc, dec, data.test_counts, data.test_labels, [0.0], seed=3)
        b = evaluate(enc, dec, data.test_counts, data.test_labels, [1e-300], seed=3)
        assert a == b

    def test_spike_rate_is_channel_independent(self):
        data = _toy_dataset()
        enc, dec = _toy_models(data)
        [(_, r1)] = evaluate(enc, dec, data.test_counts, data.test_labels, [0.0], seed=0)
        [(_, r2)] = evaluate(enc, dec, data.test_counts, data.test_labels, [0.4], seed=0)
        assert r1 == r2


GRID = (0.0, 0.05, 0.2, 0.5)


class TestEvaluateGrid:
    def test_matches_per_point_evaluate(self):
        data = _toy_dataset(n_test=40)
        enc, dec = _toy_models(data)
        grid = evaluate(enc, dec, data.test_counts, data.test_labels, GRID, seed=4)
        per_point = [
            evaluate(enc, dec, data.test_counts, data.test_labels, [eps], seed=4)[0]
            for eps in GRID
        ]
        assert grid == per_point

    def test_matches_per_sample_reference(self):
        # the documented contract, one sample and one step at a time in
        # line space (the oracle filters the counts into traces), against
        # the neuron-space evaluation of the same uint8 counts
        data = _toy_dataset(n_test=24)
        enc, dec = _toy_models(data)
        counts, labels = data.test_counts, data.test_labels
        got = evaluate(enc, dec, counts, labels, GRID, seed=9)
        assert got == evaluate_line_space(enc, dec, counts, labels, GRID, seed=9)

    @pytest.mark.parametrize("chunk", [1, 3, None])
    def test_chunk_size_does_not_change_results(self, monkeypatch, chunk):
        data = _toy_dataset(n_test=40)
        enc, dec = _toy_models(data)
        expected = evaluate(enc, dec, data.test_counts, data.test_labels, GRID, seed=2)
        monkeypatch.setattr(training, "EVAL_CHUNK", chunk or len(data.test_counts))
        got = evaluate(enc, dec, data.test_counts, data.test_labels, GRID, seed=2)
        assert got == expected

    @pytest.mark.parametrize("chunk", [1, 7, None])
    def test_chunks_match_line_space_oracle(self, monkeypatch, chunk):
        # each chunk's drive is made from its counts in neuron space; the
        # tallies equal the line-space oracle's at any chunk size
        data = _toy_dataset(n_test=40)
        enc, dec = _toy_models(data)
        counts, labels = data.test_counts, data.test_labels
        monkeypatch.setattr(training, "EVAL_CHUNK", chunk or len(counts))
        got = evaluate(enc, dec, counts, labels, GRID, seed=2)
        assert got == evaluate_line_space(enc, dec, counts, labels, GRID, seed=2)
        assert len({error for error, _ in got}) > 1

    def test_spike_rate_same_at_every_point(self):
        data = _toy_dataset(n_test=40)
        enc, dec = _toy_models(data)
        results = evaluate(enc, dec, data.test_counts, data.test_labels, GRID, seed=0)
        assert len({rate for _, rate in results}) == 1

    def test_rejects_empty_test_set(self):
        data = _toy_dataset()
        enc, dec = _toy_models(data)
        with pytest.raises(ValueError, match="empty"):
            evaluate(enc, dec, data.test_counts[:0], data.test_labels[:0], GRID, seed=0)

    @pytest.mark.parametrize("failing", ["_eval_uniforms", "drive_from_counts", "rollout"])
    def test_chunk_allocation_failure_names_the_chunk(self, monkeypatch, failing):
        # a chunk's draws, drive and rollout are all (records, steps, k)
        # float64 arrays; NumPy's error for any of them leaves as it is,
        # shape and dtype intact, and the CLI turns it into exit 2
        data = _toy_dataset(n_test=10)
        enc, dec = _toy_models(data)

        def refused(*args, **kwargs):
            raise allocation_error((10, 6, 4))

        monkeypatch.setattr(training, failing, refused)
        with pytest.raises(MemoryError) as exc:
            evaluate(enc, dec, data.test_counts, data.test_labels, GRID, seed=0)
        assert exc.value.shape == (10, 6, 4) and exc.value.dtype == np.float64

    def test_training_run_draws_each_sample_once(self, monkeypatch):
        # three epochs on one Dataset evaluate three times, but create
        # each test sample's "eval" substream in the first epoch only
        data = _toy_dataset(n_test=10)
        enc, dec = _toy_models(data)
        cfg = RunConfig(batch_size=8, epsilon=0.1)
        made = []
        substreams = SeededRng.substreams

        def counting(self, *parts, indices):
            if parts == ("eval",):
                made.extend(indices)
            return substreams(self, *parts, indices=indices)

        monkeypatch.setattr(SeededRng, "substreams", counting)
        monkeypatch.setattr(training, "EVAL_CHUNK", 4)
        state = TrainState(enc, dec)
        for epoch in range(3):
            state, _ = train_epoch(state, data, cfg)
            if epoch == 0:
                assert sorted(made) == list(range(10))
        assert sorted(made) == list(range(10))

    def test_evaluation_takes_no_sigmoid(self, monkeypatch):
        # evaluation reads a rollout's bits only; a softmax head leaves no
        # other sigmoid, so every call would be the encoder's.  A training
        # rollout takes its one sigmoid when its spike_probs is first read.
        calls, real = [], numerics.sigmoid

        def counting(x):
            calls.append(np.shape(x))
            return real(x)

        for name, module in list(sys.modules.items()):
            if name.startswith("spikelink") and vars(module).get("sigmoid") is real:
                monkeypatch.setattr(module, "sigmoid", counting)
        data = _toy_dataset(n_test=20)
        enc, dec = _toy_models(data)
        evaluate(enc, replace(dec, output="softmax"), data.test_counts, data.test_labels,
                 GRID, seed=3)
        assert calls == []
        run, _ = training_rollout(enc, data.test_counts[:4],
                                  spike_thresholds(SeededRng(4).generator.random((6, 4, 4)), 0.1))
        assert calls == []
        assert run.spike_probs is run.spike_probs
        assert calls == [(4, 6, 4)]

    def test_reused_draws_equal_fresh_evaluation(self):
        data = _toy_dataset(n_test=40)
        enc, dec = _toy_models(data)
        other_enc, other_dec = _toy_models(data, seed=3)
        draws: dict = {}
        args = (data.test_counts, data.test_labels, GRID)
        for e, d in ((enc, dec), (other_enc, other_dec), (enc, dec)):
            fresh = evaluate(e, d, *args, seed=6)
            assert evaluate(e, d, *args, seed=6, draws=draws) == fresh
        # draws for another seed are drawn afresh, not read from the dict
        assert evaluate(enc, dec, *args, seed=7, draws=draws) == evaluate(
            enc, dec, *args, seed=7
        )

    def test_memory_bounded_by_chunk(self):
        n, steps, lines, k = 2048, 20, 64, 16
        rng = SeededRng(1).generator
        inputs = (rng.random((n, steps, lines)) < 0.2).astype(np.float64)
        labels = np.arange(n) % 4
        root = SeededRng(0)
        enc = init_encoder_params(lines, k, root.substream("e").generator)
        dec = init_decoder_params(k * steps, 4, root.substream("d").generator, hidden_dim=32)
        chunk_traces = training.EVAL_CHUNK * steps * lines * 8
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            evaluate(enc, dec, index(inputs), labels, GRID, seed=0)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # a temporary the size of the whole set's traces would be 16 chunks' worth
        assert peak < 6 * chunk_traces, f"peak {peak} bytes"

    def test_epoch_memory_beyond_its_draws_bounded_by_chunk(self):
        # an epoch keeps the test set's spike thresholds and flip uniforms
        # in the Dataset's draws and nothing else of the test set's size: past them,
        # its evaluation stays chunk-bounded like a one-shot call
        n, steps, lines, k = 2048, 20, 64, 16
        rng = SeededRng(1).generator
        counts = (rng.random((n + 8, steps, lines)) < 0.2).astype(np.float64)
        labels = np.arange(n + 8) % 4
        root = SeededRng(0)
        enc = init_encoder_params(lines, k, root.substream("e").generator)
        dec = init_decoder_params(k * steps, 4, root.substream("d").generator, hidden_dim=32)
        data = Dataset(index(counts[:8]), labels[:8], index(counts[8:]), labels[8:], n_classes=4)
        cfg = RunConfig(batch_size=8, epsilon=0.1)
        chunk_traces = training.EVAL_CHUNK * steps * lines * 8
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            train_epoch(TrainState(enc, dec), data, cfg)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        kept = sum(u.nbytes for pair in data.draws.values() for u in pair)
        assert kept == 2 * n * steps * k * 8
        assert peak - kept < 6 * chunk_traces, f"peak {peak} bytes, {kept} kept"
