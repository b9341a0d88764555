"""Objective, estimators, and the epoch loop.

The heavy statistical checks live in the acceptance suite; unit-scale
versions of the same oracles run here so a regression is caught close to
its source: enumeration for unbiasedness and the KL sign, replay identity
for the sequence likelihood, and reference-vs-batched equivalence.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from spikelink import training
from spikelink.channel import ChannelConfig, log_prob_noisy
from spikelink.decoder import init_decoder_params, forward, loss_from_logits
from spikelink.encoder import (
    EncoderGrads,
    EncoderParams,
    EncoderState,
    ScoreAccumulator,
    accumulate_score,
    init_encoder_params,
    membrane_potentials,
)
from spikelink.numerics import Kernel, SeededRng, sigmoid
from spikelink.training import (
    Dataset,
    PriorModel,
    TrainConfig,
    TrainingDiverged,
    encoder_gradient,
    evaluate,
    evaluate_grid,
    regularizer,
    run_clean_sequence,
    run_noisy_sequence,
    sequence_log_prob,
    sgd_update,
    spike_rate,
    train_epoch,
    vdib_loss,
)
from spikelink.training import _feedback_trace, _filtered_inputs


def _kernel(*coeffs):
    return Kernel(np.array(coeffs, dtype=np.float64))


def _tiny_encoder(k=1, n_in=2, seed=0):
    rng = SeededRng(seed)
    return EncoderParams(
        ff_weights=rng.uniform_range(-0.9, 0.9, (k, n_in)),
        fb_weights=rng.uniform_range(-1.0, -0.2, k),
        bias=rng.uniform_range(-0.4, 0.4, k),
        kernel_ff=_kernel(1.0, 0.5),
        kernel_fb=_kernel(1.0, 0.7, 0.3),
    )


def _replay(params, inputs, zhat, eps):
    """Replay a fixed received sequence: log-likelihood, potentials, score."""
    state = EncoderState.for_params(params)
    acc = ScoreAccumulator.zeros(params.n_out, params.n_in)
    log_p = 0.0
    us = np.zeros(zhat.shape)
    for t in range(inputs.shape[0]):
        state.push_input(inputs[t])
        u = membrane_potentials(params, state)
        us[t] = u
        log_p += log_prob_noisy(zhat[t], u, eps)
        accumulate_score(acc, zhat[t], u, params, state, eps)
        state.push_output(zhat[t])
    return log_p, us, acc


def _enumerate_sequences(steps, k):
    for flat in itertools.product((0.0, 1.0), repeat=steps * k):
        yield np.array(flat).reshape(steps, k)


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
        got = regularizer(np.array([[1.0]]), np.array([[0.0]]), 0.0, prior)
        assert got == pytest.approx(math.log(0.5) - math.log(0.3), rel=1e-13)

    def test_zero_when_law_equals_reference(self):
        # sigma(u) = 0.3 and eps = 0 make every sequence's log-ratio vanish
        prior = PriorModel(0.3)
        u = math.log(0.3 / 0.7)
        for zhat in _enumerate_sequences(3, 1):
            got = regularizer(zhat, np.full((3, 1), u), 0.0, prior)
            assert got == pytest.approx(0.0, abs=1e-13)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            regularizer(np.zeros((2, 1)), np.zeros((2, 2)), 0.0, PriorModel())

    @pytest.mark.parametrize("eps", [0.0, 0.1, 0.3])
    def test_expectation_is_nonnegative(self, eps):
        # enumerate the law: sum_z p(z) * regularizer(z) is a KL divergence
        params = _tiny_encoder(k=1, n_in=2, seed=3)
        rng = SeededRng(11)
        inputs = rng.bernoulli(np.full((3, 2), 0.5)).astype(np.float64)
        prior = PriorModel(0.3)
        total_p = 0.0
        kl = 0.0
        for zhat in _enumerate_sequences(3, 1):
            log_p, us, _ = _replay(params, inputs, zhat, eps)
            p = math.exp(log_p)
            total_p += p
            kl += p * regularizer(zhat, us, eps, prior)
        # the autoregressive law must normalize, and the KL must be >= 0
        assert total_p == pytest.approx(1.0, abs=1e-12)
        assert kl >= -1e-12


class TestObjectiveAndUpdates:
    def test_vdib_loss_combination(self):
        assert vdib_loss(2.0, 3.0, 0.5) == 3.5

    def test_encoder_gradient_scales_score(self):
        acc = ScoreAccumulator.zeros(2, 3)
        acc.add_step(np.array([1.0, -2.0]), np.array([1.0, 0.0, 1.0]), np.array([0.5, 0.5]))
        grads = encoder_gradient(-0.5, acc)
        np.testing.assert_allclose(grads.ff_weights, -0.5 * acc.ff_weights)
        np.testing.assert_allclose(grads.fb_weights, -0.5 * acc.fb_weights)
        np.testing.assert_allclose(grads.bias, -0.5 * acc.bias)

    def test_sgd_plain_step(self):
        params = _tiny_encoder()
        grads = EncoderGrads(
            ff_weights=np.ones_like(params.ff_weights),
            fb_weights=np.ones_like(params.fb_weights),
            bias=np.ones_like(params.bias),
        )
        updated = sgd_update(params, grads, eta=0.1)
        np.testing.assert_allclose(updated.ff_weights, params.ff_weights - 0.1)
        np.testing.assert_allclose(updated.bias, params.bias - 0.1)
        # kernels ride along untouched
        assert updated.kernel_ff is params.kernel_ff

    def test_sgd_momentum_accumulates(self):
        params = _tiny_encoder()
        ones = EncoderGrads(
            ff_weights=np.ones_like(params.ff_weights),
            fb_weights=np.ones_like(params.fb_weights),
            bias=np.ones_like(params.bias),
        )
        p1, vel = sgd_update(params, ones, eta=0.1, velocity=None, momentum=0.5)
        p2, vel = sgd_update(p1, ones, eta=0.1, velocity=vel, momentum=0.5)
        # second step uses velocity 1.5: total displacement 0.1 * (1 + 1.5)
        np.testing.assert_allclose(p2.bias, params.bias - 0.25)

    def test_sgd_rejects_non_finite(self):
        params = _tiny_encoder()
        bad = EncoderGrads(
            ff_weights=np.full_like(params.ff_weights, np.nan),
            fb_weights=np.zeros_like(params.fb_weights),
            bias=np.zeros_like(params.bias),
        )
        with pytest.raises(TrainingDiverged):
            sgd_update(params, bad, eta=0.1)

    def test_spike_rate(self):
        assert spike_rate(np.array([[[1, 0], [0, 0]]])) == 0.25
        with pytest.raises(ValueError):
            spike_rate(np.zeros((0, 2, 2)))

    def test_train_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(beta=0.0)
        with pytest.raises(ValueError):
            TrainConfig(momentum=1.0)
        with pytest.raises(ValueError):
            TrainConfig(prior_rate=1.0)


class TestSequencePaths:
    def test_noisy_run_replay_identity(self):
        # the rollout's own log_prob, potentials and score must equal an
        # after-the-fact replay of the bits it produced
        params = _tiny_encoder(k=2, n_in=3, seed=5)
        rng = SeededRng(21)
        inputs = rng.bernoulli(np.full((5, 3), 0.6)).astype(np.float64)
        run = run_noisy_sequence(params, inputs, 0.2, rng)
        log_p, us, acc = _replay(params, inputs, run.zhat.astype(np.float64), 0.2)
        assert run.log_prob == pytest.approx(log_p, rel=1e-13)
        np.testing.assert_allclose(run.potentials, us, rtol=1e-13)
        np.testing.assert_allclose(run.score.ff_weights, acc.ff_weights, rtol=1e-12)
        np.testing.assert_allclose(run.score.fb_weights, acc.fb_weights, rtol=1e-12)
        np.testing.assert_allclose(run.score.bias, acc.bias, rtol=1e-12)

    def test_sequence_log_prob_equals_run_log_prob(self):
        params = _tiny_encoder(k=1, n_in=2, seed=8)
        rng = SeededRng(30)
        inputs = rng.bernoulli(np.full((4, 2), 0.5)).astype(np.float64)
        run = run_noisy_sequence(params, inputs, 0.1, rng)
        replay = sequence_log_prob(params, inputs, run.zhat, 0.1)
        assert run.log_prob == pytest.approx(replay, rel=1e-13)

    def test_clean_run_shapes_and_determinism(self):
        params = _tiny_encoder(k=2, n_in=3, seed=5)
        inputs = SeededRng(1).bernoulli(np.full((4, 3), 0.5)).astype(np.float64)
        z1, u1 = run_clean_sequence(params, inputs, SeededRng(77))
        z2, u2 = run_clean_sequence(params, inputs, SeededRng(77))
        assert z1.shape == (4, 2) and u1.shape == (4, 2)
        np.testing.assert_array_equal(z1, z2)
        np.testing.assert_array_equal(u1, u2)

    def test_batched_traces_match_state_traces(self):
        # the vectorized filters must agree with the ring-buffer reference
        params = _tiny_encoder(k=2, n_in=3, seed=9)
        rng = SeededRng(41)
        inputs = rng.bernoulli(np.full((1, 6, 3), 0.5)).astype(np.float64)
        outputs = rng.bernoulli(np.full((1, 6, 2), 0.5)).astype(np.float64)
        ff = _filtered_inputs(inputs, params.kernel_ff)
        state = EncoderState.for_params(params)
        for t in range(6):
            state.push_input(inputs[0, t])
            np.testing.assert_allclose(
                ff[0, t], state.input_trace(params.kernel_ff), rtol=1e-14
            )
            np.testing.assert_allclose(
                _feedback_trace(outputs, t, params.kernel_fb)[0],
                state.output_trace(params.kernel_fb),
                rtol=1e-14,
            )
            state.push_output(outputs[0, t])


class TestUnbiasedness:
    """Enumeration oracle: the score estimator's mean is the true gradient."""

    def _setup(self, seed=0):
        params = _tiny_encoder(k=1, n_in=2, seed=seed)
        decoder = init_decoder_params(3, 2, SeededRng(seed + 50), hidden_dim=3)
        rng = SeededRng(seed + 90)
        inputs = rng.bernoulli(np.full((3, 2), 0.5)).astype(np.float64)
        return params, decoder, inputs

    def _sample_loss(self, decoder, zhat, us, eps, beta, label=1):
        _, cache = forward(decoder, zhat.reshape(-1))
        task = loss_from_logits(cache.logits, label)
        return task + beta * regularizer(zhat, us, eps, PriorModel(0.3))

    def _exact_expectation(self, params, decoder, inputs, eps, beta):
        total = 0.0
        for zhat in _enumerate_sequences(3, 1):
            log_p, us, _ = _replay(params, inputs, zhat, eps)
            total += math.exp(log_p) * self._sample_loss(decoder, zhat, us, eps, beta)
        return total

    @pytest.mark.parametrize("eps", [0.0, 0.2])
    def test_enumerated_estimator_matches_finite_difference(self, eps):
        beta = 0.05
        params, decoder, inputs = self._setup()
        expected = EncoderGrads.zeros(1, 2)
        for zhat in _enumerate_sequences(3, 1):
            log_p, us, acc = _replay(params, inputs, zhat, eps)
            f = self._sample_loss(decoder, zhat, us, eps, beta)
            g = encoder_gradient(math.exp(log_p) * f, acc)
            expected.ff_weights += g.ff_weights
            expected.fb_weights += g.fb_weights
            expected.bias += g.bias

        h = 1e-5
        for field in ("ff_weights", "fb_weights", "bias"):
            base = getattr(params, field)
            for index in np.ndindex(base.shape):
                vals = []
                for sign in (1.0, -1.0):
                    arrays = {
                        "ff_weights": params.ff_weights.copy(),
                        "fb_weights": params.fb_weights.copy(),
                        "bias": params.bias.copy(),
                    }
                    arrays[field][index] += sign * h
                    p = EncoderParams(
                        kernel_ff=params.kernel_ff,
                        kernel_fb=params.kernel_fb,
                        **arrays,
                    )
                    vals.append(self._exact_expectation(p, decoder, inputs, eps, beta))
                fd = (vals[0] - vals[1]) / (2 * h)
                assert getattr(expected, field)[index] == pytest.approx(fd, abs=1e-6)

    def test_enumerated_score_has_zero_mean(self):
        # E[grad log p] = 0: the identity that lets a baseline shift f freely
        params, _, inputs = self._setup(seed=2)
        eps = 0.15
        for field_sum in [EncoderGrads.zeros(1, 2)]:
            for zhat in _enumerate_sequences(3, 1):
                log_p, _, acc = _replay(params, inputs, zhat, eps)
                g = encoder_gradient(math.exp(log_p), acc)
                field_sum.ff_weights += g.ff_weights
                field_sum.fb_weights += g.fb_weights
                field_sum.bias += g.bias
            np.testing.assert_allclose(field_sum.ff_weights, 0.0, atol=1e-12)
            np.testing.assert_allclose(field_sum.fb_weights, 0.0, atol=1e-12)
            np.testing.assert_allclose(field_sum.bias, 0.0, atol=1e-12)

    def test_monte_carlo_mean_approaches_enumeration(self):
        eps, beta = 0.1, 0.05
        params, decoder, inputs = self._setup(seed=1)
        exact = EncoderGrads.zeros(1, 2)
        second = EncoderGrads.zeros(1, 2)
        for zhat in _enumerate_sequences(3, 1):
            log_p, us, acc = _replay(params, inputs, zhat, eps)
            f = self._sample_loss(decoder, zhat, us, eps, beta)
            p = math.exp(log_p)
            g = encoder_gradient(f, acc)
            for field in ("ff_weights", "fb_weights", "bias"):
                getattr(exact, field)[...] += p * getattr(g, field)
                getattr(second, field)[...] += p * getattr(g, field) ** 2

        draws = 20_000
        rng = SeededRng(777)
        mean = EncoderGrads.zeros(1, 2)
        for _ in range(draws):
            run = run_noisy_sequence(params, inputs, eps, rng)
            f = self._sample_loss(
                decoder, run.zhat.astype(np.float64), run.potentials, eps, beta
            )
            g = encoder_gradient(f, run.score)
            for field in ("ff_weights", "fb_weights", "bias"):
                getattr(mean, field)[...] += getattr(g, field) / draws

        for field in ("ff_weights", "fb_weights", "bias"):
            var = getattr(second, field) - getattr(exact, field) ** 2
            se = np.sqrt(np.maximum(var, 0.0) / draws)
            diff = np.abs(getattr(mean, field) - getattr(exact, field))
            assert (diff <= 4.0 * se + 1e-12).all()


def _toy_dataset(seed=0, n_train=24, n_test=16, steps=6, lines=8):
    # two linearly separable spike-rate patterns
    rng = SeededRng(seed)
    half = lines // 2
    def draw(n):
        inputs = np.zeros((n, steps, lines))
        labels = np.zeros(n, dtype=np.int64)
        for i in range(n):
            label = i % 2
            labels[i] = label
            probs = np.full(lines, 0.1)
            if label == 0:
                probs[:half] = 0.8
            else:
                probs[half:] = 0.8
            inputs[i] = rng.bernoulli(np.tile(probs, (steps, 1)))
        return inputs, labels
    xtr, ytr = draw(n_train)
    xte, yte = draw(n_test)
    return Dataset(xtr, ytr, xte, yte, n_classes=2)


def _toy_models(data, seed=0, k=4, hidden=8):
    root = SeededRng(seed)
    enc = init_encoder_params(data.input_dim, k, root.substream("e"))
    dec = init_decoder_params(k * data.steps, data.n_classes, root.substream("d"), hidden_dim=hidden)
    return enc, dec


class TestEpochLoop:
    def test_deterministic_replay(self):
        data = _toy_dataset()
        cfg = TrainConfig(epochs=2, batch_size=8, channel=ChannelConfig(epsilon=0.1))
        results = []
        for _ in range(2):
            enc, dec = _toy_models(data)
            metrics = None
            for epoch in range(2):
                enc, dec, metrics = train_epoch(
                    enc, dec, data, cfg, SeededRng(0).substream("train", epoch)
                )
            results.append((enc, dec, metrics))
        (e1, d1, m1), (e2, d2, m2) = results
        np.testing.assert_array_equal(e1.ff_weights, e2.ff_weights)
        np.testing.assert_array_equal(d1.w1, d2.w1)
        assert m1 == m2

    def test_learns_separable_task(self):
        data = _toy_dataset(n_train=48)
        enc, dec = _toy_models(data)
        cfg = TrainConfig(epochs=8, batch_size=8, eta=0.2, channel=ChannelConfig(epsilon=0.05))
        err = None
        for epoch in range(8):
            enc, dec, m = train_epoch(enc, dec, data, cfg, SeededRng(0).substream("t", epoch))
            err = m.test_error
        assert err <= 0.25

    def test_rejects_untrainable_epsilon(self):
        data = _toy_dataset()
        enc, dec = _toy_models(data)
        cfg = TrainConfig(channel=ChannelConfig(epsilon=0.5))
        with pytest.raises(ValueError, match="0.5"):
            train_epoch(enc, dec, data, cfg, SeededRng(0))

    def test_momentum_and_baseline_state_threading(self):
        data = _toy_dataset()
        enc, dec = _toy_models(data)
        cfg = TrainConfig(
            epochs=2, batch_size=8, momentum=0.9, baseline=True,
            channel=ChannelConfig(epsilon=0.1),
        )
        state: dict = {}
        enc, dec, _ = train_epoch(enc, dec, data, cfg, SeededRng(0).substream("t", 0), state)
        assert "baseline" in state and "enc_vel" in state and "dec_vel" in state

    def test_dataset_validation(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((2, 3, 4)), np.zeros(3), np.zeros((1, 3, 4)), np.zeros(1), 2)


class TestEvaluate:
    def test_repeat_evaluation_identical(self):
        data = _toy_dataset()
        enc, dec = _toy_models(data)
        a = evaluate(enc, dec, data.test_inputs, data.test_labels, 0.1, seed=0)
        b = evaluate(enc, dec, data.test_inputs, data.test_labels, 0.1, seed=0)
        assert a == b

    def test_epsilon_zero_matches_vanishing_epsilon(self):
        # the flip draws are shared across channel points, so a vanishing
        # crossover must reproduce the clean result exactly
        data = _toy_dataset()
        enc, dec = _toy_models(data)
        a = evaluate(enc, dec, data.test_inputs, data.test_labels, 0.0, seed=3)
        b = evaluate(enc, dec, data.test_inputs, data.test_labels, 1e-300, seed=3)
        assert a == b

    def test_spike_rate_is_channel_independent(self):
        data = _toy_dataset()
        enc, dec = _toy_models(data)
        _, r1 = evaluate(enc, dec, data.test_inputs, data.test_labels, 0.0, seed=0)
        _, r2 = evaluate(enc, dec, data.test_inputs, data.test_labels, 0.4, seed=0)
        assert r1 == r2


GRID = (0.0, 0.05, 0.2, 0.5)


class TestEvaluateGrid:
    def test_matches_per_point_evaluate(self):
        data = _toy_dataset(n_test=40)
        enc, dec = _toy_models(data)
        grid = evaluate_grid(enc, dec, data.test_inputs, data.test_labels, GRID, seed=4)
        per_point = [
            evaluate(enc, dec, data.test_inputs, data.test_labels, eps, seed=4)
            for eps in GRID
        ]
        assert grid == per_point

    def test_matches_per_sample_reference(self):
        # the documented contract, one sample at a time: spike uniforms
        # drawn step by step by the reference rollout, then flip uniforms
        data = _toy_dataset(n_test=24)
        enc, dec = _toy_models(data)
        k, steps = enc.n_out, data.steps
        wrong = np.zeros(len(GRID), dtype=int)
        spikes = 0
        for i, (x, y) in enumerate(zip(data.test_inputs, data.test_labels)):
            stream = SeededRng(9).substream("eval", i)
            z, _ = run_clean_sequence(enc, x, stream)
            flip_u = stream.uniform((steps, k))
            spikes += int(z.sum())
            for j, eps in enumerate(GRID):
                probs, _ = forward(dec, z ^ (flip_u < eps))
                wrong[j] += int(np.argmax(probs) != y)
        n = len(data.test_labels)
        expected = [(w / n, spikes / (n * steps * k)) for w in wrong]
        got = evaluate_grid(enc, dec, data.test_inputs, data.test_labels, GRID, seed=9)
        assert got == expected

    @pytest.mark.parametrize("chunk", [1, 3, None])
    def test_chunk_size_does_not_change_results(self, monkeypatch, chunk):
        data = _toy_dataset(n_test=40)
        enc, dec = _toy_models(data)
        expected = evaluate_grid(enc, dec, data.test_inputs, data.test_labels, GRID, seed=2)
        monkeypatch.setattr(training, "EVAL_CHUNK", chunk or len(data.test_inputs))
        got = evaluate_grid(enc, dec, data.test_inputs, data.test_labels, GRID, seed=2)
        assert got == expected

    def test_spike_rate_same_at_every_point(self):
        data = _toy_dataset(n_test=40)
        enc, dec = _toy_models(data)
        results = evaluate_grid(enc, dec, data.test_inputs, data.test_labels, GRID, seed=0)
        assert len({rate for _, rate in results}) == 1

    def test_rejects_empty_test_set(self):
        data = _toy_dataset()
        enc, dec = _toy_models(data)
        with pytest.raises(ValueError, match="empty"):
            evaluate_grid(enc, dec, data.test_inputs[:0], data.test_labels[:0], GRID, seed=0)

    def test_memory_bounded_by_chunk(self):
        n, steps, lines, k = 2048, 20, 64, 16
        rng = SeededRng(1)
        inputs = (rng.uniform((n, steps, lines)) < 0.2).astype(np.float64)
        labels = np.arange(n) % 4
        root = SeededRng(0)
        enc = init_encoder_params(lines, k, root.substream("e"))
        dec = init_decoder_params(k * steps, 4, root.substream("d"), hidden_dim=32)
        chunk_traces = training.EVAL_CHUNK * steps * lines * 8
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            evaluate_grid(enc, dec, inputs, labels, GRID, seed=0)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # the whole set's traces alone would be 16 chunks' worth
        assert peak < 6 * chunk_traces, f"peak {peak} bytes"
