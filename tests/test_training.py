"""Objective, estimators, and the epoch loop.

The heavy statistical checks live in the acceptance suite; unit-scale
versions of the same oracles run here so a regression is caught close to
its source: enumeration for unbiasedness and the KL sign, replay identity
for the training rollout, and a per-sample reference for evaluation.
"""

import math
import tracemalloc

import numpy as np
import pytest
from oracles import (
    ENCODER_FIELDS,
    all_sequences,
    allocation_error,
    evaluate_line_space,
    expected_objective,
    fd_grads,
    kernel,
    log_likelihood,
    replay,
    sample_losses,
    training_rollout,
)

from spikelink import training
from spikelink.channel import noisy_spike_prob, sample_noisy
from spikelink.config import ConfigError, RunConfig
from spikelink.decoder import init_decoder_params
from spikelink.encoder import (
    EncoderGrads,
    EncoderParams,
    filter_inputs,
    init_encoder_params,
    score_grads,
)
from spikelink.numerics import SeededRng, sigmoid
from spikelink.training import (
    Dataset,
    PriorModel,
    TrainingDiverged,
    evaluate,
    evaluate_grid,
    filter_dataset,
    regularizer,
    sgd_update,
    train_epoch,
    vdib_loss,
)

def _tiny_encoder(k=1, n_in=2, seed=0):
    rng = SeededRng(seed)
    return EncoderParams(
        ff_weights=rng.uniform_range(-0.9, 0.9, (k, n_in)),
        fb_weights=rng.uniform_range(-1.0, -0.2, k),
        bias=rng.uniform_range(-0.4, 0.4, k),
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
        inputs = SeededRng(11).bernoulli(np.full((3, 2), 0.5)).astype(np.float64)
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
        grads = EncoderGrads(
            ff_weights=np.ones_like(params.ff_weights),
            fb_weights=np.ones_like(params.fb_weights),
            bias=np.ones_like(params.bias),
        )
        updated, velocity = sgd_update(params, grads, eta=0.1)
        assert velocity == {}
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

    def test_train_config_validation(self):
        with pytest.raises(ConfigError, match="beta"):
            RunConfig(beta=0.0).validate()
        with pytest.raises(ConfigError, match="momentum"):
            RunConfig(momentum=1.0).validate()
        with pytest.raises(ConfigError, match="prior_rate"):
            RunConfig(prior_rate=1.0).validate()
        for bad in ({"eta": 0.0}, {"epochs": -1}, {"batch_size": 0}, {"grad_clip": -1.0}):
            with pytest.raises(ConfigError, match=next(iter(bad))):
                RunConfig(**bad).validate()


class TestSequencePaths:
    def test_noisy_run_replay_identity(self):
        # a training rollout must equal an after-the-fact replay of the bits
        # it drew: same potentials and traces, hence same rate term and score
        params = _tiny_encoder(k=2, n_in=3, seed=5)
        rng = SeededRng(21)
        inputs = rng.bernoulli(np.full((4, 5, 3), 0.6))
        run, _ = training_rollout(params, inputs, lambda t, s: sample_noisy(s, 0.2, rng))
        again, _ = replay(params, inputs, run.bits)
        for name in ("bits", "potentials", "spike_probs", "fb_traces"):
            np.testing.assert_array_equal(getattr(again, name), getattr(run, name))

    def test_training_draws_follow_one_uniform_block(self):
        # step t compares the t-th (n, k) block of one uniform stream with
        # the marginal spike probability
        params = _tiny_encoder(k=2, n_in=3, seed=6)
        inputs = SeededRng(22).bernoulli(np.full((4, 5, 3), 0.6))
        draw = SeededRng(23)
        run, _ = training_rollout(params, inputs, lambda t, s: sample_noisy(s, 0.2, draw))
        uniforms = SeededRng(23).uniform((5, 4, 2)).transpose(1, 0, 2)
        q = noisy_spike_prob(sigmoid(run.potentials), 0.2)
        np.testing.assert_array_equal(run.bits, uniforms < q)


    def test_clean_run_shapes_and_determinism(self):
        # evaluation's rule: spike where the step's pre-drawn uniform is
        # below sigmoid(u); evaluate counts exactly these spikes
        params = _tiny_encoder(k=2, n_in=3, seed=5)
        counts = SeededRng(1).bernoulli(np.full((1, 4, 3), 0.5))
        spike_u = SeededRng(77).substream("eval", 0).uniform((4, 2))[None]

        def clean(t, s):
            return spike_u[:, t, :] < s

        first, _ = training_rollout(params, counts, clean)
        second, _ = training_rollout(params, counts, clean)
        assert first.bits.shape == (1, 4, 2) and first.potentials.shape == (1, 4, 2)
        np.testing.assert_array_equal(first.bits, second.bits)
        np.testing.assert_array_equal(first.potentials, second.potentials)
        decoder = init_decoder_params(8, 2, SeededRng(2), hidden_dim=3)
        _, rate = evaluate(params, decoder, counts, np.array([0]), 0.1, 77)
        assert rate == np.count_nonzero(first.bits) / 8


class TestUnbiasedness:
    """Enumeration oracle: the score estimator's mean is the true gradient."""

    LABEL, PRIOR = 1, PriorModel(0.3)

    def _setup(self, seed=0):
        params = _tiny_encoder(k=1, n_in=2, seed=seed)
        decoder = init_decoder_params(3, 2, SeededRng(seed + 50), hidden_dim=3)
        rng = SeededRng(seed + 90)
        inputs = rng.bernoulli(np.full((3, 2), 0.5)).astype(np.float64)
        return params, decoder, inputs

    @pytest.mark.parametrize("eps", [0.0, 0.2])
    def test_enumerated_estimator_matches_finite_difference(self, eps):
        beta = 0.05
        params, decoder, inputs = self._setup()
        run, traces = replay(params, inputs, all_sequences(3, 1))
        f = sample_losses(decoder, run, eps, beta, self.LABEL, self.PRIOR)
        expected = score_grads(run, traces, eps, np.exp(log_likelihood(run, eps)) * f)
        fd = fd_grads(params, lambda moved: expected_objective(
            moved, decoder, inputs, eps, beta, self.LABEL, self.PRIOR), 1e-5)
        for field in ENCODER_FIELDS:
            np.testing.assert_allclose(getattr(expected, field), fd[field], rtol=0, atol=1e-6)

    def test_enumerated_score_has_zero_mean(self):
        # E[grad log p] = 0: the identity that lets a baseline shift f freely
        params, _, inputs = self._setup(seed=2)
        eps = 0.15
        run, traces = replay(params, inputs, all_sequences(3, 1))
        mean = score_grads(run, traces, eps, np.exp(log_likelihood(run, eps)))
        for field in ENCODER_FIELDS:
            np.testing.assert_allclose(getattr(mean, field), 0.0, atol=1e-12)

    def test_monte_carlo_mean_approaches_enumeration(self):
        eps, beta = 0.1, 0.05
        params, decoder, inputs = self._setup(seed=1)
        run, traces = replay(params, inputs, all_sequences(3, 1))
        p = np.exp(log_likelihood(run, eps))
        f = sample_losses(decoder, run, eps, beta, self.LABEL, self.PRIOR)
        per_sequence = [score_grads(run, traces, eps, f * (np.arange(len(f)) == i))
                        for i in range(len(f))]

        # the training rollout on 20k copies of the input, one batch
        draws = 20_000
        rng = SeededRng(777)
        mc, mc_traces = training_rollout(params, np.repeat(inputs[None], draws, axis=0),
                                         lambda t, s: sample_noisy(s, eps, rng))
        f_mc = sample_losses(decoder, mc, eps, beta, self.LABEL, self.PRIOR)
        mean = score_grads(mc, mc_traces, eps, f_mc / draws)

        for field in ENCODER_FIELDS:
            g = np.array([getattr(grads, field) for grads in per_sequence])
            exact = np.tensordot(p, g, axes=1)
            var = np.tensordot(p, g**2, axes=1) - exact**2
            se = np.sqrt(np.maximum(var, 0.0) / draws)
            diff = np.abs(getattr(mean, field) - exact)
            assert (diff <= 4.0 * se + 1e-12).all()


def _toy_counts(seed=0, n_train=24, n_test=16, steps=6, lines=8):
    # two linearly separable spike-rate patterns, as unfiltered uint8 counts
    rng = SeededRng(seed)
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
            inputs[i] = rng.bernoulli(np.tile(probs, (steps, 1)))
        return inputs, labels
    xtr, ytr = draw(n_train)
    xte, yte = draw(n_test)
    return Dataset(xtr, ytr, xte, yte, n_classes=2)


def _toy_models(data, seed=0, k=4, hidden=8):
    root = SeededRng(seed)
    enc = init_encoder_params(data.input_dim, k, root.substream("e"))
    dec = init_decoder_params(k * data.train_inputs.shape[1], data.n_classes, root.substream("d"), hidden_dim=hidden)
    return enc, dec


def _toy_dataset(**kwargs):
    """The toy counts filtered with the toy encoder's kernel."""
    data = _toy_counts(**kwargs)
    return filter_dataset(data, _toy_models(data)[0].kernel_ff)


class TestEpochLoop:
    def test_deterministic_replay(self):
        data = _toy_dataset()
        cfg = RunConfig(epochs=2, batch_size=8, epsilon=0.1)
        results = []
        for _ in range(2):
            enc, dec = _toy_models(data)
            metrics = None
            state: dict = {}
            for epoch in range(2):
                enc, dec, metrics = train_epoch(
                    enc, dec, data, cfg, SeededRng(0).substream("train", epoch), state
                )
            results.append((enc, dec, metrics))
        (e1, d1, m1), (e2, d2, m2) = results
        np.testing.assert_array_equal(e1.ff_weights, e2.ff_weights)
        np.testing.assert_array_equal(d1.w1, d2.w1)
        assert m1 == m2

    def test_learns_separable_task(self):
        data = _toy_dataset(n_train=48)
        enc, dec = _toy_models(data)
        cfg = RunConfig(epochs=8, batch_size=8, eta=0.2, epsilon=0.05)
        err = None
        state: dict = {}
        for epoch in range(8):
            rng = SeededRng(0).substream("t", epoch)
            enc, dec, m = train_epoch(enc, dec, data, cfg, rng, state)
            err = m.test_error
        assert err <= 0.25

    def test_rejects_untrainable_epsilon(self):
        data = _toy_dataset()
        enc, dec = _toy_models(data)
        cfg = RunConfig(epsilon=0.5)
        with pytest.raises(ValueError, match="0.5"):
            train_epoch(enc, dec, data, cfg, SeededRng(0), {})

    def test_momentum_and_baseline_state_threading(self):
        data = _toy_dataset()
        enc, dec = _toy_models(data)
        cfg = RunConfig(epochs=2, batch_size=8, momentum=0.9, baseline=True, epsilon=0.1)
        state: dict = {}
        enc, dec, _ = train_epoch(enc, dec, data, cfg, SeededRng(0).substream("t", 0), state)
        assert "baseline" in state and "enc_vel" in state and "dec_vel" in state

    def test_dataset_validation(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((2, 3, 4)), np.zeros(3), np.zeros((1, 3, 4)), np.zeros(1), 2)

    def test_refuses_dataset_filtered_with_another_kernel(self):
        data = _toy_counts()
        enc, dec = _toy_models(data)
        cfg = RunConfig(epsilon=0.1)
        with pytest.raises(ValueError, match="kernel_ff"):
            train_epoch(enc, dec, data, cfg, SeededRng(0), {})
        filter_dataset(data, kernel(1.0, 0.5))
        with pytest.raises(ValueError, match="kernel_ff"):
            train_epoch(enc, dec, data, cfg, SeededRng(0), {})


class TestFilterDataset:
    def test_filters_both_splits_once(self):
        # the train split's uint8 counts are replaced by their float64
        # traces, once; the test split keeps its counts, which evaluation
        # reads
        data = _toy_counts()
        ff_kernel = kernel(1.0, 0.5)
        test_counts = data.test_inputs
        assert data.train_inputs.dtype == np.uint8 and test_counts.dtype == np.uint8
        expected = filter_inputs(data.train_inputs, ff_kernel)
        assert filter_dataset(data, ff_kernel) is data
        traces = data.train_inputs
        # a second call with an equal kernel is a no-op
        filter_dataset(data, kernel(1.0, 0.5))
        assert data.kernel == ff_kernel
        assert data.train_inputs is traces and traces.dtype == np.float64
        assert np.array_equal(traces.view(np.uint64), expected.view(np.uint64))
        assert data.test_inputs is test_counts

    def test_refuses_refiltering_with_another_kernel(self):
        data = filter_dataset(_toy_counts(), kernel(1.0, 0.5))
        before = data.train_inputs.copy()
        with pytest.raises(ValueError, match="different kernel"):
            filter_dataset(data, kernel(1.0, 0.25))
        np.testing.assert_array_equal(data.train_inputs, before)


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
        # the documented contract, one sample and one step at a time in
        # line space (the oracle filters the counts into traces), against
        # the neuron-space evaluation of the same uint8 counts
        data = _toy_counts(n_test=24)
        enc, dec = _toy_models(data)
        counts, labels = data.test_inputs, data.test_labels
        got = evaluate_grid(enc, dec, counts, labels, GRID, seed=9)
        assert got == evaluate_line_space(enc, dec, counts, labels, GRID, seed=9)

    @pytest.mark.parametrize("chunk", [1, 3, None])
    def test_chunk_size_does_not_change_results(self, monkeypatch, chunk):
        data = _toy_dataset(n_test=40)
        enc, dec = _toy_models(data)
        expected = evaluate_grid(enc, dec, data.test_inputs, data.test_labels, GRID, seed=2)
        monkeypatch.setattr(training, "EVAL_CHUNK", chunk or len(data.test_inputs))
        got = evaluate_grid(enc, dec, data.test_inputs, data.test_labels, GRID, seed=2)
        assert got == expected

    @pytest.mark.parametrize("chunk", [1, 7, None])
    def test_chunks_match_line_space_oracle(self, monkeypatch, chunk):
        # each chunk's drive is made from its counts in neuron space; the
        # tallies equal the line-space oracle's at any chunk size
        data = _toy_counts(n_test=40)
        enc, dec = _toy_models(data)
        counts, labels = data.test_inputs, data.test_labels
        monkeypatch.setattr(training, "EVAL_CHUNK", chunk or len(counts))
        got = evaluate_grid(enc, dec, counts, labels, GRID, seed=2)
        assert got == evaluate_line_space(enc, dec, counts, labels, GRID, seed=2)
        assert len({error for error, _ in got}) > 1

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

    @pytest.mark.parametrize("failing", ["_eval_uniforms", "drive_from_counts", "rollout"])
    def test_chunk_allocation_failure_names_the_chunk(self, monkeypatch, failing):
        # a chunk's draws, drive and rollout are all (records, steps, k)
        # float64 arrays; NumPy's error for any of them leaves as it is,
        # shape and dtype intact, and the CLI turns it into exit 2
        data = _toy_counts(n_test=10)
        enc, dec = _toy_models(data)

        def refused(*args, **kwargs):
            raise allocation_error((10, 6, 4))

        monkeypatch.setattr(training, failing, refused)
        with pytest.raises(MemoryError) as exc:
            evaluate_grid(enc, dec, data.test_inputs, data.test_labels, GRID, seed=0)
        assert exc.value.shape == (10, 6, 4) and exc.value.dtype == np.float64

    def test_training_run_draws_each_sample_once(self, monkeypatch):
        # three epochs sharing one state evaluate three times, but create
        # each test sample's "eval" substream in the first epoch only
        data = _toy_dataset(n_test=10)
        enc, dec = _toy_models(data)
        cfg = RunConfig(batch_size=8, epsilon=0.1)
        made = []
        substream = SeededRng.substream

        def counting(self, *parts):
            if parts[:1] == ("eval",):
                made.append(parts[1])
            return substream(self, *parts)

        monkeypatch.setattr(SeededRng, "substream", counting)
        monkeypatch.setattr(training, "EVAL_CHUNK", 4)
        state: dict = {}
        for epoch in range(3):
            enc, dec, _ = train_epoch(enc, dec, data, cfg, SeededRng(0).substream("t", epoch), state)
            if epoch == 0:
                assert sorted(made) == list(range(10))
        assert sorted(made) == list(range(10))

    def test_reused_draws_equal_fresh_evaluation(self):
        data = _toy_dataset(n_test=40)
        enc, dec = _toy_models(data)
        other_enc, other_dec = _toy_models(data, seed=3)
        draws: dict = {}
        args = (data.test_inputs, data.test_labels, GRID)
        for e, d in ((enc, dec), (other_enc, other_dec), (enc, dec)):
            fresh = evaluate_grid(e, d, *args, seed=6)
            assert evaluate_grid(e, d, *args, seed=6, draws=draws) == fresh
        # draws for another seed are drawn afresh, not read from the dict
        assert evaluate_grid(enc, dec, *args, seed=7, draws=draws) == evaluate_grid(
            enc, dec, *args, seed=7
        )

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
        # a temporary the size of the whole set's traces would be 16 chunks' worth
        assert peak < 6 * chunk_traces, f"peak {peak} bytes"

    def test_epoch_memory_beyond_its_draws_bounded_by_chunk(self):
        # an epoch keeps the test set's uniforms in its state and nothing
        # else of the test set's size: past them, its evaluation stays
        # chunk-bounded like a one-shot call
        n, steps, lines, k = 2048, 20, 64, 16
        rng = SeededRng(1)
        counts = (rng.uniform((n + 8, steps, lines)) < 0.2).astype(np.float64)
        labels = np.arange(n + 8) % 4
        root = SeededRng(0)
        enc = init_encoder_params(lines, k, root.substream("e"))
        dec = init_decoder_params(k * steps, 4, root.substream("d"), hidden_dim=32)
        data = filter_dataset(
            Dataset(counts[:8], labels[:8], counts[8:], labels[8:], n_classes=4), enc.kernel_ff
        )
        cfg = RunConfig(batch_size=8, epsilon=0.1)
        chunk_traces = training.EVAL_CHUNK * steps * lines * 8
        state: dict = {}
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            train_epoch(enc, dec, data, cfg, SeededRng(0), state)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        kept = sum(u.nbytes for pair in state["eval_draws"].values() for u in pair)
        assert kept == 2 * n * steps * k * 8
        assert peak - kept < 6 * chunk_traces, f"peak {peak} bytes, {kept} kept"
