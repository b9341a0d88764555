"""Encoder: the drives, the rollout's traces and potentials, and the
score-function gradient against finite differences."""

import contextlib
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
import oracles
from oracles import (
    ENCODER_FIELDS,
    bernoulli,
    fd_grads,
    finite_diff_grad,
    kernel,
    log_likelihood,
    replay,
    training_rollout,
)

from spikelink import training
from spikelink.channel import log_prob_noisy, spike_thresholds
from spikelink.config import RunConfig
from spikelink.encoder import (
    EncoderParams,
    code_traces,
    drive_from_counts,
    drive_from_traces,
    filter_inputs,
    grad_u_log_prob_noisy,
    history_codes,
    init_encoder_params,
    rollout,
    score_grads,
)
from spikelink.decoder import init_decoder_params
from spikelink.numerics import SeededRng, exponential_kernel, sigmoid


def _tiny_params(k=2, n_in=3, seed=0, kernel_ff=None, kernel_fb=None):
    rng = SeededRng(seed)
    return EncoderParams(
        ff_weights=rng.uniform_range(-0.8, 0.8, (k, n_in)),
        fb_weights=rng.uniform_range(-1.2, -0.3, k),
        bias=rng.uniform_range(-0.5, 0.5, k),
        kernel_ff=kernel_ff or kernel(1.0, 0.5, 0.25),
        kernel_fb=kernel_fb or kernel(1.0, 0.5),
    )


def _unit_params(kernel_ff=None, kernel_fb=None):
    """One neuron on one input line, unit weights."""
    return EncoderParams(
        ff_weights=np.array([[1.0]]),
        fb_weights=np.array([1.0]),
        bias=np.array([0.0]),
        kernel_ff=kernel_ff or kernel(1.0),
        kernel_fb=kernel_fb or kernel(1.0),
    )


class TestParams:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            EncoderParams(
                ff_weights=np.zeros(3),
                fb_weights=np.zeros(3),
                bias=np.zeros(3),
                kernel_ff=kernel(1.0),
                kernel_fb=kernel(1.0),
            )
        with pytest.raises(ValueError):
            EncoderParams(
                ff_weights=np.zeros((2, 3)),
                fb_weights=np.zeros(3),
                bias=np.zeros(2),
                kernel_ff=kernel(1.0),
                kernel_fb=kernel(1.0),
            )

    def test_init_ranges(self):
        params = init_encoder_params(9, 5, SeededRng(1))
        assert params.ff_weights.shape == (5, 9)
        assert np.abs(params.ff_weights).max() <= 1.0 / 3.0
        np.testing.assert_array_equal(params.fb_weights, -1.0)
        # bias at logit of the default initial rate 0.1
        np.testing.assert_allclose(params.bias, -2.1972245773362193828, rtol=1e-15)

    def test_init_rate_sets_bias(self):
        params = init_encoder_params(4, 2, SeededRng(1), init_rate=0.3)
        np.testing.assert_allclose(sigmoid(params.bias), 0.3, rtol=1e-12)

    def test_init_validation(self):
        with pytest.raises(ValueError):
            init_encoder_params(0, 2, SeededRng(0))
        with pytest.raises(ValueError):
            init_encoder_params(3, 2, SeededRng(0), init_rate=1.0)


class TestStateTraces:
    def test_shape_checks(self):
        params = _tiny_params(k=2, n_in=3)
        silent = np.full((4, 1, 2), np.inf)

        # a drive has one column per neuron; traces and counts one per line
        with pytest.raises(ValueError, match="shape"):
            rollout(params, np.zeros((4, 2)), silent)
        with pytest.raises(ValueError, match="shape"):
            rollout(params, np.zeros((1, 4, 3)), silent)
        for drive in (drive_from_traces, drive_from_counts):
            with pytest.raises(ValueError, match="shape"):
                drive(params, np.zeros((1, 4, 2)))
            with pytest.raises(ValueError, match="shape"):
                drive(params, np.zeros((4, 3)))
        # thresholds are step-major, one per step, sequence and neuron
        for thresholds in (np.zeros((1, 4, 2)), np.zeros((4, 1, 3)), np.zeros((4, 2))):
            with pytest.raises(ValueError, match="thresholds must have shape"):
                rollout(params, np.zeros((1, 4, 2)), thresholds)

    def test_input_trace_includes_current_step(self):
        # kernel (1, 0.5, 0.25), inputs 1, 0, 1, 1:
        # trace at t = x_t + 0.5 * x_{t-1} + 0.25 * x_{t-2}
        params = _unit_params(kernel_ff=kernel(1.0, 0.5, 0.25))
        inputs = np.array([1.0, 0.0, 1.0, 1.0]).reshape(1, 4, 1)
        run, traces = replay(params, inputs, np.zeros((1, 4, 1)))
        np.testing.assert_allclose(traces[0, :, 0], [1.0, 0.5, 1.25, 1.5])
        # unit weight, silent feedback, zero bias: the potential is the trace,
        # from the line-space drive and from the neuron-space one
        np.testing.assert_allclose(run.potentials[0, :, 0], [1.0, 0.5, 1.25, 1.5])
        np.testing.assert_allclose(drive_from_counts(params, inputs)[0, :, 0],
                                   [1.0, 0.5, 1.25, 1.5])

    def test_output_trace_strictly_past(self):
        # kernel (1, 0.5, 0.25, 0.125), bits 1, 0, 1, 0: the current bit
        # never contributes; at t=3 the trace is 0.5 * 1 + 0.25 * 0 + 0.125 * 1
        params = _unit_params(kernel_fb=kernel(1.0, 0.5, 0.25, 0.125))
        bits = np.array([1, 0, 1, 0]).reshape(1, 4, 1)
        run, _ = replay(params, np.zeros((1, 4, 1)), bits)
        np.testing.assert_allclose(run.fb_traces[0, :, 0], [0.0, 0.5, 0.25, 0.625])

    @pytest.mark.parametrize("taps", [(1.0, 0.6, 0.3, 0.1), (1.0, -0.7, 0.4, -1e-3, -0.2)])
    def test_feedback_trace_equals_zeros_then_add(self, taps):
        # the oracle: fresh zeros, then each tap times the uint8 bits,
        # d = 1 first; the rollout's table of partial sums must match every
        # bit, so a negative tap on a zero bit leaves +0.0, not -0.0.
        # Windows 13, 14 and 25 fill the table and run past it, with
        # negative taps and random feedback weights, at 1 and 16 rows.
        rng = np.random.default_rng(len(taps))
        cases = [(taps, 5, 9, None)] + [
            ((1.0, *rng.normal(0.0, 0.5, window - 1)), n, 30, rng.normal(0.0, 1.0, 3))
            for window in (13, 14, 25) for n in (1, 16)
        ]
        for case_taps, n, steps, fb_weights in cases:
            params = _tiny_params(k=3, n_in=2, kernel_fb=kernel(*case_taps))
            if fb_weights is not None:
                params = replace(params, fb_weights=fb_weights)
            bits = (rng.random((n, steps, 3)) < 0.4).astype(np.uint8)
            bits[0, : steps // 2] = 0
            run, traces = replay(params, rng.poisson(1.0, (n, steps, 2)), bits)
            expected = np.zeros_like(run.fb_traces)
            for t in range(steps):
                trace = np.zeros((n, 3))
                for d in range(1, min(len(case_taps), t + 1)):
                    trace += case_taps[d] * bits[:, t - d, :]
                expected[:, t, :] = trace
            assert np.array_equal(run.fb_traces.view(np.uint64), expected.view(np.uint64))
            u = drive_from_traces(params, traces) + params.fb_weights * expected + params.bias
            assert np.array_equal(run.potentials.view(np.uint64), u.view(np.uint64))
            # score_grads contracts these in their (n, steps, k) C order
            for arr in (run.potentials, run.spike_probs, run.fb_traces):
                assert arr.shape == (n, steps, 3) and arr.flags.c_contiguous

    @pytest.mark.parametrize("bit", [2, 255, 256, -256, 0.5, 1.5])
    def test_replayed_bit_other_than_zero_or_one_is_refused(self, bit):
        # replay feeds bits back through -inf and +inf thresholds, which
        # would read any value other than 1 as a 0: it must refuse it
        # instead; 256, -256, 0.5 and 1.5 come in the smallest dtype that
        # holds them, which a cast to uint8 would wrap to 0 or 1
        params = _tiny_params(k=2, n_in=3, kernel_fb=kernel(1.0, 0.5, 0.25))
        bits = np.zeros((2, 4, 2), dtype=np.min_scalar_type(bit))
        bits[1, 2, 0] = bit
        with pytest.raises(ValueError, match="0 or 1"):
            oracles.replay(params, np.ones((2, 4, 3)), bits)

    def test_history_before_time_zero_reads_zero(self):
        params = _unit_params(kernel_ff=kernel(1.0, 1.0, 1.0, 1.0))
        run, traces = replay(params, np.ones((1, 1, 1)), np.zeros((1, 1, 1)))
        np.testing.assert_allclose(traces[0, 0], [1.0])
        np.testing.assert_allclose(run.potentials[0, 0], [1.0])
        np.testing.assert_allclose(drive_from_counts(params, np.ones((1, 1, 1)))[0, 0], [1.0])


class TestDrives:
    """Evaluation's neuron-space drive, a∗(W·x), against training's
    line-space drive, W·(a∗x): the same products, summed in another order."""

    STEPS, K, N = 20, 16, 9

    @pytest.mark.parametrize("window", [1, 10, 25])
    @pytest.mark.parametrize("lines", [512, 2048])
    def test_counts_drive_equals_trace_drive_within_rounding(self, lines, window):
        # Each drive sums lines * taps products weight * tap * count, with
        # non-negative taps and counts, as two nested sums (over lines and
        # over taps) of rounded products.  Each is within gamma_m =
        # m*u / (1 - m*u) of the exact sum times the sum of the products'
        # magnitudes, with u = 2**-53 and m = lines + taps + 2 roundings
        # along any one product's path, so the two drives differ by at most
        # twice that.  A window longer than T reads only T taps.
        m = lines + min(window, self.STEPS) + 2
        u = np.finfo(np.float64).eps / 2
        gamma = m * u / (1.0 - m * u)
        for seed in range(3):
            rng = SeededRng(seed)
            params = init_encoder_params(lines, self.K, rng.substream("init"),
                                         kernel_ff=exponential_kernel(5.0, window))
            rates = rng.substream("rates").uniform_range(0.0, 0.6, lines)
            shape = (self.N, self.STEPS, lines)
            counts = rng.substream("counts").poisson(np.broadcast_to(rates, shape))
            counts = counts.astype(np.uint8)
            traces = filter_inputs(counts, params.kernel_ff)
            line_space = drive_from_traces(params, traces)
            neuron_space = drive_from_counts(params, counts)
            assert neuron_space.shape == line_space.shape == (self.N, self.STEPS, self.K)
            magnitude = traces @ np.abs(params.ff_weights).T
            assert (np.abs(neuron_space - line_space) <= 2 * gamma * magnitude).all()

    @pytest.mark.parametrize("n", [4, 16])
    def test_drives_project_one_step_at_a_time(self, n):
        # training's bits rest on one matmul per step: at small batches a
        # single matmul over all n * steps rows rounds differently
        lines = 512
        rng = SeededRng(n)
        params = init_encoder_params(lines, self.K, rng.substream("init"))
        counts = bernoulli(rng.substream("counts"), np.full((n, self.STEPS, lines), 0.2))
        traces = filter_inputs(counts, params.kernel_ff)
        w = params.ff_weights.T
        by_step = np.stack([traces[:, t, :] @ w for t in range(self.STEPS)], axis=1)
        assert np.array_equal(drive_from_traces(params, traces).view(np.uint64),
                              by_step.view(np.uint64))
        x = counts.astype(np.float64)
        projected = np.stack([x[:, t, :] @ w for t in range(self.STEPS)], axis=1)
        expected = filter_inputs(projected, params.kernel_ff)
        assert np.array_equal(drive_from_counts(params, counts).view(np.uint64),
                              expected.view(np.uint64))

    def test_acceptance_criteria_roll_out_on_the_training_drive(self, monkeypatch):
        # criteria 2-4's oracles must check the drive train_epoch makes: the
        # gate composes no rollout of its own, and every rollout the harness
        # runs for it reads a drive_from_traces result, the very function
        # train_epoch calls
        import test_acceptance

        assert oracles.drive_from_traces is training.drive_from_traces
        for name in ("filter_inputs", "drive_from_traces", "rollout"):
            assert not hasattr(test_acceptance, name)
        made, rolled = [], []

        def drive(params, traces):
            out = drive_from_traces(params, traces)
            made.append(out)
            return out

        def checked_rollout(params, drive_arg, thresholds):
            rolled.append(any(drive_arg is out for out in made))
            return rollout(params, drive_arg, thresholds)

        monkeypatch.setattr(oracles, "drive_from_traces", drive)
        monkeypatch.setattr(oracles, "rollout", checked_rollout)
        quiet = SimpleNamespace(disabled=contextlib.nullcontext)
        for criterion in (test_acceptance.test_criterion_02_gradient_closed_forms,
                          test_acceptance.test_criterion_03_score_function_unbiasedness,
                          test_acceptance.test_criterion_04_sequence_log_likelihood_gradient):
            criterion(quiet)
        assert rolled and all(rolled)

        monkeypatch.setattr(training, "drive_from_traces", drive)
        made.clear()
        counts = bernoulli(SeededRng(1), np.full((10, 4, 3), 0.5)).astype(np.uint8)
        data = training.Dataset(counts[:6], np.arange(6) % 2, counts[6:], np.arange(4) % 2, 2)
        params = _tiny_params()
        data = training.filter_dataset(data)
        decoder = init_decoder_params(8, 2, SeededRng(2), hidden_dim=3)
        training.train_epoch(training.TrainState(params, decoder), data,
                             RunConfig(batch_size=4, epsilon=0.1), SeededRng(3), {})
        assert len(made) == 2


class TestHistoryCodes:
    """Training's input traces, looked up batch by batch from the train
    split's history codes, against filter_inputs of the counts."""

    STEPS, LINES, N = 30, 5, 150

    @pytest.mark.parametrize("taps", ["exponential", "negative", "mixed"])
    @pytest.mark.parametrize("window", [1, 2, 10, 16, 17, 25])
    def test_traces_equal_filter_inputs(self, window, taps):
        # byte for byte, signed zeros included: windows inside, at and past
        # the 16-step history; random, all-zero and all-one counts; batches
        # of 1, 16 and 128 rows in shuffled order, the last one ragged
        rng = np.random.default_rng(window)
        coeff = {"exponential": exponential_kernel(5.0, window).coefficients,
                 "negative": -rng.uniform(0.1, 1.0, window),
                 "mixed": rng.normal(0.0, 1.0, window)}[taps]
        ff_kernel = kernel(*coeff)
        shape = (self.N, self.STEPS, self.LINES)
        for counts in (rng.random(shape) < 0.4, np.zeros(shape), np.ones(shape)):
            counts = counts.astype(np.uint8)
            expected = filter_inputs(counts, ff_kernel)
            codes = history_codes(counts)
            for batch_size in (1, 16, 128):
                traces_of = code_traces(codes, ff_kernel, batch_size)
                order = rng.permutation(self.N)
                for start in range(0, self.N, batch_size):
                    rows = order[start : start + batch_size]
                    traces = traces_of(rows)
                    assert np.array_equal(traces.view(np.uint64), expected[rows].view(np.uint64))

    def test_bit_d_is_the_count_d_steps_back(self):
        # for the last 16 steps, reading 0 before step 0, from 0/1 counts
        # of any real dtype
        counts = bernoulli(SeededRng(3), np.full((4, 20, 3), 0.5))
        codes = history_codes(counts)
        assert codes.dtype == np.uint16
        for t in range(20):
            for d in range(16):
                back = counts[:, t - d] if t >= d else 0
                assert np.array_equal((codes[:, t] >> d) & 1, np.broadcast_to(back, (4, 3)))
        for dtype in (bool, np.int64, np.float32, np.float64):
            assert np.array_equal(history_codes(counts.astype(dtype)), codes)

    @pytest.mark.parametrize("value", [2, 255, -1, 256, 0.5, np.nan])
    def test_counts_other_than_zero_or_one_are_refused(self, value):
        # a code holds one bit per step: any other count would be read as
        # another history
        counts = np.zeros((2, 4, 3), dtype=np.min_scalar_type(value))
        counts[1, 2, 0] = value
        with pytest.raises(ValueError, match="0 or 1"):
            history_codes(counts)


class TestMembranePotential:
    def test_hand_computed(self):
        params = EncoderParams(
            ff_weights=np.array([[0.5, -0.25]]),
            fb_weights=np.array([-1.0]),
            bias=np.array([0.1]),
            kernel_ff=kernel(1.0, 0.5),
            kernel_fb=kernel(1.0, 0.5),
        )
        run, _ = replay(params, np.array([[[1.0, 1.0], [0.0, 1.0]]]), np.array([[[1], [0]]]))
        # step 1: ff trace (0.5, 1.5); fb trace 0.5 * 1
        np.testing.assert_allclose(
            run.potentials[0, :, 0],
            [0.5 - 0.25 + 0.1, 0.5 * 0.5 - 0.25 * 1.5 - 1.0 * 0.5 + 0.1],
        )

    def test_bit_rule_sees_each_step_once(self):
        # step t's bits are its potentials against thresholds[t] of a
        # step-major array, and those are the bits fed back and kept
        params = _tiny_params()
        inputs = bernoulli(SeededRng(4), np.full((3, 5, params.n_in), 0.5))
        thresholds = SeededRng(5).uniform_range(-2.0, 2.0, (5, 3, params.n_out))
        run, _ = training_rollout(params, inputs, thresholds)
        for t in range(5):
            np.testing.assert_array_equal(run.bits[:, t], run.potentials[:, t] > thresholds[t])
        assert 0 < np.count_nonzero(run.bits) < run.bits.size
        # the spike probabilities are the sigmoid of the potentials, bit for bit
        np.testing.assert_array_equal(run.spike_probs, sigmoid(run.potentials))


class TestGradULogProb:
    def test_zero_epsilon_closed_form(self):
        u = np.array([-2.0, 0.0, 3.0])
        zhat = np.array([1.0, 0.0, 1.0])
        np.testing.assert_allclose(
            grad_u_log_prob_noisy(zhat, sigmoid(u), 0.0), zhat - sigmoid(u), rtol=1e-15
        )

    @pytest.mark.parametrize("eps", [0.0, 0.1, 0.25, 0.4])
    @pytest.mark.parametrize("zhat", [0.0, 1.0])
    def test_matches_finite_difference(self, eps, zhat):
        # analytic d/du log p against central differences at 1e-7 absolute
        for u0 in (-3.0, -1.0, 0.0, 0.5, 2.0):
            grad = grad_u_log_prob_noisy(np.array([zhat]), sigmoid(np.array([u0])), eps)
            fd = finite_diff_grad(
                lambda v: log_prob_noisy(np.array([zhat]), v, eps), np.array([u0])
            )
            assert abs(grad[0] - fd[0]) < 1e-7

    def test_saturated_potentials_finite(self):
        u = np.array([60.0, -60.0])
        zhat = np.array([0.0, 1.0])
        for eps in (0.0, 0.2, 0.4):
            assert np.isfinite(grad_u_log_prob_noisy(zhat, sigmoid(u), eps)).all()

    def test_rejects_half_and_negative(self):
        with pytest.raises(ValueError):
            grad_u_log_prob_noisy(np.array([1.0]), np.array([0.5]), 0.5)
        with pytest.raises(ValueError):
            grad_u_log_prob_noisy(np.array([1.0]), np.array([0.5]), -0.1)


class TestPotentialGrads:
    def test_gradients_are_the_traces(self):
        # with the bits fixed, u is linear in each neuron's own weights, and
        # its slope along each weight is the trace that multiplies it
        params = _tiny_params()
        rng = SeededRng(3)
        inputs = bernoulli(rng, np.full((2, 4, params.n_in), 0.5))
        bits = bernoulli(rng, np.full((2, 4, params.n_out), 0.5))
        run, traces = replay(params, inputs, bits)
        slopes = {"ff_weights": traces, "fb_weights": run.fb_traces,
                  "bias": np.ones_like(run.fb_traces)}
        h = 1e-3
        for field in ENCODER_FIELDS:
            for index in np.ndindex(getattr(params, field).shape):
                u = []
                for sign in (1.0, -1.0):
                    value = getattr(params, field).copy()
                    value[index] += sign * h
                    u.append(replay(replace(params, **{field: value}), inputs, bits)[0].potentials)
                expected = np.zeros_like(u[0])
                column = index[1] if field == "ff_weights" else index[0]
                expected[:, :, index[0]] = slopes[field][:, :, column]
                np.testing.assert_allclose((u[0] - u[1]) / (2 * h), expected, atol=1e-9)

    def test_potential_matches_trace_inner_product(self):
        # u must be exactly the parameter-gradient inner product plus bias,
        # confirming the traces in the score are the ones in the forward pass
        params = _tiny_params()
        inputs = bernoulli(SeededRng(9), np.full((2, 3, params.n_in), 0.7))
        run, traces = training_rollout(params, inputs, np.zeros((3, 2, params.n_out)))
        manual = (traces @ params.ff_weights.T
                  + params.fb_weights * run.fb_traces + params.bias)
        np.testing.assert_allclose(run.potentials, manual, rtol=1e-14)


def _log_likelihood(params, inputs, bits, eps, weights):
    """sum_b weights[b] * log p(bits[b]), by replaying the bits."""
    return float(weights @ log_likelihood(replay(params, inputs, bits)[0], eps))


class TestScoreGrads:
    @pytest.mark.parametrize("eps", [0.0, 0.1, 0.3])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_score_matches_sequence_fd(self, eps, seed):
        # k=2, n_in=3, T=4, three weighted sequences: the score against
        # numerically differenced sequence log-likelihoods at 1e-5 relative
        params = _tiny_params(seed=seed)
        rng = SeededRng(100 + seed)
        inputs = bernoulli(rng, np.full((3, 4, params.n_in), 0.6))
        bits = bernoulli(rng, np.full((3, 4, params.n_out), 0.5))
        weights = np.array([1.0, -0.5, 2.0])
        grads = params.split(score_grads(*replay(params, inputs, bits), eps, weights))
        fd = fd_grads(params, lambda p: _log_likelihood(p, inputs, bits, eps, weights))
        for field in ENCODER_FIELDS:
            scale = max(np.abs(fd[field]).max(), 1.0)
            np.testing.assert_allclose(grads[field], fd[field], rtol=0, atol=1e-5 * scale)

    @pytest.mark.parametrize("shape", [(16, 20, 16, 512), (7, 5, 3, 9), (1, 1, 1, 1)])
    def test_ff_contraction_equals_three_operand_einsum(self, shape):
        # the weights folded into the score must give the three-operand sum
        # bit for bit; a NumPy whose einsum loop order differs fails here
        # instead of silently moving every trained model
        n, steps, k, lines = shape
        rng = SeededRng(n * steps + k)
        params = init_encoder_params(lines, k, rng.substream("init"))
        inputs = bernoulli(rng.substream("x"), np.full((n, steps, lines), 0.2))
        thresholds = spike_thresholds(rng.substream("bits").uniform((steps, n, k)), 0.0)
        run, traces = training_rollout(params, inputs, thresholds)
        weights = rng.substream("w").uniform_range(-1.0, 1.0, n)
        score_u = grad_u_log_prob_noisy(run.bits, run.spike_probs, 0.1)
        expected = np.einsum("b,btk,btn->kn", weights, score_u, traces)
        grads = params.split(score_grads(run, traces, 0.1, weights))
        assert np.array_equal(grads["ff_weights"], expected)

    def test_single_neuron_single_input(self):
        # smallest case with feedback active, eps = 0
        params = EncoderParams(
            ff_weights=np.array([[0.7]]),
            fb_weights=np.array([-0.9]),
            bias=np.array([0.2]),
            kernel_ff=kernel(1.0, 0.5),
            kernel_fb=kernel(1.0, 1.0),
        )
        inputs = np.array([[[1.0], [0.0], [1.0]]])
        bits = np.array([[[1], [1], [0]]])
        grads = params.split(score_grads(*replay(params, inputs, bits), 0.0, np.ones(1)))
        fd = fd_grads(params, lambda p: _log_likelihood(p, inputs, bits, 0.0, np.ones(1)))
        for field in ENCODER_FIELDS:
            np.testing.assert_allclose(grads[field], fd[field], atol=1e-6)
