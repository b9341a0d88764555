"""Encoder: the drive, the rollout's traces and potentials, and the
score-function gradient against finite differences and the line-space
contraction."""

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

from spikelink import encoder, training
from spikelink.channel import log_prob_noisy, spike_thresholds
from spikelink.config import RunConfig
from spikelink.encoder import (
    ActiveCounts,
    EncoderParams,
    drive_from_counts,
    filter_inputs,
    grad_u_log_prob_noisy,
    init_encoder_params,
    rollout,
    score_grads,
)
from spikelink.decoder import init_decoder_params
from spikelink.numerics import SeededRng, exponential_kernel, sigmoid


def _tiny_params(k=2, n_in=3, seed=0, kernel_ff=None, kernel_fb=None):
    rng = SeededRng(seed).generator
    return EncoderParams(
        ff_weights=rng.uniform(-0.8, 0.8, (k, n_in)),
        fb_weights=rng.uniform(-1.2, -0.3, k),
        bias=rng.uniform(-0.5, 0.5, k),
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
        params = init_encoder_params(9, 5, SeededRng(1).generator)
        assert params.ff_weights.shape == (5, 9)
        assert np.abs(params.ff_weights).max() <= 1.0 / 3.0
        np.testing.assert_array_equal(params.fb_weights, -1.0)
        # bias at logit of the default initial rate 0.1
        np.testing.assert_allclose(params.bias, -2.1972245773362193828, rtol=1e-15)

    def test_init_rate_sets_bias(self):
        params = init_encoder_params(4, 2, SeededRng(1).generator, init_rate=0.3)
        np.testing.assert_allclose(sigmoid(params.bias), 0.3, rtol=1e-12)

    def test_init_validation(self):
        with pytest.raises(ValueError):
            init_encoder_params(0, 2, SeededRng(0).generator)
        with pytest.raises(ValueError):
            init_encoder_params(3, 2, SeededRng(0).generator, init_rate=1.0)


class TestActiveCounts:
    """The index of a split's nonzero counts: what it holds, and its records
    read back as an array's would be."""

    @pytest.mark.parametrize("dtype", [np.uint8, np.bool_, np.float64, np.int64])
    def test_holds_the_counts(self, dtype):
        rng = np.random.default_rng(0)
        counts = (rng.random((7, 5, 11)) < 0.3).astype(dtype)
        counts[2] = 0  # a record with no active count
        index = ActiveCounts.of(counts)
        assert index.shape == counts.shape and len(index) == 7
        assert index.lines.dtype == np.int32 and index.values is None
        assert index.offsets.size == 7 * 5 + 1
        assert np.array_equal(oracles.dense_counts(index), counts)
        assert ActiveCounts.of(index) is index

    def test_keeps_values_only_when_some_count_is_not_one(self):
        counts = np.zeros((2, 3, 4), dtype=np.uint8)
        counts[0, 1, 2] = 1
        counts[1, 2, 3] = 3
        index = ActiveCounts.of(counts)
        np.testing.assert_array_equal(index.values, [1.0, 3.0])
        np.testing.assert_array_equal(index.lines, [2, 3])
        np.testing.assert_array_equal(index.offsets, [0, 0, 1, 1, 1, 1, 2])
        assert np.array_equal(oracles.dense_counts(index), counts)
        # a value past 1 in a later scan block keeps the ones before it
        wide = np.ones((2, 1, encoder.INDEX_BLOCK), dtype=np.uint8)
        wide[1, 0, 5] = 2
        index = ActiveCounts.of(wide)
        assert index.values.sum() == wide.sum()
        assert np.array_equal(oracles.dense_counts(index), wide)
        assert ActiveCounts.of(counts * 0.5).values is not None

    def test_reads_records_as_an_array_does(self):
        rng = np.random.default_rng(1)
        counts = rng.poisson(0.4, (9, 4, 6))
        counts[[0, 8]] = 0
        index = ActiveCounts.of(counts)
        for records in ([3], [8, 0, 3, 3], np.arange(9)[::-1], [], [-1, -9, 2]):
            assert np.array_equal(oracles.dense_counts(index[records]), counts[records])
        for records in ([9], [0, -10]):
            with pytest.raises(IndexError, match="out of range for 9 records"):
                index[records]
        for start, stop in ((0, 9), (2, 5), (8, 20), (5, 2), (-3, None)):
            part = index[start:stop]
            assert np.array_equal(oracles.dense_counts(part), counts[start:stop])
            assert len(part) == len(counts[start:stop])
        with pytest.raises(ValueError, match="step 1"):
            index[::2]

    def test_refuses_a_width_int32_cannot_number(self):
        # refused by its shape alone: nothing is sized by the width
        lines, offsets = np.zeros(0, dtype=np.int32), np.zeros(2, dtype=np.intp)
        with pytest.raises(ValueError, match="^2147483648 input lines exceed the 2147483647 "):
            ActiveCounts((1, 1, 2**31), lines, offsets)
        assert ActiveCounts((1, 1, 2**31 - 1), lines, offsets).shape == (1, 1, 2**31 - 1)

    def test_refuses_what_is_not_counts(self):
        for counts in (np.zeros((4, 3)), np.zeros((1, 2, 3), dtype=complex), [["a"]]):
            with pytest.raises(ValueError, match="shape \\(records, steps, lines\\)"):
                ActiveCounts.of(counts)


class TestStateTraces:
    def test_shape_checks(self):
        params = _tiny_params(k=2, n_in=3)
        silent = np.full((4, 1, 2), np.inf)

        # a drive has one column per neuron; counts one per line
        with pytest.raises(ValueError, match="shape"):
            rollout(params, np.zeros((4, 2)), silent)
        with pytest.raises(ValueError, match="shape"):
            rollout(params, np.zeros((1, 4, 3)), silent)
        with pytest.raises(ValueError, match="shape"):
            drive_from_counts(params, np.zeros((1, 4, 2)))
        with pytest.raises(ValueError, match="shape"):
            drive_from_counts(params, np.zeros((4, 3)))
        # the score's counts have the run's records and steps
        run, _ = training_rollout(params, np.ones((2, 4, 3)), np.zeros((4, 2, 2)))
        with pytest.raises(ValueError, match="do not match a run of shape"):
            score_grads(run, np.ones((2, 5, 3)), params.kernel_ff, 0.1, np.ones(2))
        # thresholds are step-major, one per step, sequence and neuron
        for thresholds in (np.zeros((1, 4, 2)), np.zeros((4, 1, 3)), np.zeros((4, 2))):
            with pytest.raises(ValueError, match="thresholds must have shape"):
                rollout(params, np.zeros((1, 4, 2)), thresholds)

    def test_input_trace_includes_current_step(self):
        # kernel (1, 0.5, 0.25), inputs 1, 0, 1, 1:
        # trace at t = x_t + 0.5 * x_{t-1} + 0.25 * x_{t-2}
        params = _unit_params(kernel_ff=kernel(1.0, 0.5, 0.25))
        inputs = np.array([1.0, 0.0, 1.0, 1.0]).reshape(1, 4, 1)
        run, _ = replay(params, inputs, np.zeros((1, 4, 1)))
        traces = filter_inputs(inputs, params.kernel_ff)
        np.testing.assert_allclose(traces[0, :, 0], [1.0, 0.5, 1.25, 1.5])
        # unit weight, silent feedback, zero bias: the potential is the trace,
        # which the neuron-space drive makes
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
            run, counts = replay(params, rng.poisson(1.0, (n, steps, 2)), bits)
            expected = np.zeros_like(run.fb_traces)
            for t in range(steps):
                trace = np.zeros((n, 3))
                for d in range(1, min(len(case_taps), t + 1)):
                    trace += case_taps[d] * bits[:, t - d, :]
                expected[:, t, :] = trace
            assert np.array_equal(run.fb_traces.view(np.uint64), expected.view(np.uint64))
            u = drive_from_counts(params, counts) + params.fb_weights * expected + params.bias
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
        run, _ = replay(params, np.ones((1, 1, 1)), np.zeros((1, 1, 1)))
        np.testing.assert_allclose(filter_inputs(np.ones((1, 1, 1)), params.kernel_ff)[0, 0], [1.0])
        np.testing.assert_allclose(run.potentials[0, 0], [1.0])
        np.testing.assert_allclose(drive_from_counts(params, np.ones((1, 1, 1)))[0, 0], [1.0])


class TestDrives:
    """The neuron-space drive training and evaluation make, a∗(W·x),
    against the line-space drive, W·(a∗x): the same products, summed in
    another order."""

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
            params = init_encoder_params(lines, self.K, rng.substream("init").generator,
                                         kernel_ff=exponential_kernel(5.0, window))
            rates = rng.substream("rates").generator.uniform(0.0, 0.6, lines)
            shape = (self.N, self.STEPS, lines)
            counts = rng.substream("counts").generator.poisson(np.broadcast_to(rates, shape))
            counts = counts.astype(np.uint8)
            traces = filter_inputs(counts, params.kernel_ff)
            line_space = traces @ params.ff_weights.T
            neuron_space = drive_from_counts(params, counts)
            assert neuron_space.shape == line_space.shape == (self.N, self.STEPS, self.K)
            magnitude = traces @ np.abs(params.ff_weights).T
            assert (np.abs(neuron_space - line_space) <= 2 * gamma * magnitude).all()

    @pytest.mark.parametrize("n", [4, 16])
    def test_drives_project_one_step_at_a_time(self, n):
        # training's bits rest on this float order: each record-step row is
        # projected alone, its active lines' weight columns in line order
        # summed by one reduceat (+0.0 for a row with none), and the n * k
        # projected columns are filtered time-major in one product
        lines = 512
        rng = SeededRng(n)
        params = init_encoder_params(lines, self.K, rng.substream("init").generator)
        counts = bernoulli(rng.substream("counts").generator, np.full((n, self.STEPS, lines), 0.2))
        counts[0, 3] = 0
        projected = np.zeros((self.STEPS, n, self.K))
        for b in range(n):
            for t in range(self.STEPS):
                active = np.flatnonzero(counts[b, t])
                if active.size:
                    columns = params.ff_weights[:, active]
                    projected[t, b] = np.add.reduceat(columns, [0], axis=1)[:, 0]
        expected = filter_inputs(projected.reshape(1, self.STEPS, n * self.K), params.kernel_ff)
        expected = expected.reshape(self.STEPS, n, self.K).transpose(1, 0, 2)
        assert np.array_equal(drive_from_counts(params, counts).view(np.uint64),
                              expected.view(np.uint64))

    @pytest.mark.parametrize("gather_block", [1 << 16, 40])
    def test_record_drive_does_not_depend_on_its_batch(self, monkeypatch, gather_block):
        # a record's drive is bitwise the same projected alone, in any
        # training batch gathered from the split's index, and at any
        # offset of an evaluation chunk sliced from it, however the rows
        # are split into gather blocks (40 weights: a few entries a block)
        monkeypatch.setattr(encoder, "GATHER_BLOCK", gather_block)
        n, lines = 300, 512
        rng = SeededRng(5)
        params = init_encoder_params(lines, self.K, rng.substream("init").generator)
        counts = bernoulli(rng.substream("counts").generator, np.full((n, self.STEPS, lines), 0.05))
        index = ActiveCounts.of(counts)
        alone = np.stack([drive_from_counts(params, index[[b]])[0] for b in range(n)])
        order = rng.substream("order").generator.permutation(n)
        for start in range(0, n, 16):
            batch = order[start : start + 16]
            assert np.array_equal(drive_from_counts(params, index[batch]).view(np.uint64),
                                  alone[batch].view(np.uint64))
        for start in (0, 1, 37, 172, n - 1):
            chunk = drive_from_counts(params, index[start : start + training.EVAL_CHUNK])
            assert np.array_equal(chunk.view(np.uint64),
                                  alone[start : start + training.EVAL_CHUNK].view(np.uint64))

    @pytest.mark.parametrize("rate", [0.05, 0.6])
    def test_drive_and_gradient_match_the_per_record_oracle(self, rate):
        # Poisson counts (values past 1 are kept with their entries) and
        # 0/1 counts against the line-space products made one record at a
        # time from dense counts: the drive within the rounding bound above
        # (m = lines + taps + 2), the feedforward row within 1e-12 of the
        # sum of its products' magnitudes
        lines, n, window = 256, 6, 10
        m = lines + window + 2
        u = np.finfo(np.float64).eps / 2
        gamma = m * u / (1.0 - m * u)
        rng = SeededRng(int(rate * 100))
        params = init_encoder_params(lines, self.K, rng.substream("init").generator,
                                     kernel_ff=exponential_kernel(5.0, window))
        draw = rng.substream("counts").generator
        for counts in (draw.poisson(rate, (n, self.STEPS, lines)).astype(np.uint8),
                       bernoulli(draw, np.full((n, self.STEPS, lines), rate))):
            index = ActiveCounts.of(counts)
            assert (index.values is None) == bool(counts.max() <= 1)
            dense = counts.astype(np.float64)
            traces = filter_inputs(dense, params.kernel_ff)
            drive = drive_from_counts(params, index)
            assert (np.abs(drive - oracles.drive_line_space(params, index))
                    <= 2 * gamma * (traces @ np.abs(params.ff_weights).T)).all()
            thresholds = spike_thresholds(draw.random((self.STEPS, n, self.K)), 0.1)
            run = rollout(params, drive, thresholds)
            weights = draw.uniform(-1.0, 1.0, n)
            got = params.split(score_grads(run, index, params.kernel_ff, 0.1, weights))
            expected = oracles.ff_score_line_space(run, index, params.kernel_ff, 0.1, weights)
            score_u = grad_u_log_prob_noisy(run.bits, run.spike_probs, 0.1)
            magnitude = np.einsum("btk,btn->kn", np.abs(weights[:, None, None] * score_u), traces)
            assert (np.abs(got["ff_weights"] - expected) <= 1e-12 * magnitude).all()

    def test_acceptance_criteria_roll_out_on_the_training_drive(self, monkeypatch):
        # criteria 2-4 and 6's oracles must check the drive train_epoch
        # makes: the gate composes no rollout of its own, and every rollout
        # the harness runs for it reads a drive_from_counts result, the very
        # function train_epoch and evaluate call, made from an ActiveCounts,
        # the index the Dataset holds, which score_grads then reads as
        # training's
        import test_acceptance

        assert oracles.drive_from_counts is training.drive_from_counts
        for name in ("filter_inputs", "drive_from_counts", "rollout"):
            assert not hasattr(test_acceptance, name)
        made, rolled, types = [], [], set()

        def drive(params, counts):
            out = drive_from_counts(params, counts)
            made.append(out)
            types.add(type(counts))
            return out

        def checked_rollout(params, drive_arg, thresholds):
            rolled.append(any(drive_arg is out for out in made))
            return rollout(params, drive_arg, thresholds)

        monkeypatch.setattr(oracles, "drive_from_counts", drive)
        monkeypatch.setattr(oracles, "rollout", checked_rollout)
        quiet = SimpleNamespace(disabled=contextlib.nullcontext)
        for criterion in (test_acceptance.test_criterion_02_gradient_closed_forms,
                          test_acceptance.test_criterion_03_score_function_unbiasedness,
                          test_acceptance.test_criterion_04_sequence_log_likelihood_gradient,
                          test_acceptance.test_criterion_06_kl_nonnegativity):
            criterion(quiet)
        assert rolled and all(rolled)
        assert types == {ActiveCounts}

        monkeypatch.setattr(training, "drive_from_counts", drive)
        made.clear()
        counts = bernoulli(SeededRng(1).generator, np.full((10, 4, 3), 0.5)).astype(np.uint8)
        data = training.Dataset(counts[:6], np.arange(6) % 2, counts[6:], np.arange(4) % 2, 2)
        params = _tiny_params()
        decoder = init_decoder_params(8, 2, SeededRng(2).generator, hidden_dim=3)
        training.train_epoch(training.TrainState(params, decoder), data,
                             RunConfig(batch_size=4, epsilon=0.1))
        # two training batches, then one evaluation chunk
        assert [len(out) for out in made] == [4, 2, 4]


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
        inputs = bernoulli(SeededRng(4).generator, np.full((3, 5, params.n_in), 0.5))
        thresholds = SeededRng(5).generator.uniform(-2.0, 2.0, (5, 3, params.n_out))
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
        rng = SeededRng(3).generator
        inputs = bernoulli(rng, np.full((2, 4, params.n_in), 0.5))
        bits = bernoulli(rng, np.full((2, 4, params.n_out), 0.5))
        run, _ = replay(params, inputs, bits)
        slopes = {"ff_weights": filter_inputs(inputs, params.kernel_ff),
                  "fb_weights": run.fb_traces,
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
        inputs = bernoulli(SeededRng(9).generator, np.full((2, 3, params.n_in), 0.7))
        run, _ = training_rollout(params, inputs, np.zeros((3, 2, params.n_out)))
        manual = (filter_inputs(inputs, params.kernel_ff) @ params.ff_weights.T
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
        rng = SeededRng(100 + seed).generator
        inputs = bernoulli(rng, np.full((3, 4, params.n_in), 0.6))
        bits = bernoulli(rng, np.full((3, 4, params.n_out), 0.5))
        weights = np.array([1.0, -0.5, 2.0])
        grads = params.split(
            score_grads(*replay(params, inputs, bits), params.kernel_ff, eps, weights))
        fd = fd_grads(params, lambda p: _log_likelihood(p, inputs, bits, eps, weights))
        for field in ENCODER_FIELDS:
            scale = max(np.abs(fd[field]).max(), 1.0)
            np.testing.assert_allclose(grads[field], fd[field], rtol=0, atol=1e-5 * scale)

    @pytest.mark.parametrize("n", [1, 16])
    @pytest.mark.parametrize("k", [1, 16])
    @pytest.mark.parametrize("taps", ["exponential", "negative", "mixed"])
    @pytest.mark.parametrize("window", [1, 2, 10, 25])
    def test_ff_row_equals_line_space_contraction(self, window, taps, k, n):
        # the adjoint filter then one matmul with the counts, against the
        # score contracted with the counts' input traces: the same
        # products in another order, each sum within gamma_m of the sum of
        # their magnitudes (m well under 1,000 roundings at T = 30), so
        # 1e-12 of that sum holds with room to spare
        steps, lines = 30, 40
        rng = np.random.default_rng(window * 100 + k + n)
        coeff = {"exponential": exponential_kernel(5.0, window).coefficients,
                 "negative": -rng.uniform(0.1, 1.0, window),
                 "mixed": rng.normal(0.0, 1.0, window)}[taps]
        params = init_encoder_params(lines, k, SeededRng(window).generator, kernel_ff=kernel(*coeff))
        counts = (rng.random((n, steps, lines)) < 0.2).astype(np.uint8)
        thresholds = spike_thresholds(rng.random((steps, n, k)), 0.1)
        run, _ = training_rollout(params, counts, thresholds)
        weights = rng.uniform(-1.0, 1.0, n)
        got = params.split(score_grads(run, counts, params.kernel_ff, 0.1, weights))
        expected = oracles.ff_score_line_space(run, counts, params.kernel_ff, 0.1, weights)
        score_u = grad_u_log_prob_noisy(run.bits, run.spike_probs, 0.1)
        magnitude = np.einsum("btk,btn->kn", np.abs(weights[:, None, None] * score_u),
                              filter_inputs(counts, kernel(*np.abs(coeff))))
        assert got["ff_weights"].shape == expected.shape == (k, lines)
        assert (np.abs(got["ff_weights"] - expected) <= 1e-12 * magnitude).all()

    def test_adjoint_is_the_transposed_matrix_product(self):
        # up to FILTER_BLOCK steps the adjoint filter is the transposed
        # filter matrix times the weighted score, one product, bit for bit:
        # criterion 10's trajectory rests on this float order.  Then each
        # active entry, in (record, step, line) order, adds its row's
        # adjoint score into its line's column, onto +0.0
        steps, lines, k, n = 30, 12, 4, 5
        rng = np.random.default_rng(3)
        params = init_encoder_params(lines, k, SeededRng(3).generator)
        counts = (rng.random((n, steps, lines)) < 0.2).astype(np.uint8)
        run, _ = training_rollout(params, counts, spike_thresholds(rng.random((steps, n, k)), 0.1))
        weights = rng.uniform(-1.0, 1.0, n)
        got = params.split(score_grads(run, counts, params.kernel_ff, 0.1, weights))
        score_u = grad_u_log_prob_noisy(run.bits, run.spike_probs, 0.1)
        adjoint = np.matmul(params.kernel_ff.matrix(steps).T, weights[:, None, None] * score_u)
        want = np.zeros((k, lines))
        for b, t, line in zip(*np.nonzero(counts)):
            want[:, line] += adjoint[b, t]
        assert np.array_equal(got["ff_weights"].view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("steps, window", [(65, 10), (200, 80)])
    def test_ff_row_at_blocked_lengths(self, steps, window):
        # past FILTER_BLOCK steps the adjoint adds the band's transpose
        # times each block of the score: against the line-space contraction
        # as above, with at most n * steps + taps = 680 roundings a sum
        lines, k, n = 20, 4, 3
        rng = np.random.default_rng(steps)
        params = init_encoder_params(lines, k, SeededRng(steps).generator,
                                     kernel_ff=exponential_kernel(5.0, window))
        counts = (rng.random((n, steps, lines)) < 0.2).astype(np.uint8)
        run, _ = training_rollout(params, counts, spike_thresholds(rng.random((steps, n, k)), 0.1))
        weights = rng.uniform(-1.0, 1.0, n)
        got = params.split(score_grads(run, counts, params.kernel_ff, 0.1, weights))
        expected = oracles.ff_score_line_space(run, counts, params.kernel_ff, 0.1, weights)
        score_u = grad_u_log_prob_noisy(run.bits, run.spike_probs, 0.1)
        magnitude = np.einsum("btk,btn->kn", np.abs(weights[:, None, None] * score_u),
                              filter_inputs(counts, params.kernel_ff))
        assert (np.abs(got["ff_weights"] - expected) <= 1e-12 * magnitude).all()

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
        grads = params.split(
            score_grads(*replay(params, inputs, bits), params.kernel_ff, 0.0, np.ones(1)))
        fd = fd_grads(params, lambda p: _log_likelihood(p, inputs, bits, 0.0, np.ones(1)))
        for field in ENCODER_FIELDS:
            np.testing.assert_allclose(grads[field], fd[field], atol=1e-6)
