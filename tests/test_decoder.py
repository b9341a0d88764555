"""Decoder: forward chain, losses, exact backward against finite differences.

Every check runs the batched functions; a single buffer is a batch of one.
"""

import math

import numpy as np
import pytest
from oracles import bernoulli

from spikelink.decoder import (
    DecoderParams,
    backward_batch,
    forward_batch,
    init_decoder_params,
    losses_from_logits_batch,
)
from spikelink.encoder import init_encoder_params
from spikelink.numerics import SeededRng, sigmoid
from spikelink.training import evaluate_grid

FIELDS = ("w1", "b1", "w2", "b2")


def _params(input_dim=4, hidden=3, classes=2, seed=0, output="sigmoid"):
    return init_decoder_params(
        input_dim, classes, SeededRng(seed), hidden_dim=hidden, output=output
    )


def _loss(params, x, label):
    _, _, logits, _ = forward_batch(params, x[None])
    return float(losses_from_logits_batch(params, logits, np.array([label]))[0])


def _grads(params, x, labels):
    """backward_batch's gradient vector, split into params' named views."""
    pre, hidden, _, probs = forward_batch(params, x)
    return params.split(backward_batch(params, x, pre, hidden, probs, np.asarray(labels)))


class TestParamsAndBuffer:
    def test_shape_chaining_enforced(self):
        with pytest.raises(ValueError):
            DecoderParams(
                w1=np.zeros((3, 4)), b1=np.zeros(2), w2=np.zeros((2, 3)), b2=np.zeros(2)
            )
        with pytest.raises(ValueError):
            DecoderParams(
                w1=np.zeros((3, 4)), b1=np.zeros(3), w2=np.zeros((2, 5)), b2=np.zeros(2)
            )
        with pytest.raises(ValueError):
            DecoderParams(
                w1=np.zeros((3, 4)),
                b1=np.zeros(3),
                w2=np.zeros((2, 3)),
                b2=np.zeros(2),
                output="tanh",
            )

    def test_init_bounds_and_bias(self):
        params = _params(input_dim=10, hidden=6, classes=4)
        r1 = math.sqrt(6.0 / 16)
        r2 = math.sqrt(6.0 / 10)
        assert np.abs(params.w1).max() <= r1
        assert np.abs(params.w2).max() <= r2
        assert params.b1.sum() == 0.0 and params.b2.sum() == 0.0


class TestForward:
    def test_hand_computed_chain(self):
        # w1 = [[1, -1], [0, 2]], b1 = (0.5, -1), x = (1, 1)
        # pre = (0.5, 1), hidden = (0.5, 1), logits = 1*0.5 - 1*1 + 0.25 = -0.25
        params = DecoderParams(
            w1=np.array([[1.0, -1.0], [0.0, 2.0]]),
            b1=np.array([0.5, -1.0]),
            w2=np.array([[1.0, -1.0]]),
            b2=np.array([0.25]),
        )
        pre, hidden, logits, probs = forward_batch(params, np.array([[1.0, 1.0]]))
        np.testing.assert_allclose(pre, [[0.5, 1.0]])
        np.testing.assert_allclose(hidden, [[0.5, 1.0]])
        np.testing.assert_allclose(logits, [[-0.25]])
        np.testing.assert_allclose(probs, sigmoid(np.array([[-0.25]])))

    def test_relu_clamps_negative_preactivation(self):
        params = DecoderParams(
            w1=np.array([[-2.0]]), b1=np.array([0.0]),
            w2=np.array([[3.0]]), b2=np.array([0.0]),
        )
        pre, hidden, logits, _ = forward_batch(params, np.array([[1.0]]))
        assert pre[0, 0] == -2.0
        assert hidden[0, 0] == 0.0
        np.testing.assert_allclose(logits, [[0.0]])

    def test_rejects_wrong_width(self):
        with pytest.raises(ValueError):
            forward_batch(_params(input_dim=6), np.zeros((1, 5)))

    def test_softmax_head_normalizes(self):
        params = _params(classes=3, output="softmax")
        _, _, _, probs = forward_batch(params, np.ones((1, 4)))
        assert probs.sum() == pytest.approx(1.0, rel=1e-12)
        assert (probs > 0).all()


class TestLosses:
    def test_sigmoid_loss_hand_value(self):
        # logits (ln 3, -ln 3) give probs (0.75, 0.25); label 0:
        # -log 0.75 - log 0.75 = 2 * 0.2876820...
        logits = np.array([[math.log(3.0), -math.log(3.0)]])
        loss = losses_from_logits_batch(_params(), logits, np.array([0]))[0]
        assert loss == pytest.approx(2 * 0.28768207245178092744, rel=1e-13)

    def test_softmax_loss_hand_value(self):
        logits = np.log(np.array([[0.25, 0.5, 0.25]]))
        loss = losses_from_logits_batch(_params(output="softmax"), logits, np.array([1]))[0]
        assert loss == pytest.approx(math.log(2.0), rel=1e-13)

    def test_logit_form_matches_probability_form(self):
        rng = SeededRng(4)
        logits = rng.generator.normal(size=(5, 5))
        labels = np.arange(5)
        onehot = np.eye(5)
        for output in ("sigmoid", "softmax"):
            got = losses_from_logits_batch(_params(output=output), logits, labels)
            if output == "softmax":
                ex = np.exp(logits - logits.max(axis=1, keepdims=True))
                expected = -np.log((ex / ex.sum(axis=1, keepdims=True))[labels, labels])
            else:
                p = sigmoid(logits)
                expected = -np.sum(onehot * np.log(p) + (1 - onehot) * np.log1p(-p), axis=1)
            np.testing.assert_allclose(got, expected, rtol=1e-10)

    def test_logit_form_survives_saturation(self):
        logits = np.array([[800.0, -800.0], [800.0, -800.0]])
        labels = np.array([0, 1])
        assert np.isfinite(losses_from_logits_batch(_params(), logits, labels)).all()
        assert np.isfinite(
            losses_from_logits_batch(_params(output="softmax"), logits, labels)
        ).all()

    def test_label_bounds(self):
        with pytest.raises(IndexError):
            losses_from_logits_batch(_params(), np.zeros((1, 2)), np.array([2]))

    def test_predict_tie_goes_low(self):
        # evaluation predicts the argmax; an all-zero decoder scores every
        # class alike, so every sample goes to class 0 and the error is the
        # share of other labels
        inputs = bernoulli(SeededRng(1), np.full((16, 5, 3), 0.5))
        encoder = init_encoder_params(3, 2, SeededRng(2))
        flat = DecoderParams(
            w1=np.zeros((4, 10)), b1=np.zeros(4), w2=np.zeros((3, 4)), b2=np.zeros(3)
        )
        labels = np.arange(16) % 3
        [(err, _)] = evaluate_grid(encoder, flat, inputs, labels, [0.1], seed=0)
        assert err == np.mean(labels != 0)


def _fd_decoder_grads(params, x, label, h=1e-6):
    out = {}
    for field in FIELDS:
        base = getattr(params, field)
        grad = np.zeros_like(base)
        for index in np.ndindex(base.shape):
            for sign in (1.0, -1.0):
                arrays = {k: getattr(params, k).copy() for k in FIELDS}
                arrays[field][index] += sign * h
                p = DecoderParams(output=params.output, **arrays)
                grad[index] += sign * _loss(p, x, label) / (2 * h)
        out[field] = grad
    return out


class TestBackward:
    @pytest.mark.parametrize("output", ["sigmoid", "softmax"])
    @pytest.mark.parametrize("label", [0, 1])
    def test_matches_finite_difference(self, output, label):
        # hidden 3, 2 classes, binary input of width 4; 1e-6 relative
        params = _params(input_dim=4, hidden=3, classes=2, seed=7, output=output)
        x = np.array([1.0, 0.0, 1.0, 1.0])
        grads = _grads(params, x[None], [label])
        fd = _fd_decoder_grads(params, x, label)
        for field in FIELDS:
            scale = max(np.abs(fd[field]).max(), 1e-12)
            np.testing.assert_allclose(
                grads[field], fd[field], rtol=0, atol=1e-6 * scale
            )

    def test_relu_gate_blocks_gradient(self):
        # negative pre-activation must zero the first-layer gradient
        params = DecoderParams(
            w1=np.array([[-3.0]]), b1=np.array([0.0]),
            w2=np.array([[2.0]]), b2=np.array([0.0]),
        )
        grads = _grads(params, np.array([[1.0]]), [0])
        assert grads["w1"][0, 0] == 0.0
        assert grads["b1"][0] == 0.0
        assert grads["w2"][0, 0] == 0.0  # hidden is 0, so w2 grad is 0 too
        assert grads["b2"][0] != 0.0

    def test_batched_forward_matches_reference(self):
        # each row of a batch equals that row run alone
        params = _params(input_dim=6, hidden=4, classes=3, seed=2)
        x = bernoulli(SeededRng(8), np.full((5, 6), 0.5)).astype(np.float64)
        batch = forward_batch(params, x)
        for i in range(5):
            for got, alone in zip(batch, forward_batch(params, x[i : i + 1])):
                np.testing.assert_allclose(got[i], alone[0], rtol=1e-14)

    def test_batched_losses_match_reference(self):
        # per-row loss against the probability form written out row by row
        params = _params(input_dim=6, hidden=4, classes=3, seed=2)
        x = bernoulli(SeededRng(9), np.full((5, 6), 0.5)).astype(np.float64)
        labels = np.array([0, 1, 2, 1, 0])
        _, _, logits, probs = forward_batch(params, x)
        batch = losses_from_logits_batch(params, logits, labels)
        for i in range(5):
            others = np.delete(probs[i], labels[i])
            ref = -math.log(probs[i, labels[i]]) - np.log1p(-others).sum()
            assert batch[i] == pytest.approx(ref, rel=1e-13)

    def test_batched_backward_is_mean_of_reference(self):
        params = _params(input_dim=6, hidden=4, classes=3, seed=3)
        x = bernoulli(SeededRng(10), np.full((4, 6), 0.5)).astype(np.float64)
        labels = np.array([2, 0, 1, 1])
        batch = _grads(params, x, labels)
        singles = [_grads(params, x[i : i + 1], labels[i : i + 1]) for i in range(4)]
        for field in FIELDS:
            mean = sum(g[field] for g in singles) / 4.0
            np.testing.assert_allclose(batch[field], mean, atol=1e-14)
