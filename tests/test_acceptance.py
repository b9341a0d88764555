"""Acceptance gate: ten behavioral criteria at pinned tolerances.

Each criterion is one test that prints a single `[criterion N] PASS/FAIL`
line with the measured numbers (visible live in the terminal even under
pytest's capture).  Property criteria 1-6 are exact-oracle checks:
enumeration, finite differences, and frozen statistical bounds.  Criteria
7-10 run the desk-scale experiments with every seed and protocol pinned,
so they are deterministic end to end; tools/criteria.py holds their
protocols and pass rules, which tools/same_law.py shares.
"""

import contextlib
import itertools
import math
import time
from dataclasses import asdict

import criteria
import numpy as np
import pytest
from oracles import (
    ENCODER_FIELDS,
    all_sequences,
    bernoulli,
    expected_objective,
    fd_grads,
    kernel,
    log_likelihood,
    replay,
    sample_losses,
    training_rollout,
)
from same_outputs import write_config

from spikelink import cli
from spikelink.channel import log_prob_noisy, noisy_spike_prob, spike_thresholds, transmit
from spikelink.config import RunConfig
from spikelink.decoder import (
    DecoderParams,
    backward_batch,
    forward_batch,
    init_decoder_params,
    losses_from_logits_batch,
)
from spikelink.encoder import EncoderParams, grad_u_log_prob_noisy, score_grads
from spikelink.numerics import SeededRng, sigmoid
from spikelink.training import PriorModel, regularizer

EPSILON_SET = (0.0, 0.1, 0.25, 0.4)

# chi-square 0.99 quantile, 3 degrees of freedom (frozen table value)
CHI2_99_DF3 = 11.344866730144373


@contextlib.contextmanager
def _report(capsys, number, label):
    info = {"detail": ""}
    verdict = "FAIL"
    try:
        yield info
        verdict = "PASS"
    finally:
        suffix = f": {info['detail']}" if info["detail"] else ""
        with capsys.disabled():
            print(f"[criterion {number:2d}] {verdict} {label}{suffix}")


# ---------------------------------------------------------------------------
# shared small-instance helpers


def _small_encoder(k, n_in, seed):
    rng = SeededRng(seed).generator
    return EncoderParams(
        ff_weights=rng.uniform(-0.9, 0.9, (k, n_in)),
        fb_weights=rng.uniform(-1.1, -0.2, k),
        bias=rng.uniform(-0.4, 0.4, k),
        kernel_ff=kernel(1.0, 0.5),
        kernel_fb=kernel(1.0, 0.7, 0.3),
    )


# ---------------------------------------------------------------------------
# property criteria


def test_criterion_01_channel_marginal_correctness(capsys):
    with _report(capsys, 1, "channel marginal normalizes; two-term form exact") as info:
        started = time.perf_counter()
        rng = np.random.default_rng(101)
        worst = 0.0
        for k in (1, 2, 3):
            for eps in EPSILON_SET:
                for _ in range(6):
                    u = np.concatenate(
                        [rng.normal(scale=3.0, size=k - 1), [rng.choice([-20.0, 20.0])]]
                    )[:k]
                    total = sum(
                        math.exp(log_prob_noisy(np.array(bits), u, eps))
                        for bits in itertools.product((0, 1), repeat=k)
                    )
                    worst = max(worst, abs(total - 1.0))
                    assert abs(total - 1.0) <= 1e-12
        for p in rng.random(500):
            for eps in EPSILON_SET:
                assert noisy_spike_prob(p, eps) == p * (1.0 - eps) + (1.0 - p) * eps
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0
        info["detail"] = f"max |sum-1| {worst:.2e}, {elapsed:.2f}s"


def test_criterion_02_gradient_closed_forms(capsys):
    with _report(capsys, 2, "score and decoder gradients match finite differences") as info:
        started = time.perf_counter()
        # part 1: d/du of the marginalized log-likelihood, 1e-7 absolute
        rng = np.random.default_rng(202)
        h = 1e-5
        worst_u = 0.0
        for eps in EPSILON_SET:
            for zhat in (0.0, 1.0):
                for u0 in np.concatenate([rng.normal(scale=3.0, size=20), [-20.0, 20.0]]):
                    s = sigmoid(np.array([u0]))
                    grad = grad_u_log_prob_noisy(np.array([zhat]), s, eps)[0]
                    hi = log_prob_noisy(np.array([zhat]), np.array([u0 + h]), eps)
                    lo = log_prob_noisy(np.array([zhat]), np.array([u0 - h]), eps)
                    fd = (hi - lo) / (2 * h)
                    worst_u = max(worst_u, abs(grad - fd))
                    assert abs(grad - fd) <= 1e-7

        # part 2: decoder backward on k=2, T=2, C=2, hidden 3; 100 draws,
        # 1e-6 relative against central differences of the logit-form loss
        worst_dec = 0.0
        for draw in range(100):
            root = SeededRng(4000 + draw)
            params = init_decoder_params(4, 2, root.substream("p").generator, hidden_dim=3)
            xs = root.substream("x").generator
            x = bernoulli(xs, np.full(4, 0.5)).astype(np.float64)
            while not x.any():
                # all-zero input with zero biases parks every ReLU exactly at
                # its kink, where central differences are ill-defined
                x = bernoulli(xs, np.full(4, 0.5)).astype(np.float64)
            label = int(root.substream("y").generator.integers(0, 2))
            pre, hidden, _, probs = forward_batch(params, x[None])
            grads = params.split(
                backward_batch(params, x[None], pre, hidden, probs, np.array([label])))
            for field in ("w1", "b1", "w2", "b2"):
                base = getattr(params, field)
                fd = np.zeros_like(base)
                for index in np.ndindex(base.shape):
                    vals = []
                    for sign in (1.0, -1.0):
                        arrays = {
                            f: getattr(params, f).copy() for f in ("w1", "b1", "w2", "b2")
                        }
                        arrays[field][index] += sign * 1e-6
                        p = DecoderParams(output=params.output, **arrays)
                        _, _, logits, _ = forward_batch(p, x[None])
                        vals.append(losses_from_logits_batch(p, logits, np.array([label]))[0])
                    fd[index] = (vals[0] - vals[1]) / 2e-6
                scale = max(np.abs(fd).max(), 1e-12)
                rel = np.abs(grads[field] - fd).max() / scale
                worst_dec = max(worst_dec, rel)
                assert rel <= 1e-6
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0
        info["detail"] = (
            f"max |d_u err| {worst_u:.2e}, max decoder rel err {worst_dec:.2e}, "
            f"{elapsed:.1f}s"
        )


def test_criterion_03_score_function_unbiasedness(capsys):
    with _report(capsys, 3, "estimator mean equals true gradient; MC within 3 SE") as info:
        started = time.perf_counter()
        beta = 0.05
        prior = PriorModel(0.3)
        label = 1
        worst = 0.0
        # exact part: enumeration expectation vs finite differences of the
        # exact expected objective, on instances with k*T <= 6
        instances = (
            (1, 3, 2, 0.0, 31),
            (1, 3, 2, 0.2, 32),
            (2, 2, 2, 0.1, 33),
            (1, 4, 1, 0.3, 34),
        )
        for k, T, n_in, eps, seed in instances:
            params = _small_encoder(k, n_in, seed)
            decoder = init_decoder_params(k * T, 2, SeededRng(seed + 1).generator, hidden_dim=3)
            inputs = bernoulli(SeededRng(seed + 2).generator, np.full((T, n_in), 0.5))
            run, counts = replay(params, inputs, all_sequences(T, k))
            f = sample_losses(decoder, run, eps, beta, label, prior)
            expected = params.split(score_grads(
                run, counts, params.kernel_ff, eps, np.exp(log_likelihood(run, eps)) * f))
            fd = fd_grads(
                params,
                lambda moved: expected_objective(moved, decoder, inputs, eps, beta, label, prior),
                1e-5,
            )
            for field in ENCODER_FIELDS:
                err = np.abs(expected[field] - fd[field]).max()
                worst = max(worst, err)
                assert err <= 1e-6

        # Monte Carlo part: 1e5 single-draw estimates on one instance, each
        # field entry within 3 exact standard errors of the enumerated mean
        k, T, n_in, eps, seed = 1, 3, 2, 0.1, 31
        params = _small_encoder(k, n_in, seed)
        decoder = init_decoder_params(k * T, 2, SeededRng(seed + 1).generator, hidden_dim=3)
        inputs = bernoulli(SeededRng(seed + 2).generator, np.full((T, n_in), 0.5))
        run, counts = replay(params, inputs, all_sequences(T, k))
        p = np.exp(log_likelihood(run, eps))
        f = sample_losses(decoder, run, eps, beta, label, prior)
        per_sequence = [params.split(score_grads(run, counts, params.kernel_ff, eps,
                                                 f * (np.arange(len(f)) == i)))
                        for i in range(len(f))]

        # the training path on 1e5 copies of the instance, one batch: the
        # sampler, the noisy rollout, the decoder loss, the rate term, the
        # contraction
        draws = 100_000
        thresholds = spike_thresholds(SeededRng(775).generator.random((T, draws, k)), eps)
        mc, mc_counts = training_rollout(params, np.repeat(inputs[None], draws, axis=0),
                                         thresholds)
        mean = params.split(score_grads(mc, mc_counts, params.kernel_ff, eps,
                                        sample_losses(decoder, mc, eps, beta, label, prior) / draws))

        worst_z = 0.0
        for field in ENCODER_FIELDS:
            g = np.array([grads[field] for grads in per_sequence])
            exact = np.tensordot(p, g, axes=1)
            var = np.tensordot(p, g**2, axes=1) - exact**2
            se = np.sqrt(np.maximum(var, 1e-300) / draws)
            z = np.abs(mean[field] - exact) / se
            worst_z = max(worst_z, float(z.max()))
            assert (z <= 3.0).all()
        elapsed = time.perf_counter() - started
        assert elapsed < 60.0
        info["detail"] = (
            f"max |E[grad] - FD| {worst:.2e}, max MC z-score {worst_z:.2f}, "
            f"{elapsed:.1f}s"
        )


def test_criterion_04_sequence_log_likelihood_gradient(capsys):
    with _report(capsys, 4, "accumulated score equals sequence log-likelihood FD") as info:
        worst = 0.0
        instances = (
            (1, 1, 4, 0.0, 51),
            (2, 3, 4, 0.1, 52),
            (2, 2, 3, 0.3, 53),
        )
        h = 1e-6
        for k, n_in, T, eps, seed in instances:
            params = _small_encoder(k, n_in, seed)
            rng = SeededRng(seed + 10).generator
            inputs = bernoulli(rng, np.full((T, n_in), 0.6))
            zhat = bernoulli(rng, np.full((1, T, k), 0.5))
            score = params.split(
                score_grads(*replay(params, inputs, zhat), params.kernel_ff, eps, np.ones(1)))
            fd = fd_grads(
                params, lambda moved: log_likelihood(replay(moved, inputs, zhat)[0], eps)[0], h
            )
            for field in ENCODER_FIELDS:
                scale = max(np.abs(fd[field]).max(), 1e-12)
                rel = np.abs(score[field] - fd[field]).max() / scale
                worst = max(worst, rel)
                assert rel <= 1e-5
        info["detail"] = f"max relative error {worst:.2e}"


def test_criterion_05_channel_statistics(capsys):
    with _report(capsys, 5, "flip rate within 3 sigma; direct draw matches two-stage") as info:
        n = 1_000_000
        eps = 0.1
        bits = np.zeros(n, dtype=np.uint8)
        flipped = transmit(bits, eps, SeededRng(612).generator.random(n))
        rate = float(flipped.mean())
        sigma = math.sqrt(eps * (1 - eps) / n)
        assert abs(rate - eps) <= 3 * sigma

        draws = 100_000
        u = np.array([0.0, 1.0])
        eps2 = 0.2
        # the sampler training runs: a bit is 1 where u exceeds its threshold
        direct = (u > spike_thresholds(SeededRng(613).generator.random((draws, 2)), eps2)).view(np.uint8)
        staged_rng = SeededRng(614).generator
        spikes = bernoulli(staged_rng, np.tile(sigmoid(u), (draws, 1)))
        staged = transmit(spikes, eps2, staged_rng.random(spikes.shape))
        obs1 = np.bincount(direct[:, 0] * 2 + direct[:, 1], minlength=4).astype(float)
        obs2 = np.bincount(staged[:, 0] * 2 + staged[:, 1], minlength=4).astype(float)
        pooled = (obs1 + obs2) / (2 * draws)
        stat = float(
            np.sum((obs1 - draws * pooled) ** 2 / (draws * pooled))
            + np.sum((obs2 - draws * pooled) ** 2 / (draws * pooled))
        )
        assert stat < CHI2_99_DF3
        info["detail"] = (
            f"flip rate {rate:.5f} (3s band {3 * sigma:.5f}), chi2 {stat:.2f} "
            f"< {CHI2_99_DF3:.2f}"
        )


def test_criterion_06_kl_nonnegativity(capsys):
    with _report(capsys, 6, "enumerated E[rate term] is a KL, >= -1e-12") as info:
        prior = PriorModel(0.3)
        lowest = math.inf
        for k, T, n_in, seed in ((1, 3, 2, 71), (2, 2, 2, 72), (1, 4, 1, 73)):
            params = _small_encoder(k, n_in, seed)
            inputs = bernoulli(SeededRng(seed + 5).generator, np.full((T, n_in), 0.5))
            run, _ = replay(params, inputs, all_sequences(T, k))
            for eps in EPSILON_SET:
                p = np.exp(log_likelihood(run, eps))
                norm = p.sum()
                kl = p @ regularizer(run.bits, run.potentials, eps, prior)
                assert abs(norm - 1.0) <= 1e-12
                lowest = min(lowest, kl)
                assert kl >= -1e-12
        info["detail"] = f"smallest enumerated KL {lowest:.3e}"


# ---------------------------------------------------------------------------
# desk-scale behavioral criteria


class _Reached(Exception):
    pass


class _StopAtBound(list):
    """Rows that end cli._train_run's loop once one reaches criterion 7's
    bound: the rest of the run cannot change its verdict."""

    def append(self, row):
        super().append(row)
        if row.error_rate <= criteria.C7_ERROR:
            raise _Reached


def _cli_rows(tmp_path, number):
    """The metrics rows of criterion `number`'s protocol at seed 0, run
    through cli.main in process."""
    flags, config, _ = criteria.PROTOCOLS[number]
    cfg_path = write_config(tmp_path, {**config, "seed": 0})
    assert cli.main([*flags, "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
    return criteria.read_rows(tmp_path / "metrics.csv")


def test_criterion_07_toy_convergence(capsys):
    with _report(capsys, 7, "default 4-class task, <=10% error within 30 epochs, 9/10 seeds") as info:
        started = time.perf_counter()
        reached = 0
        finals = []
        for seed in range(10):
            cfg = RunConfig(seed=seed)
            rows = _StopAtBound()
            with contextlib.suppress(_Reached):
                cli._train_run(cfg, cli._build_dataset(cfg), "train", 0, rows)
            numbers, passed = criteria.convergence([asdict(row) for row in rows])
            finals.append(numbers["best error"])
            reached += passed
        elapsed = time.perf_counter() - started
        info["detail"] = f"{reached}/10 seeds converged, best errors {finals}, {elapsed:.0f}s"
        assert reached >= 9
        assert elapsed < 300.0


def test_criterion_08_snr_sweep_shape(capsys, tmp_path):
    with _report(capsys, 8, "error non-increasing in Eb/N0; chance at epsilon 0.5") as info:
        numbers, passed = criteria.snr_sweep(_cli_rows(tmp_path, 8))
        errors = list(numbers.values())
        info["detail"] = (
            "errors " + " ".join(f"{e:.3f}" for e in errors)
            + f" over {len(errors)} points, "
            f"chance point {errors[0]:.3f} vs {criteria.CHANCE:.2f}"
        )
        assert passed


def test_criterion_09_mismatch_robustness(capsys, tmp_path):
    with _report(capsys, 9, "one grid step of train/test mismatch costs <= 5 points") as info:
        numbers, passed = criteria.mismatch(_cli_rows(tmp_path, 9))
        low, trained, high = numbers.values()
        points = "/".join(name.split()[1] for name in numbers)
        info["detail"] = (
            f"err at {points} = {low:.3f}/{trained:.3f}/{high:.3f}, "
            f"worst degradation {max(low - trained, high - trained):+.3f}"
        )
        assert passed


def test_criterion_10_sparsity_tradeoff(capsys, tmp_path):
    with _report(capsys, 10, "spike rate non-increasing in beta; accuracy within 3 points") as info:
        numbers, passed = criteria.sparsity(_cli_rows(tmp_path, 10))
        rates = [v for name, v in numbers.items() if name.startswith("rate")]
        errors = [v for name, v in numbers.items() if name.startswith("error")]
        info["detail"] = (
            "rates " + "/".join(f"{r:.3f}" for r in rates)
            + ", errors " + "/".join(f"{e:.3f}" for e in errors)
            + f", spread {max(errors) - min(errors):.3f}"
        )
        assert passed


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v"]))
