"""Channel law: flips, marginalized statistics, normalization, and the
threshold sampler training runs, decision by decision against the plain
U < q sampler."""

import itertools
import math

import numpy as np
import pytest
from oracles import bernoulli, sample_noisy

from spikelink.channel import (
    log_prob_noisy,
    noisy_spike_prob,
    spike_thresholds,
    transmit,
)
from spikelink.config import ConfigError, RunConfig
from spikelink.numerics import SeededRng, sigmoid

# chi-square critical values at the 0.01 level, frozen from the inverse CDF
CHI2_99_DF3 = 11.344866730144373


class TestChannelConfig:
    """A run's channel point: RunConfig's construction checks and crossover()."""

    def test_exactly_one_source(self):
        with pytest.raises(ConfigError, match="exactly one"):
            RunConfig(epsilon=0.1, ebn0_db=0.0)
        with pytest.raises(ConfigError, match="exactly one"):
            RunConfig(epsilon=None)

    def test_epsilon_range(self):
        assert RunConfig(epsilon=0.5).crossover() == 0.5
        assert RunConfig(epsilon=0.0).crossover() == 0.0
        with pytest.raises(ConfigError, match="epsilon"):
            RunConfig(epsilon=0.51)
        with pytest.raises(ConfigError, match="epsilon"):
            RunConfig(epsilon=-0.01)

    def test_ebn0_resolution(self):
        cfg = RunConfig(epsilon=None, ebn0_db=0.0)
        assert cfg.crossover() == pytest.approx(0.0227501319481792072, rel=1e-12)
        assert RunConfig(epsilon=None, ebn0_db=float("-inf")).crossover() == 0.5


class TestTransmit:
    def test_identity_at_zero(self):
        bits = bernoulli(SeededRng(0).generator, np.full(500, 0.4))
        out = transmit(bits, 0.0, SeededRng(1).generator.random(bits.shape))
        np.testing.assert_array_equal(out, bits)

    def test_complement_at_one(self):
        bits = bernoulli(SeededRng(0).generator, np.full(500, 0.4))
        out = transmit(bits, 1.0, SeededRng(1).generator.random(bits.shape))
        np.testing.assert_array_equal(out, 1 - bits)

    def test_flip_rate_within_three_sigma(self):
        n = 1_000_000
        eps = 0.1
        bits = np.zeros(n, dtype=np.uint8)
        out = transmit(bits, eps, SeededRng(123).generator.random(n))
        rate = out.mean()
        sigma = math.sqrt(eps * (1 - eps) / n)
        assert abs(rate - eps) < 3 * sigma

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            transmit(np.zeros(3, dtype=np.uint8), 1.5, np.zeros(3))


class TestNoisySpikeProb:
    def test_printed_value(self):
        assert noisy_spike_prob(0.8, 0.1) == pytest.approx(0.74, rel=1e-15)

    def test_epsilon_zero_identity(self):
        ps = np.linspace(0, 1, 11)
        np.testing.assert_array_equal(noisy_spike_prob(ps, 0.0), ps)

    def test_half_epsilon_is_constant_half(self):
        ps = np.linspace(0, 1, 11)
        np.testing.assert_allclose(noisy_spike_prob(ps, 0.5), 0.5, rtol=0, atol=1e-16)

    def test_matches_two_term_marginalization_exactly(self):
        # sum over the transmitted bit z of P(z) * P(received = 1 | z),
        # computed term by term; equality must be exact, not approximate
        rng = np.random.default_rng(5)
        for p in rng.random(200):
            for eps in (0.0, 0.1, 0.25, 0.4, 0.5):
                direct = noisy_spike_prob(p, eps)
                marginal = p * (1.0 - eps) + (1.0 - p) * eps
                assert direct == marginal

    def test_range_bound(self):
        for eps in (0.0, 0.2, 0.5):
            qs = noisy_spike_prob(np.linspace(0, 1, 101), eps)
            assert qs.min() >= min(eps, 1 - eps)
            assert qs.max() <= max(eps, 1 - eps)


class TestLogProbNoisy:
    def test_reduces_to_clean_at_zero(self):
        rng = SeededRng(2).generator
        u = rng.normal(size=6)
        bits = bernoulli(rng, np.full(6, 0.5))
        p = sigmoid(u)
        clean = np.sum(bits * np.log(p) + (1 - bits) * np.log(1 - p))
        assert log_prob_noisy(bits, u, 0.0) == pytest.approx(clean, rel=1e-13)

    def test_sums_over_neurons_only(self):
        # a (samples, steps, neurons) batch gives one term per sample and step
        rng = SeededRng(3).generator
        u = rng.normal(size=(2, 3, 4))
        bits = bernoulli(rng, np.full((2, 3, 4), 0.5))
        for eps in (0.0, 0.2):
            got = log_prob_noisy(bits, u, eps)
            assert got.shape == (2, 3)
            for index in np.ndindex(2, 3):
                assert got[index] == log_prob_noisy(bits[index], u[index], eps)

    def test_single_bit_value(self):
        # u = 0, eps = 0.1: marginal spike probability is exactly 0.5
        assert log_prob_noisy(np.array([1]), np.array([0.0]), 0.1) == pytest.approx(
            math.log(0.5), rel=1e-15
        )

    def test_clean_log_prob_frozen_value(self):
        # sigmoid(ln 3) = 0.75 exactly; frozen log(0.75)
        u = np.array([math.log(3.0)])
        assert log_prob_noisy(np.array([1]), u, 0.0) == pytest.approx(
            -0.28768207245178092744, rel=1e-14
        )

    def test_saturated_potentials_stay_finite(self):
        u = np.array([750.0, -750.0])
        bits = np.array([0, 1])
        assert math.isfinite(log_prob_noisy(bits, u, 0.0))
        assert math.isfinite(log_prob_noisy(bits, u, 0.3))

    @pytest.mark.parametrize("eps", [0.0, 0.1, 0.25, 0.4])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_normalization_over_all_outcomes(self, eps, k):
        rng = np.random.default_rng(17)
        for _ in range(5):
            u = rng.normal(scale=2.0, size=k)
            total = sum(
                math.exp(log_prob_noisy(np.array(bits), u, eps))
                for bits in itertools.product((0, 1), repeat=k)
            )
            assert total == pytest.approx(1.0, abs=1e-12)


class TestSampleNoisy:
    def test_extreme_potentials_at_zero_epsilon(self):
        rng = SeededRng(3).generator
        u = np.array([1e6, -1e6])
        out = sample_noisy(sigmoid(u), 0.0, rng.random(np.shape(u)))
        np.testing.assert_array_equal(out, [1, 0])

    def test_epsilon_half_is_fair_coin_regardless_of_u(self):
        rng = SeededRng(4).generator
        u = np.full(200_000, 50.0)
        draws = sample_noisy(sigmoid(u), 0.5, rng.random(np.shape(u)))
        assert abs(draws.mean() - 0.5) < 5 * math.sqrt(0.25 / 200_000)

    def test_matches_two_stage_law_chi_square(self):
        # k = 2, u = (0, 1), eps = 0.2: compare empirical outcome counts of
        # the direct draw against sample-then-flip, 1e5 draws each
        n = 100_000
        u = np.array([0.0, 1.0])
        eps = 0.2
        direct = sample_noisy(np.tile(sigmoid(u), (n, 1)), eps, SeededRng(100).generator.random((n, 2)))
        stage_rng = SeededRng(200).generator
        spikes = bernoulli(stage_rng, np.tile(sigmoid(u), (n, 1)))
        staged = transmit(spikes, eps, stage_rng.random(spikes.shape))
        codes = direct[:, 0] * 2 + direct[:, 1]
        codes2 = staged[:, 0] * 2 + staged[:, 1]
        obs1 = np.bincount(codes, minlength=4).astype(float)
        obs2 = np.bincount(codes2, minlength=4).astype(float)
        # two-sample homogeneity chi-square, 3 degrees of freedom
        pooled = (obs1 + obs2) / (2 * n)
        stat = np.sum((obs1 - n * pooled) ** 2 / (n * pooled)) + np.sum(
            (obs2 - n * pooled) ** 2 / (n * pooled)
        )
        assert stat < CHI2_99_DF3


# crossover points the threshold sampler is pinned at: clean, the default
# training point, and just below the half where the law stops depending on u
THRESHOLD_EPSILONS = (0.0, 0.1, 0.4999)
EDGE_POTENTIALS = (40.0, -40.0, 800.0, -800.0, math.inf, -math.inf, math.nan)
# (eps, U, u) edge pairs whose threshold decision differs from U < q
EDGE_EXCEPTIONS = {
    # sigmoid(-800) underflows to 0, so U < q reads 0 < 0; the threshold
    # -inf keeps the exact q > 0
    (0.0, 0.0, -800.0): "sigmoid underflows",
    # eps + (1 - 2*eps) * sigmoid(u) rounds onto eps, so U < q reads
    # eps < eps; the exact q exceeds eps
    **{(eps, eps, u): "q rounds onto eps" for eps in (0.1, 0.4999) for u in (-40.0, -800.0)},
    # a threshold of -inf cannot lie below u = -inf; no finite weights and
    # inputs make that potential
    **{(eps, 0.0, -math.inf): "u = -inf" for eps in (0.1, 0.4999)},
}


def _decisions(u, eps, uniforms):
    """(threshold bits, reference U < q bits) of potentials u."""
    return u > spike_thresholds(uniforms, eps), sample_noisy(sigmoid(u), eps, uniforms) == 1


class TestSpikeThresholds:
    """A bit is 1 where u exceeds its threshold: the event U < q, decided
    the same as the plain sampler except within float rounding of q."""

    def test_shape_and_infinite_ends(self):
        uniforms = np.array([[0.0, 0.05, 0.1], [0.5, 0.9, np.nextafter(1.0, 0.0)]])
        got = spike_thresholds(uniforms, 0.1)
        assert got.shape == uniforms.shape
        np.testing.assert_array_equal(got[0, :2], -np.inf)
        np.testing.assert_array_equal(got[1, 1:], np.inf)
        assert got[1, 0] == 0.0
        assert spike_thresholds(0.25, 0.0) == pytest.approx(math.log(1.0 / 3.0), rel=1e-15)
        with pytest.raises(ValueError, match="crossover"):
            spike_thresholds(uniforms, 0.6)

    @pytest.mark.parametrize("eps", THRESHOLD_EPSILONS)
    def test_random_pairs_agree_with_reference(self, eps):
        # 10^6 pairs, potentials at scales 1, 5 and 40: no decision differs
        rng = SeededRng(41).generator
        n = 1_000_000
        scale = np.array([1.0, 5.0, 40.0])[rng.integers(0, 3, n)]
        u = rng.normal(size=n) * scale
        bits, reference = _decisions(u, eps, rng.random(n))
        assert np.count_nonzero(bits != reference) == 0
        assert 0 < np.count_nonzero(bits) < n

    @pytest.mark.parametrize("eps", THRESHOLD_EPSILONS)
    def test_edge_values_match_or_are_listed(self, eps):
        edges = (0.0, eps, np.nextafter(eps, 1.0), 0.5, np.nextafter(1.0 - eps, 0.0),
                 1.0 - eps, np.nextafter(1.0, 0.0))
        uniforms, u = (np.array(a).ravel() for a in np.meshgrid(edges, EDGE_POTENTIALS))
        bits, reference = _decisions(u, eps, uniforms)
        differ = {(eps, float(a), float(b)) for a, b in zip(uniforms[bits != reference],
                                                            u[bits != reference])}
        assert differ == {key for key in EDGE_EXCEPTIONS if key[0] == eps}

    @pytest.mark.parametrize("eps", THRESHOLD_EPSILONS)
    def test_disagreement_only_within_rounding_of_q(self, eps):
        # uniforms j ulps of q either side of it, |j| <= 64: a decision may
        # differ only within 2 ulps of q, widened at eps = 0 by the
        # potential's own rounding to 2 * (1 + |u|) ulps, since q is then
        # sigmoid(u) itself and may be as small as 1e-18
        rng = SeededRng(42).generator
        u = np.clip(rng.normal(scale=10.0, size=2000), -40.0, 40.0)
        q = noisy_spike_prob(sigmoid(u), eps)
        j = np.arange(-64, 65)[:, None]
        uniforms = q + j * np.spacing(q)
        inside = (uniforms >= 0.0) & (uniforms < 1.0)
        bits, reference = _decisions(u, eps, np.where(inside, uniforms, 0.5))
        differ = (bits != reference) & inside
        band = 2.0 * (1.0 + np.abs(u)) if eps == 0.0 else np.full_like(u, 2.0)
        assert np.count_nonzero(differ) > 0
        assert np.all(np.abs(np.broadcast_to(j, differ.shape)[differ])
                      <= np.broadcast_to(band, differ.shape)[differ])
